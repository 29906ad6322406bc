"""repro.service — the analysis server and its client.

``repro.api`` over the wire: a stdlib-only asyncio HTTP server
(``python -m repro serve``) whose request broker coalesces identical
in-flight requests, batches cold work onto the experiment runner,
sheds load with HTTP 429 when saturated, and drains gracefully on
SIGTERM.  See docs/service.md for the architecture, the endpoint
contract and the operational story; ``benchmarks/bench_service.py``
measures it.

Layering: protocol (wire format) → broker (scheduling) → server
(HTTP) / client (blocking caller side).  The broker reuses the
runner's stores and fault plumbing — the service adds no
second cache or execution path.
"""

from repro.service.broker import (
    AnalysisBroker,
    BrokerClosed,
    BrokerConfig,
    JobError,
    Overloaded,
)
from repro.service.fleet import (
    CircuitBreaker,
    FleetClient,
    FleetConfig,
    FleetSupervisor,
    HashRing,
    run_fleet_chaos,
)
from repro.service.client import (
    RequestFailed,
    ServiceClient,
    ServiceError,
    ServiceResponse,
    ServiceUnavailable,
)
from repro.service.protocol import (
    ProtocolError,
    config_from_dict,
    config_to_dict,
    parse_analyze_request,
    parse_sweep_request,
    parse_tenant_header,
)
from repro.service.qos import (
    DEFAULT_TENANT,
    QosError,
    QosPolicy,
    QuotaExceeded,
    Tenant,
    TenantError,
    load_qos_policy,
)
from repro.service.server import (
    BackgroundServer,
    MAX_BODY,
    ServiceServer,
    run_server,
)

__all__ = [
    "AnalysisBroker",
    "BackgroundServer",
    "BrokerClosed",
    "BrokerConfig",
    "CircuitBreaker",
    "DEFAULT_TENANT",
    "FleetClient",
    "FleetConfig",
    "FleetSupervisor",
    "HashRing",
    "JobError",
    "MAX_BODY",
    "Overloaded",
    "ProtocolError",
    "QosError",
    "QosPolicy",
    "QuotaExceeded",
    "RequestFailed",
    "ServiceClient",
    "ServiceError",
    "ServiceResponse",
    "ServiceServer",
    "ServiceUnavailable",
    "Tenant",
    "TenantError",
    "config_from_dict",
    "config_to_dict",
    "load_qos_policy",
    "parse_analyze_request",
    "parse_sweep_request",
    "parse_tenant_header",
    "run_fleet_chaos",
    "run_server",
]
