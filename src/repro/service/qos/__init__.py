"""repro.service.qos — multi-tenant quality of service.

The QoS layer makes the analysis service safe to share: without it,
admission, queuing and shedding are tenant-blind, so one abusive
client can exhaust the cold queue and move every other client's p99.
Four pieces (docs/qos.md):

* **tenant identity** (:mod:`repro.service.qos.tenant`) — the
  ``X-Repro-Tenant`` request header parsed at the protocol trust
  boundary into a validated :class:`Tenant`; anonymous callers get
  :data:`DEFAULT_TENANT`;
* **quota admission** (:mod:`repro.service.qos.quota`) — per-tenant
  token buckets (rate + burst) and an in-flight cap, checked *before*
  the broker's global EWMA gate and shed with HTTP 429 carrying a
  per-tenant ``Retry-After``;
* **priority scheduling** (:mod:`repro.service.qos.scheduler`) — the
  broker's cold queue becomes weighted-fair deficit queues over the
  ``interactive`` / ``batch`` / ``background`` priority classes, so a
  saturating background tenant cannot starve interactive work;
* **attribution** (:mod:`repro.service.qos.attribution`) — per-tenant
  ``qos.*`` counters and phase rollups (queue wait, pool, simulate,
  analyze, store) exported via ``/metrics`` and rendered by
  ``python -m repro qos report``.

Policy is operator configuration, exactly like
:class:`~repro.runner.ExecutionPolicy`: a TOML/JSON file handed to
``repro serve --qos``; clients cannot set or override any of it
(:mod:`repro.service.protocol` rejects QoS keys at the trust
boundary).  With no policy file the layer is inert — one class, no
quotas, FIFO order — so existing single-tenant deployments behave
exactly as before.
"""

from repro.service.qos.attribution import (
    PHASES,
    TenantAccounting,
    attribution_from_counters,
    attribution_from_prometheus,
    phases_from_layers,
    render_attribution,
)
from repro.service.qos.policy import (
    CLASSES,
    ClassSpec,
    QosError,
    QosPolicy,
    TenantSpec,
    load_qos_policy,
    qos_policy_from_dict,
)
from repro.service.qos.quota import (
    QuotaExceeded,
    TenantQuotas,
    TokenBucket,
)
from repro.service.qos.scheduler import DeficitScheduler
from repro.service.qos.tenant import (
    DEFAULT_TENANT,
    Tenant,
    TenantError,
    parse_tenant,
)

__all__ = [
    "CLASSES",
    "ClassSpec",
    "DEFAULT_TENANT",
    "DeficitScheduler",
    "PHASES",
    "QosError",
    "QosPolicy",
    "QuotaExceeded",
    "Tenant",
    "TenantAccounting",
    "TenantError",
    "TenantQuotas",
    "TenantSpec",
    "TokenBucket",
    "attribution_from_counters",
    "attribution_from_prometheus",
    "load_qos_policy",
    "parse_tenant",
    "phases_from_layers",
    "qos_policy_from_dict",
    "render_attribution",
]
