"""Wire format of the analysis service.

The service speaks JSON over HTTP (see docs/service.md for the full
endpoint contract).  This module is the boundary where untrusted
request bodies become typed values and back:

* :func:`config_from_dict` / :func:`config_to_dict` — the JSON shape
  of an :class:`repro.runner.ExperimentConfig` (unknown keys and
  mistyped values are rejected, sequences become the tuples the frozen
  dataclass expects);
* :func:`parse_analyze_request` / :func:`parse_sweep_request` — full
  request-body validation for ``POST /v1/analyze`` and
  ``POST /v1/sweep``;
* :exc:`ProtocolError` — the single exception the server maps to
  HTTP 400; its message is safe to echo back to the client.

Everything here is pure (no I/O), so the broker and the tests can use
it without a socket in sight.
"""

from __future__ import annotations

import dataclasses

from repro.predictors import validate_predictor_specs
from repro.runner import ExperimentConfig
from repro.runner.policy import POLICY_FIELDS
from repro.service.qos.tenant import Tenant, TenantError
from repro.service.qos.tenant import parse_tenant as _parse_tenant
from repro.workloads import get_workload

__all__ = [
    "ProtocolError",
    "config_from_dict",
    "config_to_dict",
    "parse_analyze_request",
    "parse_sweep_request",
    "parse_tenant_header",
]


class ProtocolError(ValueError):
    """A request body that cannot be turned into typed values.

    The server maps this to HTTP 400; the message is written for the
    client (names the offending field, never leaks server internals).
    """


#: ExperimentConfig fields that arrive as JSON arrays and must become
#: tuples (the config dataclass is frozen and hashable).
_TUPLE_FIELDS = frozenset({"workloads", "predictors", "trees_for"})

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}

#: Execution-policy knobs (plus the envelope key itself).  These are
#: server-side configuration — the operator sets them on ``repro
#: serve``; a client must not be able to pick how much parallelism the
#: server spends on its request, so they get a pointed rejection
#: rather than the generic unknown-key 400.
_POLICY_KEYS = frozenset(POLICY_FIELDS) | {"policy"}

#: QoS knobs a client might try to smuggle into a request body.
#: Tenant identity travels on the ``X-Repro-Tenant`` header; quotas,
#: priority classes and weights are operator policy (``repro serve
#: --qos ...``).  Letting a request body pick its own priority or
#: quota would defeat the isolation the policy exists to provide, so
#: these get a pointed rejection (docs/qos.md).
_QOS_KEYS = frozenset({"qos", "priority", "class", "quota", "weight"})


def parse_tenant_header(value: str | None) -> Tenant:
    """Validate a raw ``X-Repro-Tenant`` header at the trust boundary.

    ``None`` (header absent) is the default tenant; a malformed value
    becomes a :exc:`ProtocolError` → HTTP 400 whose message states
    the tenant-name grammar.
    """
    try:
        return _parse_tenant(value)
    except TenantError as error:
        raise ProtocolError(str(error)) from None


def _reject_reserved(payload: dict) -> None:
    """Pointed 400s for tenant/QoS keys in a request body."""
    for name in payload:
        if name == "tenant":
            raise ProtocolError(
                "field 'tenant' is carried on the X-Repro-Tenant "
                "request header, not in the request body"
            )
        if name in _QOS_KEYS:
            raise ProtocolError(
                f"field {name!r} is server-side QoS policy; it is set "
                f"by the service operator (`repro serve --qos ...`), "
                f"not by clients"
            )


def _as_tuple(name: str, value):
    if value is None and name == "workloads":
        return None
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise ProtocolError(
            f"config field {name!r} must be an array of strings"
        )
    items = tuple(value)
    for item in items:
        if not isinstance(item, str):
            raise ProtocolError(
                f"config field {name!r} must be an array of strings"
            )
    return items


def config_from_dict(payload) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a JSON object.

    Missing keys inherit the config defaults; unknown keys are an
    error (a typoed knob silently doing nothing is worse than a 400),
    and so is a ``predictors`` list that is empty, repeats a spec or
    holds one the predictor parser rejects.
    """
    if payload is None:
        return ExperimentConfig()
    if not isinstance(payload, dict):
        raise ProtocolError("config must be a JSON object")
    kwargs = {}
    for name, value in payload.items():
        config_field = _CONFIG_FIELDS.get(name)
        if config_field is None:
            if name in _POLICY_KEYS:
                raise ProtocolError(
                    f"config field {name!r} is server-side execution "
                    f"policy; it is set by the service operator "
                    f"(`repro serve --policy ...`), not by clients"
                )
            if name in _QOS_KEYS or name == "tenant":
                _reject_reserved({name: value})
            known = ", ".join(sorted(_CONFIG_FIELDS))
            raise ProtocolError(
                f"unknown config field {name!r} (known: {known})"
            )
        if name in _TUPLE_FIELDS:
            kwargs[name] = _as_tuple(name, value)
        elif name == "max_instructions" and value is None:
            kwargs[name] = None
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                f"config field {name!r} must be an integer"
            )
        else:
            kwargs[name] = value
    if "predictors" in kwargs:
        try:
            validate_predictor_specs(kwargs["predictors"])
        except ValueError as error:
            raise ProtocolError(
                f"config field 'predictors': {error}") from None
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as error:
        raise ProtocolError(f"invalid config: {error}") from None


def config_to_dict(config: ExperimentConfig) -> dict:
    """The JSON shape of ``config`` (inverse of
    :func:`config_from_dict` for any valid config)."""
    payload = dataclasses.asdict(config)
    for name in _TUPLE_FIELDS:
        if payload[name] is not None:
            payload[name] = list(payload[name])
    return payload


def _check_workload(name) -> str:
    if not isinstance(name, str) or not name:
        raise ProtocolError("'workload' must be a non-empty string")
    try:
        get_workload(name)
    except KeyError:
        raise ProtocolError(f"unknown workload {name!r}") from None
    return name


def parse_analyze_request(payload) -> tuple[str, ExperimentConfig]:
    """Validate a ``POST /v1/analyze`` body: ``(workload, config)``.

    Expected shape::

        {"workload": "<suite name>", "config": {...optional...}}
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    _reject_reserved(payload)
    unknown = set(payload) - {"workload", "config"}
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {', '.join(sorted(unknown))}"
        )
    if "workload" not in payload:
        raise ProtocolError("missing required field 'workload'")
    name = _check_workload(payload["workload"])
    config = config_from_dict(payload.get("config"))
    return name, config


def parse_sweep_request(payload) -> list[tuple[str, ExperimentConfig]]:
    """Validate a ``POST /v1/sweep`` body: a list of (name, config).

    Expected shape::

        {"workloads": ["fib", ...],        # default: the full suite
         "configs": [{...}, {...}, ...]}   # at least one

    Every (workload, config) pair becomes one broker job, so the
    sweep's trace sharing happens exactly as in
    :func:`repro.api.run_sweep` whenever the pairs land in one batch.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    _reject_reserved(payload)
    unknown = set(payload) - {"workloads", "configs"}
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {', '.join(sorted(unknown))}"
        )
    if "configs" not in payload or not isinstance(payload["configs"], list):
        raise ProtocolError("'configs' must be a non-empty array")
    if not payload["configs"]:
        raise ProtocolError("'configs' must be a non-empty array")
    configs = [config_from_dict(item) for item in payload["configs"]]
    names = payload.get("workloads")
    if names is None:
        from repro.workloads import SUITE
        names = [w.name for w in SUITE]
    else:
        names = list(_as_tuple("workloads", names) or ())
        if not names:
            raise ProtocolError("'workloads' must be a non-empty array")
        names = [_check_workload(name) for name in names]
    return [(name, config) for config in configs for name in names]
