"""Common value-predictor interface and factory.

Predictor *specs* extend the bare kind names with constructor
parameters, ``kind(param=value,...)``::

    make_predictor("context")                  # the paper's defaults
    make_predictor("last(bits=12)")            # 4K-entry last-value
    make_predictor("context(l1=12,l2=16)")     # shrunken two-level
    make_predictor("context(order=6)")         # deeper value history
    make_predictor("last(hysteresis=0)")       # no replacement damping

The full spec string is the predictor's identity everywhere — in
:class:`repro.core.AnalysisConfig.predictors`, in job content hashes,
and as the key of :attr:`repro.core.stats.AnalysisResult.predictors` —
so two analyses differing only in a table size hash (and cache) apart.
This is the design-space axis the source paper held constant; see
docs/campaign.md for the sweep machinery built on top of it.
"""

from __future__ import annotations

import abc
import re


class ValuePredictor(abc.ABC):
    """A finite-state next-value predictor.

    Predictors are keyed by an integer (a PC, or a hash of PC and
    operand slot for input predictors) and observe the sequence of
    values presented for each key.  Tables are finite and untagged, so
    different keys may alias — exactly as in the paper's simulations.
    """

    #: Short machine name ("last", "stride", "context").
    kind: str = ""
    #: Single-letter label used in the paper's figures (L / S / C).
    letter: str = ""

    @abc.abstractmethod
    def see(self, key: int, value) -> bool:
        """Predict the next value for ``key``, then learn ``value``.

        Returns True when the prediction matched ``value``.  The
        predictor state is updated immediately (paper Section 3).
        """

    @abc.abstractmethod
    def peek(self, key: int):
        """Return the value that ``see`` would predict, or None."""


_SPEC_RE = re.compile(r"^([a-z_]+)(?:\(([^()]*)\))?$")

#: spec parameter name -> (constructor kwarg, min, max) per kind.
#: ``bits``-style parameters are table *index* widths, so the caps
#: bound memory (2^24 entries is already 16M); ``hysteresis`` is the
#: saturating-counter ceiling, ``order`` the context history depth.
PREDICTOR_PARAMS: dict[str, dict[str, tuple[str, int, int]]] = {
    "last": {
        "bits": ("index_bits", 1, 24),
        "hysteresis": ("hysteresis", 0, 255),
    },
    "stride": {
        "bits": ("index_bits", 1, 24),
    },
    "context": {
        "l1": ("l1_bits", 1, 24),
        "l2": ("l2_bits", 4, 24),
        "order": ("order", 1, 16),
        "hysteresis": ("hysteresis", 0, 255),
    },
    "hybrid": {
        "bits": ("index_bits", 1, 24),
        "l2": ("l2_bits", 4, 24),
        "chooser": ("chooser_init", 0, 3),
    },
}


def parse_predictor_spec(spec: str) -> tuple[str, dict[str, int]]:
    """Split a predictor spec into ``(kind, constructor kwargs)``.

    Raises :class:`ValueError` on unknown kinds, unknown parameters,
    non-integer values, and out-of-range values — with a message that
    names the offending piece (these surface verbatim in campaign spec
    validation, see :mod:`repro.campaign.spec`).
    """
    match = _SPEC_RE.match(spec.replace(" ", ""))
    if match is None:
        raise ValueError(
            f"malformed predictor spec {spec!r}; expected "
            f"'kind' or 'kind(param=value,...)'"
        )
    kind, body = match.group(1), match.group(2)
    if kind not in PREDICTOR_PARAMS:
        raise ValueError(
            f"unknown predictor kind: {kind!r} (known: "
            f"{', '.join(sorted(PREDICTOR_PARAMS))})"
        )
    kwargs: dict[str, int] = {}
    if body:
        allowed = PREDICTOR_PARAMS[kind]
        for part in body.split(","):
            name, eq, raw = part.partition("=")
            if not eq or not name:
                raise ValueError(
                    f"malformed parameter {part!r} in predictor spec "
                    f"{spec!r}; expected 'param=value'"
                )
            if name not in allowed:
                raise ValueError(
                    f"unknown parameter {name!r} for predictor "
                    f"{kind!r} (known: {', '.join(sorted(allowed))})"
                )
            try:
                value = int(raw, 0)
            except ValueError:
                raise ValueError(
                    f"parameter {name!r} in predictor spec {spec!r} "
                    f"must be an integer, got {raw!r}"
                ) from None
            arg, lo, hi = allowed[name]
            if not lo <= value <= hi:
                raise ValueError(
                    f"parameter {name!r} in predictor spec {spec!r} "
                    f"must be in [{lo}, {hi}], got {value}"
                )
            kwargs[arg] = value
    return kind, kwargs


#: Most predictor banks one analysis runs: every per-record bank mask
#: (the reference loop's output flags, a segment's bit assembly) is
#: one byte, one bit per bank.
MAX_BANKS = 8


def validate_predictor_specs(specs) -> None:
    """Check a predictor-bank list: non-empty, at most
    :data:`MAX_BANKS` specs, every spec parses, none repeated.

    Raises :class:`ValueError` naming the offending spec (the parser's
    own message for a bad one).  Shared by
    :class:`~repro.runner.ExperimentConfig`, campaign variants and the
    service's request validation.
    """
    if not specs:
        raise ValueError("no predictors given")
    if len(specs) > MAX_BANKS:
        raise ValueError(f"{len(specs)} predictor banks exceed the "
                         f"maximum of {MAX_BANKS}")
    seen = set()
    for spec in specs:
        parse_predictor_spec(spec)
        if spec in seen:
            raise ValueError(f"predictor spec {spec!r} is repeated")
        seen.add(spec)


def make_predictor(kind: str) -> ValuePredictor:
    """Create a fresh predictor from a kind name or parameterised spec.

    Args:
        kind: ``"last"``, ``"stride"``, ``"context"``, or ``"hybrid"``
            (the stride+context combination of paper ref [17]), each
            optionally parameterised — ``"last(bits=12)"``,
            ``"context(l1=12,l2=16,order=6)"`` — see
            :data:`PREDICTOR_PARAMS` for the knobs per kind.

    Raises:
        ValueError: unknown kind, unknown/out-of-range parameter.
    """
    from repro.predictors.context import ContextPredictor
    from repro.predictors.hybrid import HybridPredictor
    from repro.predictors.last_value import LastValuePredictor
    from repro.predictors.stride import StridePredictor

    table = {
        "last": LastValuePredictor,
        "stride": StridePredictor,
        "context": ContextPredictor,
        "hybrid": HybridPredictor,
    }
    base, kwargs = parse_predictor_spec(kind)
    return table[base](**kwargs)


#: Predictor kinds in the paper's presentation order (L, S, C).
PREDICTOR_KINDS = ("last", "stride", "context")
