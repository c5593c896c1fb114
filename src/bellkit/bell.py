"""Bell-state family, separability test, and state classification.

The generalized family is parametrized by a weight s0 in [0, 1]:

    phi, sign q:  (s0, 0, 0, q*sqrt(1 - s0^2))
    psi, sign q:  (0, sqrt(1 - s0^2), q*s0, 0)

s0 = 1/sqrt(2) gives the four standard Bell states.  A two-qubit state is
separable exactly when the 2x2 coefficient matrix has zero determinant;
`separability_defect` measures |g00*g11 - g01*g10| (0 for product states,
1/2 at maximal entanglement).
"""

from __future__ import annotations

import math
from typing import Literal, Optional

from .core import (
    EPS_ZERO,
    INV_SQRT2,
    SingleQubitState,
    TwoQubitState,
    _Value,
    _require_normalized,
    _set,
    basis_state,
    tensor,
)

__all__ = [
    "EPS_SEP",
    "EPS_CLASS",
    "BellClass",
    "BellSign",
    "BellDescriptor",
    "StateClassification",
    "bell_state",
    "separability_defect",
    "factorize",
    "classify",
]

EPS_SEP = 1e-8    # defect at or below this counts as separable
EPS_CLASS = 1e-8  # classification and reconstruction tolerance

BellClass = Literal["phi", "psi"]
BellSign = Literal[1, -1]


class BellDescriptor(_Value):
    """Which Bell branch: class phi/psi, relative sign, and weight s0."""

    def __init__(self, bell_class: BellClass, sign: BellSign, s0: float = INV_SQRT2) -> None:
        if bell_class not in ("phi", "psi"):
            raise ValueError(f"bell_class must be 'phi' or 'psi', got {bell_class!r}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        weight = float(s0)
        if not (math.isfinite(weight) and 0.0 <= weight <= 1.0):
            raise ValueError(f"s0 must lie in [0, 1], got {s0!r}")
        _set(self, "bell_class", bell_class)
        _set(self, "sign", sign)
        _set(self, "s0", weight)


def bell_state(descriptor: BellDescriptor) -> TwoQubitState:
    """State vector of the descriptor's family member (normalized)."""
    s0 = descriptor.s0
    other = math.sqrt(1.0 - s0 * s0)
    q = descriptor.sign
    # complex(x) keeps x's bits and takes TwoQubitState's fast path for finite complex fields.
    if descriptor.bell_class == "phi":
        return TwoQubitState(complex(s0), 0j, 0j, complex(q * other))
    return TwoQubitState(0j, complex(other), complex(q * s0), 0j)


def separability_defect(s: TwoQubitState) -> float:
    """|g00*g11 - g01*g10|: zero iff separable, 1/2 at Bell states.

    Defined on any vector, it scales with the squared norm: TwoQubitState(2, 0, 0, 2)
    gives 4.0.  Callers pass normalized states for the separability criterion.
    """
    return abs(s.g00 * s.g11 - s.g01 * s.g10)


def factorize(s: TwoQubitState) -> Optional[tuple[SingleQubitState, SingleQubitState]]:
    """Split a separable state into normalized per-particle factors.

    Returns None when the defect exceeds EPS_SEP; a state that is not
    normalized (`s.subnormalized`) is a ValueError.  For a separable input the
    reconstruction tensor(a, b) reproduces s exactly (global phase included):
    the B factor is read off the dominant row of the coefficient matrix and
    each A amplitude is that row basis's coefficient, so the arbitrary phase
    split between the factors cancels in the product.
    """
    _require_normalized(s, "factorize")
    if separability_defect(s) > EPS_SEP:
        return None
    rows = ((s.g00, s.g01), (s.g10, s.g11))
    norms = tuple(math.hypot(abs(r[0]), abs(r[1])) for r in rows)
    dominant = 0 if norms[0] >= norms[1] else 1
    d = norms[dominant]
    b0 = rows[dominant][0] / d
    b1 = rows[dominant][1] / d
    # a_i = <b | row_i>; for an exactly separable state this recovers the
    # row coefficients without leaving a stray phase.
    a0 = b0.conjugate() * s.g00 + b1.conjugate() * s.g01
    a1 = b0.conjugate() * s.g10 + b1.conjugate() * s.g11
    na = math.hypot(abs(a0), abs(a1))
    nb = math.hypot(abs(b0), abs(b1))
    return (
        SingleQubitState(a0 / na, a1 / na),
        SingleQubitState(b0 / nb, b1 / nb),
    )


class StateClassification(_Value):
    """Tagged result of `classify`.

    kind "basis":   basis_index set; phase * |basis_index> rebuilds the input.
    kind "bell":    bell set; phase * bell_state(bell) rebuilds the input.
    kind "product": factors set; phase * tensor(*factors) rebuilds the input.
    kind "general": no payload; phase is fixed at 1 and carries no meaning.
    """

    def __init__(
        self, kind: Literal["basis", "bell", "product", "general"], phase: complex = 1 + 0j,
        basis_index: Optional[int] = None, bell: Optional[BellDescriptor] = None,
        factors: Optional[tuple[SingleQubitState, SingleQubitState]] = None,
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "phase", phase)
        _set(self, "basis_index", basis_index)
        _set(self, "bell", bell)
        _set(self, "factors", factors)

    def reconstruct(self) -> TwoQubitState:
        """Rebuild the classified state; raises on kind 'general'."""
        if self.kind == "basis":
            name, member = "basis_index", basis_state
        elif self.kind == "bell":
            name, member = "bell", bell_state
        elif self.kind == "product":
            name, member = "factors", lambda factors: tensor(*factors)
        else:
            raise ValueError("a 'general' classification carries no reconstruction")
        payload = getattr(self, name)
        if payload is None:
            raise ValueError(f"a '{self.kind}' classification without {name} cannot be reconstructed")
        return TwoQubitState(*(self.phase * g for g in member(payload).amplitudes))


def _unit_phase(z: complex) -> complex:
    return z / abs(z)


def _strip_leading_phase(s: SingleQubitState) -> tuple[complex, SingleQubitState]:
    """Rotate the first nonzero amplitude onto the positive real axis."""
    lead = s.amp0 if abs(s.amp0) > EPS_ZERO else s.amp1
    phase = _unit_phase(lead)
    return phase, SingleQubitState(s.amp0 / phase, s.amp1 / phase)


def classify(s: TwoQubitState) -> StateClassification:
    """Classify a normalized state (any other is a ValueError); priority basis > bell > product > general."""
    _require_normalized(s, "classify")
    amps = s.amplitudes

    # Basis: one amplitude of unit modulus, the rest negligible.
    for index, g in enumerate(amps):
        if abs(abs(g) - 1.0) <= EPS_CLASS and all(
            abs(h) <= EPS_CLASS for j, h in enumerate(amps) if j != index
        ):
            return StateClassification("basis", _unit_phase(g), index)

    # Bell family: support on exactly {g00, g11} or {g01, g10}, with a
    # relative phase of +-1 once the global phase is removed.
    for bell_class, (lead, partner) in (("phi", (s.g00, s.g11)), ("psi", (s.g01, s.g10))):
        zeros = (s.g01, s.g10) if bell_class == "phi" else (s.g00, s.g11)
        if not (abs(lead) > EPS_ZERO and abs(partner) > EPS_ZERO):
            continue
        if any(abs(z) > EPS_ZERO for z in zeros):
            continue
        relative = _unit_phase(partner) / _unit_phase(lead)
        if abs(relative - 1.0) <= EPS_CLASS:
            sign: BellSign = 1
        elif abs(relative + 1.0) <= EPS_CLASS:
            sign = -1
        else:
            break  # complex relative phase: not in the (real-signed) family
        s0 = abs(s.g00) if bell_class == "phi" else abs(s.g10)
        return StateClassification("bell", _unit_phase(lead), bell=BellDescriptor(bell_class, sign, min(s0, 1.0)))

    factors = factorize(s)
    if factors is not None:
        phase_a, a = _strip_leading_phase(factors[0])
        phase_b, b = _strip_leading_phase(factors[1])
        return StateClassification("product", phase_a * phase_b, factors=(a, b))

    return StateClassification(kind="general")
