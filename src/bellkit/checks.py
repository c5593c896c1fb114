"""Runtime self-test suites: algebraic invariants, oracles, and statistics.

Every group runs with fixed seeds so the outcome is reproducible; `run_all`
returns one result per group and the CLI `check` subcommand renders them.
The nearest-product-state search is an independent oracle: it never calls
the determinant-based separability test it is used to cross-check.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import bell, circuit, core, engine

__all__ = [
    "CheckResult",
    "random_single_qubit_state",
    "random_two_qubit_state",
    "random_product_state",
    "random_operator",
    "random_unitary",
    "nearest_product_distance",
    "run_all",
    "GROUPS",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _unit_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def random_single_qubit_state(rng: np.random.Generator) -> core.SingleQubitState:
    return core.SingleQubitState.from_vector(_unit_vector(rng, 2))


def random_two_qubit_state(rng: np.random.Generator) -> core.TwoQubitState:
    return core.TwoQubitState.from_vector(_unit_vector(rng, 4))


def random_product_state(rng: np.random.Generator) -> core.TwoQubitState:
    return core.tensor(random_single_qubit_state(rng), random_single_qubit_state(rng))


def random_operator(rng: np.random.Generator) -> core.SingleQubitOperator:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return core.SingleQubitOperator(m)


def random_unitary(rng: np.random.Generator) -> core.SingleQubitOperator:
    q, r = np.linalg.qr(random_operator(rng).matrix)
    # Fix the QR phase ambiguity so the distribution is Haar-uniform.
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return core.SingleQubitOperator(q)


_STANDARD = tuple(bell.BellDescriptor(cls, sign) for cls in ("phi", "psi") for sign in (1, -1))


def _random_descriptor(rng: np.random.Generator, margin: float) -> bell.BellDescriptor:
    """A descriptor of random class, then random sign, then s0 uniform in [margin, 1 - margin]."""
    return bell.BellDescriptor(
        bell_class="phi" if rng.random() < 0.5 else "psi",
        sign=1 if rng.random() < 0.5 else -1,
        s0=float(rng.uniform(margin, 1 - margin)),
    )


def _rotation(theta: float) -> core.SingleQubitOperator:
    c, s = math.cos(theta), math.sin(theta)
    return core.SingleQubitOperator([[c, -s], [s, c]])


_GRID, _STARTS, _ITERATIONS = 12, 4, 60  # the nearest-product search: grid points per angle, starts, refinements


def nearest_product_distance(s: core.TwoQubitState) -> float:
    """Distance from a normalized state to the closest normalized product state.

    Maximizes the overlap modulus |<a x b | s>|.  A coarse grid over the
    B-factor angles picks starting points (the best A-factor for a fixed b
    is closed-form: it aligns with G conj(b)), then alternating exact
    updates of a and b refine each start; the overlap value is monotone
    under these updates, so the iteration converges.  The modulus already
    optimizes over the global phase, so the result is
    min over products of || s - phase * (a x b) ||.
    """
    g = s.vector.reshape(2, 2)
    beta, phi = np.meshgrid(
        np.linspace(0.0, math.pi / 2, _GRID),
        np.linspace(0.0, 2 * math.pi, _GRID, endpoint=False),
        indexing="ij",
    )
    b_grid = np.stack(
        [np.cos(beta).ravel(), (np.sin(beta) * np.exp(1j * phi)).ravel()]
    ).T  # (_GRID^2, 2)
    scores = np.linalg.norm(b_grid.conj() @ g.T, axis=1)
    order = np.argsort(scores)[::-1][:_STARTS]

    best = 0.0
    for index in order:
        b = b_grid[index]
        value = 0.0
        for _ in range(_ITERATIONS):
            w = g @ b.conj()
            a = w / np.linalg.norm(w)
            u = g.T @ a.conj()
            new_value = float(np.linalg.norm(u))
            b = u / new_value
            if abs(new_value - value) <= 1e-15:
                value = new_value
                break
            value = new_value
        best = max(best, value)
    best = min(best, 1.0)
    return math.sqrt(max(0.0, 2.0 - 2.0 * best))


def _max_entry(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def _check(name: str, worst: float, tol: float) -> CheckResult:
    detail = f"max deviation {worst:.3e} (tolerance {tol:g})"
    return CheckResult(name=name, passed=worst <= tol, detail=detail)


def check_lifting_algebra() -> CheckResult:
    """Lift homomorphism, A/B commutation, and tensor consistency."""
    rng = np.random.default_rng(101)
    tol = 1e-10
    worst = 0.0
    for _ in range(400):
        s_op = random_operator(rng)
        t_op = random_operator(rng)
        worst = max(
            worst,
            _max_entry(
                core.lift_a(core.compose(s_op, t_op)).matrix
                - core.compose(core.lift_a(s_op), core.lift_a(t_op)).matrix
            ),
            _max_entry(
                core.lift_b(core.compose(s_op, t_op)).matrix
                - core.compose(core.lift_b(s_op), core.lift_b(t_op)).matrix
            ),
            _max_entry(
                core.compose(core.lift_a(s_op), core.lift_b(t_op)).matrix
                - core.compose(core.lift_b(t_op), core.lift_a(s_op)).matrix
            ),
        )
    for _ in range(1000):
        s_op = random_operator(rng)
        a = random_single_qubit_state(rng)
        b = random_single_qubit_state(rng)
        via_lift_a = core.apply2(core.lift_a(s_op), core.tensor(a, b))
        via_tensor_a = core.tensor(core.apply1(s_op, a), b)
        via_lift_b = core.apply2(core.lift_b(s_op), core.tensor(a, b))
        via_tensor_b = core.tensor(a, core.apply1(s_op, b))
        worst = max(
            worst,
            _max_entry(via_lift_a.vector - via_tensor_a.vector),
            _max_entry(via_lift_b.vector - via_tensor_b.vector),
        )
    return _check("lifting-algebra", worst, tol)


def check_unitarity_preservation() -> CheckResult:
    """Lifts of unitaries, and their compositions with the Bell operator, stay unitary."""
    rng = np.random.default_rng(102)
    worst = 0.0
    eye = np.eye(4)
    for _ in range(200):
        u = random_unitary(rng)
        v = random_unitary(rng)
        lifted = core.compose(
            core.lift_a(u), core.compose(core.bell_operator(), core.lift_b(v))
        )
        m = lifted.matrix
        worst = max(worst, _max_entry(m.conj().T @ m - eye))
        if not (core.lift_a(u).is_unitary() and core.lift_b(v).is_unitary()):
            return CheckResult("unitarity-preservation", False, "lifted unitary failed the unitarity predicate")
    return _check("unitarity-preservation", worst, core.EPS_OP)


def check_bell_operator_algebra() -> CheckResult:
    """The Bell operator is unitary, self-adjoint, self-inverse, and maps the bases onto each other."""
    b = core.bell_operator()
    worst = _max_entry(b.matrix @ b.matrix - np.eye(4))
    worst = max(worst, _max_entry(b.matrix - b.matrix.conj().T))
    expected_columns = [_STANDARD[i] for i in (0, 2, 3, 1)]  # phi+, psi+, psi-, phi-
    for index, descriptor in enumerate(expected_columns):
        produced = core.apply2(b, core.basis_state(index))
        worst = max(worst, _max_entry(produced.vector - bell.bell_state(descriptor).vector))
        back = core.apply2(b, produced)
        worst = max(worst, _max_entry(back.vector - core.basis_state(index).vector))
    return _check("bell-operator-algebra", worst, 1e-12)


def check_projector_completeness() -> CheckResult:
    """For each particle the two projectors are orthogonal, idempotent, and sum to identity."""
    worst = 0.0
    for particle in ("A", "B"):
        p0 = core.projector(particle, 0).matrix
        p1 = core.projector(particle, 1).matrix
        worst = max(
            worst,
            _max_entry(p0 + p1 - np.eye(4)),
            _max_entry(p0 @ p0 - p0),
            _max_entry(p1 @ p1 - p1),
            _max_entry(p0 @ p1),
        )
        for value in (0, 1):
            if not core.projector(particle, value).is_projector():
                return CheckResult("projector-completeness", False, "projector predicate failed")
    return _check("projector-completeness", worst, 1e-12)


def check_norm_preservation() -> CheckResult:
    """Random words in lifted rotations and the Bell operator preserve the norm."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        state = random_two_qubit_state(rng)
        for _ in range(rng.integers(1, 8)):
            choice = rng.integers(0, 3)
            if choice == 0:
                op = core.lift_a(_rotation(rng.uniform(0, 2 * math.pi)))
            elif choice == 1:
                op = core.lift_b(_rotation(rng.uniform(0, 2 * math.pi)))
            else:
                op = core.bell_operator()
            state = core.apply2(op, state)
        worst = max(worst, abs(core.norm(state) - 1.0))
    return _check("norm-preservation", worst, core.EPS_NORM)


def check_bell_family() -> CheckResult:
    """Orthonormality, classification round trips, and degenerate endpoints."""
    worst = 0.0
    for i, d1 in enumerate(_STANDARD):
        for j, d2 in enumerate(_STANDARD):
            overlap = core.inner(bell.bell_state(d1), bell.bell_state(d2))
            worst = max(worst, abs(overlap - (1.0 if i == j else 0.0)))
        worst = max(worst, abs(bell.separability_defect(bell.bell_state(d1)) - 0.5))
    rng = np.random.default_rng(104)
    for _ in range(1000):
        descriptor = _random_descriptor(rng, 1e-6)
        got = bell.classify(bell.bell_state(descriptor))
        if got.kind != "bell" or got.bell != descriptor or abs(got.phase - 1.0) > bell.EPS_CLASS:
            return CheckResult(
                "bell-family", False, f"classification round trip failed for {descriptor}"
            )
    for d in _STANDARD:
        for s0, index in ((0.0, 3 if d.bell_class == "phi" else 1), (1.0, 0 if d.bell_class == "phi" else 2)):
            got = bell.classify(bell.bell_state(bell.BellDescriptor(d.bell_class, d.sign, s0)))
            if got.kind != "basis" or got.basis_index != index:
                return CheckResult(
                    "bell-family", False, f"endpoint s0={s0} of {d.bell_class} did not classify as basis"
                )
    return _check("bell-family", worst, 1e-12)


def check_factorization() -> CheckResult:
    """Product states factor and re-tensor exactly; entangled states refuse."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        state = random_product_state(rng)
        defect = bell.separability_defect(state)
        worst = max(worst, defect)
        factors = bell.factorize(state)
        if factors is None:
            return CheckResult("factorization", False, "product state failed to factorize")
        rebuilt = core.tensor(*factors)
        worst = max(worst, _max_entry(rebuilt.vector - state.vector))
        classified = bell.classify(state)
        if classified.kind not in ("product", "basis"):
            return CheckResult("factorization", False, f"product state classified as {classified.kind}")
        worst = max(worst, _max_entry(classified.reconstruct().vector - state.vector))
    for descriptor_sign in (1, -1):
        state = bell.bell_state(bell.BellDescriptor("phi", descriptor_sign))
        if bell.factorize(state) is not None:
            return CheckResult("factorization", False, "Bell state factorized")
    return _check("factorization", worst, bell.EPS_SEP)


def check_nearest_product_oracle() -> CheckResult:
    """Brute-force nearest-product search agrees with the defect test on 200 states."""
    rng = np.random.default_rng(106)
    states = [random_product_state(rng) for _ in range(100)]
    states += [random_two_qubit_state(rng) for _ in range(100)]
    for state in states:
        defect_separable = bell.separability_defect(state) <= bell.EPS_SEP
        oracle_separable = nearest_product_distance(state) <= 1e-4
        if defect_separable != oracle_separable:
            return CheckResult(
                "nearest-product-oracle",
                False,
                f"disagreement at defect {bell.separability_defect(state):.3e}",
            )
    return CheckResult("nearest-product-oracle", True, "200/200 states agree")


def check_flip_toggle() -> CheckResult:
    """A one-particle flip toggles the Bell class, keeps the sign, and squares to identity."""
    rng = np.random.default_rng(107)
    flip_a = core.lift_a(core.named_operator("flip"))
    tol = 1e-12
    worst = 0.0
    for descriptor in _STANDARD + tuple(_random_descriptor(rng, 1e-3) for _ in range(100)):
        state = bell.bell_state(descriptor)
        flipped = core.apply2(flip_a, state)
        toggled_class = "psi" if descriptor.bell_class == "phi" else "phi"
        expected = bell.bell_state(
            bell.BellDescriptor(toggled_class, descriptor.sign, descriptor.s0)
        )
        # Exact signed mapping: plus states map componentwise, minus states
        # additionally pick up a global -1.
        signed = expected.vector if descriptor.sign == 1 else -expected.vector
        worst = max(worst, _max_entry(flipped.vector - signed))
        if not core.states_equal_up_to_phase(flipped, expected, tol):
            return CheckResult("flip-toggle", False, f"phase-equality failed for {descriptor}")
        before = engine.relative_bit(state)
        after = engine.relative_bit(flipped)
        again = engine.relative_bit(core.apply2(flip_a, flipped))
        if not (before.determinate and after.determinate and before.bit != after.bit and again.bit == before.bit):
            return CheckResult("flip-toggle", False, f"relative bit did not toggle for {descriptor}")
        worst = max(worst, _max_entry(core.apply2(flip_a, flipped).vector - state.vector))
    return _check("flip-toggle", worst, tol)


def _program(source: str) -> engine.CompiledProgram:
    """One of the groups' fixed programs, which must parse cleanly, compiled once."""
    program, diags = circuit.parse(source)
    if program is None or diags:
        raise ValueError(f"check program does not parse: {'; '.join(d.render() for d in diags)}")
    return engine.compile(program)


def check_measurement_theorems() -> CheckResult:
    """Projection identities, post-measurement separability, and the correlation law."""
    worst = 0.0
    inv = core.INV_SQRT2
    for sign in (1, -1):
        phi = bell.bell_state(bell.BellDescriptor("phi", sign))
        projected = core.apply2(core.projector("A", 0), phi)
        worst = max(
            worst,
            _max_entry(projected.vector - np.array([inv, 0, 0, 0], dtype=complex)),
        )
        if not projected.subnormalized:
            return CheckResult("measurement-theorems", False, "projected state lost its subnormalized flag")
    for d in _STANDARD:
        source = f"prepare bell {d.bell_class} {'+' if d.sign == 1 else '-'}\nmeasure value A\nmeasure value B\n"
        program = _program(source)
        stats = engine.run(program, shots=200, seed=11)
        allowed = {"A=0,B=0", "A=1,B=1"} if d.bell_class == "phi" else {"A=0,B=1", "A=1,B=0"}
        if set(stats.counts) - allowed:
            return CheckResult(
                "measurement-theorems", False, f"correlation law violated for {d.bell_class}: {stats.counts}"
            )
    program = _program("prepare bell phi +\nmeasure value A\n")
    for index in range(50):
        shot = engine.run_shot(program, engine.derive_rng(3, index))
        if bell.separability_defect(shot.final_state) > bell.EPS_SEP:
            return CheckResult("measurement-theorems", False, "post-measurement state not separable")
    return _check("measurement-theorems", worst, 1e-12)


def check_deterministic_branches() -> CheckResult:
    """Deterministic measurements consume no randomness and leave goldens stable."""
    with_det = _program("prepare bell psi +\nmeasure relative\nmeasure value A\n")
    without_det = _program("prepare bell psi +\nmeasure value A\n")
    for index in range(200):
        full = engine.run_shot(with_det, engine.derive_rng(5, index))
        bare = engine.run_shot(without_det, engine.derive_rng(5, index))
        rel, value = full.records
        if rel.outcome is not engine.RelativeBit.DIFFERENT or rel.probability != 1.0:
            return CheckResult("deterministic-branches", False, "relative branch was not deterministic")
        if value.outcome != bare.records[0].outcome:
            return CheckResult(
                "deterministic-branches", False, "deterministic measurement perturbed downstream sampling"
            )
    return CheckResult("deterministic-branches", True, "200/200 shots agree")


def _bell_sign_counts(results: tuple[engine.ShotResult, ...]) -> Optional[list[int]]:
    """Shots ending in a Bell state of sign +1 and of sign -1, or None if any does not.

    Shots at one branch-tree leaf share its final state: each is classified once.
    """
    finals = [shot.final_state for shot in results]
    weights = Counter(map(id, finals))
    signs = [0, 0]
    for state in {id(state): state for state in finals}.values():
        classified = bell.classify(state)
        if classified.kind != "bell":
            return None
        signs[0 if classified.bell.sign == 1 else 1] += weights[id(state)]
    return signs


def check_statistics() -> CheckResult:
    """Empirical frequencies sit within 4 sigma of the Born-rule values."""
    program = _program("prepare bell phi +\nmeasure value A\nmeasure value B\n")
    shots = 20000
    stats = engine.run(program, shots=shots, seed=20)
    freq = stats.frequencies
    sigma4 = 4 * math.sqrt(0.25 / shots)
    mixed = sum(stats.counts.get(key, 0) for key in ("A=0,B=1", "A=1,B=0"))
    if mixed != 0:
        return CheckResult("statistics", False, f"mixed outcomes appeared: {stats.counts}")
    worst = max(abs(freq.get("A=0,B=0", 0.0) - 0.5), abs(freq.get("A=1,B=1", 0.0) - 0.5))

    program = _program("prepare bell phi + s0=0.6\nmeasure value A\n")
    stats = engine.run(program, shots=shots, seed=21)
    p0 = 0.36
    sigma4_p = 4 * math.sqrt(p0 * (1 - p0) / shots)
    dev = abs(stats.frequencies.get("A=0", 0.0) - p0)
    if dev > sigma4_p:
        return CheckResult("statistics", False, f"freq(A=0) off by {dev:.4f} (allowed {sigma4_p:.4f})")

    program = _program("prepare bell-random-sign phi\napply flip A\nmeasure relative\n")
    stats = engine.run(program, shots=10000, seed=22, keep_results=True)
    if stats.counts != {"rel=Different": 10000}:
        return CheckResult("statistics", False, f"flip did not force Different: {stats.counts}")
    if stats.results is None:
        return CheckResult("statistics", False, "run kept no per-shot results")
    signs = _bell_sign_counts(stats.results)
    if signs is None:
        return CheckResult("statistics", False, "final state left the Bell family")
    sign_dev = abs(signs[0] / 10000 - 0.5)
    if sign_dev > 4 * math.sqrt(0.25 / 10000):
        return CheckResult("statistics", False, f"random signs unbalanced: {signs}")
    if worst > sigma4:
        return CheckResult("statistics", False, f"pair frequencies off by {worst:.4f} (allowed {sigma4:.4f})")
    return CheckResult(
        "statistics",
        True,
        f"deviations: pairs {worst:.4f}, weighted A=0 {dev:.4f}, signs {sign_dev:.4f} (all within 4 sigma)",
    )


def check_reproducibility() -> CheckResult:
    """Identical (program, shots, seed) gives identical statistics, equal to a shot-by-shot replay."""
    program = _program("prepare bell-random-sign psi s0=0.8\napply bellop\nmeasure value B\nmeasure relative\n")
    first = engine.run(program, shots=600, seed=33, keep_results=True)
    second = engine.run(program, shots=600, seed=33, keep_results=True)
    if first != second:
        return CheckResult("reproducibility", False, "two runs differ")
    replay = tuple(engine.run_shot(program, engine.derive_rng(33, index)) for index in range(600))
    counts = dict(Counter(engine.outcome_key(shot.records) for shot in replay))
    if first != engine.ShotStatistics(600, 33, counts, replay):
        return CheckResult("reproducibility", False, "run differs from the per-shot replay")
    return CheckResult("reproducibility", True, "repeated runs and per-shot replay identical")


GROUPS: tuple[Callable[[], CheckResult], ...] = (
    check_lifting_algebra,
    check_unitarity_preservation,
    check_bell_operator_algebra,
    check_projector_completeness,
    check_norm_preservation,
    check_bell_family,
    check_factorization,
    check_nearest_product_oracle,
    check_flip_toggle,
    check_measurement_theorems,
    check_deterministic_branches,
    check_statistics,
    check_reproducibility,
)


def run_all() -> list[CheckResult]:
    return [group() for group in GROUPS]
