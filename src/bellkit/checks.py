"""Runtime self-test suites: algebraic invariants, oracles, and statistics.

Every group runs with fixed seeds so the outcome is reproducible; `run_all`
returns one result per group and the CLI `check` subcommand renders them.
A group whose draw pattern is fixed draws all its samples in one call and
checks them as stacked arrays, bit for bit as one sample at a time.
The nearest-product distance is an independent oracle: it reads the largest
Schmidt coefficient from an SVD and never calls the determinant-based
separability test it is used to cross-check.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Optional

import numpy as np

from . import bell, circuit, core, engine

__all__ = [
    "CheckResult",
    "random_two_qubit_state",
    "nearest_product_distance",
    "run_all",
    "GROUPS",
]


class CheckResult(core._Value):
    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        core._set(self, "name", name)
        core._set(self, "passed", passed)
        core._set(self, "detail", detail)


# Batched draws.  Each helper turns a block of standard normal draws, whose
# leading axes index the samples, into one value per sample.  A sample takes
# its draws in the order of the one-sample helpers: the real parts, then the
# imaginary parts, and a product state's A factor before its B factor.  One
# rng.normal call for n samples returns the bytes of n one-sample calls, so
# random_two_qubit_state below (and the tests' random_*) are this code on a single sample.


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each (..., n) row, bit for bit.

    The 1-D norm sums re.re + im.im as two dot products; a stacked matmul
    makes the same calls, and a sum over an axis (norm(axis=-1)) does not.
    """
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2))[..., 0, 0] + (im @ im.swapaxes(-1, -2))[..., 0, 0])


def _unit_vectors(x: np.ndarray) -> np.ndarray:
    """(..., n) random unit vectors from (..., 2, n) draws."""
    v = x[..., 0, :] + 1j * x[..., 1, :]
    return v / _row_norms(v)[..., None]


def _operators(x: np.ndarray) -> np.ndarray:
    """(..., 2, 2) complex Gaussian matrices from (..., 2, 2, 2) draws."""
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def _unitaries(x: np.ndarray) -> np.ndarray:
    """(..., 2, 2) Haar-random unitaries from (..., 2, 2, 2) draws."""
    q, r = np.linalg.qr(_operators(x))
    # Fix the QR phase ambiguity so the distribution is Haar-uniform.
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.zeros_like(r)
    phases[..., (0, 1), (0, 1)] = diagonal / np.abs(diagonal)
    return q @ phases


def _tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """core.tensor of (..., 2) factor stacks, bit for bit: each part of a_i * b_j is
    rounded as Python rounds a complex product, where numpy's complex multiply may fuse."""
    ar, ai = a.real[..., :, None], a.imag[..., :, None]
    br, bi = b.real[..., None, :], b.imag[..., None, :]
    g = np.empty(np.broadcast_shapes(ar.shape, br.shape), dtype=complex)
    g.real = ar * br - ai * bi
    g.imag = ar * bi + ai * br
    return g.reshape(*g.shape[:-2], 4)


def _products(x: np.ndarray) -> np.ndarray:
    """(..., 4) random product states from (..., 2, 2, 2) draws: A's, then B's."""
    factors = _unit_vectors(x)
    return _tensor(factors[..., 0, :], factors[..., 1, :])


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each matrix of a stack applied to its vector: core.apply1 and apply2 on stacks."""
    return (m @ v[..., None])[..., 0]


def random_two_qubit_state(rng: np.random.Generator) -> core.TwoQubitState:
    return core.TwoQubitState.from_vector(_unit_vectors(rng.normal(size=(2, 4))))


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


def nearest_product_distance(s: core.TwoQubitState) -> float:
    """Distance from a normalized state to the closest normalized product state.

    By the Schmidt decomposition the largest overlap |<a x b | s>| over
    normalized factors is the largest Schmidt coefficient: the largest
    singular value sigma_1 of the 2x2 coefficient matrix G.  The overlap's
    modulus already optimizes over the global phase, so the result is
    min over products of || s - phase * (a x b) || = sqrt(2 - 2 sigma_1),
    computed from an SVD without the determinant test.  A state that is not
    normalized (`s.subnormalized`) is a ValueError.
    """
    core._require_normalized(s, "nearest_product_distance")
    return float(_nearest_product_distances(s.vector.reshape(1, 2, 2))[0])


def _nearest_product_distances(g: np.ndarray) -> np.ndarray:
    """nearest_product_distance of each coefficient matrix of an (n, 2, 2) stack, from one stacked SVD."""
    sigma = np.linalg.svd(g, compute_uv=False)[:, 0]
    return np.sqrt(2.0 - 2.0 * np.minimum(sigma, 1.0))


def _max_entry(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def _check(name: str, worst: float, tol: float) -> CheckResult:
    detail = f"max deviation {worst:.3e} (tolerance {tol:g})"
    return CheckResult(name=name, passed=worst <= tol, detail=detail)


def check_lifting_algebra() -> CheckResult:
    """Lift homomorphism, A/B commutation, and tensor consistency."""
    rng = np.random.default_rng(101)
    lift = core._lift
    ops = _operators(rng.normal(size=(400, 2, 2, 2, 2)))
    s_op, t_op = ops[:, 0], ops[:, 1]
    worst = max(
        _max_entry(lift(s_op @ t_op, "A") - lift(s_op, "A") @ lift(t_op, "A")),
        _max_entry(lift(s_op @ t_op, "B") - lift(s_op, "B") @ lift(t_op, "B")),
        _max_entry(lift(s_op, "A") @ lift(t_op, "B") - lift(t_op, "B") @ lift(s_op, "A")),
    )
    draws = rng.normal(size=(1000, 16))  # per sample: an operator's 8 draws, then A's 4 and B's 4
    s_op = _operators(draws[:, :8].reshape(1000, 2, 2, 2))
    factors = _unit_vectors(draws[:, 8:].reshape(1000, 2, 2, 2))
    a, b = factors[:, 0], factors[:, 1]
    pair = _tensor(a, b)
    worst = max(
        worst,
        _max_entry(_apply(lift(s_op, "A"), pair) - _tensor(_apply(s_op, a), b)),
        _max_entry(_apply(lift(s_op, "B"), pair) - _tensor(a, _apply(s_op, b))),
    )
    return _check("lifting-algebra", worst, 1e-10)


def check_unitarity_preservation() -> CheckResult:
    """Lifts of unitaries, and their compositions with the Bell operator, stay unitary."""
    rng = np.random.default_rng(102)
    unitaries = _unitaries(rng.normal(size=(200, 2, 2, 2, 2)))
    lifted_a, lifted_b = core._lift(unitaries[:, 0], "A"), core._lift(unitaries[:, 1], "B")
    worst = _max_entry(core._unitarity_defect(lifted_a @ (core.bell_operator().matrix @ lifted_b)))
    if not (core._unitarity_defect(np.stack([lifted_a, lifted_b])) <= core.EPS_OP).all():
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
    states = _products(rng.normal(size=(1000, 2, 2, 2)))
    worst = 0.0
    rebuilt, reconstructed = np.empty_like(states), np.empty_like(states)
    for index, amplitudes in enumerate(states.tolist()):
        state = core.TwoQubitState(*amplitudes)
        worst = max(worst, bell.separability_defect(state))
        factors = bell.factorize(state)
        if factors is None:
            return CheckResult("factorization", False, "product state failed to factorize")
        rebuilt[index] = core.tensor(*factors).amplitudes
        classified = bell.classify(state)
        if classified.kind not in ("product", "basis"):
            return CheckResult("factorization", False, f"product state classified as {classified.kind}")
        reconstructed[index] = classified.reconstruct().amplitudes
    worst = max(worst, _max_entry(rebuilt - states), _max_entry(reconstructed - states))
    for descriptor_sign in (1, -1):
        state = bell.bell_state(bell.BellDescriptor("phi", descriptor_sign))
        if bell.factorize(state) is not None:
            return CheckResult("factorization", False, "Bell state factorized")
    return _check("factorization", worst, bell.EPS_SEP)


def check_nearest_product_oracle() -> CheckResult:
    """The largest-Schmidt-coefficient distance agrees with the defect test on 200 states."""
    rng = np.random.default_rng(106)
    vectors = np.concatenate([_products(rng.normal(size=(100, 2, 2, 2))), _unit_vectors(rng.normal(size=(100, 2, 4)))])
    distances = _nearest_product_distances(vectors.reshape(200, 2, 2))
    for amplitudes, distance in zip(vectors.tolist(), distances.tolist()):
        defect = bell.separability_defect(core.TwoQubitState(*amplitudes))
        if (defect <= bell.EPS_SEP) != (distance <= 1e-4):
            return CheckResult("nearest-product-oracle", False, f"disagreement at defect {defect:.3e}")
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
