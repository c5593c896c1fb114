"""The batched `bellkit check` groups against their loop forms, bit for bit.

Four groups draw all their samples in one `Generator.normal` call and check
them as stacked arrays: lifting-algebra, unitarity-preservation,
factorization and nearest-product-oracle.  The loop forms below are those
groups one sample at a time, as they ran before batching: each sample is
drawn with the one-sample draws of `ref_*` and goes through core's scalar
functions.  Each batched group must reach the loop form's worst deviation
bit for bit, and every stacked sample and intermediate must carry the loop
form's bytes.  The oracle's distances come from an SVD, not from the loop
form's search: they agree with it within 1e-7 on products and 1e-12 on
other states.
"""

from __future__ import annotations

import math
import warnings

import helpers
import numpy as np
import pytest

from bellkit import bell, checks, core

# One-sample draws, as the random_* helpers drew before batching: the byte reference.


def _ref_unit_vector(rng, size):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


def ref_single_qubit_state(rng):
    return core.SingleQubitState.from_vector(_ref_unit_vector(rng, 2))


def ref_two_qubit_state(rng):
    return core.TwoQubitState.from_vector(_ref_unit_vector(rng, 4))


def ref_product_state(rng):
    return core.tensor(ref_single_qubit_state(rng), ref_single_qubit_state(rng))


def ref_operator(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return core.SingleQubitOperator(m)


def ref_unitary(rng):
    q, r = np.linalg.qr(ref_operator(rng).matrix)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return core.SingleQubitOperator(q)


def ref_nearest_product_distance(s):
    """The nearest-product search one start at a time."""
    g = s.vector.reshape(2, 2)
    beta, phi = np.meshgrid(
        np.linspace(0.0, math.pi / 2, 12),
        np.linspace(0.0, 2 * math.pi, 12, endpoint=False),
        indexing="ij",
    )
    b_grid = np.stack([np.cos(beta).ravel(), (np.sin(beta) * np.exp(1j * phi)).ravel()]).T
    scores = np.linalg.norm(b_grid.conj() @ g.T, axis=1)
    order = np.argsort(scores)[::-1][:4]
    best = 0.0
    for index in order:
        b = b_grid[index]
        value = 0.0
        for _ in range(60):
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


def _max_entry(m):
    return float(np.max(np.abs(m)))


def values(x):
    """The complex array behind a state or an operator."""
    if isinstance(x, core.SingleQubitState):
        return np.array([x.amp0, x.amp1])
    return x.vector if isinstance(x, core.TwoQubitState) else x.matrix


def assert_same_bytes(batched, loop):
    batched, loop = np.asarray(batched), np.asarray(loop)
    assert (batched.dtype, batched.shape) == (loop.dtype, loop.shape)
    assert batched.tobytes() == loop.tobytes()


# The groups' loop forms.  Each returns the deviation stacks the batched group
# takes maxima over, in its order, and the worst deviation, kept as a running
# max the way the loop kept it.


def lifting_algebra_loop():
    rng = np.random.default_rng(101)
    worst = 0.0
    homomorphism_a, homomorphism_b, commutation = [], [], []
    for _ in range(400):
        s_op, t_op = ref_operator(rng), ref_operator(rng)
        homomorphism_a.append(
            core.lift_a(core.compose(s_op, t_op)).matrix - core.compose(core.lift_a(s_op), core.lift_a(t_op)).matrix
        )
        homomorphism_b.append(
            core.lift_b(core.compose(s_op, t_op)).matrix - core.compose(core.lift_b(s_op), core.lift_b(t_op)).matrix
        )
        commutation.append(
            core.compose(core.lift_a(s_op), core.lift_b(t_op)).matrix
            - core.compose(core.lift_b(t_op), core.lift_a(s_op)).matrix
        )
        worst = max(worst, _max_entry(homomorphism_a[-1]), _max_entry(homomorphism_b[-1]), _max_entry(commutation[-1]))
    tensor_a, tensor_b = [], []
    for _ in range(1000):
        s_op = ref_operator(rng)
        a, b = ref_single_qubit_state(rng), ref_single_qubit_state(rng)
        pair = core.tensor(a, b)
        tensor_a.append(core.apply2(core.lift_a(s_op), pair).vector - core.tensor(core.apply1(s_op, a), b).vector)
        tensor_b.append(core.apply2(core.lift_b(s_op), pair).vector - core.tensor(a, core.apply1(s_op, b)).vector)
        worst = max(worst, _max_entry(tensor_a[-1]), _max_entry(tensor_b[-1]))
    stacks = (homomorphism_a, homomorphism_b, commutation, tensor_a, tensor_b)
    return [np.array(stack) for stack in stacks], worst


def unitarity_preservation_loop():
    rng = np.random.default_rng(102)
    worst, defects, predicates = 0.0, [], []
    for _ in range(200):
        u, v = ref_unitary(rng), ref_unitary(rng)
        m = core.compose(core.lift_a(u), core.compose(core.bell_operator(), core.lift_b(v))).matrix
        defects.append(_max_entry(m.conj().T @ m - np.eye(4)))
        worst = max(worst, defects[-1])
        predicates.append(core.lift_a(u).is_unitary() and core.lift_b(v).is_unitary())
    assert all(predicates)
    return [np.array(defects)], worst


def factorization_loop():
    rng = np.random.default_rng(105)
    worst, rebuilt, reconstructed = 0.0, [], []
    for _ in range(1000):
        state = ref_product_state(rng)
        worst = max(worst, bell.separability_defect(state))
        factors = bell.factorize(state)
        assert factors is not None
        rebuilt.append(core.tensor(*factors).vector - state.vector)
        worst = max(worst, _max_entry(rebuilt[-1]))
        classified = bell.classify(state)
        assert classified.kind in ("product", "basis")
        reconstructed.append(classified.reconstruct().vector - state.vector)
        worst = max(worst, _max_entry(reconstructed[-1]))
    return [np.array(rebuilt), np.array(reconstructed)], worst


def oracle_states_loop():
    rng = np.random.default_rng(106)
    states = [ref_product_state(rng) for _ in range(100)]
    return states + [ref_two_qubit_state(rng) for _ in range(100)]


def record(monkeypatch, name):
    """Wrap checks.<name>: returns the list of (args, result) of its calls."""
    original, calls = getattr(checks, name), []

    def recording(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(checks, name, recording)
    return calls


class TestGroupsEqualTheirLoops:
    @pytest.mark.parametrize(
        "group,loop",
        [
            (checks.check_lifting_algebra, lifting_algebra_loop),
            (checks.check_unitarity_preservation, unitarity_preservation_loop),
            (checks.check_factorization, factorization_loop),
        ],
        ids=["lifting-algebra", "unitarity-preservation", "factorization"],
    )
    def test_worst_deviation_and_every_deviation(self, monkeypatch, group, loop):
        maxima = record(monkeypatch, "_max_entry")
        worsts = record(monkeypatch, "_check")
        result = group()
        stacks, worst = loop()
        assert result.passed
        assert float.hex(worsts[0][0][1]) == float.hex(worst)
        assert len(maxima) == len(stacks)
        for (args, _), stack in zip(maxima, stacks):
            assert_same_bytes(args[0], stack)

    def test_nearest_product_oracle(self, monkeypatch):
        searches = record(monkeypatch, "_nearest_product_distances")
        result = checks.check_nearest_product_oracle()
        states = oracle_states_loop()
        assert result == checks.CheckResult("nearest-product-oracle", True, "200/200 states agree")
        ((stack,), distances), = searches
        assert_same_bytes(stack, np.array([s.vector.reshape(2, 2) for s in states]))
        loop = np.array([ref_nearest_product_distance(s) for s in states])
        assert np.abs(distances - loop)[:100].max() <= 1e-7  # products: both are square roots of rounding error
        assert np.abs(distances - loop)[100:].max() <= 1e-12


def loop_draws(rng, count, *draws):
    """`count` samples, each taking `draws` in order: one flat row of values per sample."""
    return np.array([np.concatenate([values(draw(rng)).ravel() for draw in draws]) for _ in range(count)])


class TestStackedIntermediates:
    """Each stacked building block equals core's scalar function on the groups' own samples."""

    def test_draws_equal_one_sample_draws(self):
        rng, one = np.random.default_rng(101), np.random.default_rng(101)
        pairs = checks._operators(rng.normal(size=(400, 2, 2, 2, 2)))
        assert_same_bytes(pairs.reshape(400, 8), loop_draws(one, 400, ref_operator, ref_operator))
        draws = rng.normal(size=(1000, 16))
        triples = np.concatenate([
            checks._operators(draws[:, :8].reshape(1000, 2, 2, 2)).reshape(1000, 4),
            checks._unit_vectors(draws[:, 8:].reshape(1000, 2, 2, 2)).reshape(1000, 4),
        ], axis=1)
        reference = loop_draws(one, 1000, ref_operator, ref_single_qubit_state, ref_single_qubit_state)
        assert_same_bytes(triples, reference)
        rng, one = np.random.default_rng(102), np.random.default_rng(102)
        unitaries = checks._unitaries(rng.normal(size=(200, 2, 2, 2, 2)))
        assert_same_bytes(unitaries.reshape(200, 8), loop_draws(one, 200, ref_unitary, ref_unitary))
        rng, one = np.random.default_rng(105), np.random.default_rng(105)
        products = checks._products(rng.normal(size=(1000, 2, 2, 2)))
        assert_same_bytes(products, loop_draws(one, 1000, ref_product_state))

    def test_unitaries_take_stacked_qr_factors(self):
        rng = np.random.default_rng(102)
        draws = rng.normal(size=(200, 2, 2, 2, 2))
        q, r = np.linalg.qr(checks._operators(draws))
        rng = np.random.default_rng(102)
        for index in np.ndindex(200, 2):
            one_q, one_r = np.linalg.qr(ref_operator(rng).matrix)
            assert_same_bytes(q[index], one_q)
            assert_same_bytes(r[index], one_r)

    @pytest.mark.parametrize("seed,count", [(101, 400), (102, 200), (105, 1000)])
    def test_lifts_equal_kron_and_core_lifts(self, seed, count):
        ops = checks._operators(np.random.default_rng(seed).normal(size=(count, 2, 2, 2)))
        eye = np.eye(2, dtype=complex)
        lifted_a, lifted_b = core._lift(ops, "A"), core._lift(ops, "B")
        for index, m in enumerate(ops):
            op = core.SingleQubitOperator(m)
            assert_same_bytes(lifted_a[index], np.kron(m, eye))
            assert_same_bytes(lifted_b[index], np.kron(eye, m))
            assert_same_bytes(lifted_a[index], core.lift_a(op).matrix)
            assert_same_bytes(lifted_b[index], core.lift_b(op).matrix)

    def test_products_compositions_and_applications_equal_core(self):
        rng = np.random.default_rng(101)
        ops = checks._operators(rng.normal(size=(400, 2, 2, 2, 2)))
        draws = rng.normal(size=(1000, 16))
        s_op = checks._operators(draws[:, :8].reshape(1000, 2, 2, 2))
        factors = checks._unit_vectors(draws[:, 8:].reshape(1000, 2, 2, 2))
        a, b = factors[:, 0], factors[:, 1]
        pairs, products = checks._tensor(a, b), ops[:, 0] @ ops[:, 1]
        lifted = core._lift(s_op, "A")
        applied1, applied2 = checks._apply(s_op, a), checks._apply(lifted, pairs)
        for i in range(400):
            s, t = core.SingleQubitOperator(ops[i, 0]), core.SingleQubitOperator(ops[i, 1])
            assert_same_bytes(products[i], core.compose(s, t).matrix)
        for i in range(1000):
            one_a, one_b = core.SingleQubitState(*a[i]), core.SingleQubitState(*b[i])
            op = core.SingleQubitOperator(s_op[i])
            assert_same_bytes(pairs[i], core.tensor(one_a, one_b).vector)
            assert_same_bytes(applied1[i], values(core.apply1(op, one_a)))
            assert_same_bytes(applied2[i], core.apply2(core.lift_a(op), core.tensor(one_a, one_b)).vector)

    def test_unitarity_defect_is_the_predicate(self):
        rng = np.random.default_rng(102)
        unitaries = checks._unitaries(rng.normal(size=(200, 2, 2, 2, 2)))
        lifted = core._lift(unitaries, "A")
        defects = core._unitarity_defect(lifted)
        for index in np.ndindex(200, 2):
            op = core.TwoQubitOperator(lifted[index])
            m = op.matrix
            assert float.hex(float(defects[index])) == float.hex(_max_entry(m.conj().T @ m - np.eye(4)))
            assert op.is_unitary() == (defects[index] <= core.EPS_OP)


class TestOneSampleDraws:
    @pytest.mark.parametrize("name", [
        "random_single_qubit_state", "random_two_qubit_state", "random_product_state",
        "random_operator", "random_unitary",
    ])
    def test_bytes_of_the_loop_draws(self, name):
        reference = globals()["ref_" + name.removeprefix("random_")]
        home = checks if name in checks.__all__ else helpers  # bellkit check uses random_two_qubit_state alone
        for seed in range(10):
            batched_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert_same_bytes(values(getattr(home, name)(batched_rng)), values(reference(loop_rng)))
            assert batched_rng.random() == loop_rng.random()

    def test_row_norms_equal_one_dimensional_norms(self):
        rng = np.random.default_rng(30)
        for size in (2, 4):
            v = rng.normal(size=(10_000, size)) + 1j * rng.normal(size=(10_000, size))
            assert_same_bytes(checks._row_norms(v), np.array([np.linalg.norm(row) for row in v]))


class TestNearestProductDistance:
    def test_equals_the_loop_search_on_600_states(self):
        rng = np.random.default_rng(31)
        states = [ref_product_state(rng) for _ in range(200)]
        states += [ref_two_qubit_state(rng) for _ in range(200)]
        family = [
            bell.BellDescriptor(cls, sign, float(rng.uniform()))
            for _ in range(49) for cls in ("phi", "psi") for sign in (1, -1)
        ]
        states += [bell.bell_state(d) for d in family]
        states += [core.basis_state(index) for index in range(4)]
        assert len(states) == 600
        stack = np.array([s.vector.reshape(2, 2) for s in states])
        batched = checks._nearest_product_distances(stack).tolist()
        one = [checks.nearest_product_distance(s) for s in states]
        assert [x.hex() for x in one] == [x.hex() for x in batched]
        gaps = np.abs(np.array(one) - [ref_nearest_product_distance(s) for s in states])
        assert gaps[:200].max() <= 1e-7  # products: both are square roots of rounding error
        assert gaps[200:].max() <= 1e-12
        assert one[-4:] == [0.0] * 4
        for d, distance in zip(family, one[400:596]):
            assert abs(distance - math.sqrt(2 - 2 * max(d.s0, math.sqrt(1 - d.s0**2)))) <= 1e-14

    def test_never_calls_the_defect_test(self, monkeypatch):
        def refuse(s):
            raise AssertionError("the oracle called separability_defect")

        monkeypatch.setattr(bell, "separability_defect", refuse)
        phi = bell.bell_state(bell.BellDescriptor("phi", 1))
        expected = pytest.approx(math.sqrt(2 - math.sqrt(2)), abs=1e-15)
        assert checks.nearest_product_distance(phi) == expected
        assert checks._nearest_product_distances(phi.vector.reshape(1, 2, 2)).tolist() == [expected]

    @pytest.mark.parametrize("amplitudes", [
        (0, 0, 0, 0),
        (1, 0, 0, 1),
        (1e-200, 0, 0, 1e-200),
    ], ids=["zero", "entangled-norm-sqrt2", "tiny"])
    def test_a_state_that_is_not_normalized_is_a_value_error(self, amplitudes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="normalized"):
                checks.nearest_product_distance(core.TwoQubitState(*amplitudes))
