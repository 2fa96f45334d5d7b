"""Support-reduced simulation against the dense paths.

phi_circuit, vqc_probability, kernel and qsvm_classify simulate only the
union of the function supports.  These tests compare them with the dense
fixed ansatz (all n qubits), with phi_bruteforce, and with a reduction done
by hand, over random instances that include even k, empty supports and full
supports.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kforrelation import classify, qstate
from kforrelation.classify import DualSolution, kernel, negative_target_index, qsvm_classify, vqc_probability
from kforrelation.datagen import make_negative_sample, make_positive_sample
from kforrelation.forrelation import (
    CONSTANT,
    ForrelationInstance,
    build_circuit,
    decode,
    encode,
    function_of,
    instance_of,
    phi_bruteforce,
    phi_circuit,
    random_instance,
    restricted_functions,
    simulate_fixed_ansatz,
    simulate_instance,
    simulate_reduced,
    simulated_qubits,
)
from kforrelation.qstate import CapacityError, init_zero, phase_flip

BRUTE_FORCE_BITS = 16   # k*n at which the exhaustive sum still takes milliseconds
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def instances(draw, n=st.integers(1, 8), k=st.integers(1, 6)):
    n, k = draw(n), draw(k)
    funcs = restricted_functions(n)
    picks = draw(st.lists(st.integers(0, len(funcs) - 1), min_size=k, max_size=k))
    return ForrelationInstance(n, tuple(funcs[i] for i in picks))


def cut(inst):
    """The instance on its support union by hand, and the factor the free
    qubits contribute to Phi: 1 each for odd k (H^(k+1) = I), 2^-1/2 each
    for even k (H^(k+1) = H)."""
    support = sorted(set().union(*(f.bits for f in inst.functions))) or [1]
    label = {q: i + 1 for i, q in enumerate(support)}
    funcs = tuple(function_of(*(label[b] for b in f.bits)) for f in inst.functions)
    scale = 1.0 if inst.k % 2 else 2.0 ** (-0.5 * (inst.n - len(support)))
    return ForrelationInstance(len(support), funcs), scale


def check_against_dense(inst):
    dense = simulate_fixed_ansatz(encode(inst)).amplitudes
    phi = phi_circuit(inst)
    assert phi == pytest.approx(dense[0].real, abs=1e-12)
    if inst.k * inst.n <= BRUTE_FORCE_BITS:
        assert phi == phi_bruteforce(inst)   # both round one exact value once
    assert np.max(np.abs(simulate_instance(inst).amplitudes - dense)) <= 1e-12
    red = simulate_reduced(inst)
    for z in range(1 << inst.n):
        assert red.amplitude(z) == pytest.approx(float(dense[z]), abs=1e-12)


@SETTINGS
@given(instances())
@example(instance_of(1, {1}))               # n = 1, k = 1
@example(instance_of(2, {1, 2}, ()))        # n = 2, even k
@example(instance_of(8, {2, 5}, {2}))       # even k: free qubits 1, 3, 4, 6, 7, 8 end in |+>
def test_reduced_matches_dense_and_bruteforce(inst):
    check_against_dense(inst)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", range(1, 7))
def test_all_constant_instance_keeps_one_qubit(n, k):
    inst = ForrelationInstance(n, (CONSTANT,) * k)
    assert simulated_qubits(inst) == (1,)
    assert phi_circuit(inst) == pytest.approx(1.0 if k % 2 else 2.0 ** (-0.5 * n), abs=1e-15)
    check_against_dense(inst)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_full_support_skips_relabelling(k):
    funcs = [function_of(1, 2, 3), function_of(4, 5), function_of(6), CONSTANT][:k]
    inst = ForrelationInstance(6 if k >= 3 else 5 if k == 2 else 3, tuple(funcs))
    red = simulate_reduced(inst)
    assert red.support == tuple(range(1, inst.n + 1))
    check_against_dense(inst)


SHOTS = 20000
EPS = math.sqrt(math.log(2 / 1e-9) / (2 * SHOTS))  # Hoeffding bound per frequency, delta = 1e-9


def probability_reads(fn, *args):
    """The (exact probabilities, returned values) of every probability read
    that fn(*args) makes."""
    calls, real = [], classify._probabilities

    def spy(exact, shots, seed):
        out = real(exact, shots, seed)
        calls.append((list(exact), out))
        return out

    with mock.patch.object(classify, "_probabilities", spy):
        fn(*args)
    return calls


@SETTINGS
@given(instances(), st.integers(0, 2**32 - 1))
@example(instance_of(1, {1}), 0)             # n = 1, k = 1
@example(instance_of(2, {1, 2}, ()), 1)      # n = 2, even k
@example(instance_of(6, {2, 5}, {2}), 2)     # even k: free qubits 1, 3, 4, 6 end in |+>
def test_vqc_shot_estimate_within_hoeffding_bound(inst, seed):
    x = encode(inst)
    estimate = vqc_probability(x, SHOTS, seed)
    assert abs(estimate - vqc_probability(x)) <= EPS
    assert vqc_probability(x, SHOTS, seed) == estimate


@SETTINGS
@given(instances(n=st.integers(3, 8), k=st.sampled_from([3, 5])), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_qsvm_shot_frequencies_come_from_one_batch(inst, j, seed):
    neg = make_negative_sample(inst.n, inst.k, j, (1, 2, 3)).sample
    z = negative_target_index(neg)
    sol = DualSolution(alpha=1.0, bias=0.0, x_plus=neg, x_minus=neg, box_c=1.0)
    s = encode(inst)
    p = simulate_fixed_ansatz(s).probabilities()
    calls = probability_reads(qsvm_classify, s, sol, SHOTS, seed)
    assert len(calls) == 1
    exact, (p0, pz) = calls[0]
    assert exact == pytest.approx([p[0], p[z]], abs=1e-12)
    assert p0 + pz <= 1.0
    assert abs(p0 - p[0]) <= EPS and abs(pz - p[z]) <= EPS
    assert probability_reads(qsvm_classify, s, sol, SHOTS, seed) == calls


def test_shot_frequencies_of_complementary_outcomes_sum_to_one():
    # Two outcomes holding all the weight: one batch splits the shots
    # between them exactly, where two independent batches would not.  A
    # power-of-two shot count keeps the frequencies and their sum exact.
    for seed in range(5):
        p0, p1 = classify._probabilities([0.5, 0.5], 1024, seed)
        assert p0 + p1 == 1.0


def test_probability_of_a_sure_outcome_is_exactly_one():
    x = encode(instance_of(1, ()))               # H H |0> = |0>, with no 2^-1/2 rounded on the way
    assert vqc_probability(x) == 1.0
    calls = probability_reads(vqc_probability, x, SHOTS, 0)
    assert calls == [([1.0], [1.0])]             # every shot lands on outcome 0


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_probability_is_one_rounding_of_the_exact_square(n):
    # Every qubit ends in |+>: p0 = 2^-n exactly, while the rounded
    # amplitude 2^(-n/2) squared reads 1 ulp below 2^-n for odd n.
    x = encode(ForrelationInstance(n, (CONSTANT,) * 2))
    assert vqc_probability(x) == 2.0 ** -n


@SETTINGS
@given(instances(n=st.integers(3, 7), k=st.integers(1, 5)))
def test_vqc_probability_matches_dense(inst):
    p0 = abs(simulate_fixed_ansatz(encode(inst)).amplitudes[0]) ** 2
    assert vqc_probability(encode(inst)) == pytest.approx(p0, abs=1e-12)


def dense_kernel(xi, xj):
    a = simulate_fixed_ansatz(xi).amplitudes
    b = simulate_fixed_ansatz(xj).amplitudes
    return abs(np.vdot(a, b)) ** 2


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kernel_on_disjoint_supports(k):
    fi = [function_of(1, 2), function_of(2), CONSTANT, function_of(1)][:k]
    fj = [function_of(5, 6, 7), CONSTANT, function_of(6), function_of(5, 7)][:k]
    xi, xj = encode(ForrelationInstance(8, tuple(fi))), encode(ForrelationInstance(8, tuple(fj)))
    # The kernel circuit U_F(xi)^dagger U_F(xj) is the instance xj, constant,
    # reversed xi: its gates are xj's, the identity placeholder, xi's reversed.
    inst = ForrelationInstance(8, decode(xj).functions + (CONSTANT,) + decode(xi).functions[::-1])
    gates = build_circuit(inst)
    assert gates[: 2 * k + 1] == build_circuit(decode(xj))
    assert gates[2 * k + 1] == phase_flip()
    assert gates[2 * k + 2 :] == build_circuit(decode(xi))[::-1]
    assert simulated_qubits(inst) == (1, 2, 5, 6, 7)
    assert kernel(xi, xj) == pytest.approx(dense_kernel(xi, xj), abs=1e-12)
    assert kernel(xi, xj, shots=300, seed=4) == pytest.approx(kernel(xi, xj), abs=0.2)


@st.composite
def instance_pairs(draw):
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    return draw(instances(st.just(n), st.just(k))), draw(instances(st.just(n), st.just(k)))


@SETTINGS
@given(instance_pairs())
def test_kernel_matches_dense(pair):
    xi, xj = encode(pair[0]), encode(pair[1])
    assert kernel(xi, xj) == pytest.approx(dense_kernel(xi, xj), abs=1e-12)


def test_qsvm_pz_is_zero_when_target_qubit_is_free():
    # x_minus lands on z = 2^0 (qubit 1); the sample never touches qubit 1,
    # so its qubit 1 ends in |0> and pz = 0 while p0 = 1.
    pos = make_positive_sample(5, 3, 2, 3, 4).sample
    neg = make_negative_sample(5, 3, 1, (1, 2, 3)).sample
    z = negative_target_index(neg)
    assert z == 1 and 1 not in simulated_qubits(decode(pos))
    assert simulate_reduced(decode(pos)).probability(z) == 0.0
    assert simulate_fixed_ansatz(pos).probabilities()[z] == 0.0
    # decision = alpha * (p0 - pz) + bias: +0.5 when pz = 0, -0.5 were pz read as p0
    sol = DualSolution(alpha=1.0, bias=-0.5, x_plus=pos, x_minus=neg, box_c=1.0)
    assert qsvm_classify(pos, sol) == 1
    assert qsvm_classify(pos, sol, shots=100, seed=1) == 1


@pytest.mark.parametrize("seed", range(4))
def test_qsvm_decisions_match_dense_probabilities(seed):
    rng = np.random.default_rng(seed)
    neg = make_negative_sample(6, 3, 4, (1, 2, 3)).sample
    z = negative_target_index(neg)
    for _ in range(20):
        s = encode(random_instance(6, 3, rng))
        p = simulate_fixed_ansatz(s).probabilities()
        bias = float(rng.uniform(-0.5, 0.5))
        sol = DualSolution(alpha=1.0, bias=bias, x_plus=s, x_minus=neg, box_c=1.0)
        decision = p[0] - p[z] + bias
        if abs(decision) > 1e-9:
            assert qsvm_classify(s, sol) == (1 if decision > 0 else -1)


def test_phi_circuit_at_n40_beyond_the_state_cap():
    inst = instance_of(40, {1, 17, 40}, {17, 25}, {2, 33, 40})
    small, scale = cut(inst)
    assert small.n == 6 and scale == 1.0
    assert phi_circuit(inst) == pytest.approx(scale * phi_bruteforce(small), abs=1e-12)
    even = instance_of(40, {1, 17, 40}, {17, 25})
    small, scale = cut(even)
    assert phi_circuit(even) == pytest.approx(scale * phi_bruteforce(small), abs=1e-15)
    with pytest.raises(CapacityError):
        init_zero(27)
    with pytest.raises(CapacityError):
        simulate_instance(inst)   # the full state is still capped


@pytest.mark.parametrize("inst", [
    instance_of(2, *[{1, 2}] * 1500),
    instance_of(3, *[{1, 2, 3}, {1}, {2, 3}] * 467),
], ids=["m2-k1500", "m3-k1401"])
def test_long_circuits_stay_in_range(inst):
    # Unscaled, the amplitudes would grow by 2^(m/2) per Hadamard layer and
    # overflow float64 long before the last one.
    dense = simulate_instance(inst).amplitudes
    assert phi_circuit(inst) == pytest.approx(float(dense[0]), abs=1e-12)
    red = simulate_reduced(inst)
    assert [red.amplitude(z) for z in range(1 << inst.n)] == pytest.approx(list(dense), abs=1e-12)


@pytest.mark.parametrize("inst", [
    instance_of(14, {1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}, {13, 14}),
    instance_of(15, {1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}, {13, 14, 15}, {2, 14}),
], ids=["m14-k5", "m15-k6"])
def test_runner_past_two_hadamard_blocks_matches_dense(inst):
    # m above 2 * WHT_BLOCK_QUBITS: three Sylvester blocks, the upper ones
    # applied along a strided axis in slabs.
    assert inst.n > 2 * qstate.WHT_BLOCK_QUBITS
    dense = simulate_instance(inst).amplitudes
    red = simulate_reduced(inst)
    assert [red.amplitude(z) for z in range(1 << inst.n)] == pytest.approx(list(dense), abs=1e-12)


def test_support_above_the_state_cap_raises():
    inst = instance_of(27, *({3 * i + 1, 3 * i + 2, 3 * i + 3} for i in range(9)))
    assert len(simulated_qubits(inst)) == 27
    with pytest.raises(CapacityError):
        simulate_reduced(inst)


def test_hadamard_kernel_norm_drift_raises(monkeypatch):
    real = qstate._wht_inplace

    def drifting(amp, n):
        real(amp, n)
        amp *= 1 + 1e-9

    inst = instance_of(4, {1, 2}, {2, 3, 4}, {4})
    simulate_reduced(inst)
    monkeypatch.setattr(qstate, "_wht_inplace", drifting)
    with pytest.raises(RuntimeError, match="norm drifted"):
        simulate_reduced(inst)


def test_even_k_free_factor_past_the_float_range_of_its_power_of_two():
    # 1499 free qubits in |+>: their factor 2^-749.5 is a float, 2^1499 is not.
    inst = instance_of(1503, {1, 2, 3}, {3, 1503})
    small, scale = cut(inst)
    assert phi_circuit(inst) == pytest.approx(scale * phi_bruteforce(small), rel=1e-15, abs=0.0)
    assert vqc_probability(encode(inst)) == 0.0   # 2^-1500 times p0 of the cut instance


@SETTINGS
@given(instances(n=st.integers(9, 40), k=st.integers(1, 4)))
def test_large_n_phi_equals_scaled_cut_bruteforce(inst):
    small, scale = cut(inst)
    if small.n * small.k <= BRUTE_FORCE_BITS:
        assert phi_circuit(inst) == pytest.approx(scale * phi_bruteforce(small), abs=1e-12)
