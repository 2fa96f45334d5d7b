import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kforrelation import forrelation
from kforrelation.forrelation import (
    CONSTANT,
    BooleanFunctionSpec,
    EncodedSample,
    ForrelationInstance,
    MalformedSampleError,
    ansatz_parameter_count,
    build_circuit,
    build_fixed_ansatz,
    decode,
    encode,
    function_of,
    gadget_gate_sequence,
    instance_of,
    oddk_extend,
    oddk_extension_count,
    phi_bruteforce,
    phi_circuit,
    phi_fixed_ansatz,
    random_instance,
    restricted_functions,
    sample_from_string,
    simulate_fixed_ansatz,
    simulate_instance,
)
from kforrelation.qstate import CapacityError, GateKind, controlled_phase, hadamard_all, swap, unitary_of


# ---------------------------------------------------------------------------
# types and encoding


def test_function_spec_rejects_four_bits():
    with pytest.raises(ValueError):
        BooleanFunctionSpec(frozenset({1, 2, 3, 4}))


def test_function_evaluate():
    f = function_of(1, 3)
    assert f.evaluate(0b101) == -1  # bits 1 and 3 set
    assert f.evaluate(0b001) == 1
    assert CONSTANT.evaluate(0b111) == 1


def test_instance_validation():
    with pytest.raises(ValueError):
        instance_of(2, {3})  # bit index beyond n
    with pytest.raises(ValueError, match="function bit 6 exceeds n = 3"):
        instance_of(3, {1, 4, 6})  # the highest bit past n is named
    with pytest.raises(ValueError):
        ForrelationInstance(3, ())


def test_promise_complete_flag():
    assert instance_of(3, {1, 2, 3}, ()).promise_complete_form
    assert not instance_of(3, {1, 2}, {3}).promise_complete_form


def test_encode_worked_example():
    inst = instance_of(3, {1, 3}, (), {2})
    assert encode(inst).bits == (1, 0, 1, 0, 0, 0, 0, 1, 0)


def test_encode_all_constant_is_zero_vector():
    inst = instance_of(2, (), (), ())
    assert encode(inst).bits == (0, 0, 0, 0, 0, 0)


def test_encode_full_block():
    inst = instance_of(3, {1, 2, 3})
    assert encode(inst).bits == (1, 1, 1)


def test_decode_worked_example():
    sample = sample_from_string(3, 3, "101000010")
    inst = decode(sample)
    assert [set(f.bits) for f in inst.functions] == [{1, 3}, set(), {2}]


def test_decode_zero_vector():
    inst = decode(sample_from_string(2, 2, "0000"))
    assert all(f.is_constant for f in inst.functions)


def test_four_ones_block_rejected():
    with pytest.raises(MalformedSampleError, match="block 0 has more than 3 ones"):
        EncodedSample(4, 1, (1, 1, 1, 1))
    with pytest.raises(MalformedSampleError, match="block 1 has more than 3 ones"):
        EncodedSample(4, 2, (1, 1, 1, 0, 1, 1, 1, 1))


@pytest.mark.parametrize("bit", [2, -1, None, "1", float("nan"), [1], {0}])
def test_a_bit_other_than_0_or_1_is_rejected(bit):
    # [1] and {0} are unhashable: still a malformed sample, not a TypeError.
    with pytest.raises(MalformedSampleError, match="sample bits must be 0 or 1"):
        EncodedSample(2, 1, (0, bit))


def test_bits_that_compare_equal_to_0_or_1_are_accepted():
    assert EncodedSample(2, 2, (True, False, 1.0, np.int64(0))).block(0) == (True, False)


def test_roundtrip_exhaustive_small():
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for funcs in itertools.product(restricted_functions(n), repeat=k):
                inst = ForrelationInstance(n, funcs)
                assert decode(encode(inst)) == inst


@pytest.mark.parametrize("seed", range(3))
def test_roundtrip_randomized(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        inst = random_instance(int(rng.integers(3, 9)), int(rng.integers(1, 8)), rng)
        assert decode(encode(inst)) == inst


def test_batched_draws_equal_scalar_draws():
    # random_instance draws one function index per rng.integers call.  A
    # batched draw of a whole chunk must give the same values, in row-major
    # order, and leave the generator where the scalar calls leave it; numpy
    # does not document this, so a numpy upgrade that breaks it fails here.
    for n in (3, 6, 12, 20):
        count = len(restricted_functions(n))
        for shape in ((64, 7), (16, 3), (5, 9)):
            for seed in range(50):
                batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                values = batched.integers(count, size=shape)
                assert values.ravel().tolist() == [int(scalar.integers(count)) for _ in range(values.size)]
                assert batched.bit_generator.state == scalar.bit_generator.state


# ---------------------------------------------------------------------------
# brute-force oracle


def test_bruteforce_all_constant_odd_k():
    assert phi_bruteforce(instance_of(1, (), (), ())) == pytest.approx(1.0, abs=1e-15)


def test_bruteforce_single_z():
    assert phi_bruteforce(instance_of(1, {1})) == pytest.approx(0.0, abs=1e-15)


def test_bruteforce_known_value_n2():
    # f1 = (-1)^(x_1), f2 = f3 = +1: circuit collapses to X on qubit 1, Phi = 0
    inst = instance_of(2, {1}, (), ())
    assert phi_bruteforce(inst) == pytest.approx(0.0, abs=1e-15)
    assert phi_circuit(inst) == pytest.approx(0.0, abs=1e-15)


def test_bruteforce_capacity():
    inst = ForrelationInstance(5, tuple([CONSTANT] * 5))
    with pytest.raises(CapacityError):
        phi_bruteforce(inst)


def test_phi_bound_invariant():
    rng = np.random.default_rng(5)
    for _ in range(30):
        inst = random_instance(3, int(rng.integers(1, 6)), rng)
        assert abs(phi_bruteforce(inst)) <= 1 + 1e-12
        assert abs(phi_circuit(inst)) <= 1 + 1e-12


# ---------------------------------------------------------------------------
# circuit path


def test_build_circuit_k1():
    gates = build_circuit(instance_of(1, {1}))
    kinds = [g.kind for g in gates]
    assert kinds == [GateKind.HADAMARD_ALL, GateKind.PHASE_FLIP, GateKind.HADAMARD_ALL]
    assert gates[1].targets == frozenset({1})


def test_build_circuit_length_and_placeholders():
    inst = instance_of(3, {1, 3}, (), {2})
    gates = build_circuit(inst)
    assert len(gates) == 7
    flips = [g for g in gates if g.kind is GateKind.PHASE_FLIP]
    assert [set(g.targets) for g in flips] == [{1, 3}, set(), {2}]


def test_all_constant_circuit_is_identity_on_zero():
    assert phi_circuit(instance_of(2, (), (), ())) == pytest.approx(1.0, abs=1e-12)


def test_oracle_equivalence_exhaustive_n2():
    for k in (1, 2, 3):
        for funcs in itertools.product(restricted_functions(2), repeat=k):
            inst = ForrelationInstance(2, funcs)
            assert abs(phi_bruteforce(inst) - phi_circuit(inst)) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_oracle_equivalence_randomized(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 16 // n + 1))
        inst = random_instance(n, k, rng)
        assert abs(phi_bruteforce(inst) - phi_circuit(inst)) <= 1e-10


def test_instance_states_are_float64():
    # H layers and +-1 phases (the ansatz angles are 0 or pi) keep states real.
    rng = np.random.default_rng(23)
    for k in (2, 3, 5):
        inst = random_instance(6, k, rng)
        runs = forrelation._dispatch(inst, (1 << inst.n) - 1)[1]   # every component
        assert all(forrelation._run(*program).amps.dtype == np.float64 for program in runs)
        assert simulate_instance(inst).amplitudes.dtype == np.float64
        assert simulate_fixed_ansatz(encode(inst)).amplitudes.dtype == np.float64


# ---------------------------------------------------------------------------
# fixed ansatz


def test_ansatz_slot_count_n3():
    assert ansatz_parameter_count(3, 1) == 7  # 3 + 3 + 1
    assert ansatz_parameter_count(3, 3) == 21


def test_ansatz_gate_count_matches_formula():
    for n in (1, 2, 3, 4, 5):
        for k in (1, 2, 4):
            sample = encode(ForrelationInstance(n, tuple([CONSTANT] * k)))
            gates = build_fixed_ansatz(sample)
            cp = [g for g in gates if g.kind is GateKind.CONTROLLED_PHASE]
            assert len(cp) == ansatz_parameter_count(n, k)
            assert len([g for g in gates if g.kind is GateKind.HADAMARD_ALL]) == k + 1


def test_ansatz_constant_block_all_angles_zero():
    sample = encode(instance_of(3, ()))
    gates = build_fixed_ansatz(sample)
    assert all(g.angle == 0.0 for g in gates if g.kind is GateKind.CONTROLLED_PHASE)


def test_ansatz_block_101_selects_single_slot():
    sample = sample_from_string(3, 1, "101")
    gates = build_fixed_ansatz(sample)
    hot = [(set(g.targets), g.angle) for g in gates if g.kind is GateKind.CONTROLLED_PHASE and g.angle != 0.0]
    assert hot == [({1, 3}, math.pi)]


@st.composite
def encoded_samples(draw):
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    bits = []
    for _ in range(k):
        ones = draw(st.sets(st.integers(1, n), max_size=3))
        bits.extend(1 if j in ones else 0 for j in range(1, n + 1))
    return EncodedSample(n, k, tuple(bits))


@settings(max_examples=60, deadline=None)
@given(encoded_samples())
def test_ansatz_from_prebuilt_slot_gates_equals_direct_build(sample):
    # Every slot's gate built directly by controlled_phase, as the paper's
    # angle formula gives it.
    expected = [hadamard_all()]
    for i in range(sample.k):
        ones = frozenset(j + 1 for j, b in enumerate(sample.block(i)) if b)
        for slot in restricted_functions(sample.n)[1:]:
            expected.append(controlled_phase(slot.bits, math.pi if slot.bits == ones else 0.0))
        expected.append(hadamard_all())
    assert build_fixed_ansatz(sample) == expected


def test_ansatz_all_zero_sample_odd_k():
    sample = encode(instance_of(2, (), (), ()))
    assert phi_fixed_ansatz(sample) == pytest.approx(1.0, abs=1e-12)


def test_ansatz_matches_direct_on_worked_example():
    inst = instance_of(3, {1, 3}, (), {2})
    assert abs(phi_fixed_ansatz(encode(inst)) - phi_circuit(inst)) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_ansatz_statevector_equivalence(seed):
    rng = np.random.default_rng(seed)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        inst = random_instance(n, k, rng)
        direct = simulate_instance(inst).amplitudes
        ansatz = simulate_fixed_ansatz(encode(inst)).amplitudes
        assert np.max(np.abs(direct - ansatz)) <= 1e-10


# ---------------------------------------------------------------------------
# gadget and odd-k extension


def test_gadget_identity_exact():
    lhs = unitary_of(gadget_gate_sequence(), 2)
    rhs = unitary_of([swap(1, 2), hadamard_all()], 2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12  # phase is exactly +1


def test_oddk_noop_on_odd_k():
    inst = instance_of(3, {1, 2, 3}, (), {2})
    ext = oddk_extend(inst)
    assert not ext.extended
    assert ext.instance is inst
    assert ext.phi_scale == 1.0


def test_oddk_rejects_n1():
    with pytest.raises(ValueError):
        oddk_extend(instance_of(1, {1}, ()))


def test_oddk_counts():
    assert oddk_extension_count(2) == 3
    assert oddk_extension_count(3) == 7
    assert oddk_extension_count(4) == 7
    assert oddk_extension_count(5) == 11


def test_oddk_n2_k2():
    inst = instance_of(2, {1}, {1, 2})
    ext = oddk_extend(inst)
    assert ext.extended and ext.phi_scale == 1.0
    assert ext.instance.k == 5
    assert gadget_gate_sequence() == build_circuit(ext.instance)[-7:]   # the gadget check covers this chain
    assert abs(phi_circuit(ext.instance) - phi_circuit(inst)) <= 1e-10


def test_oddk_n4_structure():
    inst = instance_of(4, {1}, {2, 3})
    ext = oddk_extend(inst)
    appended = ext.instance.functions[2:]
    assert len(appended) == 7
    two_bit = [f for f in appended if len(f.bits) == 2]
    consts = [f for f in appended if f.is_constant]
    assert len(two_bit) == 6 and len(consts) == 1
    assert {frozenset(f.bits) for f in two_bit} == {frozenset({1, 2}), frozenset({3, 4})}


def test_oddk_preserves_original_function_order():
    inst = instance_of(4, {1, 2, 3}, {4})
    ext = oddk_extend(inst)
    assert ext.instance.functions[: inst.k] == inst.functions


@pytest.mark.parametrize("n,k", [(2, 2), (2, 4), (4, 2), (4, 4)])
def test_oddk_phi_preserved_even_n(n, k):
    rng = np.random.default_rng(n * 10 + k)
    for _ in range(25):
        inst = random_instance(n, k, rng)
        ext = oddk_extend(inst)
        assert ext.instance.k == k + oddk_extension_count(n)
        assert ext.instance.k % 2 == 1
        assert abs(phi_circuit(ext.instance) - phi_circuit(inst)) <= 1e-10


@pytest.mark.parametrize("k", [2, 4])
def test_oddk_odd_n_documented_scale(k):
    # odd n appends an ancilla; the extension rescales Phi by exactly 2^-1/2
    # (see oddk_extend docstring: exact preservation is impossible at this
    # function count), and the result reports that scale.
    rng = np.random.default_rng(k)
    for _ in range(25):
        inst = random_instance(3, k, rng)
        ext = oddk_extend(inst)
        assert ext.instance.n == 4
        assert ext.instance.k == k + oddk_extension_count(3)
        assert ext.phi_scale == pytest.approx(2 ** -0.5, abs=0)
        assert abs(phi_circuit(ext.instance) - ext.phi_scale * phi_circuit(inst)) <= 1e-10


def test_oddk_odd_n_ancilla_unentangled():
    # final state factorises: ancilla marginal is pure |0> or |+>-free mix;
    # concretely the extended state is a qubit permutation of (U_F|0^n>) x |+>.
    inst = instance_of(3, {1, 2}, {3})
    ext = oddk_extend(inst)
    state = simulate_instance(ext.instance).amplitudes.reshape(2, 2, 2, 2)
    # reduced density matrix of the ancilla (qubit 4 = axis 0) must be rank 1
    m = state.reshape(2, -1)
    rho = m @ m.conj().T
    eig = np.linalg.eigvalsh(rho)
    assert eig[0] <= 1e-12 and abs(eig[1] - 1.0) <= 1e-12
