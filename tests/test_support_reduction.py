"""Support-reduced simulation against the dense paths.

phi_circuit, vqc_probability, kernel and qsvm_classify simulate each
connected component of the function supports on its own.  These tests
compare them with the dense fixed ansatz and dense run (all n qubits), with
phi_bruteforce, and with a reduction done by hand, over random instances
that include even k, empty supports, full supports and disjoint pieces.
"""
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kforrelation import classify, forrelation, qstate
from kforrelation.classify import DualSolution, kernel, negative_target_index, qsvm_classify, vqc_probability
from kforrelation.datagen import CHUNK_MIN, DatasetSpec, generate_dataset, make_negative_sample, make_positive_sample
from kforrelation.forrelation import (
    CONSTANT,
    Component,
    ForrelationInstance,
    amplitudes_exact,
    build_circuit,
    components,
    decode,
    encode,
    function_of,
    instance_of,
    phi_bruteforce,
    phi_circuit,
    phi_circuits,
    random_instance,
    restricted_functions,
    simulate_fixed_ansatz,
    simulate_instance,
    squared,
)
from kforrelation.qstate import CapacityError, init_zero, phase_flip

BRUTE_FORCE_BITS = 24   # k*n up to which Phi is also summed exhaustively (about 1 s at the cap)
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def instances(draw, n=st.integers(1, 8), k=st.integers(1, 6)):
    n, k = draw(n), draw(k)
    funcs = restricted_functions(n)
    picks = draw(st.lists(st.integers(0, len(funcs) - 1), min_size=k, max_size=k))
    return ForrelationInstance(n, tuple(funcs[i] for i in picks))


@st.composite
def disjoint_unions(draw, parts=st.integers(2, 3), n=st.integers(1, 3), k=st.integers(1, 3)):
    """Small random instances on disjoint qubit ranges, their functions
    interleaved in a random order: each piece's functions are constants to
    every other piece, so identity layers fall between its own."""
    pieces = [draw(instances(n, k)) for _ in range(draw(parts))]
    queues, offset = [], 0
    for piece in pieces:
        queues.append([function_of(*(b + offset for b in f.bits)) for f in piece.functions])
        offset += piece.n
    order = draw(st.permutations([i for i, q in enumerate(queues) for _ in q]))
    return ForrelationInstance(offset, tuple(queues[i].pop(0) for i in order))


# Every component of ONE and SPLIT applies a Hadamard layer between its first
# and its last: two of its flips sit an odd number of layers apart.  OUTER's
# component {1, 2} applies only the filled first layer and the open last
# one, and its {4, 5, 6} acts on |000> alone and applies none.
ONE = instance_of(4, {1, 2}, {2, 3, 4}, {4})
SPLIT = instance_of(6, {1, 2}, {2}, {4, 5, 6}, {6})
OUTER = instance_of(6, {1, 2}, {4, 5, 6}, {2}, {6}, {1})
# One 8-qubit component, wider than the runner's sign table, whose last two
# flips act back to back.
WIDE = instance_of(8, {1, 2, 3}, {3, 4, 5}, {5, 6, 7}, (), {7, 8}, {1})


def cut(inst):
    """The instance on its support union by hand, and the factor the free
    qubits contribute to Phi: 1 each for odd k (H^(k+1) = I), 2^-1/2 each
    for even k (H^(k+1) = H)."""
    support = sorted(set().union(*(f.bits for f in inst.functions))) or [1]
    label = {q: i + 1 for i, q in enumerate(support)}
    funcs = tuple(function_of(*(label[b] for b in f.bits)) for f in inst.functions)
    scale = 1.0 if inst.k % 2 else 2.0 ** (-0.5 * (inst.n - len(support)))
    return ForrelationInstance(len(support), funcs), scale


def runner_components(inst):
    """A lone runner row per component of inst, as a read of a z that sets
    a qubit of every component runs them."""
    return [forrelation._run(*program) for program in forrelation._dispatch(inst, (1 << inst.n) - 1)[1]]


def runner_phi(inst):
    """Phi read at index 0 of runner_components, with no end table."""
    return forrelation._rounded(*forrelation._exact_of(inst, [], runner_components(inst)))


def read_all(inst):
    """amplitudes_exact at the z that sets every qubit, so every component runs."""
    return amplitudes_exact(inst, [(1 << inst.n) - 1])


def check_against_dense(inst):
    dense = simulate_fixed_ansatz(encode(inst)).amplitudes
    phi = phi_circuit(inst)
    assert phi == pytest.approx(dense[0].real, abs=1e-12)
    if inst.k * inst.n <= BRUTE_FORCE_BITS:
        assert phi == phi_bruteforce(inst)   # both round one exact value once
    assert np.max(np.abs(simulate_instance(inst).amplitudes - dense)) <= 1e-12
    exact = amplitudes_exact(inst, range(1 << inst.n))   # every component runs
    for z, amp in enumerate(exact):
        assert forrelation._rounded(*amp) == pytest.approx(float(dense[z]), abs=1e-12)
        assert squared(*amp) == pytest.approx(float(dense[z]) ** 2, abs=1e-12)
    assert forrelation._rounded(*exact[0]) == phi


@SETTINGS
@given(st.one_of(disjoint_unions(), instances(n=st.integers(1, 10), k=st.integers(1, 7))))
@example(instance_of(1, {1}))               # n = 1, k = 1
@example(instance_of(2, {1, 2}, ()))        # n = 2, even k
@example(instance_of(8, {2, 5}, {2}))       # even k: free qubits 1, 3, 4, 6, 7, 8 end in |+>
@example(instance_of(6, {1, 2}, {4, 5, 6}, {2}, {6}))             # k * n = 24, two components
@example(instance_of(5, {1, 2}, {3, 4, 5}, {2}, {5}))             # even k, two components
@example(instance_of(6, {1, 2, 3}, (), {4, 5}, {1}, {6}))         # odd k, a constant, three components
@example(instance_of(8, {1}, {5, 6}, (), {2, 3}, {7}, {1, 2}))   # even k, free qubits 4 and 8 in |+>
@example(instance_of(5, {1, 2}, {1, 2}, {3, 4, 5}, {3, 4, 5}))   # flips back to back cancel
@example(instance_of(3, (), {1, 2, 3}))     # every flip acts on |0...0>: only the open last layer remains
@example(instance_of(3, {1, 2}, ()))        # ends on a constant: no layer is left open
def test_reduced_matches_dense_and_bruteforce(inst):
    check_against_dense(inst)


@SETTINGS
@given(instances(n=st.integers(1, 12), k=st.integers(1, 7)), st.randoms(use_true_random=False))
@example(WIDE, None)   # even k: one 8-qubit component, its last layer open
@example(instance_of(12, {10, 11}, {12}, {9}, {1, 2, 3}, {3, 4, 5}, {5, 6, 7}, {7, 8}), None)  # odd k: 8, 2 and 1 qubits
@example(instance_of(9, {1, 2, 3}, {3, 4, 5}, {5, 6, 7}, {7, 8, 9}, ()), None)   # odd k: 9 qubits, ends on a constant
def test_reads_are_pure_and_exact(inst, random):
    # Reading z twice gives the same exact value, no read writes to a row,
    # and each component's entry equals, bit for bit, an independent close
    # of its row: the +-1 transform of a copy, times scale.
    comps = runner_components(inst)
    rows = [c.amps.copy() for c in comps]
    closed = [row.copy() for row in rows]
    for c, row in zip(comps, closed):
        if c.scale:
            qstate._wht_inplace(row, len(c.support))
            row *= c.scale
    for z in [random.randrange(1 << inst.n) for _ in range(8)] if random else range(1 << inst.n):
        assert forrelation._exact_of(inst, [], comps, z) == forrelation._exact_of(inst, [], comps, z)
        for c, row in zip(comps, closed):
            r = sum(((z >> (q - 1)) & 1) << i for i, q in enumerate(c.support))
            assert c.entry(r) == row[r]
    assert all(np.array_equal(c.amps, row) for c, row in zip(comps, rows))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(disjoint_unions(), instances(n=st.integers(1, 10), k=st.integers(1, 7))),
                min_size=1, max_size=12), st.randoms(use_true_random=False))
@example([instance_of(3, (), ()), instance_of(3, (), (), ())], None)               # all constant, even and odd k
@example([instance_of(3, (), {1, 2, 3})] * 2 + [instance_of(4, {4}, ()), ONE, ONE], None)  # a block of rows with no applied layer
@example([instance_of(8, {2, 5}, {2}), instance_of(5, {1, 2}, {3, 4, 5}, {2}, {5}), SPLIT, OUTER, ONE], None)
@example([WIDE, instance_of(8, {1, 2, 3}, {3, 4, 5}, {5, 6, 7}, (), {7, 8}, {2}), WIDE], None)   # rows above the sign table
def test_batch_equals_one_at_a_time(insts, random):
    # Phi in one batch and one instance at a time give the same bits; each
    # instance's amplitude read gives them at index 0 and the dense run's
    # amplitudes and probabilities at random z.
    phis = phi_circuits(insts)
    assert phis == [phi_circuit(inst) for inst in insts]
    for inst, phi in zip(insts, phis, strict=True):
        dense = simulate_instance(inst).amplitudes
        zs = [0] + [random.randrange(1 << inst.n) for _ in range(3)] if random else range(1 << inst.n)
        exact = amplitudes_exact(inst, zs)
        assert forrelation._rounded(*exact[0]) == phi
        for z, amp in zip(zs, exact):
            assert forrelation._rounded(*amp) == pytest.approx(float(dense[z]), abs=1e-12)
            assert squared(*amp) == pytest.approx(float(dense[z]) ** 2, abs=1e-12)


@SETTINGS
@given(instances(n=st.integers(1, 10), k=st.integers(1, 7)), st.integers(0, 1023), st.integers(0, 1023))
@example(instance_of(5, {1}, {2, 3, 4}, ()), 1, 0b1110)   # odd k: z = 1 touches {1}, which _runs_dense; it reads 1, not 0
def test_a_read_does_not_depend_on_its_company(inst, z, z2):
    # Read alone, z runs only the components it sets a qubit of and reads
    # the others off their end tables; read beside 0 and z2, the components
    # z2 sets a qubit of run too.  Both give the same bits, and the dense
    # run's amplitude: a component that z touches is never read off a table.
    z, z2 = z & ((1 << inst.n) - 1), z2 & ((1 << inst.n) - 1)
    alone, = amplitudes_exact(inst, [z])
    among = amplitudes_exact(inst, [0, z, z2])[1]
    assert forrelation._rounded(*alone) == forrelation._rounded(*among)
    assert squared(*alone) == squared(*among)
    dense = float(simulate_instance(inst).amplitudes[z])
    assert forrelation._rounded(*alone) == pytest.approx(dense, abs=1e-12)


def runner_spy(monkeypatch):
    """The qubit count of each program run by qstate.run_sign_circuit for
    forrelation, one entry per row, while the patch is on."""
    widths = []
    run = forrelation.run_sign_circuit
    monkeypatch.setattr(forrelation, "run_sign_circuit",
                        lambda m, programs, open_last: widths.extend([m] * len(programs)) or run(m, programs, open_last))
    return widths


def runner_widths(insts):
    """The qubit counts of the components Phi runs: those of instances past
    the whole-register tables (n > 6 or k*n > 53) that are past the
    component tables too (m > 6 or k*m > 53)."""
    return sorted(len(c) for inst in insts if inst.n > qstate.SIGN_TABLE_QUBITS or inst.n * inst.k > 53
                  for c in components(inst) if len(c) > qstate.SIGN_TABLE_QUBITS or len(c) * inst.k > 53)


def test_phi_of_a_mixed_list_takes_dense_rows_where_k_n_fits_53_bits(monkeypatch):
    # Several (n, k) in one list, some wider than the sign table and some
    # past k*n = 53: every path gives the same bits, and only the components
    # that fit neither the whole-register nor their own end tables reach the
    # runner.
    rng = np.random.default_rng(17)
    shapes = [(6, 7), (3, 5), (8, 2), (6, 9), (4, 3), (1, 5), (6, 7), (10, 2), (5, 10), (3, 18), (4, 3), (2, 10),
              (20, 3), (16, 4), (7, 3), (8, 7)]
    insts = [random_instance(n, k, rng) for n, k in shapes for _ in range(3)]
    widths = runner_spy(monkeypatch)
    phis = phi_circuits(insts)
    assert sorted(widths) == runner_widths(insts) and widths
    assert phis == [phi_circuit(inst) for inst in insts] == list(map(runner_phi, insts))
    for inst, phi in zip(insts, phis):
        if inst.n * inst.k <= BRUTE_FORCE_BITS:
            assert phi == phi_bruteforce(inst)


def test_dense_rows_run_up_to_k_n_53_and_fall_back_past_it(monkeypatch):
    # (6, 8) is k*n = 48: one dense block, and phi_circuit one instance off
    # the end tables.  (6, 9) is k*n = 54, past float64's significand: a
    # 6-qubit component runs, in a batch and alone, and a narrower one is
    # read off its own end tables.
    rng = np.random.default_rng(5)
    widths = runner_spy(monkeypatch)
    for k, dense in ((8, True), (9, False)):
        insts = [random_instance(6, k, rng) for _ in range(4)] + [instance_of(6, *([{1, 2}, {4, 5, 6}] * 5)[:k])]
        assert {len(c) for inst in insts for c in components(inst)} >= {2, 3, 6}
        expected = [] if dense else [6] * sum(len(c) == 6 for inst in insts for c in components(inst))
        assert runner_widths(insts) == expected
        widths.clear()
        phis = phi_circuits(insts)
        assert widths == expected
        widths.clear()
        assert [phi_circuit(inst) for inst in insts] == phis
        assert widths == expected


def test_qsvm_runs_only_the_components_its_target_touches(monkeypatch):
    # At (20,3) the target z = 1: a QSVM read runs the component that holds
    # qubit 1 and each component past the end tables, and reads every other
    # one off the tables.
    neg = make_negative_sample(20, 3, 1, (2, 3, 4)).sample
    assert negative_target_index(neg) == 1   # trained before the spies go on
    sol = DualSolution(alpha=1.0, bias=0.0, x_plus=neg, x_minus=neg, box_c=1.0)
    rng = np.random.default_rng(20)
    widths, tabled, dense_totals = runner_spy(monkeypatch), [], forrelation._dense_totals
    monkeypatch.setattr(forrelation, "_dense_totals", lambda m, cols: tabled.append(m) or dense_totals(m, cols))
    kinds = set()
    for _ in range(40):
        inst = random_instance(20, 3, rng)
        widths.clear(), tabled.clear()
        qsvm_classify(encode(inst), sol)
        runs = {c: 1 in c or not forrelation._runs_dense(len(c), 3) for c in components(inst)}
        assert sorted(widths) == sorted(len(c) for c, run in runs.items() if run)
        assert sorted(tabled) == sorted(len(c) for c, run in runs.items() if not run)
        kinds |= {"touched" if 1 in c else "wide" if run else "table" for c, run in runs.items()}
    assert kinds == {"touched", "wide", "table"}


@pytest.mark.parametrize("m", [1, 3, 5, qstate.SIGN_TABLE_QUBITS, qstate.SIGN_TABLE_QUBITS + 2])
@pytest.mark.parametrize("open_last", [True, False])
def test_runner_row_is_the_same_alone_and_in_a_block(m, open_last):
    # One collapsed program run alone and as row 1 of a block of three (the
    # other rows flip other masks): the same bits, the same e and scale, and
    # every row a plain float64 array of 2^m entries.  The programs flip two
    # masks per layer; then one to three, which the block pads with mask 0;
    # then none, with no layers, which leaves every row |0...0>.  At odd m
    # the layer rescale alternates between 2^-floor(m/2) and 2^-ceil(m/2).
    rng = np.random.default_rng(m)
    two = [[[int(mask) for mask in rng.integers(1, 1 << m, size=2)] for _ in range(3)] for _ in range(3)]
    ragged = [[[int(mask) for mask in rng.integers(1, 1 << m, size=int(rng.integers(1, 4)))] for _ in range(4)]
              for _ in range(3)]
    assert any(len({len(p[j]) for p in ragged}) > 1 for j in range(4))   # some layer is padded
    for programs in (two, ragged, [[], [], []]):
        alone, e, scale = qstate.run_sign_circuit(m, programs[1:2], open_last)
        block, e_block, scale_block = qstate.run_sign_circuit(m, programs, open_last)
        assert alone[0].tobytes() == block[1].tobytes()
        assert (e, scale) == (e_block, scale_block) and bool(scale) == open_last
        for row in alone + block:
            assert type(row) is np.ndarray and row.dtype == np.float64 and row.shape == (1 << m,)
    assert all(row.tolist() == [1.0] + [0.0] * ((1 << m) - 1) for row in block)   # the zero-layer block


@SETTINGS
@given(st.sampled_from([(3, 3), (4, 4), (5, 3), (2, 7), (6, 2), (8, 2), (3, 5)]), st.integers(1, 6), st.data())
def test_phi_of_an_int_array_of_draws_is_phi_circuits_bit_for_bit(shape, rows, data):
    # Dense shapes read the masks off function_tables; (8, 2) is wider than
    # the sign table and builds its instances.  All k*n <= 16, so
    # phi_bruteforce sums every index tuple quickly.
    n, k = shape
    draws = np.array(data.draw(st.lists(st.lists(st.integers(0, len(restricted_functions(n)) - 1),
                                                 min_size=k, max_size=k), min_size=rows, max_size=rows)))
    insts = [forrelation.indexed_instance(n, row) for row in draws.tolist()]
    assert forrelation.phi_draws(n, draws) == phi_circuits(insts) == [phi_bruteforce(inst) for inst in insts]


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, qstate.SIGN_TABLE_QUBITS + 1)
                                 for k in range(1, BRUTE_FORCE_BITS // n + 1)])
def test_dense_phi_is_phi_bruteforce_at_every_shape_to_24_bits(n, k):
    # Every dense shape that phi_bruteforce reaches, odd and even k, the
    # end-table reads of k <= 4 among them: a block of draws and each draw
    # alone give phi_bruteforce's bits.  Past 16 bits one draw keeps the
    # exhaustive sums to seconds.
    rng = np.random.default_rng(100 * n + k)
    draws = rng.integers(len(restricted_functions(n)), size=(8 if n * k <= 16 else 1, k))
    insts = [forrelation.indexed_instance(n, row) for row in draws.tolist()]
    assert forrelation.phi_draws(n, draws) == [phi_circuit(inst) for inst in insts] == list(map(phi_bruteforce, insts))


def test_dense_phi_runs_k_minus_5_hadamard_layers(monkeypatch):
    # The end tables hold the first two and the last two function layers, so
    # a dense Phi transforms only between them: twice at (6, 7), one row
    # alone or 64 rows as one block, and never at (6, 3).
    rng = np.random.default_rng(7)
    draws = rng.integers(len(restricted_functions(6)), size=(64, 7))
    phi_circuit(LONG)   # builds the n = 6 end tables
    kernel = CountedKernel(qstate._wht_inplace)
    monkeypatch.setattr(qstate, "_wht_inplace", kernel)
    phi_circuit(LONG)
    assert kernel.calls == [(1, 6)] * 2
    kernel.calls.clear()
    forrelation.phi_draws(6, draws)
    assert kernel.calls == [(64, 6)] * 2
    kernel.calls.clear()
    phi_circuit(random_instance(6, 3, rng))
    forrelation.phi_draws(6, draws[:, :3])
    assert kernel.calls == []


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("k", range(1, 7))
def test_all_constant_instance_keeps_one_qubit(n, k):
    inst = ForrelationInstance(n, (CONSTANT,) * k)
    assert components(inst) == ((1,),)
    assert phi_circuit(inst) == pytest.approx(1.0 if k % 2 else 2.0 ** (-0.5 * n), abs=1e-15)
    check_against_dense(inst)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_full_support_skips_relabelling(k):
    funcs = [function_of(1, 2, 3), function_of(4, 5), function_of(6), CONSTANT][:k]
    inst = ForrelationInstance(6 if k >= 3 else 5 if k == 2 else 3, tuple(funcs))
    assert tuple(q for c in runner_components(inst) for q in c.support) == tuple(range(1, inst.n + 1))
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
    assert components(inst) == ((1, 2), (5, 6, 7))
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
    assert z == 1 and all(1 not in support for support in components(decode(pos)))
    assert squared(*amplitudes_exact(decode(pos), [z])[0]) == 0.0
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
    exact = amplitudes_exact(inst, range(1 << inst.n))
    assert [forrelation._rounded(*amp) for amp in exact] == pytest.approx(list(dense), abs=1e-12)


def test_products_of_many_table_components_stay_in_float_range():
    # 26 one-qubit components at k = 53: qubit q sees H^(2q) Z H^(54-2q),
    # even counts of layers, worth exactly 1 (a total of 2^27).  Then each
    # odd position flips too: a qubit flipped at two of them is worth 1, and
    # a CZ on a pair of its own 1/2.  The exact product of the totals is
    # 2^1106, past the float range, so it must never be a float.
    funcs = [CONSTANT] * 53
    funcs[1::2] = [function_of(q) for q in range(1, 27)]
    inst = ForrelationInstance(26, tuple(funcs))
    assert list(map(len, components(inst))) == [1] * 26
    assert phi_circuit(inst) == phi_circuits([inst])[0] == runner_phi(inst) == 1.0
    odd = [function_of(27 + j // 2) for j in range(26)] + [function_of(40, 41)]
    funcs[::2] = odd
    inst = ForrelationInstance(41, tuple(funcs))
    assert list(map(len, components(inst))) == [1] * 39 + [2]
    assert phi_circuit(inst) == phi_circuits([inst, inst])[1] == runner_phi(inst) == 0.5


@pytest.mark.parametrize("inst, largest", [
    (instance_of(14, {1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}, {13, 14}), 3),
    (instance_of(15, {1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}, {13, 14, 15}, {2, 14}), 6),
    (instance_of(14, *({2 * i + 1, 2 * i + 2, 2 * i + 3} for i in range(6)), {13, 14}), 14),
    (instance_of(15, *({2 * i + 1, 2 * i + 2, 2 * i + 3} for i in range(7)), ()), 15),
], ids=["m14-k5", "m15-k6", "chain-m14", "chain-m15"])
def test_runner_past_two_hadamard_blocks_matches_dense(inst, largest):
    # A component above 2 * WHT_BLOCK_QUBITS runs three Sylvester blocks, the
    # upper ones applied along a strided axis in slabs.  The first two
    # instances split into components of at most 6 qubits; the chains do not.
    assert inst.n > 2 * qstate.WHT_BLOCK_QUBITS
    assert max(map(len, components(inst))) == largest
    dense = simulate_instance(inst).amplitudes
    exact = amplitudes_exact(inst, range(1 << inst.n))
    assert [forrelation._rounded(*amp) for amp in exact] == pytest.approx(list(dense), abs=1e-12)


def test_support_above_the_state_cap_raises():
    # 13 overlapping triples {2i+1, 2i+2, 2i+3} chain qubits 1..27 into one component.
    inst = instance_of(27, *({2 * i + 1, 2 * i + 2, 2 * i + 3} for i in range(13)))
    assert components(inst) == (tuple(range(1, 28)),)
    with pytest.raises(CapacityError):
        amplitudes_exact(inst, [0])


def test_disjoint_support_above_the_state_cap_runs_per_component():
    # Nine disjoint triples: 27 supported qubits, nine 3-qubit components.
    # Triple i meets H CCZ H, worth <+|CCZ|+> = 3/4, when i is even, and
    # acts on |000> (worth 1) when i is odd, where the Hadamard layers
    # around it cancel in pairs.
    inst = instance_of(27, *({3 * i + 1, 3 * i + 2, 3 * i + 3} for i in range(9)))
    assert list(map(len, components(inst))) == [3] * 9
    assert phi_circuit(inst) == 0.75 ** 5 == 0.2373046875


class CountedKernel:
    """A stand-in for qstate._wht_inplace that records the rows and the
    qubits of each call, (rows of 2^n entries, n), so a test that patches
    the kernel can tell that the path it checks ran through it."""

    def __init__(self, fake):
        self.fake, self.calls = fake, []

    def __call__(self, amp, n):
        self.calls.append((amp.size >> n, n))
        self.fake(amp, n)


def kernel_calls(kernel, run, *args):
    """The (rows, qubits) of each kernel call made while run(*args) fails the norm check."""
    start = len(kernel.calls)
    with pytest.raises(RuntimeError, match="norm drifted"):
        run(*args)
    return kernel.calls[start:]


def kernel_rows(kernel, run, *args):
    return [rows for rows, _ in kernel_calls(kernel, run, *args)]


GEN = DatasetSpec(6, 7, 2, 2, seed=3)
# Dense, with k - 5 = 2 Hadamard layers between its end-table rows.
LONG = instance_of(6, {1, 2}, {2}, {4, 5, 6}, {6}, {1, 3}, (), {5})
# Past the whole-register tables: one 6-qubit component, read off the n = 6
# end tables with the same 2 layers between its rows.
WIDE_LONG = instance_of(8, {1, 2}, {2, 3, 4}, {4, 5, 6}, {6}, {1, 3}, (), {5})


def check_batch_and_gen_raise(kernel):
    # The n = 6 end tables are built with the real kernel before it is patched.
    # WIDE's 8-qubit component is past every end table: twice, a runner block.
    assert set(kernel_rows(kernel, phi_circuits, [WIDE, WIDE])) == {2}
    # Dense, on all 6 qubits: LONG twice as one block of the middle layers,
    # not its components, LONG alone as one row, and the first chunk
    # of gen's draws as one block.  WIDE_LONG's component the same way.
    assert set(kernel_calls(kernel, phi_circuits, [LONG, LONG])) == {(2, 6)}
    assert kernel_rows(kernel, phi_circuit, LONG) == [1]
    assert set(kernel_calls(kernel, phi_circuits, [WIDE_LONG, WIDE_LONG])) == {(2, 6)}
    assert kernel_rows(kernel, phi_circuit, WIDE_LONG) == [1]
    assert kernel_calls(kernel, generate_dataset, GEN)[0] == (CHUNK_MIN, 6)
    # Built anew, the end tables go through the kernel, one row per function.
    forrelation._end_tables.cache_clear()
    assert kernel_calls(kernel, phi_circuit, SPLIT)[0] == (len(restricted_functions(6)), 6)


def test_hadamard_kernel_norm_drift_raises(monkeypatch):
    real = qstate._wht_inplace

    def drifting(amp, n):
        real(amp, n)
        amp *= 1 + 1e-9

    def one_row_drifts(amp, n):
        # In a block, row 0 drifts up and row 1 down: the block's total
        # stays put to first order, so only a per-row check sees it.
        real(amp, n)
        rows = amp.reshape(-1, 1 << n)
        if len(rows) > 1:
            rows[0] *= 1 + 1e-9
            rows[1] *= 1 - 1e-9

    assert list(map(len, components(ONE))) == [4] and list(map(len, components(SPLIT))) == [2, 3]
    for inst in (ONE, SPLIT):
        read_all(inst)
    phi_circuits([WIDE, WIDE])
    generate_dataset(GEN)
    kernel = CountedKernel(drifting)
    monkeypatch.setattr(qstate, "_wht_inplace", kernel)
    for inst in (ONE, SPLIT):
        assert set(kernel_rows(kernel, read_all, inst)) == {1}   # lone rows
    check_batch_and_gen_raise(kernel)
    kernel = CountedKernel(one_row_drifts)
    monkeypatch.setattr(qstate, "_wht_inplace", kernel)
    read_all(ONE)   # a single state: nothing drifts
    assert {rows for rows, _ in kernel.calls} == {1}
    assert set(kernel_rows(kernel, phi_circuits, [WIDE, WIDE])) == {2}


def test_nan_amplitudes_fail_the_norm_check(monkeypatch):
    # A NaN norm compares false with any tolerance, so it must count as drift.
    def poisoned(amp, n):
        amp[:] = np.nan

    phi_circuit(LONG)   # builds the n = 6 end tables
    kernel = CountedKernel(poisoned)
    monkeypatch.setattr(qstate, "_wht_inplace", kernel)
    for inst in (ONE, SPLIT):
        for run in (read_all, simulate_instance):
            assert set(kernel_rows(kernel, run, inst)) == {1}
    check_batch_and_gen_raise(kernel)


def test_even_k_free_factor_past_the_float_range_of_its_power_of_two():
    # 1499 free qubits in |+>: their factor 2^-749.5 is a float, 2^1499 is not.
    inst = instance_of(1503, {1, 2, 3}, {3, 1503})
    small, scale = cut(inst)
    assert phi_circuit(inst) == pytest.approx(scale * phi_bruteforce(small), rel=1e-15, abs=0.0)
    assert vqc_probability(encode(inst)) == 0.0   # 2^-1500 times p0 of the cut instance


@SETTINGS
@given(instances(n=st.integers(9, 40), k=st.integers(1, 4)))
def test_large_n_phi_equals_scaled_cut_bruteforce(inst):
    # At odd k the free qubits are worth exactly 1, so the cut's Phi is the same bits.
    small, scale = cut(inst)
    if small.n * small.k <= BRUTE_FORCE_BITS:
        assert phi_circuit(inst) == pytest.approx(scale * phi_bruteforce(small), abs=1e-12)
        assert phi_circuit(inst) == phi_bruteforce(small) or inst.k % 2 == 0


# ---------------------------------------------------------------------------
# The component split: instances built from pieces on disjoint qubit ranges.


@SETTINGS
@given(st.lists(st.floats(-1.5, 1.5).filter(lambda a: abs(a) >= 0.5), min_size=2, max_size=3), st.integers(0, 3))
def test_component_entries_are_multiplied_exactly_and_rounded_once(entries, free_exponent):
    # Entries with full 53-bit mantissas: their product needs more bits than
    # a float holds, so a float product would round before the division.
    # Runner entries are dyadic with magnitude <= sqrt(2); these stay far
    # from the subnormal range, where ldexp would round a second time.  The
    # last component's layer is open: its index 0 reads as (a + a) / 2 = a.
    # At even k each of the free_exponent free qubits adds 1 to e.
    *closed, last = entries
    comps = tuple(Component((q,), np.array([a, 0.0]), q % 2, 0.0, 1 << (q - 1)) for q, a in enumerate(closed, 1))
    q = len(entries)
    comps += (Component((q,), np.array([last, last]), q % 2, 0.5, 1 << (q - 1)),)
    inst = ForrelationInstance(len(entries) + free_exponent, (CONSTANT, CONSTANT))
    num, den, e = forrelation._exact_of(inst, [], comps)
    exact = math.prod(map(Fraction, entries))
    assert Fraction(num, den) == exact and e == free_exponent + sum(c.exponent for c in comps)
    if e % 2:
        assert forrelation._rounded(num, den, e) == float(exact / Fraction(math.sqrt(2.0)) / 2 ** (e // 2))
    else:
        assert forrelation._rounded(num, den, e) == float(exact / 2 ** (e // 2))
    assert squared(num, den, e) == float(exact * exact / 2 ** e)
    assert comps[-1].amps.tolist() == [last, last]   # read, not closed


@settings(max_examples=40, deadline=None)
@given(disjoint_unions(), st.data())
def test_kernel_on_split_instances_matches_dense(inst, data):
    # The second sample permutes the first's functions: same pieces, so the
    # kernel circuit splits along them too.
    funcs = data.draw(st.permutations(inst.functions))
    xi, xj = encode(inst), encode(ForrelationInstance(inst.n, tuple(funcs)))
    assert kernel(xi, xj) == pytest.approx(dense_kernel(xi, xj), abs=1e-12)


@SETTINGS
@given(st.integers(4, 9), st.sampled_from([3, 5, 7]), st.data())
def test_negative_target_outside_the_triple_matches_dense(n, k, data):
    # f1 = x_j and the triple share no qubit: the circuit splits in two.
    triple = data.draw(st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True))
    j = data.draw(st.integers(1, n).filter(lambda q: q not in triple))
    neg = make_negative_sample(n, k, j, triple).sample
    assert len(components(decode(neg))) == 2
    p = simulate_instance(decode(neg)).probabilities()
    z = negative_target_index(neg)
    assert z == 1 << (j - 1) == int(p.argmax())
    assert squared(*amplitudes_exact(decode(neg), [z])[0]) == 1.0
