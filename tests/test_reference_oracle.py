"""Cross-checks of the vectorised brute-force path against a deliberately
naive pure-Python evaluation (nested loops, per-term function evaluation).
The naive route shares no code with either production path, so agreement
pins down the sum itself, not just circuit-vs-sum consistency.  Past the
brute-force cap, U_F run on Python integers gives the exact value that the
circuit paths must round correctly."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from kforrelation.forrelation import (
    ForrelationInstance,
    components,
    function_of,
    instance_of,
    phi_bruteforce,
    phi_circuit,
    phi_circuits,
    phi_draws,
    random_instance,
    amplitudes_exact,
    restricted_functions,
    squared,
)
from conftest import off_tables


def phi_naive(inst):
    n, k = inst.n, inst.k
    total = 0
    for xs in itertools.product(range(1 << n), repeat=k):
        term = 1
        for f, x in zip(inst.functions, xs):
            term *= f.evaluate(x)
        for a, b in zip(xs, xs[1:]):
            term *= -1 if bin(a & b).count("1") % 2 else 1
        total += term
    return total / math.sqrt(float(1 << ((k + 1) * n)))


def test_naive_matches_bruteforce_exhaustive_n2_k2():
    for funcs in itertools.product(restricted_functions(2), repeat=2):
        inst = ForrelationInstance(2, funcs)
        assert phi_bruteforce(inst) == pytest.approx(phi_naive(inst), abs=1e-13)


@pytest.mark.parametrize("seed", range(3))
def test_naive_matches_both_paths_random(seed):
    rng = np.random.default_rng(seed)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        inst = random_instance(n, int(rng.integers(1, 4)), rng)
        expected = phi_naive(inst)
        assert phi_bruteforce(inst) == pytest.approx(expected, abs=1e-13)
        assert phi_circuit(inst) == pytest.approx(expected, abs=1e-10)


def test_bruteforce_chunk_independence(monkeypatch):
    # the sum is exact integer arithmetic, so the chunked partition must be
    # invisible; force pathological chunk sizes through the real code path
    import kforrelation.forrelation as fo

    inst = ForrelationInstance(3, tuple(restricted_functions(3)[i] for i in (7, 3, 5, 1)))
    reference = phi_bruteforce(inst)
    for chunk in (1, 7, 64, 1 << 12):
        monkeypatch.setattr(fo, "BRUTE_FORCE_CHUNK", chunk)
        assert fo.phi_bruteforce(inst) == reference


# ---------------------------------------------------------------------------
# Exact integers past the brute-force cap (k*n > 24).  With every Hadamard
# layer left unnormalised, U_F|0...0> holds integers, and <0|U_F|0> is
# S / sqrt(2^((k+1)n)) for the integer S the last layer puts at index 0: the
# sum of the entries before it.


def _butterflies(amp, n):
    """The unnormalised Hadamard layer on an object array: one +-1
    butterfly per qubit, in Python integers."""
    for q in range(n):
        v = amp.reshape(-1, 2, 1 << q)
        amp = np.stack([v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]], axis=1).reshape(-1)
    return amp


def exact_index0(inst):
    """The integer S with <0|U_F|0> = S / sqrt(2^((k+1)n))."""
    n = inst.n
    x = np.arange(1 << n)
    amp = np.ones(1 << n, dtype=object)  # the first layer on |0...0>
    for i, f in enumerate(inst.functions):
        if i:
            amp = _butterflies(amp, n)
        hit = np.ones(1 << n, dtype=bool)
        for b in f.bits:
            hit &= ((x >> (b - 1)) & 1).astype(bool)
        if f.bits:
            amp[hit] = -amp[hit]
    return sum(amp.tolist())


def exact_cut(inst):
    """(S, e) with Phi = S / sqrt(2^e) exactly, from U_F run on the union of
    the supports alone (relabelled 1..|S|): a free qubit ends in |0> at odd
    k, worth 1, and in |+> at even k, worth 2^-1/2."""
    support = sorted(set().union(*(f.bits for f in inst.functions))) or [1]
    label = {q: i + 1 for i, q in enumerate(support)}
    small = ForrelationInstance(len(support), tuple(function_of(*(label[b] for b in f.bits)) for f in inst.functions))
    return exact_index0(small), (inst.k + 1) * small.n + (inst.n - small.n) * (inst.k % 2 == 0)


def rounded_phi(total, e):
    """S / sqrt(2^e) correctly rounded; for odd e the divisor is
    2^m fl(sqrt(2)), as phi_bruteforce takes it."""
    divisor = Fraction(2) ** (e // 2) * (Fraction(math.sqrt(2.0)) if e % 2 else 1)
    return float(Fraction(total) / divisor)


def test_exact_integer_matches_bruteforce_below_the_cap():
    rng = np.random.default_rng(5)
    for n, k in ((3, 4), (5, 3), (6, 3), (3, 6)):  # (k+1)n odd, even, even, odd
        for _ in range(6):
            inst = random_instance(n, k, rng)
            assert rounded_phi(exact_index0(inst), (k + 1) * n) == phi_bruteforce(inst)


# (9,6), (5,8) and (5,10) have odd (k+1)n, so they read through fl(sqrt(2)).
# (6,5), (6,8), (5,8), (5,9), (5,10) and (4,13) read the dense end tables.
@pytest.mark.parametrize("n,k", [(12, 5), (10, 7), (8, 9), (6, 9), (6, 13), (9, 9), (8, 6), (9, 6), (5, 8),
                                 (6, 5), (6, 8), (5, 9), (4, 13), (5, 10)])
def test_circuit_paths_round_the_exact_integer_correctly(n, k):
    assert n * k > 24
    rng = np.random.default_rng(100 * n + k)
    insts = [random_instance(n, k, rng) for _ in range(32)]
    totals = [exact_index0(inst) for inst in insts]
    assert phi_circuits(insts) == [rounded_phi(t, (k + 1) * n) for t in totals]
    draws = np.array([[restricted_functions(n).index(f) for f in inst.functions] for inst in insts])
    assert phi_draws(n, draws) == [rounded_phi(t, (k + 1) * n) for t in totals]
    for inst, total in zip(insts, totals):
        assert phi_circuit(inst) == rounded_phi(total, (k + 1) * n)
        assert squared(*amplitudes_exact(inst, [0])[0]) == float(Fraction(total * total, 2 ** ((k + 1) * n)))


# Past the whole-register tables, each component is read off the end tables
# of its own qubits or, past 6 qubits, run.  (20,3) draws take one or the
# other, (16,4) draws also take both in one instance and leave free qubits
# in |+>, and (7,3) is one qubit past the whole-register tables: CHAIN7 is
# one 7-qubit component, and the rest are summed exhaustively too.
CHAIN7 = instance_of(7, {1, 2, 3}, {3, 4, 5}, {5, 6, 7})


@pytest.mark.parametrize("n,k,count", [(20, 3, 24), (16, 4, 24), (7, 3, 6)])
def test_component_tables_and_runner_round_the_exact_integer(n, k, count):
    rng = np.random.default_rng(n * k)
    insts = [random_instance(n, k, rng) for _ in range(count)] + ([CHAIN7] if n == 7 else [])
    kinds = {tuple(sorted({off_tables(len(c), k) for c in components(inst)})) for inst in insts}
    assert {(True,), (False,)} <= kinds and ((False, True) in kinds) == (n == 16)
    expected = [rounded_phi(*exact_cut(inst)) for inst in insts]
    draws = np.array([[restricted_functions(n).index(f) for f in inst.functions] for inst in insts])
    assert phi_circuits(insts) == [phi_circuit(inst) for inst in insts] == phi_draws(n, draws) == expected
    if n * k <= 24:
        assert expected == [phi_bruteforce(inst) for inst in insts]
