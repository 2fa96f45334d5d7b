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
    phi_bruteforce,
    phi_circuit,
    phi_circuits,
    phi_draws,
    random_instance,
    restricted_functions,
    simulate_reduced,
)


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


def rounded_phi(total, n, k):
    """S / sqrt(2^((k+1)n)) correctly rounded; for odd (k+1)n the divisor is
    2^m fl(sqrt(2)), as phi_bruteforce takes it."""
    e = (k + 1) * n
    divisor = Fraction(2) ** (e // 2) * (Fraction(math.sqrt(2.0)) if e % 2 else 1)
    return float(Fraction(total) / divisor)


def test_exact_integer_matches_bruteforce_below_the_cap():
    rng = np.random.default_rng(5)
    for n, k in ((3, 4), (5, 3), (6, 3), (3, 6)):  # (k+1)n odd, even, even, odd
        for _ in range(6):
            inst = random_instance(n, k, rng)
            assert rounded_phi(exact_index0(inst), n, k) == phi_bruteforce(inst)


# (9,6), (5,8) and (5,10) have odd (k+1)n, so they read through fl(sqrt(2)).
# (6,5), (6,8), (5,8), (5,9), (5,10) and (4,13) read the dense end tables.
@pytest.mark.parametrize("n,k", [(12, 5), (10, 7), (8, 9), (6, 9), (6, 13), (9, 9), (8, 6), (9, 6), (5, 8),
                                 (6, 5), (6, 8), (5, 9), (4, 13), (5, 10)])
def test_circuit_paths_round_the_exact_integer_correctly(n, k):
    assert n * k > 24
    rng = np.random.default_rng(100 * n + k)
    insts = [random_instance(n, k, rng) for _ in range(32)]
    totals = [exact_index0(inst) for inst in insts]
    assert phi_circuits(insts) == [rounded_phi(t, n, k) for t in totals]
    draws = np.array([[restricted_functions(n).index(f) for f in inst.functions] for inst in insts])
    assert phi_draws(n, draws) == [rounded_phi(t, n, k) for t in totals]
    for inst, total in zip(insts, totals):
        assert phi_circuit(inst) == rounded_phi(total, n, k)
        assert simulate_reduced(inst).probability(0) == float(Fraction(total * total, 2 ** ((k + 1) * n)))
