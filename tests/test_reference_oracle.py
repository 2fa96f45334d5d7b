"""Cross-checks of the vectorised brute-force path against a deliberately
naive pure-Python evaluation (nested loops, per-term function evaluation).
The naive route shares no code with either production path, so agreement
pins down the sum itself, not just circuit-vs-sum consistency."""
import itertools
import math

import numpy as np
import pytest

from kforrelation.forrelation import (
    ForrelationInstance,
    _parity,
    phi_bruteforce,
    phi_circuit,
    random_instance,
    restricted_functions,
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


def test_parity_helper_against_popcount():
    rng = np.random.default_rng(4)
    v = rng.integers(0, 1 << 24, size=4096, dtype=np.int64)
    expected = np.array([bin(int(x)).count("1") % 2 for x in v], dtype=bool)
    assert np.array_equal(_parity(v), expected)


def test_bruteforce_chunk_independence(monkeypatch):
    # the sum is exact integer arithmetic, so the chunked partition must be
    # invisible; force pathological chunk sizes through the real code path
    import kforrelation.forrelation as fo

    inst = ForrelationInstance(3, tuple(restricted_functions(3)[i] for i in (7, 3, 5, 1)))
    reference = phi_bruteforce(inst)
    for chunk in (1, 7, 64, 1 << 12):
        monkeypatch.setattr(fo, "BRUTE_FORCE_CHUNK", chunk)
        assert fo.phi_bruteforce(inst) == reference
