import itertools
import math
import tracemalloc

import numpy as np
import pytest

from kforrelation import qstate
from kforrelation.qstate import (
    SIGN_TABLE_QUBITS,
    WHT_SLAB,
    CapacityError,
    Gate,
    GateKind,
    StateVector,
    apply_circuit,
    apply_gate,
    controlled_phase,
    hadamard_all,
    init_zero,
    phase_flip,
    sample_measurements,
    swap,
    unitary_of,
)

INV_SQRT2 = 2 ** -0.5


def test_init_zero_basis():
    assert np.array_equal(init_zero(1).amplitudes, [1, 0])
    assert np.array_equal(init_zero(2).amplitudes, [1, 0, 0, 0])
    assert init_zero(2).amplitudes.dtype == np.float64
    for bad in (np.ones(4, dtype=np.complex128) / 2, np.ones(4, dtype=np.float32) / 2, np.ones(8) / 8**0.5, [0.5] * 4):
        with pytest.raises(ValueError):
            StateVector(2, bad)


@pytest.mark.parametrize("n", [0, -3, 27])
def test_init_zero_rejects_out_of_range(n):
    with pytest.raises(CapacityError):
        init_zero(n)


def test_bitstring_convention_qubit1_is_lsb():
    # H Z_q H flips qubit q alone, so |0...0> lands on basis index 2^(q-1)
    for q in (1, 2, 3):
        state = apply_circuit(init_zero(3), [hadamard_all(), phase_flip(q), hadamard_all()])
        assert state.amplitudes[1 << (q - 1)] == pytest.approx(1.0, abs=1e-15)


def test_hadamard_on_zero():
    state = apply_gate(init_zero(1), hadamard_all())
    assert np.allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_phase_flip_action():
    state = apply_gate(init_zero(1), hadamard_all())
    apply_gate(state, phase_flip(1))
    assert np.allclose(state.amplitudes, [INV_SQRT2, -INV_SQRT2], atol=1e-15)


def test_hzh_is_x():
    state = apply_circuit(init_zero(1), [hadamard_all(), phase_flip(1), hadamard_all()])
    assert np.allclose(state.amplitudes, [0, 1], atol=1e-12)


def test_empty_phase_flip_is_identity():
    state = apply_gate(init_zero(2), hadamard_all())
    before = state.amplitudes.copy()
    apply_gate(state, phase_flip())
    assert np.array_equal(state.amplitudes, before)


def test_unitary_of_validates_targets():
    with pytest.raises(ValueError):
        unitary_of([phase_flip(3)], 2)


def test_gate_factory_validation():
    with pytest.raises(ValueError):
        phase_flip(1, 2, 3, 4)
    with pytest.raises(ValueError):
        controlled_phase([], math.pi)
    for angle in (0.7, 2 * math.pi, -math.pi):
        with pytest.raises(ValueError):
            controlled_phase([1], angle)
    with pytest.raises(ValueError):
        swap(2, 2)
    with pytest.raises(ValueError):
        phase_flip(0)


@pytest.mark.parametrize("kind, targets, angle", [
    (GateKind.CONTROLLED_PHASE, {1}, 0.7),
    (GateKind.PHASE_FLIP, {1}, math.pi),
    (GateKind.HADAMARD_ALL, {1}, 0.0),
    (GateKind.PHASE_FLIP, {1, 2, 3, 4}, 0.0),
    (GateKind.CONTROLLED_PHASE, set(), math.pi),
    (GateKind.CONTROLLED_PHASE, {1, 2, 3, 4}, math.pi),
    (GateKind.SWAP, {1}, 0.0),
    (GateKind.SWAP, {1, 2, 3}, 0.0),
])
def test_gate_construction_validates_arity_and_angle(kind, targets, angle):
    with pytest.raises(ValueError):
        Gate(kind, frozenset(targets), angle)


def test_apply_rejects_target_beyond_n():
    with pytest.raises(ValueError):
        apply_gate(init_zero(2), phase_flip(3))


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=1 << n)
    amp /= np.linalg.norm(amp)
    return StateVector(n, amp)


@pytest.mark.parametrize("seed", range(4))
def test_norm_preserved_under_random_circuits(seed):
    rng = np.random.default_rng(seed)
    state = _random_state(4, seed)
    for _ in range(60):
        pick = rng.integers(4)
        if pick == 0:
            g = hadamard_all()
        elif pick == 1:
            g = phase_flip(*rng.choice(range(1, 5), size=rng.integers(1, 4), replace=False).tolist())
        elif pick == 2:
            g = controlled_phase([int(rng.integers(1, 5))], (0.0, math.pi)[rng.integers(2)])
        else:
            a, b = rng.choice(range(1, 5), size=2, replace=False).tolist()
            g = swap(a, b)
        apply_gate(state, g)  # raises if norm drifts beyond 1e-12
    assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_hadamard_squares_to_identity(n):
    state = _random_state(n, n)
    before = state.amplitudes.copy()
    apply_gate(state, hadamard_all())
    apply_gate(state, hadamard_all())
    assert np.max(np.abs(state.amplitudes - before)) <= 1e-12


@pytest.mark.parametrize("targets", [(1,), (2, 3), (1, 2, 4)])
def test_phase_flip_equals_controlled_phase_pi_bit_for_bit(targets):
    a = _random_state(4, 7)
    b = a.copy()
    apply_gate(a, phase_flip(*targets))
    apply_gate(b, controlled_phase(targets, math.pi))
    assert np.array_equal(a.amplitudes, b.amplitudes)


# ---------------------------------------------------------------------------
# Hadamard layer against the dense sign matrix, which the blocked kernel
# never builds: entry (x, y) is (-1)^popcount(x & y), times 2^(-n/2).


def _sign_rows(rows, n):
    """Rows ``rows`` of the 2^n x 2^n +-1 matrix [(-1)^popcount(x & y)]."""
    x = np.arange(1 << n)
    parity = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        parity ^= (x >> b) & 1
    return (1.0 - 2.0 * parity)[np.asarray(rows)[:, None] & x[None, :]]


def _dense_hadamard(amps, n):
    """The dense matrix times ``amps``, built 512 rows at a time."""
    out = np.empty_like(amps)
    for r in range(0, 1 << n, 512):
        out[r : r + 512] = _sign_rows(np.arange(r, min(r + 512, 1 << n)), n) @ amps
    return out * 2.0 ** (-0.5 * n)


@pytest.mark.parametrize("n", range(1, 14))  # crosses the 6-qubit block edges at 6/7 and 12/13
def test_hadamard_matches_dense_sign_matrix(n):
    state = _random_state(n, n)
    expected = _dense_hadamard(state.amplitudes, n)
    apply_gate(state, hadamard_all())
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_hadamard_on_basis_state_n20_is_exact():
    z = 0b1011_0011_1000_1111_0101
    state = init_zero(20)
    state.amplitudes[[0, z]] = 0.0, 1.0
    apply_gate(state, hadamard_all())
    assert np.array_equal(state.amplitudes, _sign_rows([z], 20)[0] / 2**10)


def test_hadamard_n18_matches_kronecker_of_dense_halves():
    # n = 18 spreads every block over several slabs; H on 18 qubits is
    # H(9 high) (x) H(9 low), i.e. S @ V @ S on the 512 x 512 reshape.
    state = _random_state(18, 5)
    signs = _sign_rows(np.arange(512), 9)
    expected = (signs @ state.amplitudes.reshape(512, 512) @ signs).ravel() / 2**9
    apply_gate(state, hadamard_all())
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_hadamard_temporary_stays_within_one_slab():
    state = init_zero(20)  # 8 MiB of amplitudes, allocated before tracing
    tracemalloc.start()
    try:
        apply_gate(state, hadamard_all())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * WHT_SLAB * state.amplitudes.itemsize
    assert peak < state.amplitudes.nbytes // 4


# ---------------------------------------------------------------------------
# Phase flips against the explicit rule: -1 on x iff x & mask == mask.


def _flip_signs(n, mask):
    x = np.arange(1 << n)
    return np.where((x & mask) == mask, -1.0, 1.0)


@pytest.mark.parametrize("m", range(1, SIGN_TABLE_QUBITS + 1))
def test_sign_table_rows_are_the_explicit_flips(m):
    table = qstate._sign_table(m)
    assert table.shape == (1 << m, 1 << m) and table.dtype == np.float64
    assert np.array_equal(table[0], np.ones(1 << m))   # mask 0: the identity
    for mask in range(1, 1 << m):
        assert np.array_equal(table[mask], _flip_signs(m, mask))
    with pytest.raises(ValueError):
        table[1, 0] = 1.0


@pytest.mark.parametrize("n", [3, SIGN_TABLE_QUBITS + 2])
def test_flip_on_mask_zero_is_the_identity_at_every_width(n):
    # Below the table width the flip reads sign-table row 0; above it, the
    # per-bit path must agree and leave the state alone too.
    amp = _random_state(n, n).amplitudes
    before = amp.copy()
    qstate._flip_inplace(amp, n, 0)
    assert amp.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", range(1, SIGN_TABLE_QUBITS + 3))
def test_phase_flip_matches_the_explicit_rule(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        targets = sorted({int(q) for q in rng.integers(1, n + 1, size=3)})
        state = _random_state(n, len(targets))
        expected = state.amplitudes * _flip_signs(n, sum(1 << (q - 1) for q in targets))
        apply_gate(state, phase_flip(*targets))
        assert state.amplitudes.tobytes() == expected.tobytes()


def test_phase_flip_involution():
    state = _random_state(3, 11)
    before = state.amplitudes.copy()
    apply_gate(state, phase_flip(1, 3))
    apply_gate(state, phase_flip(1, 3))
    assert np.array_equal(state.amplitudes, before)


def test_swap_fixes_zero_amplitude():
    state = _random_state(4, 13)
    before = complex(state.amplitudes[0])
    apply_gate(state, swap(2, 4))
    assert complex(state.amplitudes[0]) == before


def test_swap_permutes_basis():
    # SWAP(a, b) moves the amplitude of x to x with bits a-1 and b-1
    # exchanged, for every pair at every width up to seven qubits.
    for n in range(2, 8):
        x = np.arange(1 << n)
        for a, b in itertools.combinations(range(1, n + 1), 2):
            state = _random_state(n, 10 * a + b)
            differ = ((x >> (a - 1)) ^ (x >> (b - 1))) & 1
            image = x ^ (differ << (a - 1)) ^ (differ << (b - 1))
            expected = np.empty_like(state.amplitudes)
            expected[image] = state.amplitudes
            apply_gate(state, swap(a, b))
            assert state.amplitudes.tobytes() == expected.tobytes(), (n, a, b)


def test_sampling_degenerate_distribution():
    counts = sample_measurements(init_zero(3), shots=50, seed=1)
    assert counts.tolist() == [50, 0, 0, 0, 0, 0, 0, 0]


def test_sampling_determinism():
    state = apply_gate(init_zero(2), hadamard_all())
    a = sample_measurements(state, shots=500, seed=42)
    b = sample_measurements(state, shots=500, seed=42)
    assert np.array_equal(a, b)
    c = sample_measurements(state, shots=500, seed=43)
    assert not np.array_equal(a, c)  # overwhelmingly likely for 500 draws over 4 outcomes


def test_sampling_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample_measurements(init_zero(1), shots=0, seed=0)


def test_sampling_frequency_hoeffding():
    # 1e5 shots on H|0>: freq(0) within 0.5 +- 0.01 (Hoeffding: fails w.p. < 2e-9)
    state = apply_gate(init_zero(1), hadamard_all())
    counts = sample_measurements(state, shots=100_000, seed=7)
    assert abs(counts[0] / 100_000 - 0.5) <= 0.01


@pytest.mark.parametrize("seed", range(5))
def test_sampling_empirical_convergence(seed):
    state = _random_state(4, 100 + seed)
    p = state.probabilities()
    shots = 100_000
    counts = sample_measurements(state, shots=shots, seed=seed)
    freq = counts / shots
    assert np.max(np.abs(freq - p)) <= 0.02


def test_unitary_of_empty_is_identity():
    assert np.array_equal(unitary_of([], 2), np.eye(4))


def test_unitary_of_reads_a_generator_once():
    assert np.array_equal(unitary_of((g for g in [swap(1, 2)]), 2), unitary_of([swap(1, 2)], 2))


def test_unitary_of_hh_is_identity():
    u = unitary_of([hadamard_all(), hadamard_all()], 1)
    assert np.max(np.abs(u - np.eye(2))) <= 1e-12


def test_unitary_of_capacity():
    with pytest.raises(CapacityError):
        unitary_of([], 7)

