"""Dense statevector engine for forrelation-style circuits.

The gate family is deliberately small: global Hadamard layers, phase flips
conditioned on up to three qubits (Z / CZ / CCZ), the controlled phase on
the all-ones subspace of its targets at angle 0 or pi only (the slots of the
fixed ansatz), and SWAP.  Nothing else is needed and nothing else is
provided.

Conventions (fixed; everything downstream assumes them):

* Qubits are numbered 1..n.  Qubit j maps to bit j-1 of the basis-state
  integer, so qubit 1 is the least significant bit.
* A phase flip with an empty target set is the identity placeholder used
  for constant Boolean functions.
* ControlledPhase(targets, pi) is computed with an exact -1 factor so it
  coincides bit-for-bit with PhaseFlip(targets); angle 0 is a no-op and
  any other angle is rejected.
* Amplitudes are real: every StateVector holds a float64 array of length
  2^n, which each gate keeps real.  unitary_of and runner rows are float64.

A Hadamard layer is a blocked Walsh-Hadamard transform: one matmul with a
+-1 Sylvester matrix per block of up to six qubits, then one 2^(-n/2)
scale.  Up to six qubits, the width of nearly every connected component,
a Hadamard layer is one product with the Sylvester block and a phase flip
one product with a row of the sign table.

Two ways to run a circuit share that kernel.  run_sign_circuit runs
forrelation circuits of sign masks with exact arithmetic and one rounding
left to the caller; every component read that the end tables do not
cover uses it.  collapse_layers
first drops the identity layers of a circuit, and the runner takes one
such program alone, or several of the same width and collapsed shape as
the rows of one block, through one layer loop.  Forrelation reads Phi's
factor of six qubits or fewer off exact end tables instead, built with the
same kernel and sign table, which also run the layers between the tables.
The runner hands out plain float64 rows: it fills its first Hadamard
layer in as the uniform vector and leaves its last one open, so a caller
reads entry r as the row's dot with row r of the Sylvester matrix and never
writes to the row.  The Gate engine is the dense reference and rounds at
every layer: apply_gate checks, applies and norm-checks every Gate, and
apply_circuit and unitary_of run through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 26          # 2^26 float64 amplitudes = 512 MiB; refuse above
UNITARY_MAX_QUBITS = 6   # dense-matrix construction is for verification only
NORM_TOL = 1e-12
WHT_BLOCK_QUBITS = 6     # qubits per Hadamard matmul: a 64 x 64 matrix, 32 KiB
WHT_SLAB = 1 << 16       # amplitudes per matmul call, so the temporary stays small
SIGN_TABLE_QUBITS = 6    # widest runner flip done by table gather: 2^6 x 2^6 signs, 32 KiB


class CapacityError(ValueError):
    """Requested size exceeds a documented simulator cap."""


class GateKind(Enum):
    HADAMARD_ALL = "hadamard_all"
    PHASE_FLIP = "phase_flip"
    CONTROLLED_PHASE = "controlled_phase"
    SWAP = "swap"


# Per kind: (fewest, most) targets and the allowed angles.  A phase flip
# without targets is the identity placeholder of a constant function.
_GATE_RULES = {
    GateKind.HADAMARD_ALL: (0, 0, (0.0,)),
    GateKind.PHASE_FLIP: (0, 3, (0.0,)),
    GateKind.CONTROLLED_PHASE: (1, 3, (0.0, math.pi)),
    GateKind.SWAP: (2, 2, (0.0,)),
}


@dataclass(frozen=True)
class Gate:
    """One circuit element, checked on construction against _GATE_RULES:
    a frozenset of integer targets >= 1, as many as the kind allows, and
    angle 0 (0 or pi for a controlled phase).  Anything else raises
    ValueError."""

    kind: GateKind
    targets: frozenset[int] = frozenset()
    angle: float = 0.0

    def __post_init__(self):
        low, high, angles = _GATE_RULES[self.kind]
        ts = self.targets
        if not (isinstance(ts, frozenset) and low <= len(ts) <= high and self.angle in angles
                and all(isinstance(t, int) and t >= 1 for t in ts)):
            raise ValueError(f"{self.kind.value} takes {low} to {high} integer targets >= 1 and an angle "
                             f"in {angles}, got targets {ts!r} and angle {self.angle!r}")


_HADAMARD_ALL = Gate(GateKind.HADAMARD_ALL)


def hadamard_all() -> Gate:
    """One global layer: H applied to every qubit.  Gates are immutable, so
    every call returns the same one, built and checked once."""
    return _HADAMARD_ALL


def phase_flip(*targets: int) -> Gate:
    """Multiply the amplitude of |z> by (-1) iff every target bit of z is 1.

    Zero targets is the identity placeholder, one is Z, two CZ, three CCZ.
    """
    return Gate(GateKind.PHASE_FLIP, frozenset(targets))


def controlled_phase(targets: Iterable[int], angle: float) -> Gate:
    """Multiply the amplitude of |z> by e^{i*angle} iff every target bit is 1.

    The angle must be 0 (the identity) or pi, which reproduces phase_flip on
    the same targets exactly; any other angle raises ValueError.
    """
    return Gate(GateKind.CONTROLLED_PHASE, frozenset(targets), angle)


def swap(a: int, b: int) -> Gate:
    """Exchange the states of qubits a and b."""
    return Gate(GateKind.SWAP, frozenset((a, b)))


@dataclass
class StateVector:
    """2^n float64 amplitudes; any other array raises ValueError.  The Gate
    engine keeps them at unit norm.

    A value type: move it freely between threads, mutate from one writer.
    Gate application updates ``amplitudes`` in place.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        a = self.amplitudes
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (1 << self.n_qubits,)):
            raise ValueError(f"amplitudes must be a float64 array of length 2^{self.n_qubits}")

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def probabilities(self) -> np.ndarray:
        return self.amplitudes * self.amplitudes


def init_zero(n: int) -> StateVector:
    """Prepare |0...0> on n qubits."""
    _check_capacity(n)
    amp = np.zeros(1 << n)
    amp[0] = 1.0
    return StateVector(n, amp)


def _check_capacity(n: int) -> None:
    if not isinstance(n, int) or n < 1 or n > MAX_QUBITS:
        raise CapacityError(f"a statevector may hold 1 to {MAX_QUBITS} qubits, got {n}")


def _check_norms(ratios: Sequence[float]) -> None:
    """Each ratio is a state's sum |a|^2 over the value it should have."""
    drifted = [v for v in ratios if not abs(v - 1.0) <= NORM_TOL]  # NaN drifts too
    if drifted:
        raise RuntimeError(f"statevector norm drifted: sum |a|^2 is {float(drifted[0])!r} times its exact value")


def _sylvester(qubits: int) -> np.ndarray:
    """The +-1 Sylvester-Hadamard matrix of order 2^qubits: entry (x, y) is
    (-1)^popcount(x & y).  Symmetric; each order is the top-left corner of
    the next."""
    h = np.ones((1, 1))
    for _ in range(qubits):
        h = np.kron([[1.0, 1.0], [1.0, -1.0]], h)
    return h


_SYLVESTER = _sylvester(WHT_BLOCK_QUBITS)


def _wht_inplace(amp: np.ndarray, n: int) -> None:
    """The unnormalised Walsh-Hadamard transform: amp becomes S amp, S the
    +-1 matrix (-1)^popcount(x & y) of order 2^n, applied to each run of
    2^n entries.  Rows of at most WHT_BLOCK_QUBITS qubits that fit in one
    slab take one product with the Sylvester block."""
    if n <= WHT_BLOCK_QUBITS and amp.size <= WHT_SLAB:
        view = amp.reshape(-1, 1 << n)
        view[...] = view @ _SYLVESTER[: 1 << n, : 1 << n]
        return
    # Qubits low+1..low+c form axis 1 of amp.reshape(-1, 2^c, 2^low); H on
    # all of them is the +-1 matrix applied along that axis.  Slabs cap the
    # matmul temporary at WHT_SLAB amplitudes.
    low = 0
    while low < n:
        c = min(WHT_BLOCK_QUBITS, n - low)
        h = _SYLVESTER[: 1 << c, : 1 << c]
        if low == 0:  # contiguous axis: rows times h (h is symmetric)
            view = amp.reshape(-1, 1 << c)
            rows = WHT_SLAB >> c
            for r in range(0, view.shape[0], rows):
                blk = view[r : r + rows]
                blk[...] = blk @ h
        else:
            view = amp.reshape(-1, 1 << c, 1 << low)
            rows = max(1, WHT_SLAB >> (c + low))
            cols = min(1 << low, WHT_SLAB >> c)
            for o in range(0, view.shape[0], rows):
                for i in range(0, view.shape[2], cols):
                    blk = view[o : o + rows, :, i : i + cols]
                    blk[...] = h @ blk
        low += c


def _flip_inplace(amp: np.ndarray, n: int, mask: int) -> None:
    """Exact -1 on every basis state x with x & mask == mask, by one product
    with a sign-table row up to SIGN_TABLE_QUBITS qubits.  Mask 0 (the
    constant function's placeholder) is the identity at every width."""
    if n <= SIGN_TABLE_QUBITS:
        amp *= _sign_table(n)[mask]
        return
    if not mask:
        return
    sel: list = [slice(None)] * n  # axis n-q of amp.reshape([2]*n) is qubit q
    while mask:  # one pass per set bit: bit q-1 is qubit q
        low = mask & -mask
        sel[n - low.bit_length()] = 1
        mask ^= low
    amp.reshape((2,) * n)[tuple(sel)] *= -1.0


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the same state.  A target beyond
    the state's qubits raises ValueError.  A Hadamard layer is the +-1
    transform times 2^(-n/2); a phase flip, or a controlled phase at pi, is
    one exact -1 on the all-ones subspace of the targets; SWAP exchanges two
    axes of the (2,)*n view.  A no-op (the identity placeholder, a controlled
    phase at 0) returns at once; any other gate re-checks the norm to 1e-12."""
    amp, n, kind, targets = state.amplitudes, state.n_qubits, gate.kind, gate.targets
    for q in targets:
        if q > n:
            raise ValueError(f"gate targets qubit {q} but state has {n} qubits")
    if kind is GateKind.HADAMARD_ALL:
        _wht_inplace(amp, n)
        amp *= 2.0 ** (-0.5 * n)
    elif kind is GateKind.SWAP:
        a, b = targets  # axis n-q of the (2,)*n view is qubit q
        view = np.moveaxis(amp.reshape((2,) * n), (n - a, n - b), (0, 1))
        view[[0, 1], [1, 0]] = view[[1, 0], [0, 1]]
    elif not targets or (kind is GateKind.CONTROLLED_PHASE and gate.angle == 0.0):
        return state
    else:
        _flip_inplace(amp, n, sum(1 << (q - 1) for q in targets))
    _check_norms([float(np.vdot(amp, amp))])
    return state


def apply_circuit(state: StateVector, gates: Sequence[Gate]) -> StateVector:
    for g in gates:
        apply_gate(state, g)
    return state


def collapse_layers(masks: Sequence[int]) -> tuple[list[list[int]], bool]:
    """The identity-free program of the circuit H^m D_k H^m ... D_1 H^m
    |0...0>, where D_i is -1 on every basis state x with x & masks[i] ==
    masks[i] (mask 0 is the identity).

    Returns (flips, open_last).  flips[j] holds the masks applied, back to
    back, after the (j+1)-th applied Hadamard layer; open_last is true when
    one more Hadamard layer ends the circuit.  Around a zero mask the two
    Hadamard layers cancel, so the flips on either side of it have no layer
    between them, and a flip before the first applied layer acts on |0...0>
    and is dropped.  Programs with the same qubit count, len(flips) and
    open_last run as rows of one block in run_sign_circuit.
    """
    flips: list[list[int]] = []
    pending = True      # an odd number of Hadamard layers is due before the next flip
    for mask in masks:
        if not mask:
            pending = not pending
        elif pending:
            flips.append([mask])
        else:
            if flips:
                flips[-1].append(mask)
            pending = True
    return flips, pending


def run_sign_circuit(m: int, programs: Sequence[Sequence[Sequence[int]]],
                     open_last: bool) -> tuple[list[np.ndarray], int, float]:
    """Run B >= 1 programs on m qubits, as collapse_layers gives them, all
    with the same number of applied Hadamard layers and the same open_last,
    through one layer loop.  A lone program runs on one init_zero vector; a
    block runs as one (B, 2^m) array, whose rows are views of it, and pads
    each layer's masks with mask 0, the identity, so that a flip is one
    gather of sign-table rows.  Both give the same bits.

    Returns (rows, e, scale): rows[i], a float64 array of length 2^m, is
    circuit i's row, and its amplitudes are the row's entries divided by
    sqrt(2^e), with e = J*m mod 2 for the J Hadamard layers of the circuit,
    a factor left for the caller to apply with one rounding.  When
    open_last is true the last Hadamard layer is left open: a row holds the
    amplitudes before it and scale is its rescale, so entry r is scale
    times the row dotted with row r of the +-1 Sylvester matrix (at index
    0, its sum).  That adds the terms row r of the transform adds, so it is
    exact whenever the transform is.  scale is 0.0 when the circuits end on
    a flip, with no layer open.

    The Hadamard layers run unnormalised, and applied layer j is rescaled
    by 2^-(floor(j*m/2) - floor((j-1)*m/2)), so no amplitude exceeds
    sqrt(2) at any k and each stays an exact dyadic rational while its
    numerator fits in 53 bits.  The first applied layer acts on |0...0>, so
    it is filled in as the uniform vector; each later one is one +-1
    transform.  Each flip is an exact -1 on the entries its mask selects.
    After each layer's flips the norm of every row is checked against
    NORM_TOL, before the rows are returned.
    """
    lone = len(programs) == 1
    if lone:
        amp, columns = init_zero(m).amplitudes, programs[0]
    else:
        _check_capacity(m)
        amp = np.zeros((len(programs), 1 << m))
        amp[:, 0] = 1.0
        columns = [np.array(list(zip_longest(*masks, fillvalue=0))) for masks in zip(*programs)]
    norms: list[float] = []   # sum |a|^2 after each layer's flips, over the value it should have
    for j, masks in enumerate(columns):
        if j:
            _wht_inplace(amp, m)
            amp *= _layer_scale(j, m)
        else:
            amp.fill(_layer_scale(0, m))
        for mask in masks:
            if lone:
                _flip_inplace(amp, m, mask)
            elif m <= SIGN_TABLE_QUBITS:
                amp *= _sign_table(m).take(mask, axis=0)
            else:
                for row, one in zip(amp, mask.tolist()):
                    _flip_inplace(row, m, one)
        want = 2.0 ** ((j + 1) * m % 2)
        if lone:
            norms.append(amp.dot(amp) / want)
        else:
            norms.extend((np.einsum("ij,ij->i", amp, amp) / want).tolist())
    _check_norms(norms)
    layers = len(columns)
    rows = [amp] if lone else list(amp)
    if not open_last:
        return rows, layers * m % 2, 0.0
    return rows, (layers + 1) * m % 2, _layer_scale(layers, m)


@lru_cache(maxsize=None)
def _sign_table(m: int) -> np.ndarray:
    """Row `mask` holds the +-1 signs of the flip on mask, -1 where x & mask
    == mask, row 0 all +1 (the identity): one gather per flip applies a
    different mask to each row."""
    x = np.arange(1 << m)
    table = np.where((x & x[:, None]) == x[:, None], -1.0, 1.0)
    table[0] = 1.0
    table.flags.writeable = False   # shared by every caller
    return table


def _layer_scale(layers: int, m: int) -> float:
    """The exact power of two that rescales the unnormalised Hadamard layer
    applied after ``layers`` others on m qubits."""
    return 2.0 ** ((layers * m) // 2 - ((layers + 1) * m) // 2)


def sample_measurements(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """shots i.i.d. computational-basis draws; deterministic for a given seed.

    Returns the count of each basis index: an int array of length 2^n.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = state.probabilities()
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(p.size, size=shots, p=p)
    return np.bincount(draws, minlength=p.size)


def unitary_of(gates: Iterable[Gate], n: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the gate sequence, for tiny-scale checks.

    Column z is the image of basis state z; ordering matches StateVector
    indexing (qubit 1 = least significant bit).  Each column is a basis
    state run through apply_circuit, so every gate is checked and
    norm-checked as on any state.
    """
    if not isinstance(n, int) or n < 1 or n > UNITARY_MAX_QUBITS:
        raise CapacityError(f"unitary_of supports 1 <= n <= {UNITARY_MAX_QUBITS}, got {n}")
    gates = list(gates)   # every column runs the same gates, so a generator is read once
    out = np.eye(1 << n)
    for col in out:  # row z is basis state z; it ends as column z of the result
        apply_circuit(StateVector(n, col), gates)
    return out.T

