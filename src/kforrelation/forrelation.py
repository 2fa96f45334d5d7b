"""k-forrelation instances and four independent evaluations of Phi.

An instance is an ordered list of k restricted Boolean functions over n-bit
inputs: each function is either the constant +1 or (-1)^(product of at most
three input bits).  Phi is the alternating transform-correlation of the
tuple; it equals the |0...0> amplitude of the instance circuit

    U_F = H^n U_fk H^n ... H^n U_f1 H^n

and lies in [-1, 1].  This module provides:

* the multi-hot sample encoding and its inverse,
* restricted_functions - the allowed function family in its fixed order,
  and random_instance, the uniform draw over it,
* phi_bruteforce  - exhaustive 2^(kn)-term sum (the oracle path),
* phi_circuit     - exact statevector simulation of U_F, read off dense
  end tables of all n qubits, or of each connected component of the
  function supports, wherever that is exact (at most 6 qubits, k times
  their count <= 53), the other components run by the runner, equal to
  phi_bruteforce bit for bit; phi_circuits and phi_draws (an int array)
  give its bits in bulk, one block per shape, and phi_exact the exact
  values phi_circuits rounds,
* amplitudes_exact - the exact <z|U_F|0...0> of any basis indices z, and
  basis_index, the z of a circuit that ends in a basis state,
* simulate_instance - the dense run of U_F on all n qubits,
* phi_fixed_ansatz- dense simulation of the fixed polynomial-depth ansatz
  that contains every <=3-qubit controlled-phase slot with data-selected
  angles,
* oddk_extend     - parity-flipping instance extension built from the
  three-CZ SWAP gadget.

Support reduction.  Each function touches at most three qubits, so U_F acts
non-trivially only on the union S of the function supports (at most 3k
qubits).  A qubit outside S ("free") sees nothing but the k+1 Hadamard
layers: it ends in |0> for odd k and in |+> for even k.  Within S, two
qubits interact only if some function contains both, so U_F is the tensor
product of one circuit U_C per connected component C of the supports
(components), and <z|U_F|0> is the product of the <z_C|U_C|0>.
amplitudes_exact reads a list of basis indices z in one pass over them.  A
component that some z sets a qubit of runs on its own qubits (relabelled
1..|C| in increasing order), with the functions outside it as identity
layers, so the statevector cap applies to each component, not to n or to
|S|.  qstate.run_sign_circuit gives its float64 row of exact scaled values
(a Component) with the last Hadamard layer left open; entry r is the row's
dot with row r of the Sylvester matrix, so no read writes to a row.  Each
other component is read at index 0 only, off its end tables (below) where
they are exact.  _exact_of multiplies it all as exact integers, the one
product Phi takes too; _rounded rounds an amplitude once, and squared a
probability.  phi_exact runs the components of many instances with one
qubit count and collapsed program shape (qstate.collapse_layers) as the
rows of one block.

Dense end tables for Phi.  On m <= SIGN_TABLE_QUBITS (6) qubits, <0|U|0>
is 1^T D_k S ... S D_1 1 over 2^((k+1)m/2), for S the +-1 Sylvester
matrix and D_f the flip of f, and the first two and the last two functions
take only N^2 values (N = 42 at m = 6): _end_tables holds their exact
states, so _dense_totals dots two table rows around the k-5 Hadamard
layers between them, for one instance or a block.  The sum is an exact
integer while k*m <= 53 (see _runs_dense).  Up to 6 qubits in all the
component split saves no arithmetic, so Phi reads the tables of all n
qubits, rounded once (_dense_phis); phi_draws reads a (B, k) int array of
function indices and builds no instance.  Past that, each component of m
qubits that _runs_dense contributes its exact total and each other one its
runner entry, and Phi is their exact product (_exact_of) rounded once.

phi_bruteforce, simulate_instance and the fixed ansatz take neither
shortcut: they are the independent references both are checked against.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import qstate
from .qstate import (
    SIGN_TABLE_QUBITS,
    CapacityError,
    Gate,
    StateVector,
    apply_circuit,
    collapse_layers,
    controlled_phase,
    hadamard_all,
    init_zero,
    phase_flip,
    run_sign_circuit,
)

BRUTE_FORCE_MAX_BITS = 24   # 2^(k*n) summands; ~1.7e7 at the cap
BRUTE_FORCE_CHUNK = 1 << 20  # partition size; the exact integer sum makes it invisible
PHI_BOUND_TOL = 1e-12


class MalformedSampleError(ValueError):
    """Encoded sample with a bad shape, a bit other than 0/1 or a block of over three ones."""


@dataclass(frozen=True, slots=True)
class BooleanFunctionSpec:
    """One restricted Boolean function.

    ``bits`` is the set of input-bit indices in the product; empty means the
    constant function f(x) = +1, nonempty J means f(x) = (-1)^(prod_{j in J} x_j).
    """

    bits: frozenset[int]
    mask: int = field(init=False, repr=False, compare=False)  # bit j-1 set for input bit j

    def __post_init__(self):
        if len(self.bits) > 3:
            raise ValueError(f"a function may depend on at most 3 bits, got {sorted(self.bits)}")
        mask = 0
        for b in self.bits:
            if not (isinstance(b, int) and b >= 1):
                raise ValueError(f"bit indices must be integers >= 1, got {sorted(self.bits)!r}")
            mask |= 1 << (b - 1)
        object.__setattr__(self, "mask", mask)

    @property
    def is_constant(self) -> bool:
        return not self.bits

    def evaluate(self, x: int) -> int:
        """f(x) for a basis input given as an integer (bit j-1 = input bit j)."""
        if not self.bits:
            return 1
        for b in self.bits:
            if not (x >> (b - 1)) & 1:
                return 1
        return -1


def function_of(*bits: int) -> BooleanFunctionSpec:
    return BooleanFunctionSpec(frozenset(bits))


CONSTANT = function_of()


@lru_cache(maxsize=None)
def restricted_functions(n: int) -> tuple[BooleanFunctionSpec, ...]:
    """All allowed functions over n bits: the constant, then every product of
    1, 2 and 3 distinct bits in lexicographic order (1 + C(n,1) + C(n,2) +
    C(n,3) entries).  The order is part of the contract: seeded draws index
    into it and the fixed ansatz emits its slots in it."""
    funcs = [CONSTANT]
    for size in (1, 2, 3):
        funcs.extend(BooleanFunctionSpec(frozenset(c)) for c in itertools.combinations(range(1, n + 1), size))
    return tuple(funcs)


@lru_cache(maxsize=None)
def function_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of restricted_functions(n), as read-only arrays that an int
    array of indices reads in one lookup: its mask, and whether it has three bits."""
    funcs = restricted_functions(n)
    tables = np.array([f.mask for f in funcs]), np.array([len(f.bits) == 3 for f in funcs])
    for table in tables:
        table.flags.writeable = False   # shared by every caller
    return tables


def indexed_instance(n: int, indices: Iterable[int]) -> ForrelationInstance:
    """The instance whose functions are restricted_functions(n)[i], i in indices."""
    return ForrelationInstance(n, tuple(map(restricted_functions(n).__getitem__, indices)))


def random_instance(n: int, k: int, rng: np.random.Generator) -> ForrelationInstance:
    """k uniform, independent draws from restricted_functions(n), one rng.integers call each."""
    funcs = restricted_functions(n)
    return ForrelationInstance(n, tuple(funcs[rng.integers(len(funcs))] for _ in range(k)))


@dataclass(frozen=True, slots=True)
class ForrelationInstance:
    """Ordered tuple of k restricted functions over n input bits."""

    n: int
    functions: tuple[BooleanFunctionSpec, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if len(self.functions) < 1:
            raise ValueError("an instance needs at least one function")
        for f in self.functions:
            if f.mask >> self.n:
                raise ValueError(f"function bit {f.mask.bit_length()} exceeds n = {self.n}")

    @property
    def k(self) -> int:
        return len(self.functions)

    @property
    def promise_complete_form(self) -> bool:
        """True iff some function depends on exactly three bits."""
        return any(len(f.bits) == 3 for f in self.functions)


def instance_of(n: int, *bit_sets) -> ForrelationInstance:
    """Shorthand: instance_of(3, {1,3}, (), {2})."""
    return ForrelationInstance(n, tuple(BooleanFunctionSpec(frozenset(b)) for b in bit_sets))


@dataclass(frozen=True, slots=True)
class EncodedSample:
    """Multi-hot encoding: k blocks of n bits, block i the indicator of
    function i's bit set.  The classifier-facing data point."""

    n: int
    k: int
    bits: tuple[int, ...]

    def __post_init__(self):
        for name, value in (("n", self.n), ("k", self.k)):
            if value < 1:
                raise MalformedSampleError(f"{name} must be >= 1, got {value}")
        if len(self.bits) != self.n * self.k:
            raise MalformedSampleError(
                f"expected {self.n * self.k} bits for n={self.n}, k={self.k}, got {len(self.bits)}"
            )
        bits, n = self.bits, self.n
        if bits.count(0) + bits.count(1) != len(bits):   # compares as `b in (0, 1)` does, unhashable b too
            raise MalformedSampleError("sample bits must be 0 or 1")
        for i in range(self.k):
            if sum(bits[i * n:(i + 1) * n]) > 3:
                raise MalformedSampleError(f"block {i} has more than 3 ones")

    def block(self, i: int) -> tuple[int, ...]:
        return self.bits[i * self.n : (i + 1) * self.n]

    def as_string(self) -> str:
        return bytes(self.bits).translate(_DIGITS).decode()


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@lru_cache(maxsize=1 << 12)
def _block_bits(n: int, mask: int) -> tuple[int, ...]:
    """Bit j of mask as entry j; the cache holds every function of n <= 20."""
    return tuple((mask >> j) & 1 for j in range(n))


def encode(inst: ForrelationInstance) -> EncodedSample:
    bits = tuple(itertools.chain.from_iterable(_block_bits(inst.n, f.mask) for f in inst.functions))
    return EncodedSample(inst.n, inst.k, bits)


def decode(sample: EncodedSample) -> ForrelationInstance:
    functions = []
    for i in range(sample.k):
        block = sample.block(i)
        functions.append(BooleanFunctionSpec(frozenset(j + 1 for j, b in enumerate(block) if b)))
    return ForrelationInstance(sample.n, tuple(functions))


def sample_from_string(n: int, k: int, bits: str) -> EncodedSample:
    if not all(c in "01" for c in bits):
        raise MalformedSampleError(f"bits string must be 0/1, got {bits!r}")
    return EncodedSample(n, k, tuple(int(c) for c in bits))


# ---------------------------------------------------------------------------
# Phi bound check shared by all evaluation paths


def _checked_phi(value: float) -> float:
    if abs(value) > 1.0 + PHI_BOUND_TOL:
        raise RuntimeError(f"|Phi| exceeds 1: {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Oracle path: exhaustive sum, vectorised and chunked, independent of the
# simulator.


def phi_bruteforce(inst: ForrelationInstance) -> float:
    """Phi by direct summation over all 2^(k*n) index tuples.

    Each summand is a product of k function values and k-1 inner-product
    signs, i.e. +-1.  The accumulated sum is exact integer arithmetic; only
    the final normalisation by 2^((k+1)n/2) rounds.
    """
    n, k = inst.n, inst.k
    total_bits = n * k
    if total_bits > BRUTE_FORCE_MAX_BITS:
        raise CapacityError(
            f"brute force is capped at k*n <= {BRUTE_FORCE_MAX_BITS} total bits, got {total_bits}"
        )
    n_mask = (1 << n) - 1
    size = 1 << total_bits
    total = 0
    chunk = BRUTE_FORCE_CHUNK
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        t = np.arange(start, stop, dtype=np.int64)
        xs = [(t >> (i * n)) & n_mask for i in range(k)]
        neg = np.zeros(t.shape, dtype=np.uint8)   # bit 0: the summand is -1
        for xi, f in zip(xs, inst.functions):
            if f.mask:
                neg ^= (xi & f.mask) == f.mask
        for i in range(k - 1):
            neg ^= np.bitwise_count(xs[i] & xs[i + 1])
        total += (stop - start) - 2 * int(np.count_nonzero(neg & 1))
    return _checked_phi(total / math.sqrt(float(1 << ((k + 1) * n))))


# ---------------------------------------------------------------------------
# Circuit path


def build_circuit(inst: ForrelationInstance) -> list[Gate]:
    """Gate list of U_F in application order: 2k+1 gates, Hadamard layers
    alternating with one phase flip per function.  Constant functions emit
    the empty-target placeholder so direct and ansatz circuits align
    layer-for-layer."""
    gates = [hadamard_all()]
    for f in inst.functions:
        gates.append(phase_flip(*sorted(f.bits)))
        gates.append(hadamard_all())
    return gates


def components(inst: ForrelationInstance) -> tuple[tuple[int, ...], ...]:
    """The connected components of inst's function supports, each a sorted
    tuple of qubits, ordered by their lowest qubit.  Two qubits are joined
    when some function contains both.  An instance whose every function is
    constant keeps qubit 1 alone (a state needs at least one qubit)."""
    return tuple(map(_qubits, _parts([f.mask for f in inst.functions])))


def _parts(masks: Sequence[int]) -> list[int]:
    """components() as qubit masks: the union of every function mask with
    each mask it meets, ordered by lowest qubit, or [1] when all are 0."""
    parts: list[int] = []  # disjoint so far
    for joined in masks:
        if joined:
            rest = []
            for part in parts:
                if part & joined:
                    joined |= part
                else:
                    rest.append(part)
            parts = rest + [joined]
    parts.sort(key=lambda part: part & -part)
    return parts or [1]


def _qubits(mask: int) -> tuple[int, ...]:
    """The qubits whose bits are set in mask, in increasing order (bit q-1 is qubit q)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Component:
    """U_C|0...0> on one connected component: its qubits ``support`` (and
    ``mask``, bit q-1 set for each qubit q of it), relabelled 1..m in
    ``amps``, a row qstate.run_sign_circuit returned: 2^m float64 entries
    that are the amplitudes times sqrt(2^``exponent``) once the last
    Hadamard layer is applied.  While ``scale`` is nonzero that layer is
    open, and entry r reads as scale times the row dotted with s_r, row r of
    the +-1 Sylvester matrix: the terms row r of the transform adds, so the
    read is exact whenever the transform is.  No read writes to the row."""

    support: tuple[int, ...]
    amps: np.ndarray
    exponent: int
    scale: float
    mask: int

    def entry(self, r: int) -> float:
        """The scaled amplitude of local index r."""
        if not self.scale:
            return float(self.amps[r])
        if not r:
            return float(self.amps.sum()) * self.scale
        m = len(self.support)
        if m <= qstate.WHT_BLOCK_QUBITS:
            signs = qstate._SYLVESTER[r, : 1 << m]
        else:   # (-1)^popcount(r & x)
            signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << m) & r) & 1)
        return float(self.amps.dot(signs)) * self.scale


_SQRT2 = math.sqrt(2.0)
_SQRT2_NUM, _SQRT2_DEN = _SQRT2.as_integer_ratio()


def _rounded(num: int, den: int, e: int) -> float:
    """num / den / sqrt(2^e) by the float sqrt(2) and a power of two in one
    exact division, rounded once: phi_bruteforce's bits, at any n and num."""
    if e % 2:
        num, den = num * _SQRT2_DEN, den * _SQRT2_NUM
    return num / (den << e // 2)


def squared(num: int, den: int, e: int) -> float:
    """(num / den / sqrt(2^e))^2 as ldexp(num^2 / den^2, -e): one rounding of
    the exact square, so a probability of at most 1 never reads above 1."""
    return math.ldexp((num * num) / (den * den), -e)


def amplitudes_exact(inst: ForrelationInstance, zs: Sequence[int]) -> list[tuple[int, int, int]]:
    """The exact (num, den, e) of <z|U_F|0...0> per basis index z of zs, from
    one _dispatch: each component that some z sets a qubit of runs, and each
    other one is read at index 0, off its end tables where _runs_dense."""
    read = 0
    for z in zs:
        if not 0 <= z < 1 << inst.n:
            raise ValueError(f"basis index {z} out of range for {inst.n} qubits")
        read |= z
    tables, programs = _dispatch(inst, read)
    totals = [(m, int(_dense_totals(m, cols))) for m, cols in tables]
    comps = [_run(*program) for program in programs]
    return [_exact_of(inst, totals, comps, z) for z in zs]


def basis_index(inst: ForrelationInstance) -> int:
    """The z of U_F|0...0> = +-|z>, unchecked, off a run of every component:
    a closed row is +-e_r, and an open one a multiple of row r of the
    Sylvester matrix: bit i of r is set iff entries 2^i and 0 differ in sign."""
    z = 0
    for comp in (_run(*program) for program in _dispatch(inst, (1 << inst.n) - 1)[1]):
        amps = comp.amps
        if comp.scale:
            r = sum(1 << i for i in range(len(comp.support)) if (amps[1 << i] < 0) != (amps[0] < 0))
        else:
            r = int(np.abs(amps).argmax())
        z |= sum(1 << (q - 1) for i, q in enumerate(comp.support) if r >> i & 1)
    return z


def _run(part: int, support: tuple[int, ...], flips: list[list[int]], open_last: bool) -> Component:
    """The Component of one _dispatch program, as a lone row: a block row costs more."""
    rows, e, scale = run_sign_circuit(len(support), [flips], open_last)
    return Component(support, rows[0], e, scale, part)


def _run_components(programs: Sequence[tuple]) -> list[Component]:
    """A Component per (mask, qubits, flips, open_last) of _dispatch, in
    order; those of one (qubits, applied layers, open_last) run as the rows
    of one run_sign_circuit block."""
    out: list = [None] * len(programs)
    for (m, _, open_last), idx in _grouped((len(p[1]), len(p[2]), p[3]) for p in programs).items():
        rows, e, scale = run_sign_circuit(m, [programs[i][2] for i in idx], open_last)
        for i, row in zip(idx, rows):
            out[i] = Component(programs[i][1], row, e, scale, programs[i][0])
    return out


def _grouped(keys: Iterable) -> dict:
    """The positions of each distinct key, in the order keys first appear."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def simulate_instance(inst: ForrelationInstance) -> StateVector:
    """U_F |0...0> by a dense run on all n qubits, capped at n: the reference
    that amplitudes_exact is checked against."""
    return apply_circuit(init_zero(inst.n), build_circuit(inst))


def phi_circuit(inst: ForrelationInstance) -> float:
    """Phi as the |0...0> amplitude of the instance circuit: read off the
    end tables of all n qubits when _runs_dense(n, k); else the product of
    one exact factor per component of the supports, off the end tables of
    its m qubits or by the runner, rounded once (amplitudes_exact)."""
    n, k = inst.n, inst.k
    if _runs_dense(n, k):
        index = _end_tables(n)[2]
        return _dense_phis(n, [index[f.mask] for f in inst.functions])[0]
    return _checked_phi(_rounded(*amplitudes_exact(inst, [0])[0]))


def phi_circuits(insts: Sequence[ForrelationInstance]) -> list[float]:
    """[phi_circuit(x) for x in insts], bit for bit: phi_exact of each,
    rounded once (_rounded)."""
    return [_checked_phi(_rounded(*exact)) for exact in phi_exact(insts)]


def phi_exact(insts: Sequence[ForrelationInstance]) -> list[tuple[int, int, int]]:
    """(num, den, e) per instance, Phi = num / den / sqrt(2^e) exactly.
    Each (n, k) that _runs_dense is one block of the dense evaluator; the
    components of all the other instances go through _table_totals and
    _run_components at once.  Any instance's error raises for the whole list."""
    out: list = [None] * len(insts)
    parts = {}   # per instance past the whole-register tables: its _dispatch
    for (n, k), idx in _grouped((inst.n, inst.k) for inst in insts).items():
        if not _runs_dense(n, k):
            parts.update((i, _dispatch(insts[i])) for i in idx)
            continue
        index = _end_tables(n)[2]
        draws = np.array([[index[f.mask] for f in insts[i].functions] for i in idx])
        for i, total in zip(idx, _dense_totals(n, draws.T).tolist()):
            out[i] = _exact_of(insts[i], [(n, int(total))], [])
    totals = iter(_table_totals([table for tables, _ in parts.values() for table in tables]))
    comps = iter(_run_components([program for _, programs in parts.values() for program in programs]))
    for i, (tables, programs) in parts.items():
        out[i] = _exact_of(insts[i], [next(totals) for _ in tables], [next(comps) for _ in programs])
    return out


def _dispatch(inst: ForrelationInstance, read: int = 0) -> tuple[list, list]:
    """inst's components by evaluator, with the functions' masks relabelled
    to a component's qubits (bit i for its (i+1)-th, 0 outside it): (m, the
    masks' end-table indices) per one of m qubits that _runs_dense and has no
    qubit in the mask read, so it is only ever read at index 0, and (mask,
    qubits, collapse_layers of the masks) per other."""
    out: tuple[list, list] = ([], [])
    for part in _parts([f.mask for f in inst.functions]):
        local = []
        for f in inst.functions:   # a function meets one component, and lies in it
            mask = 0
            if f.mask & part:
                for b in f.bits:   # qubit b is bit i, for the i qubits of part below it
                    mask |= 1 << (part & ((1 << (b - 1)) - 1)).bit_count()
            local.append(mask)
        m = part.bit_count()
        if not part & read and _runs_dense(m, inst.k):
            out[0].append((m, list(map(_end_tables(m)[2].__getitem__, local))))
        else:
            out[1].append((part, _qubits(part), *collapse_layers(local)))
    return out


def _table_totals(tables: Sequence[tuple[int, list[int]]]) -> list[tuple[int, int]]:
    """(m, exact int _dense_totals) per (m, indices), one block per (m, k)."""
    out: list = [None] * len(tables)
    for (m, _), idx in _grouped((m, len(cols)) for m, cols in tables).items():
        for i, total in zip(idx, _dense_totals(m, np.array([tables[i][1] for i in idx]).T).tolist()):
            out[i] = m, int(total)
    return out


def _exact_of(inst: ForrelationInstance, tables: list[tuple[int, int]], comps: Sequence[Component],
              z: int = 0) -> tuple:
    """The exact (num, den, e) of <z|U_F|0...0>, Phi at z = 0: the product
    of the (m, total) of each table component, worth total over
    sqrt(2^((k+1)m)) (its power of two in den, so num / den stays in float
    range, as a runner row does) and read at z = 0 only (_dispatch tables
    no component that z sets a qubit of), each runner
    Component's entry at z's bits on its qubits, and the free qubits: at odd
    k each ends in |0>, so a z that sets one reads 0, and at even k each
    ends in |+>, worth 2^(-1/2)."""
    num, den, e, covered, seen = 1, 1, 0, 0, 0
    for m, total in tables:
        num, den, e, covered = num * total, den << (inst.k + 1) * m // 2, e + (inst.k + 1) * m % 2, covered + m
    for comp in comps:
        r = 0
        if z & comp.mask:
            for i, q in enumerate(comp.support):
                r |= ((z >> (q - 1)) & 1) << i
            seen |= z & comp.mask
        p, d = comp.entry(r).as_integer_ratio()
        num, den, e, covered = num * p, den * d, e + comp.exponent, covered + len(comp.support)
    if inst.k % 2:
        return (num, den, e) if z == seen else (0, 1, 0)
    return num, den, e + inst.n - covered


def phi_draws(n: int, draws: np.ndarray) -> list[float]:
    """phi_circuits of indexed_instance(n, row) for each row of a (B, k) int
    array, bit for bit; a dense shape builds no instance."""
    if _runs_dense(n, draws.shape[1]):
        return _dense_phis(n, draws.T)
    return phi_circuits([indexed_instance(n, row) for row in draws.tolist()])


def _runs_dense(n: int, k: int) -> bool:
    """Whether Phi of an (n, k) instance, or the factor of an n-qubit
    component of a k-function one, is read off the dense end tables: n is
    within the sign table, and k*n fits float64's significand.  Each table
    entry and each vector between the tables is an integer vector, whose
    largest entry j +-1 transforms raise to at most 2^(j*n).  The final dot
    product pairs b <= 2 transforms with the other k-1-b, so its terms and
    partial sums are integers of at most 2^(k*n): exact while k*n <= 53."""
    return n <= SIGN_TABLE_QUBITS and k * n <= sys.float_info.mant_dig


@lru_cache(maxsize=None)
def _end_tables(n: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Read-only int16 tables of the ends of Phi's chain at n <= 6, over the
    N entries f, g of restricted_functions(n): row f of the first is S D_f 1
    and row f*N + g of the second S D_g S D_f 1 (S the +-1 Sylvester matrix,
    D_f the flip of f), each row's norm checked here; then the index of each
    function mask in restricted_functions(n)."""
    masks = function_tables(n)[0]
    flips = qstate._sign_table(n)[masks]
    one = flips.copy()
    qstate._wht_inplace(one, n)
    two = (one[:, None] * flips).reshape(-1, 1 << n)
    qstate._wht_inplace(two, n)
    for power, table in enumerate((one, two), 2):   # a row's norm is 2^(power*n)
        qstate._check_norms((np.vecdot(table, table) / 2.0 ** (power * n)).tolist())
    one, two = one.astype(np.int16), two.astype(np.int16)   # entries of at most 2^(2n)
    one.flags.writeable = two.flags.writeable = False   # shared by every caller
    index = np.zeros(1 << n, dtype=int)
    index[masks] = np.arange(len(masks))
    return one, two, tuple(index.tolist())


def _dense_totals(n: int, cols: Sequence[int] | np.ndarray):
    """The exact integer 1^T D_k S ... S D_1 1 on n qubits, as float64, for
    columns of indices into restricted_functions(n): k ints for one
    instance, on views of table rows, or k int arrays for a block, one
    gather per table end.  With S and D_f symmetric, it is the end row of
    (f_k, f_(k-1)) dotted with that of (f_1, f_2) carried through D_3 S ...
    S D_(k-2), a norm check per row after each of the k-5 transforms (k < 5
    takes one-function ends, and k <= 2 reads index 0)."""
    one, two, _ = _end_tables(n)
    masks, signs, k = function_tables(n)[0], qstate._sign_table(n), len(cols)
    if isinstance(cols, np.ndarray):   # a block: rows are gathered, and dotted row by row
        dot, listed = np.vecdot, np.ndarray.tolist
    else:   # one instance: rows are views, and dots are scalars
        dot, listed = np.dot, lambda x: [float(x)]

    def end(fs):   # the table rows of the first one or two functions of fs
        return one[fs[0]] if len(fs) == 1 else two[fs[0] * len(one) + fs[1]]
    if k <= 2:
        return end(cols)[..., 0]
    left, right = (2 if k > 3 else 1), (2 if k > 4 else 1)
    v = end(cols[:left]) * signs[masks[cols[left]]]
    for j in range(left + 1, k - right):
        qstate._wht_inplace(v, n)
        v *= signs[masks[cols[j]]]
        qstate._check_norms(listed(dot(v, v) / 2.0 ** ((j + 1) * n)))
    return dot(end(cols[:-right - 1:-1]), v)


def _dense_phis(n: int, cols: Sequence[int] | np.ndarray) -> list[float]:
    """Phi of instances of all n qubits, _dense_totals over 2^((k+1)n/2),
    rounded once per instance as _rounded rounds, vectorised for a block."""
    k = len(cols)
    phis = _dense_totals(n, cols) * 2.0 ** -((k + 1) * n // 2)
    if (k + 1) * n % 2:
        phis /= _SQRT2
    return [_checked_phi(phi) for phi in (phis.tolist() if isinstance(cols, np.ndarray) else [float(phis)])]


# ---------------------------------------------------------------------------
# Fixed ansatz: every <=3-qubit controlled-phase slot, angles selected by the
# encoded block.


def ansatz_parameter_count(n: int, k: int) -> int:
    """Number of controlled-phase slots: k * (C(n,1)+C(n,2)+C(n,3))."""
    return k * (n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6)


@lru_cache(maxsize=None)
def _slot_gates(n: int) -> tuple[tuple[frozenset[int], Gate, Gate], ...]:
    """Per controlled-phase slot of the n-bit ansatz, in restricted_functions
    order: (bits, the gate at angle 0, the gate at angle pi).  Gates are
    immutable, so each is built and checked once per n."""
    return tuple((f.bits, controlled_phase(f.bits, 0.0), controlled_phase(f.bits, math.pi))
                 for f in restricted_functions(n)[1:])


def build_fixed_ansatz(sample: EncodedSample) -> list[Gate]:
    """Fixed-skeleton circuit equivalent to build_circuit(decode(sample)).

    Block i selects angle pi for the one slot matching its indicator set and
    0 everywhere else (a slot angle is pi * prod_{j in J} x_j * prod_{l not
    in J} (1 - x_l)).  All slots are always emitted; the skeleton never
    depends on the data.
    """
    slots = _slot_gates(sample.n)
    gates = [hadamard_all()]
    for i in range(sample.k):
        ones = frozenset(j + 1 for j, b in enumerate(sample.block(i)) if b)
        gates.extend(pi if bits == ones else zero for bits, zero, pi in slots)
        gates.append(hadamard_all())
    return gates


def simulate_fixed_ansatz(sample: EncodedSample) -> StateVector:
    return apply_circuit(init_zero(sample.n), build_fixed_ansatz(sample))


def phi_fixed_ansatz(sample: EncodedSample) -> float:
    return _checked_phi(float(simulate_fixed_ansatz(sample).amplitudes[0]))


# ---------------------------------------------------------------------------
# Parity-flipping extension (three-CZ SWAP gadget)


def gadget_gate_sequence() -> list[Gate]:
    """The two-qubit identity H CZ H CZ H CZ H = SWAP o H (exact, no phase),
    built from the functions oddk_extend appends for one pair."""
    return build_circuit(ForrelationInstance(2, tuple(_gadget_chain([(1, 2)]))))


ODD_N_PHI_SCALE = 2.0 ** -0.5
"""Phi rescaling incurred by oddk_extend when n is odd (see oddk_extend)."""


class OddKExtension(NamedTuple):
    instance: ForrelationInstance
    extended: bool
    phi_scale: float


def _gadget_chain(pairs: Sequence[tuple[int, int]]) -> list[BooleanFunctionSpec]:
    funcs: list[BooleanFunctionSpec] = []
    for idx, (a, b) in enumerate(pairs):
        if idx:
            funcs.append(CONSTANT)
        funcs.extend([function_of(a, b)] * 3)
    return funcs


def oddk_extend(inst: ForrelationInstance) -> OddKExtension:
    """Append 4*ceil(n/2) - 1 functions to flip an even k to odd.

    The appended block applies the three-CZ gadget to the non-overlapping
    pairs (1,2), (3,4), ..., with one constant function between consecutive
    gadgets.  For even n the extended circuit equals a qubit permutation
    composed with the original, so Phi is preserved exactly.

    For odd n the block needs an ancilla qubit (the output instance has n+1
    qubits, ancilla last, pair (n, n+1)); the ancilla then absorbs one
    uncancelled Hadamard and the extended Phi equals ODD_N_PHI_SCALE *
    original Phi.  At n = 3 that factor is intrinsic: no block of 7
    restricted functions (any products of <=3 bits, with or without the
    ancilla) preserves Phi for all instances, as an uncommitted exhaustive
    search showed (ROADMAP item 7); n >= 5 is unchecked.  The returned
    phi_scale reports which contract the caller got.

    Instances whose k is already odd are returned unchanged with
    extended=False.
    """
    if inst.k % 2 == 1:
        return OddKExtension(inst, False, 1.0)
    if inst.n < 2:
        raise ValueError("oddk_extend needs n >= 2")
    n_out = inst.n if inst.n % 2 == 0 else inst.n + 1
    pairs = [(q, q + 1) for q in range(1, n_out, 2)]
    appended = _gadget_chain(pairs)
    extended = ForrelationInstance(n_out, inst.functions + tuple(appended))
    scale = 1.0 if inst.n % 2 == 0 else ODD_N_PHI_SCALE
    return OddKExtension(extended, True, scale)


def oddk_extension_count(n: int) -> int:
    """Number of functions oddk_extend appends: 4*ceil(n/2) - 1."""
    return 4 * ((n + 1) // 2) - 1
