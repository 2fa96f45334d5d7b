"""Labeled k-forrelation datasets.

Two sources of samples:

* engineered training pairs: a positive whose circuit fixes |0...0> exactly
  (f1 = f3 = a three-bit product, rest constant) and a negative whose
  circuit lands on a different basis state (f1 a single bit, f2 a three-bit
  product, rest constant);
* rejection-sampled test instances: uniform over complete tuples of the
  restricted function family, re-drawn until complete, kept only when
  exact simulation puts Phi inside a promise band (positive: Phi >= 3/5,
  negative: |Phi| <= 1/100).  A chunk of draws is one (B, k) int array of
  function indices, simulated in one batch (forrelation.phi_draws) and
  accepted in order, and only an accepted draw becomes an instance, so a
  dataset and its report are those a draw-by-draw loop gives.

Labels are always derived from exact simulation, never from shots.  The
file format is line-delimited JSON: one header record carrying the
generation spec, then one record per sample with fields n, k, bits, label,
phi, provenance (order normative).
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .forrelation import (
    CONSTANT,
    BooleanFunctionSpec,
    EncodedSample,
    ForrelationInstance,
    MalformedSampleError,
    amplitudes_exact,
    encode,
    function_of,
    function_tables,
    indexed_instance,
    phi_circuit,
    phi_draws,
    random_instance,
    sample_from_string,
    squared,
)
from .qstate import CapacityError

POSITIVE_PHI_MIN = 3 / 5
NEGATIVE_PHI_MAX = 1 / 100
CONSTRUCTIVE_TOL = 1e-12
CHUNK_MIN, CHUNK_MAX = 16, 64   # rejection draws per batch; the cap bounds memory

PROVENANCE_CONSTRUCTIVE = "constructive"
PROVENANCE_REJECTION = "rejection_sampled"


class GenerationError(RuntimeError):
    """The requested dataset cannot be produced."""


class DatasetFormatError(ValueError):
    """A dataset file line failed to parse or validate."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True, slots=True)
class LabeledSample:
    sample: EncodedSample
    label: int
    phi: float
    provenance: str

    def __post_init__(self):
        if self.label not in (1, -1):
            raise ValueError(f"label must be +1 or -1, got {self.label}")
        if self.provenance not in (PROVENANCE_CONSTRUCTIVE, PROVENANCE_REJECTION):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.label == 1 and not self.phi >= POSITIVE_PHI_MIN:
            raise ValueError(f"positive label requires phi >= {POSITIVE_PHI_MIN}, got {self.phi}")
        if self.label == -1 and not abs(self.phi) <= NEGATIVE_PHI_MAX:
            raise ValueError(f"negative label requires |phi| <= {NEGATIVE_PHI_MAX}, got {self.phi}")


@dataclass(frozen=True, slots=True)
class DatasetSpec:
    """Generation spec; its fields, in order, are the dataset header."""

    n: int
    k: int
    count_pos: int
    count_neg: int
    seed: int
    max_rejection_tries: int = 10000

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.k < 3 or self.k % 2 == 0:
            raise ValueError(f"k must be odd and >= 3, got {self.k}")
        if self.count_pos < 0 or self.count_neg < 0:
            raise ValueError("sample counts must be >= 0")
        if self.max_rejection_tries < 0:
            raise ValueError("max_rejection_tries must be >= 0")


def make_positive_sample(n: int, k: int, i: int, j: int, l: int) -> LabeledSample:
    """Engineered positive: f1 = f3 = (-1)^(x_i x_j x_l), everything else
    constant.  The two identical flips cancel and the Hadamard layers
    annihilate pairwise, so the circuit fixes |0...0> and Phi = 1."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 3, got {k}")
    if n < 3:
        raise ValueError(f"a three-bit product needs n >= 3, got n = {n}")
    triple = {i, j, l}
    if len(triple) != 3 or not all(1 <= b <= n for b in triple):
        raise ValueError(f"i, j, l must be distinct indices in [1, {n}], got {(i, j, l)}")
    functions = [CONSTANT] * k
    functions[0] = functions[2] = function_of(i, j, l)
    inst = ForrelationInstance(n, tuple(functions))
    phi = phi_circuit(inst)
    if abs(phi - 1.0) > CONSTRUCTIVE_TOL:
        raise RuntimeError(f"positive construction failed: <0|U|0> = {phi!r}")
    return LabeledSample(encode(inst), 1, 1.0, PROVENANCE_CONSTRUCTIVE)


def make_negative_sample(n: int, k: int, j: int, three_bits: Iterable[int]) -> LabeledSample:
    """Engineered negative: f1 = (-1)^(x_j) flips qubit j between Hadamard
    layers (HZH = X), f2 a three-bit product (inert on a one-hot basis
    state), the rest constant.  The circuit sends |0...0> to the basis
    state with index 2^(j-1), so Phi is exactly 0."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 3, got {k}")
    bits = frozenset(three_bits)
    if len(bits) != 3 or not all(isinstance(b, int) and 1 <= b <= n for b in bits):
        raise ValueError(f"three_bits must be 3 distinct indices in [1, {n}], got {sorted(bits)}")
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in [1, {n}], got {j}")
    functions = [CONSTANT] * k
    functions[0] = function_of(j)
    functions[1] = BooleanFunctionSpec(bits)
    inst = ForrelationInstance(n, tuple(functions))
    p = squared(*amplitudes_exact(inst, [1 << (j - 1)])[0])
    if abs(p - 1.0) > CONSTRUCTIVE_TOL:
        raise RuntimeError(f"negative construction failed: p[2^(j-1)] = {p!r}")
    return LabeledSample(encode(inst), -1, 0.0, PROVENANCE_CONSTRUCTIVE)


def sample_random_instance(n: int, k: int, rng: np.random.Generator) -> ForrelationInstance:
    """Uniform over complete tuples, re-drawn until complete: the first
    k-tuple of the rng stream in which some function has exactly three bits
    (the completeness condition)."""
    if n < 3:
        raise ValueError(f"the completeness condition needs n >= 3, got n = {n}")
    while True:
        inst = random_instance(n, k, rng)
        if inst.promise_complete_form:
            return inst


@dataclass(frozen=True)
class GenerationReport:
    """Rejection-sampling statistics; its fields, in order, are the `gen` report."""

    tries: int
    accepted_pos: int
    accepted_neg: int
    constructive_pos: int
    acceptance_rate_pos: float
    acceptance_rate_neg: float
    phi_min: float | None
    phi_max: float | None
    phi_mean: float | None
    phi_bins: tuple[int, ...]   # 20 equal bins over [-1, 1] for all tried instances


def _draw_chunk(n: int, k: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """The (size, k) int array of the tuples size sample_random_instance
    calls return, rng left where they leave it: a (B, k) draw is B*k scalar
    draws, so the incomplete rows are dropped and the shortfall drawn again."""
    complete = function_tables(n)[1]
    draws = rng.integers(len(complete), size=(size, k))
    draws = draws[complete[draws].any(axis=1)]
    return draws if len(draws) == size else np.concatenate([draws, _draw_chunk(n, k, size - len(draws), rng)])


def generate_dataset(spec: DatasetSpec) -> tuple[list[LabeledSample], GenerationReport]:
    """Rejection-sample labelled instances per the spec.

    Draws come from one rng seeded with spec.seed, in int-array chunks of
    CHUNK_MIN to CHUNK_MAX (_draw_chunk) whose Phi is evaluated in one batch.
    Draws are accepted in order and built as instances only once accepted;
    the loop stops at the same try as a draw-by-draw loop, so the result
    does not depend on the chunking.

    Positives left unfilled after max_rejection_tries are topped up with
    engineered samples over distinct (i, j, l) triples (reported, never
    silent).  An unfillable class raises GenerationError.
    """
    if (spec.count_pos or spec.count_neg) and spec.n < 3:
        raise GenerationError(f"promise-complete instances need n >= 3, got n = {spec.n}")
    rng = np.random.default_rng(spec.seed)
    samples: list[LabeledSample] = []
    tries = 0
    phis: list[float] = []
    need, accepted = {1: spec.count_pos, -1: spec.count_neg}, {1: 0, -1: 0}   # per label
    while (need[1] > 0 or need[-1] > 0) and tries < spec.max_rejection_tries:
        # As many draws as the remaining need takes at each class's
        # acceptance rate so far (one per sample before the first try).
        expected = [need[c] * tries / accepted[c] if accepted[c] else CHUNK_MAX for c in need if need[c] > 0]
        size = max(CHUNK_MIN, math.ceil(max(expected) if tries else need[1] + need[-1]))
        size = min(size, CHUNK_MAX, spec.max_rejection_tries - tries)
        draws = _draw_chunk(spec.n, spec.k, size, rng)
        try:
            chunk_phis = phi_draws(spec.n, draws)
        except (CapacityError, RuntimeError):   # one at a time, so an error raises only at its draw
            chunk_phis = (phi_circuit(indexed_instance(spec.n, row)) for row in draws.tolist())
        for row, phi in zip(draws.tolist(), chunk_phis):
            tries += 1
            phis.append(phi)
            label = 1 if phi >= POSITIVE_PHI_MIN else -1 if abs(phi) <= NEGATIVE_PHI_MAX else 0
            if label and need[label] > 0:
                samples.append(LabeledSample(encode(indexed_instance(spec.n, row)), label, phi, PROVENANCE_REJECTION))
                accepted[label] += 1
                need[label] -= 1
            if need[1] <= 0 and need[-1] <= 0:
                break

    if need[1] > 0:   # positives left unfilled: engineered ones fill them
        triples = list(itertools.combinations(range(1, spec.n + 1), 3))
        if need[1] > len(triples):
            raise GenerationError(
                f"cannot fill {need[1]} positives: only {len(triples)} distinct constructive triples at n = {spec.n}"
            )
        samples += [make_positive_sample(spec.n, spec.k, *triple) for triple in triples[:need[1]]]
    if need[-1] > 0:
        raise GenerationError(
            f"rejection sampling exhausted {spec.max_rejection_tries} tries with {need[-1]} negatives missing"
        )

    bins = np.histogram(phis, bins=20, range=(-1.0, 1.0))[0] if phis else np.zeros(20, int)
    report = GenerationReport(
        tries=tries,
        accepted_pos=accepted[1],
        accepted_neg=accepted[-1],
        constructive_pos=need[1],
        acceptance_rate_pos=accepted[1] / tries if tries else 0.0,
        acceptance_rate_neg=accepted[-1] / tries if tries else 0.0,
        phi_min=min(phis) if phis else None,
        phi_max=max(phis) if phis else None,
        phi_mean=float(np.mean(phis)) if phis else None,
        phi_bins=tuple(int(b) for b in bins),
    )
    return samples, report


# ---------------------------------------------------------------------------
# Serialization.  One JSON object per line; field order is normative.


def _sample_record(s: LabeledSample) -> dict:
    return {
        "n": s.sample.n,
        "k": s.sample.k,
        "bits": s.sample.as_string(),
        "label": s.label,
        "phi": f"{s.phi:.17g}",
        "provenance": s.provenance,
    }


def write_dataset(spec: DatasetSpec, samples: Iterable[LabeledSample], path: str) -> None:
    """Header line with the generation spec, then one record per sample."""
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(asdict(spec)) + "\n")
        for s in samples:
            fh.write(json.dumps(_sample_record(s)) + "\n")


def _require_ints(lineno: int, obj: dict, names: Iterable[str]) -> None:
    """Each named field present in obj must be a JSON integer: a float, bool
    or string is rejected, not coerced."""
    for name in names:
        if name in obj and type(obj[name]) is not int:
            raise DatasetFormatError(lineno, f"{name} must be a JSON integer, got {obj[name]!r}")


def _read_phi(lineno: int, obj: dict) -> float:
    """phi as write_dataset writes it: a JSON string holding a finite number
    with |phi| <= 1.  Anything else (true, 1, null, "inf", "nan", "1.5")
    raises DatasetFormatError."""
    phi = obj.get("phi")
    try:
        value = float(phi) if isinstance(phi, str) else math.nan
    except ValueError:
        value = math.nan
    if not abs(value) <= 1.0:
        raise DatasetFormatError(lineno, f"phi must be a string holding a number in [-1, 1], got {phi!r}")
    return value


def read_dataset(path: str) -> tuple[DatasetSpec | None, list[LabeledSample]]:
    """Inverse of write_dataset.  An empty file is an empty dataset.

    Raises DatasetFormatError (with the offending line number) on malformed
    JSON, a line that is not a JSON object, a header field or a record's n,
    k or label that is not a JSON integer, bits that are not a string, phi
    that is not a string holding a number in [-1, 1], malformed blocks, label/phi inconsistencies, or a record whose (n, k)
    differs from the header's or, without a header, from the first record's.
    """
    spec: DatasetSpec | None = None
    shape: tuple[int, int] | None = None
    samples: list[LabeledSample] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(lineno, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise DatasetFormatError(lineno, f"expected a JSON object, got {type(obj).__name__}")
            if "bits" not in obj:
                if lineno != 1:
                    raise DatasetFormatError(lineno, "header record apart from line 1")
                _require_ints(lineno, obj, obj.keys())
                try:
                    spec = DatasetSpec(**obj)
                except (TypeError, ValueError) as exc:
                    raise DatasetFormatError(lineno, f"bad header: {exc}") from exc
                shape = (spec.n, spec.k)
                continue
            _require_ints(lineno, obj, ("n", "k", "label"))
            if not isinstance(obj["bits"], str):
                raise DatasetFormatError(lineno, f"bits must be a string, got {obj['bits']!r}")
            phi = _read_phi(lineno, obj)
            try:
                sample = sample_from_string(obj["n"], obj["k"], obj["bits"])
                labeled = LabeledSample(sample, obj["label"], phi, obj["provenance"])
            except (KeyError, TypeError, ValueError, MalformedSampleError) as exc:
                raise DatasetFormatError(lineno, str(exc)) from exc
            if shape is None:
                shape = (sample.n, sample.k)
            elif (sample.n, sample.k) != shape:
                source = "the header" if spec is not None else "the first record"
                raise DatasetFormatError(
                    lineno, f"record has (n, k) = ({sample.n}, {sample.k}) but {source} has {shape}"
                )
            samples.append(labeled)
    return spec, samples
