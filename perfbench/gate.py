"""Correctness gate for the benchmark's operations, run outside the timed region.

Every check recomputes the expected answer along a path the timed code does
not take: Phi and the classifier probabilities come from the dense fixed
ansatz (`simulate_fixed_ansatz` / `phi_fixed_ansatz`), never from
`simulate_instance`.  Each check returns None when the output is right and a
one-line description of the first problem otherwise.

Phi of a large-n instance is checked on the instance cut down to the union of
its function supports: a qubit no function touches only sees H^(k+1), which
contributes 1 for odd k and 2^-1/2 for even k, so the cut-down fixed ansatz
(at most 3k qubits) gives the same Phi at a fraction of the cost.
"""
from __future__ import annotations

import json

import numpy as np

from kforrelation import classify as cls
from kforrelation import datagen
from kforrelation import forrelation as fr

PHI_TOL = 1e-10
DECISION_TOL = 1e-9    # exact decisions this close to the threshold are not judged
SHOT_DELTA = 1e-9      # Hoeffding failure probability per estimated probability

_VQC_THRESHOLD = 0.5 * (1.0 - cls.default_bias())
# Distance from the VQC threshold on p0 to the nearer promise bound
# (positives p0 >= 9/25, negatives p0 <= 1/10000).
PROMISE_MARGIN = min(9 / 25 - _VQC_THRESHOLD, _VQC_THRESHOLD - 1 / 10000)
# Each shot estimate within half the margin keeps the VQC estimate, and the
# QSVM difference p0 - pz, within the margin.
SHOT_EPSILON = PROMISE_MARGIN / 2
SHOTS = cls.shot_budget_for(SHOT_EPSILON, SHOT_DELTA)


def reduced_sample(inst: fr.ForrelationInstance) -> tuple[fr.EncodedSample, float]:
    """The instance on the union of its function supports, and the factor
    that turns the reduced Phi into the full one."""
    support = sorted(set().union(*(f.bits for f in inst.functions)))
    relabel = {q: i + 1 for i, q in enumerate(support)}
    m = max(len(support), 1)
    funcs = tuple(fr.BooleanFunctionSpec(frozenset(relabel[b] for b in f.bits)) for f in inst.functions)
    free = inst.n - m
    scale = 1.0 if inst.k % 2 else 2.0 ** (-0.5 * free)
    return fr.encode(fr.ForrelationInstance(m, funcs)), scale


def reference_phi(inst: fr.ForrelationInstance) -> float:
    sample, scale = reduced_sample(inst)
    return scale * fr.phi_fixed_ansatz(sample)


def check_phi(inst: fr.ForrelationInstance, value: float) -> str | None:
    ref = reference_phi(inst)
    if not abs(value - ref) <= PHI_TOL:
        return f"phi {value!r} != fixed-ansatz phi {ref!r}"
    return None


def check_gen(path: str, spec: datagen.DatasetSpec, code: int, stdout: str) -> str | None:
    """A `gen` call: exit code, report line, and every record re-read through
    read_dataset with its Phi and label re-derived from the fixed ansatz."""
    if code != 0:
        return f"gen exited {code}"
    try:
        report = json.loads(stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return "gen printed no report line"
    want = spec.count_pos + spec.count_neg
    if report.get("samples") != want:
        return f"gen reported {report.get('samples')} samples, expected {want}"
    try:
        header, samples = datagen.read_dataset(path)
    except (OSError, datagen.DatasetFormatError) as exc:
        return f"dataset unreadable: {exc}"
    if header != spec:
        return f"header {header} != requested {spec}"
    labels = [s.label for s in samples]
    if (labels.count(1), labels.count(-1)) != (spec.count_pos, spec.count_neg):
        return f"class counts {labels.count(1)}/{labels.count(-1)} != {spec.count_pos}/{spec.count_neg}"
    for i, s in enumerate(samples):
        if (s.sample.n, s.sample.k) != (spec.n, spec.k):
            return f"record {i} has shape ({s.sample.n},{s.sample.k})"
        ref = reference_phi(fr.decode(s.sample))
        if not abs(ref - s.phi) <= PHI_TOL:
            return f"record {i}: stored phi {s.phi!r} != fixed-ansatz phi {ref!r}"
        in_band = ref >= datagen.POSITIVE_PHI_MIN if s.label == 1 else abs(ref) <= datagen.NEGATIVE_PHI_MAX
        if not in_band:
            return f"record {i}: label {s.label} outside its promise band (phi {ref!r})"
    return None


def _probabilities(sample: fr.EncodedSample) -> np.ndarray:
    return fr.simulate_fixed_ansatz(sample).probabilities()


class ClassifyReference:
    """Decision values of both rules for every sample of one dataset,
    recomputed from fixed-ansatz simulations.

    The QSVM decision alpha * (p0 - pz) + bias has bias = alpha * (the VQC
    bias midpoint) and alpha > 0, so its sign is that of p0 - pz + midpoint;
    z is the basis state that the negative of the pair `classify --mode qsvm`
    trains on (f1 = x1, f2 = x1 x2 x3, the rest constant) maps |0...0> to.
    """

    def __init__(self, samples: list[datagen.LabeledSample]):
        n, k = samples[0].sample.n, samples[0].sample.k
        minus = [fr.CONSTANT] * k
        minus[0], minus[1] = fr.function_of(1), fr.function_of(1, 2, 3)
        z = int(np.argmax(_probabilities(fr.encode(fr.ForrelationInstance(n, tuple(minus))))))
        midpoint = 0.5 * (cls.VQC_BIAS_LOWER + cls.VQC_BIAS_UPPER)
        self.labels = [s.label for s in samples]
        self.vqc = []
        self.qsvm = []
        for s in samples:
            p = _probabilities(s.sample)
            self.vqc.append(float(p[0]) - _VQC_THRESHOLD)
            self.qsvm.append(float(p[0] - p[z]) + midpoint)

    def expected(self, mode: str, shots: bool) -> list[int | None]:
        """Prediction per sample; None where this mode cannot be judged: an
        exact decision within DECISION_TOL of the threshold, or a shot-mode
        decision closer to it than the shot estimates can resolve."""
        values = self.vqc if mode == "vqc" else self.qsvm
        # VQC estimates one probability, QSVM the difference of two.
        resolvable = (SHOT_EPSILON if mode == "vqc" else 2 * SHOT_EPSILON) if shots else DECISION_TOL
        return [None if abs(v) <= resolvable else (1 if v > 0 else -1) for v in values]


def check_classify(
    ref: ClassifyReference, mode: str, shots: int | None, code: int, stdout: str
) -> str | None:
    """A `classify` call: one prediction per sample matching the recomputed
    rule, and a summary consistent with the predictions."""
    if code != 0:
        return f"classify exited {code}"
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError:
        return "classify printed a line that is not JSON"
    preds = [r for r in records if r.get("type") == "prediction"]
    summary = [r for r in records if r.get("type") == "summary"]
    if len(preds) != len(ref.labels) or len(summary) != 1:
        return f"{len(preds)} predictions and {len(summary)} summaries for {len(ref.labels)} samples"
    expected = ref.expected(mode, shots is not None)
    for i, (rec, label, want) in enumerate(zip(preds, ref.labels, expected)):
        if rec.get("index") != i or rec.get("label") != label:
            return f"prediction {i} has index {rec.get('index')} label {rec.get('label')}"
        if want is not None and rec.get("predicted") != want:
            return f"sample {i}: predicted {rec.get('predicted')}, rule gives {want}"
    correct = sum(r["predicted"] == r["label"] for r in preds)
    s = summary[0]
    if (s.get("mode"), s.get("samples"), s.get("correct"), s.get("shots")) != (mode, len(preds), correct, shots):
        return f"summary {s} disagrees with the predictions"
    return None
