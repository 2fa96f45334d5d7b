"""Layer tracing from outside the program.

`Tracer` replaces public functions of the five kforrelation modules with
wrappers that record one span per call, and puts the originals back on exit.
A function is replaced under every name a module binds it to: the modules
import each other with `from .x import y`, so `datagen.phi_circuit` and
`forrelation.phi_circuit` are two bindings of one function, and both must
be wrapped.  Spans carry name, start, end, parent (from a stack) and the
counts read off the call's arguments and result; they stay in memory until
`layer_metrics` turns them into per-layer numbers.

A span's self time is its duration minus the durations of its direct
children.  Private helpers are not wrapped, so e.g. the norm check after a
gate is part of that gate's self time.
"""
from __future__ import annotations

import math
import os
import sys
import time

from kforrelation import classify, cli, datagen, forrelation, qstate

_perf = time.perf_counter


def _gate_name(args, kwargs) -> str:
    gate = args[1] if len(args) > 1 else kwargs["gate"]
    kind = gate.kind
    if kind is qstate.GateKind.HADAMARD_ALL:
        return "qstate.hadamard"
    if kind is qstate.GateKind.SWAP:
        return "qstate.swap"
    if not gate.targets or (kind is qstate.GateKind.CONTROLLED_PHASE and gate.angle % (2 * math.pi) == 0.0):
        return "qstate.identity"
    return "qstate.phase"


def _gate_info(args, kwargs, result):
    gate = args[1] if len(args) > 1 else kwargs["gate"]
    n = result.n_qubits
    if gate.kind is qstate.GateKind.HADAMARD_ALL:
        return n << n                      # one butterfly pass per qubit
    if not gate.targets:
        return 0
    return 1 << (n - len(gate.targets))    # the all-ones subspace of the targets


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _stdout_bytes() -> int:
    getvalue = getattr(sys.stdout, "getvalue", None)
    return len(getvalue().encode()) if getvalue else 0


# (function, span name, counts from (args, kwargs, result)).  A callable name
# picks the span name per call.
def _targets():
    return [
        (qstate.init_zero, "qstate.init_zero", lambda a, kw, r: r.n_qubits),
        (qstate.apply_gate, _gate_name, _gate_info),
        (qstate.sample_measurements, "qstate.sample",
         lambda a, kw, r: (_arg(a, kw, 1, "shots"), _arg(a, kw, 0, "state").n_qubits)),
        (forrelation.phi_circuit, "forrelation.phi_circuit", None),
        (forrelation.simulate_instance, "forrelation.simulate_instance", None),
        (forrelation.build_circuit, "forrelation.build_circuit", None),
        (forrelation.encode, "forrelation.codec", None),
        (forrelation.decode, "forrelation.codec", None),
        (forrelation.sample_from_string, "forrelation.codec", None),
        (classify.vqc_classify, "classify.vqc", None),
        (classify.qsvm_classify, "classify.qsvm", None),
        (classify.qsvm_train, "classify.train", None),
        (classify.negative_target_index, "classify.target_resim", None),
        (datagen.sample_random_instance, "datagen.draw", None),
        (datagen.generate_dataset, "datagen.generate",
         lambda a, kw, r: (r[1].tries, r[1].accepted_pos + r[1].accepted_neg)),
        (datagen.make_positive_sample, "datagen.construct", None),
        (datagen.make_negative_sample, "datagen.construct", None),
        (datagen.write_dataset, "datagen.write", lambda a, kw, r: os.path.getsize(_arg(a, kw, 2, "path"))),
        (datagen.read_dataset, "datagen.read", lambda a, kw, r: os.path.getsize(_arg(a, kw, 0, "path"))),
        (cli.main, "cli", lambda a, kw, r: _stdout_bytes()),
    ]


def program_modules():
    """Every loaded module of the program package, the package itself included."""
    return [m for name, m in sys.modules.items() if name == "kforrelation" or name.startswith("kforrelation.")]


class Tracer:
    """Context manager: wraps on entry, restores every binding on exit.

    `spans` holds [name, start, end, parent index, counts] lists in call order.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                spans[idx][1:3] = start, end
            if info is not None:
                spans[idx][4] = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        targets = {id(fn): (fn, name, info) for fn, name, info in _targets()}
        wrappers = {}
        for module in program_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(*targets[id(value)])
                    self._replaced.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()
        return False


LAYER_METRICS = (
    # (metric, unit); calls and self_s per span name, plus derived counts.
    ("qstate.hadamard.calls", "count"), ("qstate.hadamard.self_s", "s"),
    ("qstate.phase.calls", "count"), ("qstate.phase.self_s", "s"),
    ("qstate.identity.calls", "count"),
    ("qstate.init_zero.calls", "count"),
    ("qstate.qubits.mean", "qubits"),
    ("qstate.state_bytes.peak", "bytes"),
    ("qstate.amps_touched", "count"),
    ("qstate.sample.calls", "count"), ("qstate.sample.self_s", "s"), ("qstate.sample.shots", "count"),
    ("forrelation.phi_circuit.calls", "count"), ("forrelation.phi_circuit.self_s", "s"),
    ("forrelation.simulate_instance.calls", "count"), ("forrelation.simulate_instance.self_s", "s"),
    ("forrelation.build_circuit.calls", "count"), ("forrelation.build_circuit.self_s", "s"),
    ("forrelation.codec.calls", "count"), ("forrelation.codec.self_s", "s"),
    ("classify.vqc.calls", "count"), ("classify.vqc.self_s", "s"),
    ("classify.qsvm.calls", "count"), ("classify.qsvm.self_s", "s"),
    ("classify.train.self_s", "s"),
    ("classify.target_resim.calls", "count"),
    ("classify.sims_per_sample", "ratio"),
    ("datagen.draw.calls", "count"), ("datagen.draw.self_s", "s"),
    ("datagen.acceptance_ratio", "ratio"),
    ("datagen.construct.calls", "count"),
    ("datagen.write.self_s", "s"), ("datagen.write.bytes", "bytes"),
    ("datagen.read.self_s", "s"), ("datagen.read.bytes", "bytes"),
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers named in LAYER_METRICS, from one traced run's spans."""
    summary = span_summary(spans)
    counts: dict[str, list] = {}
    for name, _, _, _, info in spans:
        if info is not None:
            counts.setdefault(name, []).append(info)

    out: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        calls, _, self_s = summary.get(layer, (0, 0.0, 0.0))
        if stat == "calls":
            out[metric] = calls
        elif stat == "self_s":
            out[metric] = self_s

    qubits = counts.get("qstate.init_zero", [])
    out["qstate.qubits.mean"] = sum(qubits) / len(qubits) if qubits else 0.0
    out["qstate.state_bytes.peak"] = 16 << max(qubits) if qubits else 0
    samples = counts.get("qstate.sample", [])
    out["qstate.sample.shots"] = sum(shots for shots, _ in samples)
    gate_amps = sum(sum(counts.get(g, [])) for g in ("qstate.hadamard", "qstate.phase", "qstate.identity"))
    out["qstate.amps_touched"] = gate_amps + sum(1 << n for _, n in samples)

    classified = out["classify.vqc.calls"] + out["classify.qsvm.calls"]
    sims = sum(1 for i, s in enumerate(spans) if s[0] == "qstate.init_zero" and _under_classify(spans, i))
    out["classify.sims_per_sample"] = sims / classified if classified else 0.0

    gens = counts.get("datagen.generate", [])
    tries = sum(t for t, _ in gens)
    out["datagen.acceptance_ratio"] = sum(a for _, a in gens) / tries if tries else 0.0
    out["datagen.write.bytes"] = sum(counts.get("datagen.write", []))
    out["datagen.read.bytes"] = sum(counts.get("datagen.read", []))
    out["cli.output_bytes"] = sum(counts.get("cli", []))
    return out


def span_summary(spans: list[list]) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds]; the compact form
    in which a traced run writes its spans out."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    summary: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = summary.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return summary


def _under_classify(spans: list[list], i: int) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in ("classify.vqc", "classify.qsvm"):
            return True
        parent = spans[parent][3]
    return False
