"""Tests for the benchmark's own code: tracing, gate and metric names."""
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from kforrelation import datagen, forrelation  # noqa: E402

TINY = run.Workload(4, 3, data=(3, 3, 10000), gen=(3, 3, 10000),
                    phi_per_round=3, min_rounds=1, tail_pct=50, trace_rounds=1)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def pipe(tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    p = run.Pipeline("tiny", 5, tmp_path)
    p.setup()
    return p


def _bindings():
    return {(m.__name__, attr): value for m in spans.program_modules() for attr, value in vars(m).items()}


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert datagen.phi_circuit is not before[("kforrelation.datagen", "phi_circuit")]
            assert forrelation.phi_circuit is not before[("kforrelation.forrelation", "phi_circuit")]
            assert datagen.phi_circuit is forrelation.phi_circuit
            import kforrelation
            assert kforrelation.init_zero.__wrapped__ is before[("kforrelation.qstate", "init_zero")]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_and_untraced_cli_output_identical_and_counts_repeat(pipe, tmp_path):
    done, metrics = run.traced_run(pipe)
    half = len(done) // 2
    plain, traced = done[:half], done[half:]
    assert [d[0][0] for d in plain] == [d[0][0] for d in traced]
    for a, b in zip(plain, traced):
        assert a[3] is None and b[3] is None
        assert run._visible_output(a) == run._visible_output(b)
    assert run.gate_ops(pipe, done) == []

    again = run.Pipeline("tiny", 5, tmp_path / "again")
    (tmp_path / "again").mkdir()
    again.setup()
    _, metrics2 = run.traced_run(again)
    counted = [name for name, unit in spans.LAYER_METRICS if unit in ("count", "bytes", "ratio", "qubits")]
    assert {m: metrics[m] for m in counted} == {m: metrics2[m] for m in counted}
    qsvm_samples = 2 * (TINY.data[0] + TINY.data[1])   # exact and shot-sampled, one round
    assert metrics["classify.qsvm.calls"] == qsvm_samples
    assert metrics["classify.target_resim.calls"] == qsvm_samples


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert e2e == [name for name, _ in run.END_TO_END]
    assert layer == [name for name, _ in spans.LAYER_METRICS] + ["trace.overhead_s"]
    assert all(NAME.fullmatch(name) for name in e2e + layer)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_metrics_cost_gen_per_simulation(pipe):
    done = run.timed_run(pipe, 0.0)
    metrics = run.end_to_end_metrics(pipe, done, setup_s=0.5)
    assert list(metrics) == [name for name, _ in run.END_TO_END]
    assert all(value > 0 for value in metrics.values())

    # Doubling one gen call's tries and its time leaves its cost per
    # simulation unchanged, so only the run's samples-per-simulation moves.
    gen = next(i for i, d in enumerate(done) if d[0][0] == "gen")
    op, seconds, (code, out), problem = done[gen]
    report = json.loads(out.splitlines()[-1])
    sims = report["tries"] + report["constructive_pos"]
    lines = out.splitlines()
    lines[-1] = json.dumps(dict(report, tries=report["tries"] + sims))
    doubled = list(done)
    doubled[gen] = (op, 2 * seconds, (code, "\n".join(lines)), problem)
    again = run.end_to_end_metrics(pipe, doubled, setup_s=0.5)
    assert again["samples_per_s"] == pytest.approx(metrics["samples_per_s"] / 2)


def _rewrite(path: Path, index: int, **fields) -> None:
    lines = path.read_text().splitlines()
    rec = json.loads(lines[index])
    rec.update(fields)
    lines[index] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def test_gate_flags_corrupted_records(pipe):
    path = pipe.data_path
    spec = pipe.data_spec
    report = json.dumps({"samples": spec.count_pos + spec.count_neg})
    assert gate.check_gen(str(path), spec, 0, report) is None
    lines = path.read_text().splitlines()
    pos = next(i for i, line in enumerate(lines) if json.loads(line).get("label") == 1)
    phi = float(json.loads(lines[pos])["phi"])

    # Still a valid positive record, so read_dataset accepts it; only the
    # fixed-ansatz recheck can catch it.
    _rewrite(path, pos, phi=f"{min(phi + 0.01, 1.0) if phi < 1.0 else 0.99:.17g}")
    assert "fixed-ansatz" in gate.check_gen(str(path), spec, 0, report)

    path.write_text("\n".join(lines) + "\n")
    assert gate.check_gen(str(path), spec, 0, report) is None
    _rewrite(path, pos, label=-1, phi="0")
    assert gate.check_gen(str(path), spec, 0, report) is not None
    assert gate.check_gen(str(path), spec, 2, report) == "gen exited 2"


def test_gate_flags_wrong_phi_and_prediction(pipe):
    rng = np.random.default_rng(3)
    inst = datagen.sample_random_instance(4, 3, rng)
    value = forrelation.phi_circuit(inst)
    assert gate.check_phi(inst, value) is None
    assert gate.check_phi(inst, value + 1e-6) is not None

    code, out = pipe.call_cli(["classify", "--data", str(pipe.data_path), "--mode", "vqc"])
    ref = pipe.classify_reference()
    assert gate.check_classify(ref, "vqc", None, code, out) is None
    lines = out.splitlines()
    rec = json.loads(lines[0])
    rec["predicted"] = -rec["predicted"]
    lines[0] = json.dumps(rec)
    assert gate.check_classify(ref, "vqc", None, code, "\n".join(lines)) is not None


@pytest.mark.parametrize("seed", range(20))
def test_support_reduction_matches_dense_fixed_ansatz(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    k = int(rng.integers(1, 6))
    inst = datagen.sample_random_instance(n, k, rng)
    dense = forrelation.phi_fixed_ansatz(forrelation.encode(inst))
    assert gate.reference_phi(inst) == pytest.approx(dense, abs=1e-12)
