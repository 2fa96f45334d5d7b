"""kforrelation benchmark: one workload per run, closed loop, single process.

    python3 perfbench/run.py --workload gen-small-n --seed 1 --seconds 20 --trace 0

Each workload is one problem size (n, k) pushed through the whole pipeline
the way a user drives it: `kforrelation gen` and `kforrelation classify`
(exact and shot-sampled, VQC and QSVM) called through `cli.main` in this
process, and `forrelation.phi_circuit` called on seeded
`sample_random_instance` draws.  Every end-to-end metric is measured on
every workload; the size decides which layer dominates (see NOTES.md).

A run repeats rounds of operations (one caller, each operation sent when the
previous one returned) until --seconds have passed and the workload's minimum
round count is met.  All inputs come from --seed.  After the timed loop a
correctness gate (gate.py) re-checks every output; an operation that raised,
exited non-zero or failed the gate counts in `failed`.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number of
rounds twice on the same inputs, untraced and then traced (spans.py), checks
that both give byte-identical CLI output, and prints the per-layer metrics
plus the tracing overhead.  The last line of stdout is the JSON result.
"""
import time

_T0 = time.perf_counter()

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5          # setup_s is the median of this many set-ups
MAX_TIMED_SECONDS = 120.0  # stop adding rounds past this, whatever the minimum
FAST_PCT = 2               # timings are this percentile of per-call cost: see end_to_end_metrics


@dataclass(frozen=True)
class Workload:
    n: int
    k: int
    data: tuple[int, int, int]  # classify fixture made in set-up: (pos, neg, rejection tries)
    gen: tuple[int, int, int]   # one timed `gen` call: (pos, neg, rejection tries)
    phi_per_round: int
    min_rounds: int
    tail_pct: int               # at least ten phi samples lie beyond it after min_rounds (run record)
    trace_rounds: int
    vqc_per_round: int = 1      # calls of each VQC mode per round


# Why these sizes: NOTES.md.  tries=0 makes `gen` fill positives with
# engineered samples only, so its cost does not depend on the seed's
# acceptance luck; rejection sampling is timed on gen-small-n.
WORKLOADS = {
    "gen-small-n": Workload(6, 7, data=(10, 10, 10000), gen=(25, 25, 10000),
                            phi_per_round=10, min_rounds=20, tail_pct=95, trace_rounds=2),
    # A VQC call here is one 0.4 s simulation, too short to average over the
    # machine's slow spells as a 2.5 s QSVM call does, so it runs 3x a round.
    "phi-large-n": Workload(20, 3, data=(1, 0, 0), gen=(1, 0, 0),
                            phi_per_round=8, min_rounds=3, tail_pct=58, trace_rounds=1, vqc_per_round=3),
    "classify-mid-n": Workload(12, 5, data=(10, 10, 10000), gen=(10, 0, 0),
                               phi_per_round=10, min_rounds=5, tail_pct=80, trace_rounds=1),
}

CLASSIFY_KINDS = {  # metric prefix -> (mode, shot-sampled)
    "vqc_exact": ("vqc", False),
    "vqc_shots": ("vqc", True),
    "qsvm_exact": ("qsvm", False),
    "qsvm_shots": ("qsvm", True),
}

END_TO_END = (
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    (f"phi_s.p{FAST_PCT}", "s"),
    ("vqc_exact_per_s", "1/s"),
    ("vqc_shots_per_s", "1/s"),
    ("qsvm_exact_per_s", "1/s"),
    ("qsvm_shots_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Pipeline:
    """One workload's program calls, inputs and outputs, in a private work directory."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import numpy as np
        from kforrelation import cli, datagen, forrelation

        import gate

        # cli.main is looked up on the module at each call, so tracing sees it.
        self.cli, self.datagen, self.forrelation, self.gate = cli, datagen, forrelation, gate
        self.wl = WORKLOADS[name]
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.data_path = None
        self.data_spec = None
        self.data_output = None

    def call_cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue()

    def _seed(self) -> int:
        return int(self.rng.integers(2**31))

    def _gen_argv(self, counts, seed, path) -> tuple[list[str], object]:
        pos, neg, tries = counts
        spec = self.datagen.DatasetSpec(self.wl.n, self.wl.k, pos, neg, seed, tries)
        argv = ["gen", "--n", str(spec.n), "--k", str(spec.k), "--pos", str(pos), "--neg", str(neg),
                "--seed", str(seed), "--tries", str(tries), "--out", str(path)]
        return argv, spec

    def setup(self) -> None:
        """Classify fixture (checked by the gate with the rest), then one
        warm-up phi call."""
        self.data_path = self.workdir / "data.jsonl"
        argv, self.data_spec = self._gen_argv(self.wl.data, self._seed(), self.data_path)
        self.data_output = self.call_cli(argv)
        self.forrelation.phi_circuit(self.datagen.sample_random_instance(self.wl.n, self.wl.k, self.rng))

    def plan_round(self, tag: str) -> list[tuple[str, object]]:
        """Inputs of one round, drawn from the seeded stream."""
        wl = self.wl
        ops = [("gen", self._gen_argv(wl.gen, self._seed(), self.workdir / f"gen-{tag}.jsonl"))]
        ops += [("phi", self.datagen.sample_random_instance(wl.n, wl.k, self.rng)) for _ in range(wl.phi_per_round)]
        for kind, (mode, shots) in CLASSIFY_KINDS.items():
            for _ in range(wl.vqc_per_round if mode == "vqc" else 1):
                argv = ["classify", "--data", str(self.data_path), "--mode", mode, "--seed", str(self._seed())]
                if shots:
                    argv += ["--shots", str(self.gate.SHOTS)]
                ops.append((kind, argv))
        return ops

    def execute(self, op) -> tuple[float, object]:
        """Run one operation; returns (seconds, output).  Exceptions propagate."""
        kind, arg = op
        argv = arg[0] if kind == "gen" else arg
        if kind == "phi":
            t0 = time.perf_counter()
            value = self.forrelation.phi_circuit(arg)
            return time.perf_counter() - t0, value
        t0 = time.perf_counter()
        result = self.call_cli(argv)
        return time.perf_counter() - t0, result

    def check(self, op, output, classify_ref) -> str | None:
        kind, arg = op
        if kind == "phi":
            return self.gate.check_phi(arg, output)
        code, out = output
        if kind == "gen":
            argv, spec = arg
            return self.gate.check_gen(argv[-1], spec, code, out)
        mode, shots = CLASSIFY_KINDS[kind]
        return self.gate.check_classify(classify_ref, mode, self.gate.SHOTS if shots else None, code, out)

    def classify_reference(self):
        _, samples = self.datagen.read_dataset(str(self.data_path))
        return self.gate.ClassifyReference(samples)


def run_ops(pipe: Pipeline, ops) -> list[tuple[tuple, float, object, str | None]]:
    """Execute operations in order; an exception is recorded as the op's problem."""
    done = []
    for op in ops:
        try:
            seconds, output = pipe.execute(op)
            done.append((op, seconds, output, None))
        except Exception as exc:  # the run goes on; the op counts as failed
            done.append((op, 0.0, None, f"{type(exc).__name__}: {exc}"))
    return done


def gate_ops(pipe: Pipeline, done) -> list[str]:
    """Problems found by the correctness gate, one per failed operation.

    The set-up dataset is checked first: classify outputs are judged against it."""
    problem = pipe.gate.check_gen(str(pipe.data_path), pipe.data_spec, *pipe.data_output)
    if problem:
        raise RuntimeError(f"set-up dataset: {problem}")
    ref = pipe.classify_reference()
    problems = []
    for op, _, output, problem in done:
        problem = problem or pipe.check(op, output, ref)
        if problem:
            problems.append(f"{op[0]}: {problem}")
    return problems


def call_seconds(done) -> dict[str, list[float]]:
    """Seconds per call of each kind, over the calls that did not raise."""
    secs = {kind: [] for kind in ("gen", "phi", *CLASSIFY_KINDS)}
    for op, seconds, _, problem in done:
        if problem is None:
            secs[op[0]].append(seconds)
    return secs


def end_to_end_metrics(pipe: Pipeline, done, setup_s: float) -> dict[str, float]:
    """Timings are the FAST_PCT percentile of per-call cost, not the median.

    This machine's speed switches between levels about 1.8x apart for
    seconds at a time, and the share of a run spent at each level differs
    from run to run, so a median (or a mean) follows the machine.  The fast
    end of the distribution is the program's cost when nothing else holds
    the core, and it moves far less between runs.  `gen` calls differ in
    work (rejection tries are luck), so each is costed per simulation it ran
    and the run's own samples-per-simulation turns that back into samples.
    """
    wl = pipe.wl
    secs = call_seconds(done)
    sims, samples, per_sim = 0, 0, []
    for op, seconds, output, problem in done:
        if op[0] == "gen" and problem is None:
            report = json.loads(output[1].splitlines()[-1])
            n_sims = report["tries"] + report["constructive_pos"]
            sims, samples = sims + n_sims, samples + report["samples"]
            per_sim.append(seconds / n_sims)
    metrics = {
        "setup_s": setup_s,
        "samples_per_s": samples / sims / percentile(per_sim, FAST_PCT) if per_sim else 0.0,
        f"phi_s.p{FAST_PCT}": percentile(secs["phi"], FAST_PCT) if secs["phi"] else 0.0,
    }
    for kind in CLASSIFY_KINDS:
        calls = secs[kind]
        metrics[f"{kind}_per_s"] = (wl.data[0] + wl.data[1]) / percentile(calls, FAST_PCT) if calls else 0.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it like this one's."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def machine_record(wl: Workload) -> dict:
    import numpy as np

    lscpu = {}
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("Model name", "L2 cache", "L3 cache"):
                lscpu[key.strip()] = value.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": lscpu.get("Model name", "unknown"),
        "l2": lscpu.get("L2 cache", "unknown"),
        "l3": lscpu.get("L3 cache", "unknown"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "computed": {
            "state_bytes": 16 << wl.n,
            "amps_per_state": 1 << wl.n,
            "amps_per_hadamard_layer": wl.n << wl.n,
            "hadamard_layers_per_phi": wl.k + 1,
        },
    }


def timed_run(pipe: Pipeline, seconds: float, between=None) -> list:
    """Rounds until the minimum count is met and the rounds' time is nearest
    `seconds` (a round is not started if over half of it would run past).
    `between(clock)` runs before each round; its time is not counted."""
    done = []
    clock = last = 0.0
    rounds = 0
    while rounds < pipe.wl.min_rounds or clock + last / 2 < seconds:
        if clock >= max(seconds, MAX_TIMED_SECONDS):
            break
        if between is not None:
            between(clock)
        t0 = time.perf_counter()
        done += run_ops(pipe, pipe.plan_round(f"r{rounds}"))
        last = time.perf_counter() - t0
        clock += last
        rounds += 1
    return done


def traced_run(pipe: Pipeline) -> tuple[list, dict[str, float]]:
    """Fixed rounds, untraced then traced on the same inputs."""
    import spans

    plans = [pipe.plan_round(f"t{r}") for r in range(pipe.wl.trace_rounds)]
    traced_plans = [[(kind, _retarget(kind, arg)) for kind, arg in ops] for ops in plans]
    t0 = time.perf_counter()
    plain = [d for ops in plans for d in run_ops(pipe, ops)]
    t1 = time.perf_counter()
    with spans.Tracer() as tracer:
        traced = [d for ops in traced_plans for d in run_ops(pipe, ops)]
    t2 = time.perf_counter()
    metrics = spans.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = (t2 - t1) - (t1 - t0)
    print(json.dumps({"spans": spans.span_summary(tracer.spans)}))
    for i, (a, b) in enumerate(zip(plain, traced)):
        if b[3] is None and _visible_output(a) != _visible_output(b):
            traced[i] = (b[0], b[1], b[2], "traced output differs from untraced output")
    return plain + traced, metrics


def _retarget(kind: str, arg):
    """Same gen call writing to a second file, so both passes can be compared."""
    if kind != "gen":
        return arg
    argv, spec = arg
    return argv[:-1] + [argv[-1].replace(".jsonl", "-traced.jsonl")], spec


def _visible_output(done_op):
    op, _, output, _ = done_op
    if op[0] == "gen":
        return output, Path(op[1][0][-1]).read_bytes()
    return output


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # before numpy is imported; inherited by set-up probes
        os.environ.setdefault(var, "1")
    if not (SRC / "kforrelation").is_dir():
        print(f"error: no program source at {SRC / 'kforrelation'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir()
    phases = {}
    try:
        pipe = Pipeline(args.workload, args.seed, workdir)
        pipe.setup()
        own_setup = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            import spans

            done, metrics = traced_run(pipe)
            units = dict(spans.LAYER_METRICS, **{"trace.overhead_s": "s"})
        else:
            # Set-up probes are spread over the timed run, one before the
            # round at each fifth of it, so that the set-ups sample the machine
            # at different moments rather than within one short stretch.
            probes = []
            interval = args.seconds / SETUP_REPEATS

            def probe(clock: float) -> None:
                if len(probes) < SETUP_REPEATS - 1 and clock >= (len(probes) + 1) * interval:
                    probes.append(setup_probe_seconds(args.workload, args.seed))

            done = timed_run(pipe, args.seconds, probe)
            phases["timed_s"] = sum(seconds for _, seconds, _, _ in done)
            # Read before the gate, which simulates states of its own.
            metrics = end_to_end_metrics(pipe, done, own_setup)
            units = dict(END_TO_END)
        t_gate = time.perf_counter()
        problems = gate_ops(pipe, done)
        phases["gate_s"] = time.perf_counter() - t_gate
        if not args.trace:
            probes += [setup_probe_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1 - len(probes))]
            metrics["setup_s"] = statistics.median([own_setup] + probes)
            phases["setups_s"] = [own_setup] + probes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    wl = pipe.wl
    print(json.dumps({"machine": machine_record(wl)}))
    secs = call_seconds(done)
    phi = secs["phi"] or [0.0]
    info = {"workload": args.workload, "n": wl.n, "k": wl.k, "calls": {kind: len(s) for kind, s in secs.items()},
            "phi_s.p50": statistics.median(phi), f"phi_s.p{wl.tail_pct}": percentile(phi, wl.tail_pct),
            "shots": pipe.gate.SHOTS, "error_rate": len(problems) / len(done), "phases": phases}
    print(json.dumps({"run": info}))
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(done),
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
