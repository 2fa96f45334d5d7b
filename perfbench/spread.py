"""Run one or more workloads over several seeds and report each end-to-end
metric's median and quartile spread (IQR / median), the steadiness test the
benchmark's bounds are set against.

    python3 perfbench/spread.py --workloads gen-small-n phi-large-n --seeds 1-10 --out runs.json

Runs go one after another (never in parallel: they time each other).
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["run"] = next((json.loads(l)["run"] for l in lines if l.startswith('{"run"')), None)
    return result


def summarise(results: list[dict], bounds: dict[str, float]) -> list[str]:
    lines = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else f"  OVER bound/3={bound / 3:.3f}")
        lines.append(f"  {name:<20} median {med:.6g}  spread {spread:.4f}{flag}")
    return lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default=None, help="write every run's result here as JSON")
    args = p.parse_args()
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for wl in args.workloads:
        results = []
        for seed in parse_seeds(args.seeds):
            r = run_once(wl, seed, spec["run_seconds"])
            results.append({"seed": seed, **r})
            print(f"{wl} seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}"
                  f" phases={r['run']['phases']}", flush=True)
        record[wl] = results
        print(wl)
        print("\n".join(summarise(results, bounds)), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
