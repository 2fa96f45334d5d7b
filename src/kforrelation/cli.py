"""Command-line surface: gen / classify / verify.

Batch commands only; every command is deterministic for a given --seed.
Output for classify is one JSON record per line so CI can diff it.  verify
runs the check_* functions below, which the acceptance tests also call, so
each invariant is stated once.  Timings live in the perfbench benchmark.

Exit codes: 0 success, 1 verification failure, 2 runtime or data error,
64 usage error.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict

import numpy as np

from . import classify as cls
from . import datagen, forrelation, qstate

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """argparse type for an integer flag >= low; argparse names the flag in the error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"   # a non-integer reads "invalid int value", as with type=int
    return parse


def _build_parser() -> _Parser:
    p = _Parser(prog="kforrelation", description=__doc__)
    sub = p.subcommands = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="generate a labelled dataset file")
    g.add_argument("--n", type=_at_least(1), required=True)
    g.add_argument("--k", type=_at_least(3), required=True)
    g.add_argument("--pos", type=_at_least(0), required=True, help="positive sample count")
    g.add_argument("--neg", type=_at_least(0), required=True, help="negative sample count")
    g.add_argument("--seed", type=_at_least(0), default=0)
    g.add_argument("--tries", type=_at_least(0), default=10000, help="rejection-sampling budget")
    g.add_argument("--out", required=True, help="output path (JSON lines)")
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("classify", help="classify a dataset file and report accuracy")
    c.add_argument("--data", required=True, help="dataset path written by gen")
    c.add_argument("--mode", choices=("vqc", "qsvm"), default="vqc")
    c.add_argument("--shots", type=_at_least(1), default=None, help="sampled mode; omit for exact")
    c.add_argument("--seed", type=_at_least(0), default=0)
    c.add_argument("--bias", type=float, default=cls.default_bias(), help="VQC bias; default is the interval midpoint")
    c.set_defaults(func=cmd_classify)

    v = sub.add_parser("verify", help="run the cross-module invariant suite")
    v.add_argument("--n", type=_at_least(1), default=None, help="restrict the oracle sweep to this n")
    v.add_argument("--k", type=_at_least(1), default=None, help="restrict the oracle sweep to this k")
    v.add_argument("--seed", type=_at_least(0), default=0)
    v.add_argument("--trials", type=_at_least(0), default=50, help="randomised trials per invariant")
    v.set_defaults(func=cmd_verify)
    return p


def _validate_args(parser, args) -> None:
    """The rules no one flag's type states; each failure is a usage error of
    `parser`, the subcommand's own parser."""
    if args.command == "gen" and args.k % 2 == 0:
        parser.error(f"--k must be odd, got {args.k}")
    elif args.command == "classify" and not -1.0 <= args.bias <= 1.0:
        parser.error(f"--bias must lie in [-1, 1], got {args.bias}")
    elif args.command == "verify":
        if (args.n is None) != (args.k is None):
            parser.error("--n and --k scope the oracle sweep together: give both or neither")
        if args.n is not None and _sweep_too_large(args.n, args.k):
            parser.error(f"--n {args.n} --k {args.k}: the exhaustive oracle sweep is too large (at most 4096 "
                         f"instances of n*k <= {forrelation.BRUTE_FORCE_MAX_BITS} bits, and at most 2^27 "
                         f"summands in all, instances times 2^(n*k))")


def cmd_gen(args) -> int:
    spec = datagen.DatasetSpec(args.n, args.k, args.pos, args.neg, args.seed, args.tries)
    try:
        samples, report = datagen.generate_dataset(spec)
        datagen.write_dataset(spec, samples, args.out)
    except (datagen.GenerationError, OSError) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(json.dumps({"type": "report", "samples": len(samples), **asdict(report)}))
    return EXIT_OK


def cmd_classify(args) -> int:
    try:
        _, samples = datagen.read_dataset(args.data)
    except (OSError, datagen.DatasetFormatError) as exc:
        print(f"cannot read dataset: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.mode == "qsvm" and samples:
        n, k = samples[0].sample.n, samples[0].sample.k
        try:
            x_plus = datagen.make_positive_sample(n, k, 1, 2, 3).sample
            x_minus = datagen.make_negative_sample(n, k, 1, (1, 2, 3)).sample
            sol = cls.qsvm_train(x_plus, x_minus)
        except (ValueError, cls.DegenerateTrainingSetError) as exc:
            print(f"qsvm training failed: {exc}", file=sys.stderr)
            return EXIT_RUNTIME

    seeds = range(args.seed, args.seed + len(samples))   # sample idx draws its shots with args.seed + idx
    if args.mode == "qsvm":
        predictions = (cls.qsvm_classify(s.sample, sol, args.shots, seed) for s, seed in zip(samples, seeds))
    else:
        try:
            predictions = cls.vqc_predictions([s.sample for s in samples], args.bias, args.shots, args.seed)
        except Exception:   # one at a time, so the lines before the failing sample print before its error
            predictions = (cls.vqc_classify(s.sample, args.bias, args.shots, seed) for s, seed in zip(samples, seeds))
    correct = 0
    for idx, (s, predicted) in enumerate(zip(samples, predictions)):
        correct += predicted == s.label
        print(json.dumps({"type": "prediction", "index": idx, "label": s.label,
                          "predicted": predicted, "phi": f"{s.phi:.17g}"}))
    print(json.dumps({"type": "summary", "mode": args.mode, "samples": len(samples),
                      "correct": correct, "accuracy": correct / len(samples) if samples else None,
                      "shots": args.shots}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suite


def _sweep_too_large(n: int, k: int) -> bool:
    """len(restricted_functions(n)) ** k > 4096, without building the
    functions (every n has at least 2 of them, so k > 12 alone decides), or
    n*k past the bits phi_bruteforce sums over, or more than 2^27 summands
    in all: phi_bruteforce sums 2^(n*k) of them per instance."""
    if k > 12 or n * k > forrelation.BRUTE_FORCE_MAX_BITS:
        return True
    instances = (1 + forrelation.ansatz_parameter_count(n, 1)) ** k
    return instances > 4096 or instances << (n * k) > 1 << 27


def check_oracle_equivalence(seed=0, trials=50, n=None, k=None, **_):
    """phi_bruteforce vs phi_circuit and vs phi_circuits over all of the
    instances at once: exhaustive at (n=2,k=3) and (n=3,k=3) unless scoped,
    plus randomised draws with n <= 4 and k*n <= 16, which take the dense
    tables of all n qubits, then up to 4 at (7,3), which take them per
    component or the runner.  All three round the same exact value once, so
    they must agree bit for bit."""
    insts = []
    sweeps = [(n, k)] if n is not None and k is not None else [(2, 3), (3, 3)]
    for sn, sk in sweeps:
        if _sweep_too_large(sn, sk):
            raise ValueError(f"exhaustive sweep too large for n={sn}, k={sk}")
        insts += [forrelation.ForrelationInstance(sn, funcs)
                  for funcs in itertools.product(forrelation.restricted_functions(sn), repeat=sk)]
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        rn = int(rng.integers(1, 5))
        rk = int(rng.integers(1, 16 // rn + 1))
        insts.append(forrelation.random_instance(rn, rk, rng))
    insts += [forrelation.random_instance(7, 3, rng) for _ in range(min(4, trials))]
    max_dev = 0.0
    for inst, batched in zip(insts, forrelation.phi_circuits(insts)):
        exact = forrelation.phi_bruteforce(inst)
        max_dev = max(max_dev, abs(exact - forrelation.phi_circuit(inst)), abs(exact - batched))
    return max_dev == 0.0, max_dev


def check_ansatz_equivalence(seed=0, trials=50, **_):
    """Fixed ansatz vs direct circuit, n <= 5, k <= 5: amplitudes_exact reads
    every dense ansatz amplitude, and there are ansatz_parameter_count slots."""
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        inst = forrelation.random_instance(n, k, rng)
        sample = forrelation.encode(inst)
        gates = forrelation.build_fixed_ansatz(sample)
        slots = sum(g.kind is qstate.GateKind.CONTROLLED_PHASE for g in gates)
        if slots != forrelation.ansatz_parameter_count(n, k):
            return False, float("inf")
        exact = forrelation.amplitudes_exact(inst, range(1 << n))
        ansatz = forrelation.simulate_fixed_ansatz(sample).amplitudes
        max_dev = max(max_dev, max(abs(forrelation._rounded(*e) - float(a)) for e, a in zip(exact, ansatz)))
    return max_dev <= 1e-10, max_dev


def check_gadget_identity(**_):
    lhs = qstate.unitary_of(forrelation.gadget_gate_sequence(), 2)
    rhs = qstate.unitary_of([qstate.swap(1, 2), qstate.hadamard_all()], 2)
    dev = float(np.max(np.abs(lhs - rhs)))  # identity holds with no phase at all
    return dev <= 1e-12, dev


def check_constructive_samples(**_):
    """Engineered samples for n 3..10, odd k 3..9: the positive (1, 2, n)
    ends in |0...0>, the negative for each j ends in the basis state e_j."""
    max_dev = 0.0
    for n in range(3, 11):
        for k in (3, 5, 7, 9):
            pos = datagen.make_positive_sample(n, k, 1, 2, n)
            p = forrelation.simulate_instance(forrelation.decode(pos.sample)).probabilities()
            max_dev = max(max_dev, abs(float(p[0]) - 1.0))
            for j in range(1, n + 1):
                neg = datagen.make_negative_sample(n, k, j, (1, 2, n))
                p = forrelation.simulate_instance(forrelation.decode(neg.sample)).probabilities()
                max_dev = max(max_dev, abs(float(p[1 << (j - 1)]) - 1.0))
    return max_dev <= 1e-12, max_dev


def check_oddk_extension(seed=0, trials=50, **_):
    """oddk_extend's contract, one even-k instance at each n in {2, 3, 4} per
    trial: phi(ext) == phi_scale * phi(inst), with phi_scale 1 for even n and
    ODD_N_PHI_SCALE for odd n (which is padded to n + 1 qubits)."""
    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(trials):
        for n in (2, 3, 4):
            k = int(rng.choice((2, 4)))
            inst = forrelation.random_instance(n, k, rng)
            ext = forrelation.oddk_extend(inst)
            scale = 1.0 if n % 2 == 0 else forrelation.ODD_N_PHI_SCALE
            if (ext.instance.k != k + forrelation.oddk_extension_count(n)
                    or ext.phi_scale != scale or ext.instance.n != n + n % 2):
                return False, float("inf")
            max_dev = max(max_dev, abs(forrelation.phi_circuit(ext.instance) - scale * forrelation.phi_circuit(inst)))
    return max_dev <= 1e-10, max_dev


def check_roundtrip(seed=0, trials=50, **_):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, 6))
        inst = forrelation.random_instance(n, k, rng)
        if forrelation.decode(forrelation.encode(inst)) != inst:
            return False, 1.0
    return True, 0.0


DEFAULT_CHECKS = (
    ("oracle_equivalence", check_oracle_equivalence),
    ("ansatz_equivalence", check_ansatz_equivalence),
    ("gadget_identity", check_gadget_identity),
    ("constructive_samples", check_constructive_samples),
    ("oddk_extension", check_oddk_extension),
    ("encode_decode_roundtrip", check_roundtrip),
)


def cmd_verify(args) -> int:
    failures = []
    for name, check in DEFAULT_CHECKS:
        passed, dev = check(seed=args.seed, trials=args.trials, n=args.n, k=args.k)
        print(f"{'PASS' if passed else 'FAIL'} {name} max_dev={dev:.3e}")
        if not passed:
            failures.append(name)
    if failures:
        print("failed invariants: " + ", ".join(failures), file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser.subcommands.choices[args.command], args)
    try:
        return args.func(args)
    except (qstate.CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
