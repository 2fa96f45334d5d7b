import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kforrelation import cli, forrelation, qstate

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def dense_blocks(monkeypatch):
    """(n, rows) of each later call of the dense evaluator; a lone instance is 1 row."""
    blocks, real = [], forrelation._dense_totals

    def spy(n, cols):
        totals = real(n, cols)
        blocks.append((n, np.size(totals)))
        return totals

    monkeypatch.setattr(forrelation, "_dense_totals", spy)
    return blocks


def gen_args(tmp_path, name="d.jsonl", **overrides):
    args = {"n": 3, "k": 3, "pos": 4, "neg": 4, "seed": 7}
    args.update(overrides)
    out = str(tmp_path / name)
    argv = ["gen"]
    for key, val in args.items():
        argv += [f"--{key}", str(val)]
    argv += ["--out", out]
    return argv, out


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_dataset(tmp_path, capsys):
    argv, out = gen_args(tmp_path)
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 9  # header + 8 records
    report = json.loads(stdout.splitlines()[-1])
    assert report["type"] == "report" and report["samples"] == 8


def test_gen_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["gen", "--n", "3", "--k", "3", "--pos", "1", "--neg", "1"])
    assert err.value.code == 64


def test_gen_even_k_is_usage_error(tmp_path, capsys):
    argv, _ = gen_args(tmp_path, k=4)
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 64


def test_gen_impossible_spec_is_runtime_error(tmp_path, capsys):
    argv, _ = gen_args(tmp_path, n=3, pos=5, neg=0, tries=0)
    code, _, stderr = run_cli(argv, capsys)
    assert code == 2
    assert "generation failed" in stderr


def test_gen_deterministic_across_runs_and_threads(tmp_path, cli_in_subprocess):
    argv1, out1 = gen_args(tmp_path, name="a.jsonl")
    argv2, out2 = gen_args(tmp_path, name="b.jsonl")
    assert cli_in_subprocess(argv1, 1) == cli_in_subprocess(argv2, 2)
    assert filecmp.cmp(out1, out2, shallow=False)


# ---------------------------------------------------------------------------
# classify


@pytest.fixture()
def dataset(tmp_path, capsys):
    argv, out = gen_args(tmp_path)
    assert cli.main(argv) == 0
    capsys.readouterr()
    return out


def test_classify_vqc_exact_accuracy_one(dataset, capsys):
    code, stdout, _ = run_cli(["classify", "--data", dataset], capsys)
    assert code == 0
    lines = [json.loads(l) for l in stdout.splitlines()]
    summary = lines[-1]
    assert summary["type"] == "summary"
    assert summary["mode"] == "vqc"
    assert summary["accuracy"] == 1.0
    assert summary["shots"] is None
    assert sum(l["type"] == "prediction" for l in lines) == summary["samples"]


def test_classify_sampled_mode_reports_shots(dataset, capsys):
    code, stdout, _ = run_cli(["classify", "--data", dataset, "--shots", "100", "--seed", "3"], capsys)
    assert code == 0
    summary = json.loads(stdout.splitlines()[-1])
    assert summary["shots"] == 100
    assert summary["accuracy"] <= 1.0


def test_classify_qsvm_runs(dataset, capsys):
    code, stdout, _ = run_cli(["classify", "--data", dataset, "--mode", "qsvm"], capsys)
    assert code == 0
    summary = json.loads(stdout.splitlines()[-1])
    assert summary["mode"] == "qsvm"
    assert 0.0 <= summary["accuracy"] <= 1.0


def test_classify_missing_file_is_runtime_error(tmp_path, capsys):
    code, _, stderr = run_cli(["classify", "--data", str(tmp_path / "nope.jsonl")], capsys)
    assert code == 2
    assert "cannot read dataset" in stderr


def test_classify_mixed_shape_dataset_is_runtime_error(dataset, tmp_path, capsys):
    argv, other = gen_args(tmp_path, name="n4.jsonl", n=4)
    assert run_cli(argv, capsys)[0] == 0
    lines = open(dataset).read().splitlines(keepends=True)
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(lines) + open(other).read().splitlines(keepends=True)[1])
    code, stdout, stderr = run_cli(["classify", "--data", str(mixed), "--mode", "qsvm"], capsys)
    assert code == 2
    assert stdout == ""
    assert f"line {len(lines) + 1}" in stderr


@pytest.mark.parametrize("value", ["5", "null", "true", "[1]", '"bits"'])
@pytest.mark.parametrize("kept", [0, 3])  # lines of a good dataset before the bad one
def test_classify_non_object_line_is_runtime_error(dataset, tmp_path, capsys, value, kept):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(open(dataset).readlines()[:kept]) + value + "\n")
    code, stdout, stderr = run_cli(["classify", "--data", str(bad)], capsys)
    assert code == 2
    assert stdout == ""
    assert f"line {kept + 1}:" in stderr


def test_classify_record_with_n_below_one_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "n0.jsonl"
    bad.write_text('{"n": 0, "k": 3, "bits": "", "label": -1, "phi": "0.0", "provenance": "rejection_sampled"}\n')
    code, stdout, stderr = run_cli(["classify", "--data", str(bad)], capsys)
    assert code == 2
    assert stdout == ""
    assert "line 1: n must be >= 1, got 0" in stderr


@pytest.mark.parametrize("mode", ["vqc", "qsvm"])
def test_classify_header_only_dataset(mode, tmp_path, capsys):
    path = tmp_path / "header.jsonl"
    path.write_text('{"n": 4, "k": 3, "count_pos": 0, "count_neg": 0, "seed": 0, "max_rejection_tries": 1}\n')
    code, stdout, _ = run_cli(["classify", "--data", str(path), "--mode", mode], capsys)
    assert code == 0
    assert json.loads(stdout) == {"type": "summary", "mode": mode, "samples": 0, "correct": 0,
                                  "accuracy": None, "shots": None}


@pytest.mark.parametrize("mode", ["vqc", "qsvm"])
def test_classify_over_cap_sample_prints_the_lines_before_it(mode, tmp_path, capsys, monkeypatch):
    # Sample 3 of this (8,3) set has a 7-qubit component, which the runner
    # simulates (narrower ones are read off end tables): above a cap of 6,
    # VQC's one pass raises CapacityError, and classify still prints the
    # lines of samples 0..2 before the error, as a sample-by-sample loop does.
    argv, data = gen_args(tmp_path, n=8, k=3, pos=4, neg=4, seed=10)
    assert run_cli(argv, capsys)[0] == 0
    code, uncapped, _ = run_cli(["classify", "--data", data, "--mode", mode], capsys)
    assert code == 0
    monkeypatch.setattr(qstate, "MAX_QUBITS", 6)
    code, stdout, stderr = run_cli(["classify", "--data", data, "--mode", mode], capsys)
    assert code == 2
    assert stdout.splitlines() == uncapped.splitlines()[:3]
    assert stderr == "error: a statevector may hold 1 to 6 qubits, got 7\n"


@pytest.mark.parametrize("shots", [None, 1323])
def test_classify_vqc_reads_a_dense_dataset_in_one_block(shots, tmp_path, capsys, monkeypatch):
    # 20 samples at (6,7): every exact p0 comes from one block of the dense
    # evaluator, and no sample is simulated on its own.
    argv, data = gen_args(tmp_path, n=6, k=7, pos=10, neg=10, seed=3)
    assert run_cli(argv, capsys)[0] == 0

    def no_simulation(inst, zs):
        raise AssertionError("classify --mode vqc simulated a sample")

    blocks = dense_blocks(monkeypatch)
    monkeypatch.setattr(forrelation, "amplitudes_exact", no_simulation)
    monkeypatch.setattr(cli.cls, "amplitudes_exact", no_simulation)
    argv = ["classify", "--data", data, "--mode", "vqc"] + ([] if shots is None else ["--shots", str(shots)])
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(stdout.splitlines()[-1])["samples"] == 20
    assert blocks == [(6, 20)]


def test_classify_mode_validation(dataset, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["classify", "--data", dataset, "--mode", "nonsense"])
    assert err.value.code == 64


# ---------------------------------------------------------------------------
# verify


def test_verify_default_passes(capsys):
    code, stdout, _ = run_cli(["verify", "--trials", "8"], capsys)
    assert code == 0
    lines = stdout.splitlines()
    assert all(l.startswith("PASS ") for l in lines)
    assert [l.split()[1] for l in lines] == ["oracle_equivalence", "ansatz_equivalence", "gadget_identity",
                                           "constructive_samples", "oddk_extension", "encode_decode_roundtrip"]


def test_verify_scoped_oracle_sweep(capsys):
    code, stdout, _ = run_cli(["verify", "--n", "2", "--k", "3", "--trials", "4"], capsys)
    assert code == 0
    assert any(l.startswith("PASS oracle_equivalence") for l in stdout.splitlines())


def test_verify_oracle_sweep_checks_the_dense_rows(monkeypatch):
    # Each exhaustive sweep, (2, 3) and (3, 3), is one group of phi_circuits:
    # all of its instances are one block of the dense evaluator, so the
    # oracle checks the dense path.  The random draws with n <= 4 join the
    # block of their (n, k).
    blocks = dense_blocks(monkeypatch)
    assert cli.check_oracle_equivalence(seed=3) == (True, 0.0)
    sweep_rows = {m: len(forrelation.restricted_functions(m)) ** 3 for m in (2, 3)}
    for m, rows in sweep_rows.items():
        assert max(b for w, b in blocks if w == m) >= rows


@pytest.mark.parametrize("trials, wide", [(0, 0), (2, 2), (50, 4)])
def test_verify_oracle_sweep_checks_up_to_4_draws_past_the_whole_register_tables(monkeypatch, trials, wide):
    # The (7, 3) draws take the end tables per component, or the runner;
    # phi_bruteforce sums each of them against both circuit paths.
    summed = []
    real = forrelation.phi_bruteforce
    monkeypatch.setattr(forrelation, "phi_bruteforce", lambda inst: summed.append((inst.n, inst.k)) or real(inst))
    assert cli.check_oracle_equivalence(seed=3, trials=trials) == (True, 0.0)
    assert summed.count((7, 3)) == wide and max(n for n, _ in summed[:-wide or None]) <= 4


@pytest.mark.parametrize("half", [["--n", "5"], ["--k", "3"]])
def test_verify_half_given_scope_is_usage_error(half, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", *half, "--trials", "2"])
    assert err.value.code == 64
    stderr = capsys.readouterr().err
    assert "--n and --k" in stderr
    assert "usage: kforrelation verify " in stderr and "kforrelation verify: error:" in stderr


@pytest.mark.parametrize("flags", [["verify", "--trials", "-4"], ["classify", "--shots", "0"], ["classify", "--shots", "-3"],
                                   ["classify", "--bias", "5"], ["classify", "--bias", "-1.5"],
                                   ["classify", "--bias", "nan"], ["gen", "--tries", "-1"],
                                   ["verify", "--n", "0", "--k", "3"], ["verify", "--k", "0", "--n", "2"],
                                   ["verify", "--n", "5", "--k", "3"], ["gen", "--seed", "-1"],
                                   ["classify", "--seed", "-1"], ["verify", "--seed", "-1"],
                                   ["verify", "--n", "25", "--k", "1"], ["gen", "--n", "0"], ["gen", "--k", "1"],
                                   ["gen", "--pos", "-1"], ["gen", "--neg", "-1"], ["gen", "--tries", "x"],
                                   ["gen", "--k", "4"]])
def test_counts_out_of_range_are_usage_errors(flags, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    if flags[0] == "classify":
        argv = flags + ["--data", str(empty)]
    elif flags[0] == "gen":
        argv = gen_args(tmp_path)[0] + flags[1:]
    else:
        argv = flags
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 64
    stderr = capsys.readouterr().err
    assert flags[1] in stderr
    # argparse's own errors and _validate_args's alike come from the subcommand
    assert f"usage: kforrelation {flags[0]} " in stderr and f"kforrelation {flags[0]}: error:" in stderr


@pytest.mark.parametrize("n", [20, 24])
def test_verify_sweep_past_the_summand_bound_is_a_usage_error(n, capsys, monkeypatch):
    # n*k fits brute force and the instances number under 4096, but their
    # 2^(n*k) summands each are far past 2^27 in all: refused before any check runs.
    def never(**_):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "DEFAULT_CHECKS", (("never", never),))
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--n", str(n), "--k", "1"])
    assert err.value.code == 64
    assert "2^27 summands" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "kforrelation", "verify", "--n", "2", "--k", "3", "--trials", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS oracle_equivalence")


def test_sweep_size_check_matches_the_function_count():
    for n in range(1, 7):
        for k in range(1, 15):
            assert cli._sweep_too_large(n, k) == (len(forrelation.restricted_functions(n)) ** k > 4096)


def test_verify_injected_fault_exits_one(capsys, monkeypatch):
    def broken(**_):
        return False, 1.0

    monkeypatch.setattr(cli, "DEFAULT_CHECKS", (("injected_fault", broken),))
    code, stdout, stderr = run_cli(["verify"], capsys)
    assert code == 1
    assert "FAIL injected_fault" in stdout
    assert "injected_fault" in stderr


def _flip_first_function(decode):
    def faulty(sample):
        inst = decode(sample)
        first = forrelation.function_of(1) if inst.functions[0].is_constant else forrelation.CONSTANT
        return forrelation.ForrelationInstance(inst.n, (first,) + inst.functions[1:])
    return faulty


def _drop_one_slot(build):
    def faulty(sample):
        gates = build(sample)
        i = next(i for i, g in enumerate(gates) if g.kind is qstate.GateKind.CONTROLLED_PHASE and g.angle == 0.0)
        return gates[:i] + gates[i + 1:]
    return faulty


def _break_last_gadget(extend):
    def faulty(inst):
        ext = extend(inst)
        funcs = ext.instance.functions[:-1] + (forrelation.CONSTANT,)  # same count, one CZ short
        return ext._replace(instance=forrelation.ForrelationInstance(ext.instance.n, funcs))
    return faulty


# (check name, forrelation attribute, fault built from the original): the
# shared checks back both `verify` and the acceptance criteria, so each must
# be able to fail.
INJECTED_FAULTS = [
    ("oracle_equivalence", "phi_circuit", lambda f: lambda inst: f(inst) + 1e-9),
    ("oracle_equivalence", "phi_circuits", lambda f: lambda insts: [v + 1e-9 for v in f(insts)]),
    ("ansatz_equivalence", "simulate_fixed_ansatz",
     lambda f: lambda s: qstate.StateVector(s.n, -f(s).amplitudes)),
    ("ansatz_equivalence", "build_fixed_ansatz", _drop_one_slot),
    ("gadget_identity", "gadget_gate_sequence", lambda f: lambda: f()[:-1]),
    ("constructive_samples", "decode", _flip_first_function),
    ("oddk_extension", "oddk_extend", lambda f: lambda inst: f(inst)._replace(phi_scale=1.0)),
    ("oddk_extension", "oddk_extend", _break_last_gadget),
    ("encode_decode_roundtrip", "decode", _flip_first_function),
]


def test_every_check_has_an_injected_fault():
    assert {name for name, _ in cli.DEFAULT_CHECKS} == {name for name, _, _ in INJECTED_FAULTS}


@pytest.mark.parametrize("name, attr, fault", INJECTED_FAULTS)
def test_check_fails_on_injected_fault(name, attr, fault, monkeypatch):
    monkeypatch.setattr(forrelation, attr, fault(getattr(forrelation, attr)))
    check = dict(cli.DEFAULT_CHECKS)[name]
    passed, _ = check(seed=0, trials=8, n=None, k=None)
    assert passed is False


# ---------------------------------------------------------------------------
# golden outputs: the files in tests/data were written by an earlier version
# of the program, so a change that moves what the commands print fails here.


# (12,5) takes per-component end tables and the runner; (6,7) the end
# tables of all 6 qubits.
@pytest.mark.parametrize("data, suffix, shots, mode", [
    pytest.param(data, suffix, shots, mode, id=f"{shots}-{mode}{suffix}")
    for data, suffix in (("dataset_n12_k5", ""), ("gen_n6_k7", "_n6_k7"))
    for shots in (None, 1323) for mode in ("vqc", "qsvm")])
def test_classify_stdout_matches_golden(data, suffix, shots, mode, capsys):
    argv = ["classify", "--data", str(DATA / f"{data}.jsonl"), "--mode", mode]
    if shots is not None:
        argv += ["--shots", str(shots), "--seed", "5"]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    golden = DATA / f"classify_{mode}_{'exact' if shots is None else 'shots'}{suffix}.txt"
    assert stdout.encode() == golden.read_bytes()


def test_gen_matches_golden(tmp_path, capsys):
    # phi is compared to 1e-12, not bit for bit, so BLAS-level rounding
    # differences between machines do not fail the test.
    argv, out = gen_args(tmp_path, n=6, k=7, pos=5, neg=5, seed=11)
    assert run_cli(argv, capsys)[0] == 0
    got = [json.loads(line) for line in open(out)]
    want = [json.loads(line) for line in open(DATA / "gen_n6_k7.jsonl")]
    assert got[0] == want[0]
    assert len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        assert {**g, "phi": None} == {**w, "phi": None}
        assert abs(float(g["phi"]) - float(w["phi"])) <= 1e-12


def test_verify_stdout_matches_golden(capsys):
    # Every max_dev is pinned, not only the PASS prefixes: ansatz_equivalence
    # reads every amplitude of each instance, so a change to that read which
    # moved a bit would show here.
    code, stdout, _ = run_cli(["verify", "--trials", "8"], capsys)
    assert code == 0
    assert stdout.encode() == (DATA / "verify_trials8.txt").read_bytes()


@pytest.mark.parametrize("n,k,seed", [(6, 7, 11), (8, 5, 4)], ids=["dense", "reduced"])
def test_gen_report_matches_golden(n, k, seed, tmp_path, capsys):
    # tries is where the draw stream shows: a draw taken out of order, or
    # one too many or too few, moves it.  (6,7) reads the dense end tables,
    # (8,5) runs through the component split.  Integer fields match exactly, the float
    # fields to 1e-12 as in test_gen_matches_golden.
    argv, _ = gen_args(tmp_path, n=n, k=k, pos=5, neg=5, seed=seed)
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    got = json.loads(stdout)
    want = json.loads((DATA / f"gen_report_n{n}_k{k}_s{seed}.txt").read_text())
    floats = ("acceptance_rate_pos", "acceptance_rate_neg", "phi_min", "phi_max", "phi_mean")
    assert list(got) == list(want)
    assert {key: v for key, v in got.items() if key not in floats} == \
        {key: v for key, v in want.items() if key not in floats}
    for key in floats:
        assert abs(got[key] - want[key]) <= 1e-12, key
