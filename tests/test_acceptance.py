"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1, 2, 5 and 6 run the cli.check_* functions that `kforrelation
verify` runs, so their tolerances are pinned there; the rest are pinned
here.  Two criteria encode guarantees that the
underlying constructions cannot deliver (see notes at the assertions): the
odd-n leg of the parity-flip extension (criterion 7) and the negative-class
accuracy of the two-sample QSVM rule (criterion 4).  They are asserted as
stated anyway; their failures are expected and documented, not defects of
the simulation stack.
"""
import filecmp
import math
import time

import numpy as np
import pytest

import kforrelation as kf
from kforrelation import cli
from kforrelation.classify import VQC_BIAS_LOWER, VQC_BIAS_UPPER, default_bias, dual_objective
from kforrelation.forrelation import random_instance, squared


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


@pytest.fixture(scope="module")
def promise_datasets():
    """Datasets across n <= 6, odd k <= 7; >= 200 promise samples total."""
    datasets = []
    total = 0
    for n in (3, 4, 5, 6):
        for k in (3, 5, 7):
            spec = kf.DatasetSpec(n=n, k=k, count_pos=9, count_neg=9, seed=100 * n + k)
            samples, _ = kf.generate_dataset(spec)
            datasets.append((spec, samples))
            total += len(samples)
    assert total >= 200
    return datasets


def test_criterion_1_oracle_equivalence():
    # exhaustive at n=2, k=3 (64 instances) and n=3, k=3 (512 instances),
    # plus >= 500 random instances, n <= 4, k*n <= 16
    t0 = time.perf_counter()
    passed, max_dev = cli.check_oracle_equivalence(seed=1, trials=500)
    elapsed = time.perf_counter() - t0
    ok = passed and elapsed < 60.0
    assert report(1, ok, f"oracle equivalence max_dev={max_dev:.3e} elapsed={elapsed:.1f}s")


def test_criterion_2_constructive_samples():
    ok, max_dev = cli.check_constructive_samples()
    assert report(2, ok, f"constructive samples max_dev={max_dev:.3e} over n in [3,10], odd k in [3,9]")


def test_criterion_3_vqc_exactness(promise_datasets):
    rng = np.random.default_rng(33)
    biases = rng.uniform(VQC_BIAS_LOWER, VQC_BIAS_UPPER, size=20)
    total = wrong = 0
    for _, samples in promise_datasets:
        for s in samples:
            p = kf.vqc_probability(s.sample)
            for b in biases:
                total += 1
                predicted = 1 if p > 0.5 * (1.0 - b) else -1
                wrong += predicted != s.label
    ok = wrong == 0
    assert report(3, ok, f"VQC exact accuracy {(total - wrong)}/{total} over 20 biases")


def test_criterion_4_qsvm_exactness(promise_datasets):
    # closed-form alpha vs 1e-4 grid search of the two-sample dual objective
    alpha_dev = 0.0
    for k12 in (0.0, 0.25, 0.5, 0.75, 0.9):
        grid = np.arange(0.0, 10.0 + 1e-4, 1e-4)
        best = float(grid[int(np.argmax(dual_objective(grid, k12)))])
        alpha_dev = max(alpha_dev, abs(min(1.0 / (1.0 - k12), 10.0) - best))
    total = wrong = 0
    for spec, samples in promise_datasets:
        x_plus = kf.make_positive_sample(spec.n, spec.k, 1, 2, 3).sample
        x_minus = kf.make_negative_sample(spec.n, spec.k, 1, (1, 2, 3)).sample
        sol = kf.qsvm_train(x_plus, x_minus)
        for s in samples:
            total += 1
            wrong += kf.qsvm_classify(s.sample, sol) != s.label
    ok = alpha_dev <= 1e-4 and wrong == 0
    # NOTE: the negative-class leg of this rule has no margin guarantee: the
    # decision needs the test state to put >~ 64% probability on the training
    # z basis state, which generic promise negatives do not.  Expected red.
    assert report(4, ok, f"QSVM alpha_dev={alpha_dev:.1e}, exact accuracy {(total - wrong)}/{total}")


def test_criterion_4_failure_is_the_negatives_zero_margin(promise_datasets):
    # Why criterion 4 fails, pinned on its own data: every positive clears
    # p0 - pz by 0.25, but no negative falls below 0, and the bias is
    # positive, so a negative with p0 = pz (both 0, generically) goes to +1.
    gaps = {1: [], -1: []}
    for spec, samples in promise_datasets:
        z = kf.negative_target_index(kf.make_negative_sample(spec.n, spec.k, 1, (1, 2, 3)).sample)
        for s in samples:
            p0, pz = (squared(*amp) for amp in kf.amplitudes_exact(kf.decode(s.sample), [0, z]))
            gaps[s.label].append(p0 - pz)
    assert len(gaps[1]) == len(gaps[-1]) == 108
    assert min(gaps[1]) >= 0.25 and max(gaps[-1]) <= 0.0 and default_bias() > 0


def test_criterion_5_fixed_ansatz_equivalence():
    ok, max_dev = cli.check_ansatz_equivalence(seed=55, trials=200)
    assert report(5, ok, f"fixed-ansatz statevector max_dev={max_dev:.3e}, gate counts exact")


def test_criterion_6_gadget_identity():
    ok, dev = cli.check_gadget_identity()
    assert report(6, ok, f"gadget = SWAP o H^2 up to global phase, raw max_dev={dev:.3e}")


def test_criterion_7_oddk_preservation():
    rng = np.random.default_rng(77)
    max_dev = 0.0
    count_ok = True
    for _ in range(100):
        n = int(rng.choice((2, 3, 4)))
        k = int(rng.choice((2, 4)))
        inst = random_instance(n, k, rng)
        ext = kf.oddk_extend(inst)
        count_ok &= ext.instance.k == k + 4 * ((n + 1) // 2) - 1
        max_dev = max(max_dev, abs(kf.phi_circuit(ext.instance) - kf.phi_circuit(inst)))
    ok = count_ok and max_dev <= 1e-10
    # NOTE: for odd n the extension provably rescales Phi by 2^-1/2 (no
    # arrangement of 4*ceil(n/2)-1 restricted functions can avoid it; see
    # oddk_extend).  Even-n draws preserve Phi exactly.  Expected red.
    assert report(7, ok, f"odd-k extension count_ok={count_ok} max_dev={max_dev:.3e}")


def test_criterion_8_shot_convergence():
    t0 = time.perf_counter()
    epsilon, delta = 0.05, 0.01
    shots = kf.shot_budget_for(epsilon, delta)
    assert shots == 1060  # ceil(ln(2/0.01) / (2 * 0.05^2))
    samples = []
    for n, k, seed in ((3, 3, 8), (4, 3, 9), (5, 5, 10)):
        got, _ = kf.generate_dataset(kf.DatasetSpec(n=n, k=k, count_pos=9, count_neg=9, seed=seed))
        samples.extend(got)
    samples = samples[:50]
    assert len(samples) == 50
    bias = default_bias()
    wrong = 0
    trials = 0
    for s in samples:
        for seed in range(100):
            wrong += kf.vqc_classify(s.sample, bias, shots, seed) != s.label
            trials += 1
    rate = wrong / trials
    slack = 2.5758 * math.sqrt(delta * (1 - delta) / trials)  # 99% binomial CI
    elapsed = time.perf_counter() - t0
    ok = rate <= delta + slack and elapsed < 300.0
    assert report(8, ok, f"sampled misclassification rate {rate:.5f} <= {delta + slack:.5f}, elapsed={elapsed:.0f}s")


def test_criterion_9_generation_determinism(tmp_path, cli_in_subprocess):
    paths = []
    for name, threads in (("a.jsonl", 1), ("b.jsonl", 2), ("c.jsonl", 1)):
        out = str(tmp_path / name)
        cli_in_subprocess(["gen", "--n", "4", "--k", "5", "--pos", "6", "--neg", "6", "--seed", "19", "--out", out],
                          threads)
        paths.append(out)
    ok = filecmp.cmp(paths[0], paths[1], shallow=False) and filecmp.cmp(paths[0], paths[2], shallow=False)
    assert report(9, ok, "byte-identical datasets across runs and thread settings")
