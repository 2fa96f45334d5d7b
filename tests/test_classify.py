import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kforrelation.classify import (
    VQC_BIAS_LOWER,
    VQC_BIAS_UPPER,
    DegenerateTrainingSetError,
    DualSolution,
    default_bias,
    dual_objective,
    kernel,
    negative_target_index,
    qsvm_classify,
    qsvm_train,
    shot_budget_for,
    vqc_classify,
    vqc_predictions,
    vqc_probabilities,
    vqc_probability,
)
from kforrelation.datagen import (
    DatasetSpec,
    generate_dataset,
    make_negative_sample,
    make_positive_sample,
)
from kforrelation.forrelation import (
    components,
    decode,
    encode,
    indexed_instance,
    instance_of,
    amplitudes_exact,
    restricted_functions,
    squared,
)


@pytest.fixture(scope="module")
def pair33():
    pos = make_positive_sample(3, 3, 1, 2, 3).sample
    neg = make_negative_sample(3, 3, 1, (1, 2, 3)).sample
    return pos, neg


@pytest.fixture(scope="module")
def promise_samples():
    samples, _ = generate_dataset(DatasetSpec(n=4, k=5, count_pos=8, count_neg=8, seed=11))
    return samples


# ---------------------------------------------------------------------------
# VQC


def test_vqc_probability_constructive(pair33):
    pos, neg = pair33
    assert vqc_probability(pos) == pytest.approx(1.0, abs=1e-12)
    assert vqc_probability(neg) == pytest.approx(0.0, abs=1e-12)


def test_vqc_probability_promise_margins(promise_samples):
    for s in promise_samples:
        p = vqc_probability(s.sample)
        if s.label == 1:
            assert p >= 9 / 25 - 1e-12
        else:
            assert p <= 1 / 10000 + 1e-12


def test_vqc_classify_constructive(pair33):
    pos, neg = pair33
    assert vqc_classify(pos, 0.5) == 1
    assert vqc_classify(neg, 0.5) == -1


def test_vqc_classify_promise_any_bias(promise_samples):
    rng = np.random.default_rng(3)
    biases = rng.uniform(VQC_BIAS_LOWER, VQC_BIAS_UPPER, size=10)
    for s in promise_samples:
        for b in biases:
            assert vqc_classify(s.sample, float(b)) == s.label


def test_vqc_model_validation(pair33):
    pos, _ = pair33
    with pytest.raises(ValueError, match="bias"):
        vqc_classify(pos, 1.5)
    with pytest.raises(ValueError, match="shots"):
        vqc_classify(pos, 0.5, shots=0)
    assert VQC_BIAS_LOWER < default_bias() < VQC_BIAS_UPPER
    # derived from the promise bands, and exactly the paper's interval
    assert VQC_BIAS_LOWER == 7 / 25 and VQC_BIAS_UPPER == 4999 / 5000


def test_vqc_sampled_mode_constructive(pair33):
    pos, neg = pair33
    assert vqc_classify(pos, default_bias(), shots=200, seed=5) == 1
    assert vqc_classify(neg, default_bias(), shots=200, seed=5) == -1


# One witness per evaluator that phi_exact can give an instance: the end
# tables of all n <= 6 qubits, each component's own end tables and the runner
# (a 7-qubit chain), the same at even k with free qubits in |+>, and n = 6
# past k*n = 53, where a 6-qubit component runs and narrower ones are read
# off their own tables.
WITNESSES = [
    instance_of(6, {1, 2}, {2, 3, 4}, {4, 5, 6}, {6}, {1, 3}, (), {5}),
    instance_of(12, {1, 2, 3}, {3, 4, 5}, {5, 6, 7}, {8, 9}, {10}),
    instance_of(16, {1, 2, 3}, {3, 4, 5}, {5, 6, 7}, {9, 10}),
    instance_of(6, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, (), {1}, (), {6}),
    instance_of(6, *([{1, 2}, {4, 5, 6}] * 5)[:9]),
]
VQC_SHAPES = [(6, 7), (3, 4), (5, 3), (12, 5), (20, 3), (8, 9), (16, 4), (6, 9), (7, 3)]


def exact_p0(sample):
    return squared(*amplitudes_exact(decode(sample), [0])[0])


def test_witnesses_take_every_evaluator():
    def kinds(inst):   # the whole register, a table component, a runner component
        if inst.n <= 6 and inst.n * inst.k <= 53:
            return {"whole"}
        return {"table" if len(c) <= 6 and inst.k * len(c) <= 53 else "runner" for c in components(inst)}
    assert [kinds(inst) for inst in WITNESSES] == [{"whole"}, {"table", "runner"}, {"table", "runner"},
                                                  {"runner"}, {"table"}]
    assert WITNESSES[2].k % 2 == 0 and sum(map(len, components(WITNESSES[2]))) < WITNESSES[2].n


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(VQC_SHAPES).flatmap(
    lambda shape: st.lists(st.integers(0, len(restricted_functions(shape[0])) - 1),
                           min_size=shape[1], max_size=shape[1]).map(lambda row: indexed_instance(shape[0], row))),
    max_size=12))
def test_vqc_probabilities_are_each_samples_exact_p0_bit_for_bit(drawn):
    # One pass over shapes and evaluators mixed in one list gives, sample by
    # sample, the bits that simulating each sample on its own gives.
    samples = [encode(inst) for inst in WITNESSES + drawn]
    p0 = vqc_probabilities(samples)
    assert p0 == [exact_p0(s) for s in samples] == [vqc_probability(s) for s in samples]


def test_vqc_shot_estimates_draw_sample_i_with_seed_plus_i():
    samples = [encode(inst) for inst in WITNESSES]
    assert vqc_probabilities(samples, 1323, 5) == [vqc_probability(s, 1323, 5 + i) for i, s in enumerate(samples)]
    assert vqc_predictions(samples, 0.5, 1323, 5) == [vqc_classify(s, 0.5, 1323, 5 + i) for i, s in enumerate(samples)]


def test_vqc_tie_goes_negative():
    # bias = 1 makes the threshold 0; p = 0 is not strictly greater
    neg = make_negative_sample(3, 3, 1, (1, 2, 3)).sample
    assert vqc_probability(neg) == 0.0
    assert vqc_classify(neg, 1.0) == -1


# ---------------------------------------------------------------------------
# kernel


def test_kernel_self_is_one(pair33):
    pos, neg = pair33
    assert kernel(pos, pos) == pytest.approx(1.0, abs=1e-12)
    assert kernel(neg, neg) == pytest.approx(1.0, abs=1e-12)


def test_kernel_constructive_pair_is_zero(pair33):
    pos, neg = pair33
    assert kernel(pos, neg) == pytest.approx(0.0, abs=1e-12)


def test_kernel_against_positive_equals_probability(pair33, promise_samples):
    pos, _ = pair33
    pos45 = make_positive_sample(4, 5, 1, 2, 3).sample
    for s in promise_samples[:6]:
        assert kernel(pos45, s.sample) == pytest.approx(vqc_probability(s.sample), abs=1e-12)


def test_kernel_symmetry(promise_samples):
    xs = [s.sample for s in promise_samples[:5]]
    for a, b in itertools.combinations(xs, 2):
        assert abs(kernel(a, b) - kernel(b, a)) <= 1e-12


def test_kernel_gram_psd(promise_samples):
    xs = [s.sample for s in promise_samples[:8]]
    gram = np.array([[kernel(a, b) for b in xs] for a in xs])
    assert np.linalg.eigvalsh(gram).min() >= -1e-9


def test_kernel_shape_mismatch():
    a = encode(instance_of(3, {1, 2, 3}))
    b = encode(instance_of(4, {1, 2, 3}))
    with pytest.raises(ValueError):
        kernel(a, b)


def test_kernel_sampled_mode(pair33):
    pos, neg = pair33
    assert kernel(pos, neg, shots=300, seed=2) == pytest.approx(0.0, abs=1e-12)
    assert kernel(pos, pos, shots=300, seed=2) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# QSVM dual


def grid_argmax(k12, box_c, step=1e-4):
    grid = np.arange(0.0, box_c + step, step)
    vals = 2.0 * grid - grid * grid * (1.0 - k12)
    return float(grid[int(np.argmax(vals))])


def test_qsvm_train_constructive_alpha_one(pair33):
    pos, neg = pair33
    sol = qsvm_train(pos, neg, box_c=10.0)
    assert sol.alpha == pytest.approx(1.0, abs=1e-12)
    assert sol.alpha == pytest.approx(grid_argmax(0.0, 10.0), abs=1e-4)
    mid = 0.5 * (7 / 25 + 4999 / 5000)
    assert sol.bias == pytest.approx(sol.alpha * mid, abs=1e-15)


def test_qsvm_train_box_clips(pair33):
    pos, neg = pair33
    sol = qsvm_train(pos, neg, box_c=0.5)
    assert sol.alpha == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("k12", [0.0, 0.3, 0.5, 0.9])
def test_closed_form_alpha_matches_grid_oracle(k12):
    closed = min(1.0 / (1.0 - k12), 10.0)
    assert closed == pytest.approx(grid_argmax(k12, 10.0), abs=1e-4)
    assert dual_objective(closed, k12) >= dual_objective(grid_argmax(k12, 10.0), k12) - 1e-12


def test_qsvm_train_degenerate(pair33):
    pos, _ = pair33
    with pytest.raises(DegenerateTrainingSetError):
        qsvm_train(pos, pos)


def test_qsvm_train_rejects_bad_box(pair33):
    pos, neg = pair33
    with pytest.raises(ValueError):
        qsvm_train(pos, neg, box_c=0.0)


def test_dual_solution_invariant():
    pos = make_positive_sample(3, 3, 1, 2, 3).sample
    neg = make_negative_sample(3, 3, 1, (1, 2, 3)).sample
    with pytest.raises(ValueError):
        DualSolution(alpha=2.0, bias=0.5, x_plus=pos, x_minus=neg, box_c=1.0)


# ---------------------------------------------------------------------------
# QSVM classification


def test_negative_target_index(pair33):
    _, neg = pair33
    assert negative_target_index(neg) == 1  # j=1 -> basis index 2^0
    neg3 = make_negative_sample(4, 5, 3, (1, 2, 4)).sample
    assert negative_target_index(neg3) == 4  # j=3 -> 2^2


def test_negative_target_rejects_non_constructive(pair33):
    pos, _ = pair33
    with pytest.raises(ValueError):
        negative_target_index(pos)


def test_qsvm_classifies_training_pair(pair33):
    pos, neg = pair33
    sol = qsvm_train(pos, neg)
    assert qsvm_classify(pos, sol) == 1
    assert qsvm_classify(neg, sol) == -1


def test_qsvm_positive_class_guaranteed(promise_samples):
    # p0 >= 9/25 and pz <= 16/25 give decision >= alpha*(bias/alpha - 7/25) > 0
    pos = make_positive_sample(4, 5, 1, 2, 3).sample
    neg = make_negative_sample(4, 5, 1, (1, 2, 3)).sample
    sol = qsvm_train(pos, neg)
    for s in promise_samples:
        if s.label == 1:
            assert qsvm_classify(s.sample, sol) == 1


@pytest.mark.parametrize("shots", [None, 100])
@pytest.mark.parametrize("n, k", [(4, 3), (6, 3), (4, 5)])
def test_qsvm_classify_rejects_other_shape(shots, n, k):
    sol = qsvm_train(make_positive_sample(6, 5, 1, 2, 3).sample, make_negative_sample(6, 5, 1, (1, 2, 3)).sample)
    with pytest.raises(ValueError, match="shape"):
        qsvm_classify(make_positive_sample(n, k, 1, 2, 3).sample, sol, shots=shots)


def test_qsvm_sign_zero_is_negative(pair33):
    pos, neg = pair33
    sol = DualSolution(alpha=0.0, bias=0.0, x_plus=pos, x_minus=neg, box_c=1.0)
    assert qsvm_classify(pos, sol) == -1


def test_qsvm_sampled_mode_training_pair(pair33):
    pos, neg = pair33
    sol = qsvm_train(pos, neg)
    assert qsvm_classify(pos, sol, shots=400, seed=9) == 1
    assert qsvm_classify(neg, sol, shots=400, seed=9) == -1


# ---------------------------------------------------------------------------
# shot count and budget


@pytest.mark.parametrize("shots", [0, -2])
@pytest.mark.parametrize("read", [
    lambda pos, neg, shots: vqc_probability(pos, shots),
    lambda pos, neg, shots: kernel(pos, neg, shots),
    lambda pos, neg, shots: qsvm_train(pos, neg, shots=shots),
    lambda pos, neg, shots: qsvm_classify(pos, DualSolution(1.0, 0.0, pos, neg, 1.0), shots),
], ids=["vqc_probability", "kernel", "qsvm_train", "qsvm_classify"])
def test_shots_below_one_rejected_on_every_read(pair33, read, shots):
    with pytest.raises(ValueError, match="shots must be >= 1"):
        read(*pair33, shots)


def test_shot_budget_examples():
    assert shot_budget_for(0.1, 0.05) == 185
    assert shot_budget_for(0.05, 0.01) == 1060


def test_shot_budget_quarter_scaling():
    base = shot_budget_for(0.1, 0.05)
    halved = shot_budget_for(0.05, 0.05)
    assert abs(halved / base - 4.0) <= 0.05


def test_shot_budget_degrades_gracefully():
    assert shot_budget_for(0.5, 0.9) >= 1


@pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0), (-0.1, 0.5)])
def test_shot_budget_domain(eps, delta):
    with pytest.raises(ValueError):
        shot_budget_for(eps, delta)


def test_sampled_mode_consistency_smoke():
    # with the Hoeffding budget for (0.05, 0.01), promise instances at the
    # 0.18 margin essentially never flip; check 10 instances x 20 seeds
    samples, _ = generate_dataset(DatasetSpec(n=3, k=3, count_pos=5, count_neg=5, seed=2))
    shots = shot_budget_for(0.05, 0.01)
    wrong = 0
    for s in samples:
        for seed in range(20):
            wrong += vqc_classify(s.sample, default_bias(), shots, seed) != s.label
    assert wrong == 0
