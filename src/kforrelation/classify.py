"""Decision procedures over the forrelation feature map.

Two classifiers, both using the instance circuit U_F(x) as the feature map
|phi(x)> = U_F(x) |0...0> with the projector onto |0...0> as measurement:

* VQC rule: predict +1 iff p0(x) > (1 - bias)/2.  Any bias strictly inside
  (VQC_BIAS_LOWER, VQC_BIAS_UPPER) separates the promise classes exactly,
  since promise positives have p0 = phi^2 >= 9/25 and promise negatives
  p0 <= 1/10000; both bounds are derived from datagen's promise bands.
* Two-sample QSVM: train on one engineered sample per class; the dual
  collapses to a one-dimensional concave quadratic with a closed-form
  maximiser alpha = min(1/(1 - k12), C).  Prediction is
  sign(alpha * (p0 - pz) + bias) where pz is the probability of the basis
  state the negative training circuit produces.

Every probability is available exactly (statevector) or as a shot-sampled
frequency; shots=None selects exact mode throughout.  A rule reads one or
two basis outcomes, whose counts among i.i.d. measurements are exactly
multinomial, so shot mode is one multinomial draw over them.  The VQC's p0
is Phi^2, squared exactly from forrelation.phi_exact for a whole dataset in
one pass; the QSVM and the kernel read forrelation.amplitudes_exact, which
takes the same exact product (forrelation._exact_of).  Every exact
probability is one rounding of its exact square, forrelation.squared.  Both
work one connected component of the function supports at a time, so no
call builds a 2^n vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .datagen import NEGATIVE_PHI_MAX, POSITIVE_PHI_MIN
from .forrelation import (CONSTANT, EncodedSample, ForrelationInstance, amplitudes_exact, basis_index, decode,
                          phi_exact, squared)

VQC_BIAS_LOWER = 1 - 2 * POSITIVE_PHI_MIN ** 2
VQC_BIAS_UPPER = 1 - 2 * NEGATIVE_PHI_MAX ** 2
DEGENERATE_KERNEL_TOL = 1e-12
DEFAULT_BOX_C = 1e6   # effectively unconstrained; keeps alpha = 1/(1-k12) unclipped


class DegenerateTrainingSetError(ValueError):
    """The two training samples are indistinguishable under the feature map."""


def default_bias() -> float:
    """Midpoint of the separating interval; maximises margin to both bounds."""
    return 0.5 * (VQC_BIAS_LOWER + VQC_BIAS_UPPER)


def _probabilities(exact: list[float], shots: int | None, seed: int) -> list[float]:
    """``exact`` (probabilities of distinct outcomes), or their frequencies
    in one multinomial draw of ``shots`` over them and the rest.  Each exact
    probability is one rounding of a value <= 1 (forrelation.squared), so
    none exceeds 1.  Every probability read comes here, so every read
    rejects shots < 1."""
    if shots is None:
        return exact
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    counts = np.random.default_rng(seed).multinomial(shots, exact + [max(0.0, 1.0 - sum(exact))])
    return [int(c) / shots for c in counts[:-1]]


def vqc_probabilities(samples: list[EncodedSample], shots: int | None = None, seed: int = 0) -> list[float]:
    """p0(x) = |<0...0| U_F(x) |0...0>|^2 per sample: exact, from one phi_exact pass
    (the exact square, rounded once by squared), or shot-estimated, sample i
    with seed + i."""
    exact = [squared(*phi) for phi in phi_exact([decode(s) for s in samples])]
    return [_probabilities([p], shots, seed + i)[0] for i, p in enumerate(exact)]


def vqc_probability(sample: EncodedSample, shots: int | None = None, seed: int = 0) -> float:
    """vqc_probabilities of one sample."""
    return vqc_probabilities([sample], shots, seed)[0]


def vqc_predictions(samples: list[EncodedSample], bias: float, shots: int | None = None, seed: int = 0) -> list[int]:
    """Per sample, +1 iff p0 strictly exceeds (1 - bias)/2; ties go to -1.
    bias must lie in [-1, 1]; shots and seed as in vqc_probabilities."""
    if not -1.0 <= bias <= 1.0:
        raise ValueError(f"bias must lie in [-1, 1], got {bias}")
    return [1 if p > 0.5 * (1.0 - bias) else -1 for p in vqc_probabilities(samples, shots, seed)]


def vqc_classify(sample: EncodedSample, bias: float, shots: int | None = None, seed: int = 0) -> int:
    """vqc_predictions of one sample."""
    return vqc_predictions([sample], bias, shots, seed)[0]


def kernel(xi: EncodedSample, xj: EncodedSample, shots: int | None = None, seed: int = 0) -> float:
    """Squared feature fidelity |<phi(xi)|phi(xj)>|^2.

    Computed as the |0...0> probability of U_F(xi)^dagger U_F(xj) |0...0>,
    which is itself a forrelation circuit: xj's functions, a constant, then
    xi's functions in reverse order.  The adjoint of U_F(xi) is its reversed
    gate list (Hadamard layers and phase flips are self-inverse), and the
    constant's identity placeholder is all that separates the two middle
    Hadamard layers.  The 2k+1 functions make k odd, so every free qubit
    ends in |0> with a factor of exactly 1; amplitudes_exact reads index 0.
    """
    if (xi.n, xi.k) != (xj.n, xj.k):
        raise ValueError(f"kernel arguments disagree on shape: ({xi.n},{xi.k}) vs ({xj.n},{xj.k})")
    fi, fj = decode(xi), decode(xj)
    inst = ForrelationInstance(xi.n, fj.functions + (CONSTANT,) + fi.functions[::-1])
    value = _probabilities([squared(*amplitudes_exact(inst, [0])[0])], shots, seed)[0]
    if value > 1.0 + 1e-12:
        raise RuntimeError(f"kernel value exceeds 1: {value!r}")
    return value


@dataclass(frozen=True)
class DualSolution:
    """Two-sample SVM dual solution; the shared multiplier applies to both
    training samples because the equality constraint forces alpha_1 = alpha_2."""

    alpha: float
    bias: float
    x_plus: EncodedSample
    x_minus: EncodedSample
    box_c: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= self.box_c:
            raise ValueError(f"alpha must lie in [0, box_c], got {self.alpha}")


def dual_objective(alpha: float, k12: float) -> float:
    """m=2 dual objective 2*alpha - alpha^2 * (1 - k12) (k(x,x) = 1)."""
    return 2.0 * alpha - alpha * alpha * (1.0 - k12)


def qsvm_train(
    x_plus: EncodedSample,
    x_minus: EncodedSample,
    box_c: float = DEFAULT_BOX_C,
    shots: int | None = None,
    seed: int = 0,
) -> DualSolution:
    """Closed-form dual solution for the two training samples.

    alpha = min(1/(1 - k12), box_c); bias is alpha * default_bias(), the
    midpoint of the separating interval scaled by alpha.  Also computes the
    QSVM target z of x_minus (see negative_target_index), so a
    non-constructive x_minus is rejected here with ValueError.
    """
    if box_c <= 0:
        raise ValueError(f"box_c must be > 0, got {box_c}")
    k12 = kernel(x_plus, x_minus, shots, seed)
    if k12 >= 1.0 - DEGENERATE_KERNEL_TOL:
        raise DegenerateTrainingSetError(
            f"training samples are indistinguishable under the feature map (k12 = {k12!r})"
        )
    alpha = min(1.0 / (1.0 - k12), box_c)
    bias = alpha * default_bias()
    _target_index(x_minus)  # simulate the target once, at training time
    return DualSolution(alpha, bias, x_plus, x_minus, box_c)


def negative_target_index(x_minus: EncodedSample) -> int:
    """Basis state the negative training circuit maps |0...0> to.

    Requires an engineered negative sample (final state a computational
    basis state up to sign); raises otherwise.  The value is memoised per
    sample, and qsvm_train computes it, so classifying against a trained
    solution never re-simulates x_minus.
    """
    return _target_index(x_minus)


@lru_cache(maxsize=16)
def _target_index(x_minus: EncodedSample) -> int:
    """forrelation.basis_index, then checked: nonzero, with p_z 1 to 1e-12,
    squared from the exact amplitude of the same run of every component."""
    z, exact = basis_index(decode(x_minus))
    if z == 0 or abs(squared(*exact) - 1.0) > 1e-12:
        raise ValueError("x_minus is not a constructive negative sample")
    return z


def qsvm_classify(
    s: EncodedSample,
    sol: DualSolution,
    shots: int | None = None,
    seed: int = 0,
) -> int:
    """sign(alpha * (p0 - pz) + bias), with sign(0) -> -1.

    p0 and pz are the probabilities of the bitstrings 0^n and z in
    U_F(s)|0...0>; in sampled mode both come from one multinomial shot batch.
    Raises ValueError when s's (n, k) differs from the training samples'.
    """
    if (s.n, s.k) != (sol.x_minus.n, sol.x_minus.k):
        raise ValueError(f"sample shape ({s.n},{s.k}) differs from the trained ({sol.x_minus.n},{sol.x_minus.k})")
    z = negative_target_index(sol.x_minus)
    p0, pz = _probabilities([squared(*a) for a in amplitudes_exact(decode(s), [0, z])], shots, seed)
    decision = sol.alpha * (p0 - pz) + sol.bias
    return 1 if decision > 0.0 else -1


def shot_budget_for(epsilon: float, delta: float) -> int:
    """Hoeffding budget: ceil(ln(2/delta) / (2 epsilon^2)) shots guarantee
    |p_hat - p| <= epsilon with probability >= 1 - delta."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))
