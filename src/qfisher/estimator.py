"""Monte Carlo check of the classical Cramér-Rao bound.

Samples POVM outcomes from the encoded state, fits the parameters by
maximum likelihood on each batch, and compares the empirical covariance
of the estimates against the inverse Fisher information. Sampling and
fitting are fully deterministic given the seed: fixed-seed runs are
bit-for-bit reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import EncodingCircuit, _check_int, _check_real, _sweep, as_param_vector
from .circuit import evolve, tangent_frame
from .errors import NumericError, ValidationError
from .fisher import MAX_FLOAT_TRIALS, PROBABILITY_FLOOR, _CheckedPovm, _effects
from .fisher import _outcome_slopes, classical_fim, validate_povm
from .linalg import as_array, invert

# Fisher-scoring iterations after which a fit counts as non-convergent.
MLE_MAX_ITERATIONS = 100
# Probability floor inside log-likelihoods; avoids log(0) for dead outcomes.
LOGLIK_PROB_FLOOR = 1e-300
# Largest |sum(probs) - 1| that sample_outcomes accepts.
PROB_SUM_TOL = 1e-8
# Most trials one batch may draw: 16 bytes per trial (a uniform and an index).
MAX_TRIALS = 10**8


@dataclass(frozen=True)
class SampleBatch:
    """Outcome counts from one seeded batch of identical trials."""

    seed: int
    trials: int
    counts: np.ndarray


def outcome_probabilities(circuit: EncodingCircuit, theta, povm) -> np.ndarray:
    """Outcome distribution of the POVM on the encoded state at theta."""
    effects = _effects(povm, circuit.dim)
    state = evolve(circuit, theta)
    return np.maximum(np.real((effects @ state) @ state.conj()), 0.0)


def sample_outcomes(probs, trials, seed) -> SampleBatch:
    """Draw i.i.d. outcomes by inverse-CDF sampling with a PCG64 stream.

    The arithmetic path (cumsum, searchsorted, bincount) is pinned so a
    given seed always yields identical counts. A batch holds every draw in
    memory, so ``trials`` is capped at ``MAX_TRIALS``.
    """
    probs = as_array(probs, "probs", (None,))
    if np.any(probs < 0.0):
        raise ValidationError("probs must be non-negative")
    if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"probs sum to {float(probs.sum()):.12g}, expected 1")
    trials = _check_int(trials, "trials", 1, MAX_TRIALS)
    seed = _check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    draws = rng.random(trials)
    edges = np.cumsum(probs)
    edges[-1] = 1.0  # draws lie in [0, 1), so every index is below probs.size
    indices = np.searchsorted(edges, draws, side="right")
    counts = np.bincount(indices, minlength=probs.size)
    return SampleBatch(seed=seed, trials=trials, counts=counts)


def loglikelihood(counts, probs) -> float:
    """Multinomial log-likelihood; zero-count outcomes contribute nothing."""
    counts = as_array(counts, "counts", (None,))
    probs = as_array(probs, "probs", counts.shape)
    support = counts > 0
    return float(np.sum(counts[support] * np.log(np.maximum(probs[support], LOGLIK_PROB_FLOOR))))


def mle_fit(
    batch: SampleBatch,
    circuit: EncodingCircuit,
    povm,
    theta_init,
    search_radius: float = 0.5,
) -> np.ndarray:
    """Maximum-likelihood estimate by deterministic Fisher scoring.

    Moves theta to clip(theta + I^-1 s) in the box theta_init +- search_radius,
    with score s and expected information I from one tangent frame; a move that
    falls short of a quarter of its predicted gain is halved along its longest
    information axes. If the information at theta_init resolves no axis, the fit
    restarts from the best point theta_init +- search_radius/2 along one axis; it
    raises when none beats theta_init (a flat likelihood), and when a fit is still
    moving after MLE_MAX_ITERATIONS.
    """
    effects = _effects(povm, circuit.dim)
    theta = as_param_vector(circuit, theta_init, "theta_init").copy()
    radius = _check_real(search_radius, "search_radius")
    if not np.isfinite(radius) or radius <= 0.0:
        raise ValidationError(f"search_radius must be positive and finite, got {radius}")
    if not isinstance(batch, SampleBatch):
        raise ValidationError(f"batch must be a SampleBatch, got {type(batch).__name__}")
    counts = as_array(batch.counts, "batch.counts", (len(effects),))
    if np.any(counts < 0.0):
        raise ValidationError("batch.counts must be non-negative")
    lower, upper = theta - radius, theta + radius

    def objective(point):
        # The log floor in loglikelihood covers roundoff-negative probabilities.
        state = _sweep(circuit, point, circuit._entry, 0, circuit.n_params)
        return loglikelihood(counts, np.real((effects @ state) @ state.conj()))

    best = objective(theta)
    prior, tie = np.inf, 64.0 * np.finfo(float).eps
    for iteration in range(MLE_MAX_ITERATIONS):
        probs, slopes = _outcome_slopes(effects, *tangent_frame(circuit, theta))
        weighted = slopes.T / np.maximum(probs, PROBABILITY_FLOOR)
        info, score = counts.sum() * weighted @ slopes, weighted @ counts
        # Roundoff of the log-likelihood, at least eps per count: smaller changes are ties.
        slack = tie * (abs(best) + counts.sum())
        # Edge coordinates whose score points out of the box stay put.
        free = ~((theta == lower) & (score < 0) | (theta == upper) & (score > 0))
        curvature, axes = np.linalg.eigh(info[np.ix_(free, free)])
        # Axes whose curvature across the box is a tie carry no information.
        resolved = radius**2 * curvature > slack
        if iteration == 0 and not resolved.any():
            # Slopes can all vanish at theta_init alone, say where an outcome's probability is 0.
            probes = theta + 0.5 * radius * np.vstack((np.eye(theta.size), -np.eye(theta.size)))
            values = [objective(probe) for probe in probes]
            k = int(np.argmax(values))
            if values[k] - best <= slack:
                raise NumericError("likelihood is flat at theta_init: no resolvable information")
            theta, best = probes[k], values[k]
            continue
        newton = np.divide(score[free] @ axes, curvature, out=np.zeros(len(axes)), where=resolved)
        step, reach = np.zeros_like(theta), np.inf
        while True:
            step[free] = axes @ np.clip(newton, -reach, reach)
            trial = np.clip(theta + step, lower, upper)
            move = trial - theta
            # Quadratic-model gain; a move whose gain is a tie cannot be checked.
            gain = score @ move - 0.5 * move @ info @ move
            if abs(gain) <= slack:
                break
            value = objective(trial)
            if value - best >= max(gain, 0.0) / 4.0 - slack:
                gain, best = value - best, value
                break
            reach = min(reach, float(np.max(np.abs(newton)))) / 2.0
        size, theta = float(np.max(np.abs(move))), trial
        # Done once theta cannot resolve the move, or gains tie and moves stop halving.
        if size <= tie * (radius + np.abs(theta).max()) or (gain <= slack and size >= prior / 2):
            return theta
        prior = size
    raise NumericError(f"Fisher scoring did not converge in {MLE_MAX_ITERATIONS} iterations")


@dataclass(frozen=True)
class CrbComparison:
    """Empirical estimate covariance against the Cramér-Rao matrix bound.

    ``slack`` is the smallest eigenvalue of (empirical_cov - bound);
    asymptotically it should not be significantly negative.
    """

    empirical_cov: np.ndarray
    bound: np.ndarray
    slack: float


def crb_comparison(
    estimates, circuit: EncodingCircuit, theta_true, povm, trials
) -> CrbComparison:
    """Compare batch-estimate scatter with the inverse Fisher information.

    ``estimates`` is a sequence of per-batch parameter estimates. The
    covariance is taken about the batch mean with one delta degree of
    freedom, and the bound is [trials * classical_fim]^-1.
    """
    trials = _check_int(trials, "trials", 1, MAX_FLOAT_TRIALS)
    theta_true = as_param_vector(circuit, theta_true, "theta_true")
    stacked = as_array(estimates, "estimates", (None, circuit.n_params))
    if stacked.shape[0] < 2:
        raise ValidationError("need at least 2 batches to estimate a covariance")
    fim = classical_fim(circuit, theta_true, povm)
    bound = invert(trials * fim)
    centered = stacked - stacked.mean(axis=0)
    empirical = centered.T @ centered / (stacked.shape[0] - 1)
    slack = float(np.linalg.eigvalsh(empirical - bound)[0])
    return CrbComparison(empirical_cov=empirical, bound=bound, slack=slack)


@dataclass(frozen=True)
class CrbStudy:
    """Full seeded study: the sampled batches, their fits, the comparison."""

    master_seed: int
    trials: int
    batches: tuple[SampleBatch, ...]
    estimates: np.ndarray
    comparison: CrbComparison


def run_crb_study(
    circuit: EncodingCircuit,
    theta_true,
    povm,
    trials,
    batches,
    master_seed,
    theta_init=None,
    search_radius: float = 0.5,
) -> CrbStudy:
    """Sample, fit, and compare over many batches with derived seeds.

    Batch k uses seed master_seed + k, so the whole study is reproducible
    from one integer. theta_init defaults to theta_true: the study checks
    estimator spread, not global optimization. Estimates on the search-box
    edge are counted in one RuntimeWarning.
    """
    theta_true = as_param_vector(circuit, theta_true, "theta_true")
    trials = _check_int(trials, "trials", 1, MAX_TRIALS)
    master_seed = _check_int(master_seed, "master_seed", 0)
    n_batches = _check_int(batches, "batches", 2)
    init = theta_true if theta_init is None else as_param_vector(circuit, theta_init, "theta_init")
    # One validation: the probabilities, the fits and the bound reuse the stack.
    povm = validate_povm(povm, circuit.dim).view(_CheckedPovm)
    probs = outcome_probabilities(circuit, theta_true, povm)
    sampled = tuple(sample_outcomes(probs, trials, master_seed + k) for k in range(n_batches))
    estimates = np.array([mle_fit(batch, circuit, povm, init, search_radius) for batch in sampled])
    on_edge = ((estimates == init - search_radius) | (estimates == init + search_radius)).any(1)
    if on_edge.any():
        message = f"{on_edge.sum()} of {n_batches} estimates lie on the search-box edge"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    comparison = crb_comparison(estimates, circuit, theta_true, povm, trials)
    return CrbStudy(master_seed, trials, sampled, estimates, comparison)
