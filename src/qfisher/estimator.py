"""Monte Carlo check of the classical Cramér-Rao bound.

Samples POVM outcomes from the encoded state, fits the parameters by
maximum likelihood on each batch, and compares the empirical covariance
of the estimates against the inverse Fisher information. Sampling and
fitting are fully deterministic given the seed: fixed-seed runs are
bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import EncodingCircuit, _apply_gates, as_param_vector, evolve
from .errors import NumericError, ValidationError
from .fisher import _validate_trials, classical_fim, validate_povm
from .linalg import invert

# Coordinate-descent step is halved until it drops below this floor.
MLE_STEP_FLOOR = 1e-7
# Relative log-likelihood spread below which the surface counts as flat.
MLE_FLATNESS_RTOL = 1e-9
# Probability floor inside log-likelihoods; avoids log(0) for dead outcomes.
LOGLIK_PROB_FLOOR = 1e-300
# Largest |sum(probs) - 1| that sample_outcomes accepts.
PROB_SUM_TOL = 1e-8


@dataclass(frozen=True)
class SampleBatch:
    """Outcome counts from one seeded batch of identical trials."""

    seed: int
    trials: int
    counts: np.ndarray


def _check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return int(seed)


def outcome_probabilities(circuit: EncodingCircuit, theta, povm) -> np.ndarray:
    """Outcome distribution of the POVM on the encoded state at theta."""
    effects = validate_povm(povm, circuit.dim)
    state = evolve(circuit, theta)
    return np.maximum(np.real((effects @ state) @ state.conj()), 0.0)


def sample_outcomes(probs, trials, seed) -> SampleBatch:
    """Draw i.i.d. outcomes by inverse-CDF sampling with a PCG64 stream.

    The arithmetic path (cumsum, searchsorted, bincount) is pinned so a
    given seed always yields identical counts.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValidationError(f"probs must be a nonempty vector, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
        raise ValidationError("probs must be finite and non-negative")
    if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"probs sum to {float(probs.sum()):.12g}, expected 1")
    trials = _validate_trials(trials)
    seed = _check_seed(seed)
    rng = np.random.default_rng(seed)
    draws = rng.random(trials)
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    indices = np.searchsorted(edges, draws, side="right")
    indices = np.clip(indices, 0, probs.size - 1)
    counts = np.bincount(indices, minlength=probs.size)
    return SampleBatch(seed=seed, trials=trials, counts=counts)


def loglikelihood(counts, probs) -> float:
    """Multinomial log-likelihood; zero-count outcomes contribute nothing."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.shape != probs.shape:
        raise ValidationError("counts and probs must have matching shapes")
    support = counts > 0
    return float(np.sum(counts[support] * np.log(np.maximum(probs[support], LOGLIK_PROB_FLOOR))))


def mle_fit(
    batch: SampleBatch,
    circuit: EncodingCircuit,
    povm,
    theta_init,
    search_radius: float = 0.5,
) -> np.ndarray:
    """Maximum-likelihood estimate by deterministic coordinate descent.

    Searches the box theta_init +- search_radius with a step that halves
    from search_radius/2 down to MLE_STEP_FLOOR. Candidate moves for a
    coordinate are fixed when the coordinate comes up in the sweep, moves
    are accepted only on strict improvement, so the walk is reproducible.
    A flat likelihood surface (no information in the data) raises instead
    of returning an arbitrary point.
    """
    effects = validate_povm(povm, circuit.dim)
    theta = as_param_vector(circuit, theta_init, "theta_init").copy()
    if not isinstance(search_radius, (int, float, np.floating)) or isinstance(search_radius, bool):
        raise ValidationError(f"search_radius must be a positive number, got {search_radius!r}")
    radius = float(search_radius)
    if not np.isfinite(radius) or radius <= 0.0:
        raise ValidationError(f"search_radius must be positive and finite, got {radius}")
    if not isinstance(batch, SampleBatch):
        raise ValidationError(f"batch must be a SampleBatch, got {type(batch).__name__}")
    if batch.counts.size != len(effects):
        raise ValidationError(
            f"batch has {batch.counts.size} outcome counts, povm has {len(effects)}"
        )
    lower = theta - radius
    upper = theta + radius

    def objective(point):
        # Points come from the validated theta_init and are finite; the log
        # floor in loglikelihood also covers roundoff-negative probabilities.
        state = _apply_gates(circuit, point, circuit.initial_state, 0)
        return loglikelihood(batch.counts, np.real((effects @ state) @ state.conj()))

    best = objective(theta)
    seen_min = best
    seen_max = best
    step = radius / 2.0
    while step >= MLE_STEP_FLOOR:
        improved_at_step = True
        while improved_at_step:
            improved_at_step = False
            for m in range(circuit.n_params):
                candidates = (theta[m] - step, theta[m] + step)
                for candidate in candidates:
                    clipped = min(max(candidate, lower[m]), upper[m])
                    if clipped == theta[m]:
                        continue
                    trial_theta = theta.copy()
                    trial_theta[m] = clipped
                    value = objective(trial_theta)
                    seen_min = min(seen_min, value)
                    seen_max = max(seen_max, value)
                    if value > best:
                        best = value
                        theta = trial_theta
                        improved_at_step = True
        step /= 2.0
    if seen_max - seen_min < MLE_FLATNESS_RTOL * max(1.0, abs(seen_max)):
        raise NumericError(
            "likelihood surface is flat over the search box; the data carry "
            "no parameter information"
        )
    return theta


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
    trials = _validate_trials(trials)
    theta_true = as_param_vector(circuit, theta_true, "theta_true")
    stacked = np.asarray(estimates, dtype=float)
    if stacked.ndim != 2 or stacked.shape[1] != circuit.n_params:
        raise ValidationError(
            f"estimates must be shaped (batches, {circuit.n_params}), got {stacked.shape}"
        )
    if stacked.shape[0] < 2:
        raise ValidationError("need at least 2 batches to estimate a covariance")
    fim = classical_fim(circuit, theta_true, povm)
    bound = np.real(invert(trials * fim))
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
    estimator spread, not global optimization.
    """
    theta_true = as_param_vector(circuit, theta_true, "theta_true")
    master_seed = _check_seed(master_seed)
    n_batches = _validate_trials(batches)
    if n_batches < 2:
        raise ValidationError("need at least 2 batches to estimate a covariance")
    init = theta_true if theta_init is None else as_param_vector(circuit, theta_init, "theta_init")
    probs = outcome_probabilities(circuit, theta_true, povm)
    sampled = []
    fits = []
    for k in range(n_batches):
        batch = sample_outcomes(probs, trials, master_seed + k)
        sampled.append(batch)
        fits.append(mle_fit(batch, circuit, povm, init, search_radius))
    estimates = np.array(fits)
    comparison = crb_comparison(estimates, circuit, theta_true, povm, trials)
    return CrbStudy(
        master_seed=master_seed,
        trials=_validate_trials(trials),
        batches=tuple(sampled),
        estimates=estimates,
        comparison=comparison,
    )
