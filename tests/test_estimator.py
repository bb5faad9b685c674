import contextlib
import math
import signal
from pathlib import Path

import numpy as np
import pytest

import qfisher.estimator
import qfisher.fisher
from qfisher import (
    EncodingCircuit,
    NumericError,
    SampleBatch,
    ValidationError,
    build_circuit,
    crb_comparison,
    load_scenario,
    loglikelihood,
    mle_fit,
    outcome_probabilities,
    run_crb_study,
    sample_outcomes,
)

from qfisher.estimator import MAX_TRIALS

from helpers import SIGMA_X, reference_circuit, sic_povm

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
Z_BASIS = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


def single_param_circuit():
    return EncodingCircuit((SIGMA_X,), np.array([1.0, 0.0], dtype=complex))


@contextlib.contextmanager
def _within(seconds):
    """Fail a call that runs past ``seconds`` instead of waiting on it."""

    def expire(signum, frame):
        raise TimeoutError(f"call ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_outcome_probabilities_normalized():
    probs = outcome_probabilities(reference_circuit(), [0.3, 0.8], sic_povm())
    assert np.all(probs >= 0.0)
    assert float(probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_outcome_probabilities_closed_form():
    probs = outcome_probabilities(single_param_circuit(), [0.3], Z_BASIS)
    assert probs[0] == pytest.approx(math.cos(0.3) ** 2, abs=1e-12)
    assert probs[1] == pytest.approx(math.sin(0.3) ** 2, abs=1e-12)


def test_sample_outcomes_pinned_counts():
    # pinned from the PCG64 stream of seed 0: uniform draws against the
    # half/half edge at 0.5 give three low outcomes in ten trials
    batch = sample_outcomes([0.5, 0.5], 10, 0)
    assert batch.counts.tolist() == [3, 7]
    assert batch.trials == 10
    assert batch.seed == 0


def test_sample_outcomes_reproducible_and_complete():
    probs = [0.2, 0.5, 0.3]
    first = sample_outcomes(probs, 5000, 99)
    second = sample_outcomes(probs, 5000, 99)
    assert np.array_equal(first.counts, second.counts)
    assert int(first.counts.sum()) == 5000
    third = sample_outcomes(probs, 5000, 100)
    assert not np.array_equal(first.counts, third.counts)


def test_sample_outcomes_validation():
    with pytest.raises(ValidationError):
        sample_outcomes([0.5, 0.6], 10, 0)  # does not sum to 1
    with pytest.raises(ValidationError):
        sample_outcomes([1.2, -0.2], 10, 0)
    with pytest.raises(ValidationError):
        sample_outcomes([0.5, 0.5], 0, 0)
    with pytest.raises(ValidationError):
        sample_outcomes([0.5, 0.5], 10, -1)
    with pytest.raises(ValidationError):
        sample_outcomes([0.5, 0.5], 10, True)


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 2**63])
def test_sample_outcomes_refuses_trials_above_cap_before_drawing(monkeypatch, trials):
    def no_stream(seed):
        raise AssertionError("a random stream was opened")

    monkeypatch.setattr(np.random, "default_rng", no_stream)
    with pytest.raises(ValidationError, match=f"trials must be at most {MAX_TRIALS}, got {trials}"):
        sample_outcomes([0.5, 0.5], trials, 0)


def test_loglikelihood_pinned_value():
    value = loglikelihood(np.array([3, 7]), np.array([0.3, 0.7]))
    assert value == pytest.approx(-6.108643020548936, abs=1e-12)


def test_loglikelihood_ignores_zero_count_outcomes():
    assert loglikelihood(np.array([0, 5]), np.array([0.0, 1.0])) == 0.0


def test_mle_fit_recovers_parameter():
    circuit = single_param_circuit()
    probs = outcome_probabilities(circuit, [0.3], Z_BASIS)
    batch = sample_outcomes(probs, 100000, 7)
    estimate = mle_fit(batch, circuit, Z_BASIS, [0.25])
    assert abs(estimate[0] - 0.3) < 0.01


def test_mle_fit_is_deterministic():
    circuit = single_param_circuit()
    probs = outcome_probabilities(circuit, [0.3], Z_BASIS)
    batch = sample_outcomes(probs, 10000, 3)
    first = mle_fit(batch, circuit, Z_BASIS, [0.3])
    second = mle_fit(batch, circuit, Z_BASIS, [0.3])
    assert np.array_equal(first, second)


def test_mle_fit_rejects_flat_likelihood():
    circuit = single_param_circuit()
    flat_povm = (0.5 * np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex))
    batch = sample_outcomes([0.5, 0.5], 1000, 5)
    with pytest.raises(NumericError, match="flat"):
        mle_fit(batch, circuit, flat_povm, [0.3])


def test_mle_fit_restarts_off_a_start_with_no_slope():
    # At theta_init = 0 the z-basis outcome slopes of a sigma_x qubit all
    # vanish, yet data drawn at 0.3 are informative; the model is even in theta.
    circuit = single_param_circuit()
    batch = sample_outcomes(outcome_probabilities(circuit, [0.3], Z_BASIS), 1000, 7)
    exact = math.acos(math.sqrt(batch.counts[0] / batch.trials))
    assert exact == pytest.approx(0.3012, abs=1e-4)
    assert abs(abs(mle_fit(batch, circuit, Z_BASIS, [0.0])[0]) - exact) < 1e-9


def test_mle_fit_validation():
    circuit = single_param_circuit()
    batch = sample_outcomes([0.5, 0.5], 100, 1)
    with pytest.raises(ValidationError):
        mle_fit(batch, circuit, Z_BASIS, [0.3], search_radius=-1.0)
    with pytest.raises(ValidationError):
        mle_fit("counts", circuit, Z_BASIS, [0.3])
    three_outcomes = sample_outcomes([0.3, 0.3, 0.4], 100, 1)
    with pytest.raises(ValidationError):
        mle_fit(three_outcomes, circuit, Z_BASIS, [0.3])
    # Bad counts are refused before the fit; the guard turns a stalled step halving into a failure.
    for counts in ([np.nan, 100.0], [np.inf, 0.0], [-np.inf, 0.0], [-5, 105]):
        with _within(1.0), pytest.raises(ValidationError):
            mle_fit(SampleBatch(1, 100, np.array(counts)), circuit, Z_BASIS, [0.3])


def test_crb_comparison_small_example():
    circuit = single_param_circuit()
    estimates = [[0.28], [0.32]]
    out = crb_comparison(estimates, circuit, [0.3], Z_BASIS, 100)
    # variance about the mean 0.30 with one delta degree of freedom
    assert out.empirical_cov[0, 0] == pytest.approx(0.0008, abs=1e-12)
    # this measurement saturates the quantum limit: FIM = 4
    assert out.bound[0, 0] == pytest.approx(1.0 / 400.0, abs=1e-12)
    assert out.slack == pytest.approx(out.empirical_cov[0, 0] - out.bound[0, 0])


def test_crb_comparison_validation():
    circuit = single_param_circuit()
    with pytest.raises(ValidationError):
        crb_comparison([[0.3]], circuit, [0.3], Z_BASIS, 100)
    with pytest.raises(ValidationError):
        crb_comparison([[0.3, 0.2], [0.1, 0.4]], circuit, [0.3], Z_BASIS, 100)


def test_run_crb_study_seeds_and_reproducibility():
    circuit = single_param_circuit()
    study = run_crb_study(circuit, [0.3], Z_BASIS, 2000, 5, 1234)
    assert [b.seed for b in study.batches] == [1234, 1235, 1236, 1237, 1238]
    again = run_crb_study(circuit, [0.3], Z_BASIS, 2000, 5, 1234)
    assert np.array_equal(study.estimates, again.estimates)
    assert study.estimates.shape == (5, 1)


def test_run_crb_study_two_parameter_slack():
    # empirical covariance of the maximum-likelihood estimates should sit
    # near the bound; the slack noise floor scales like the bound itself
    circuit = reference_circuit()
    study = run_crb_study(
        circuit, [math.pi / 4.0, math.pi / 4.0], sic_povm(), 10000, 100, 31000
    )
    scale = float(np.max(np.abs(study.comparison.bound)))
    assert study.comparison.slack > -0.1 * scale


def test_mle_fit_matches_closed_form():
    # sigma_x qubit read out in the z basis: p0 = cos^2(theta), so the
    # maximum-likelihood estimate is arccos(sqrt(n0 / N)) exactly
    circuit = single_param_circuit()
    probs = outcome_probabilities(circuit, [0.3], Z_BASIS)
    for seed in range(20):
        batch = sample_outcomes(probs, 1000, seed)
        exact = math.acos(math.sqrt(batch.counts[0] / batch.trials))
        assert abs(mle_fit(batch, circuit, Z_BASIS, [0.3])[0] - exact) < 1e-12


def test_mle_fit_raises_when_iteration_cap_is_hit(monkeypatch):
    circuit = single_param_circuit()
    batch = sample_outcomes(outcome_probabilities(circuit, [0.3], Z_BASIS), 1000, 2)
    monkeypatch.setattr(qfisher.estimator, "MLE_MAX_ITERATIONS", 1)
    with pytest.raises(NumericError, match="converge"):
        mle_fit(batch, circuit, Z_BASIS, [0.7], search_radius=1.0)


@pytest.mark.parametrize(
    ("scenario", "most_calls"), [("reference_qubit", 10), ("single_parameter_crb", 7)]
)
def test_mle_fit_objective_calls_per_fit(monkeypatch, scenario, most_calls):
    config = load_scenario(SCENARIO_DIR / f"{scenario}.json")
    circuit = build_circuit(config)
    probs = outcome_probabilities(circuit, config.theta_true, config.povm)
    original = qfisher.estimator.loglikelihood
    calls = []

    def counted(counts, probs):
        calls[-1] += 1
        return original(counts, probs)

    monkeypatch.setattr(qfisher.estimator, "loglikelihood", counted)
    for k in range(20):
        calls.append(0)
        batch = sample_outcomes(probs, config.trials, config.seed + k)
        mle_fit(batch, circuit, config.povm, config.theta_guess)
    assert max(calls) <= most_calls


def test_run_crb_study_validates_povm_at_most_twice(monkeypatch):
    original = qfisher.fisher.validate_povm
    calls = []

    def counted(effects, dim=None):
        calls.append(dim)
        return original(effects, dim)

    for module in (qfisher.fisher, qfisher.estimator):
        monkeypatch.setattr(module, "validate_povm", counted)
    run_crb_study(reference_circuit(), [0.3, 0.8], sic_povm(), 1000, 50, 11)
    assert 1 <= len(calls) <= 2


def test_run_crb_study_returns_no_checked_povm_arrays():
    # The checked-stack marker is an ndarray subclass, and arithmetic keeps
    # it: checked * 5 would skip validation though it sums to 5 I. So the
    # marker must never leave the study; every array handed back is plain.
    study = run_crb_study(reference_circuit(), [0.3, 0.8], sic_povm(), 1000, 5, 11)
    arrays = [study.estimates, study.comparison.bound, study.comparison.empirical_cov]
    arrays += [batch.counts for batch in study.batches]
    assert not any(isinstance(a, qfisher.fisher._CheckedPovm) for a in arrays)
    checked = qfisher.fisher.validate_povm(Z_BASIS).view(qfisher.fisher._CheckedPovm)
    assert isinstance(checked * 5, qfisher.fisher._CheckedPovm)


def test_search_radius_accepts_numpy_integers():
    circuit = reference_circuit()
    args = (circuit, [0.3, 0.8], sic_povm(), 2000, 5, 500)
    plain = run_crb_study(*args, theta_init=[0.35, 0.75], search_radius=1)
    numpy_int = run_crb_study(*args, theta_init=[0.35, 0.75], search_radius=np.int64(1))
    assert numpy_int.estimates.tobytes() == plain.estimates.tobytes()
    batch = sample_outcomes([0.5, 0.5], 100, 1)
    with pytest.raises(ValidationError, match="^search_radius must be a real number, got True$"):
        mle_fit(batch, single_param_circuit(), Z_BASIS, [0.3], search_radius=True)


def test_run_crb_study_prefix_matches_shorter_study():
    circuit = reference_circuit()
    args = (circuit, [0.3, 0.8], sic_povm(), 2000)
    long = run_crb_study(*args, 50, 500, theta_init=[0.35, 0.75])
    short = run_crb_study(*args, 10, 500, theta_init=[0.35, 0.75])
    assert np.array_equal(long.estimates[:10], short.estimates)


def test_run_crb_study_flags_estimates_on_box_edge():
    # theta_init sits 0.1 from the truth with a 0.02 box: every fit is clipped
    circuit = single_param_circuit()
    with pytest.warns(RuntimeWarning, match="search-box edge") as caught:
        study = run_crb_study(
            circuit, [0.3], Z_BASIS, 2000, 5, 3, theta_init=[0.4], search_radius=0.02
        )
    assert len(caught) == 1
    assert "5 of 5 estimates" in str(caught[0].message)
    assert np.all(study.estimates == 0.4 - 0.02)
