"""Lossless information distillation by guess-anchored postselection.

The filter is built from an estimate theta_guess of the true parameters:
its Kraus operator damps the component along the guessed state by a
transmissivity t while passing the orthogonal complement untouched. For a
good guess the filter succeeds with probability about t^2 yet the
postselected state carries the full original Fisher information, boosted
per surviving copy by 1/t^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import EncodingCircuit, as_param_vector, evolve, tangent_frame
from .errors import NumericError, ValidationError
from .fisher import (
    WeightedRisk,
    _check_success_prob,
    _postselected_tensor_from_frame,
    _tensor_from_frame,
    curvature_from_tensor,
    postselected_geometric_tensor,
    qfim_from_tensor,
    scalar_risk,
    validate_povm,
)

# Kraus-vs-effect consistency slack; both are exact polynomials in rho.
PLAN_CONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class DistillationPlan:
    """A postselection filter anchored at a parameter guess.

    ``kraus`` K = (t - 1) rho_guess + 1 acts on the encoded state;
    ``effect`` F = K^dag K = (t^2 - 1) rho_guess + 1 is the success
    outcome of the induced two-outcome measurement.
    """

    transmissivity: float
    theta_guess: np.ndarray
    kraus: np.ndarray
    effect: np.ndarray


def _check_transmissivity(t) -> float:
    if isinstance(t, bool) or not isinstance(t, (int, float, np.floating, np.integer)):
        raise ValidationError(f"transmissivity must be a real number, got {t!r}")
    t = float(t)
    if not np.isfinite(t) or not 0.0 < t <= 1.0:
        raise ValidationError(f"transmissivity must lie in (0, 1], got {t}")
    return t


def kraus_from_estimate(circuit: EncodingCircuit, theta_guess, t) -> DistillationPlan:
    """Build the distillation filter anchored at the guessed parameters."""
    t = _check_transmissivity(t)
    theta_guess = as_param_vector(circuit, theta_guess, "theta_guess").copy()
    guess_state = evolve(circuit, theta_guess)
    rho_guess = np.outer(guess_state, guess_state.conj())
    identity = np.eye(circuit.dim)
    kraus = (t - 1.0) * rho_guess + identity
    effect = (t * t - 1.0) * rho_guess + identity
    drift = float(np.max(np.abs(kraus.conj().T @ kraus - effect)))
    if drift > PLAN_CONSTRUCTION_TOL:
        raise NumericError(f"filter effect drifts from K^dag K by {drift:.3e}")
    effect, _ = validate_povm((effect, identity - effect), circuit.dim)
    for arr in (theta_guess, kraus, effect):
        arr.setflags(write=False)
    return DistillationPlan(
        transmissivity=t, theta_guess=theta_guess, kraus=kraus, effect=effect
    )


def postselect(circuit: EncodingCircuit, theta, plan: DistillationPlan) -> tuple[np.ndarray, float]:
    """Apply the filter to the encoded state at theta.

    Returns ``(postselected_state, success_prob)`` with the state
    renormalized. Success probability below the floor aborts.
    """
    state = evolve(circuit, theta)
    filtered = plan.kraus @ state
    success_prob = float(np.real(filtered.conj() @ filtered))
    _check_success_prob(success_prob)
    return filtered / np.sqrt(success_prob), success_prob


def qfim_postselected(circuit: EncodingCircuit, theta, effect) -> tuple[np.ndarray, float]:
    """Exact QFIM of the postselected state and the success probability."""
    tensor, success_prob = postselected_geometric_tensor(circuit, theta, effect)
    return qfim_from_tensor(tensor), success_prob


def curvature_postselected(circuit: EncodingCircuit, theta, effect) -> tuple[np.ndarray, float]:
    """Exact Uhlmann curvature of the postselected state and success probability."""
    tensor, success_prob = postselected_geometric_tensor(circuit, theta, effect)
    return curvature_from_tensor(tensor), success_prob


@dataclass(frozen=True)
class DistillationReport:
    """Side-by-side account of one distillation filter at the true theta.

    ``qfim_predicted`` is the small-error prediction qfim_undistilled/t^2;
    ``lossless_residual`` is the max-abs gap between success_prob *
    qfim_exact and qfim_undistilled, which shrinks quadratically with the
    guess error. Risks are per input copy (surviving fraction folded in)
    and are None when the corresponding QFIM is singular.
    """

    transmissivity: float
    theta_true: np.ndarray
    theta_guess: np.ndarray
    success_prob: float
    qfim_undistilled: np.ndarray
    qfim_exact: np.ndarray
    qfim_predicted: np.ndarray
    curvature_undistilled: np.ndarray
    curvature_exact: np.ndarray
    lossless_residual: float
    regime_ratio: float
    risk_before: WeightedRisk | None
    risk_after: WeightedRisk | None


def distillation_report(
    circuit: EncodingCircuit,
    theta_true,
    theta_guess,
    t,
    weight=None,
    trials: int = 1,
) -> DistillationReport:
    """Build the filter at theta_guess and audit it at theta_true.

    ``regime_ratio`` sum(delta^2)/t^2 gauges whether the guess error delta
    is small on the scale where the 1/t^2 boost is trustworthy; callers
    should warn when it exceeds about 0.1. The plain and the postselected
    tensors both come from one tangent frame at theta_true.
    """
    theta_true = as_param_vector(circuit, theta_true, "theta_true")
    plan = kraus_from_estimate(circuit, theta_guess, t)
    delta = plan.theta_guess - theta_true
    regime_ratio = float(np.sum(delta * delta)) / plan.transmissivity**2

    state, tangents = tangent_frame(circuit, theta_true)
    plain = _tensor_from_frame(state, tangents)
    qfim_plain = qfim_from_tensor(plain)
    curvature_plain = curvature_from_tensor(plain)
    # plan.effect passed require_effect inside validate_povm and is write-locked.
    tensor, success_prob = _postselected_tensor_from_frame(state, tangents, plan.effect)
    qfim_exact = qfim_from_tensor(tensor)
    curvature_exact = curvature_from_tensor(tensor)
    qfim_predicted = qfim_plain / plan.transmissivity**2
    residual = float(np.max(np.abs(success_prob * qfim_exact - qfim_plain)))

    def _risk_or_none(fim):
        try:
            return scalar_risk(fim, weight, trials)
        except NumericError:
            return None

    return DistillationReport(
        transmissivity=plan.transmissivity,
        theta_true=theta_true,
        theta_guess=plan.theta_guess,
        success_prob=success_prob,
        qfim_undistilled=qfim_plain,
        qfim_exact=qfim_exact,
        qfim_predicted=qfim_predicted,
        curvature_undistilled=curvature_plain,
        curvature_exact=curvature_exact,
        lossless_residual=residual,
        regime_ratio=regime_ratio,
        risk_before=_risk_or_none(qfim_plain),
        risk_after=_risk_or_none(success_prob * qfim_exact),
    )


@dataclass(frozen=True)
class SweepPoint:
    """One transmissivity in a sweep: a report, or the failure reason."""

    transmissivity: float
    report: DistillationReport | None
    error: str | None


def t_sweep(
    circuit: EncodingCircuit,
    theta_true,
    theta_guess,
    t_values,
    weight=None,
    trials: int = 1,
) -> list[SweepPoint]:
    """Audit the filter across transmissivities, collecting per-point failures.

    Invalid or numerically degenerate points become SweepPoint.error
    instead of aborting the sweep.
    """
    points = []
    for t in t_values:
        try:
            report = distillation_report(circuit, theta_true, theta_guess, t, weight, trials)
        except (ValidationError, NumericError) as exc:
            points.append(SweepPoint(transmissivity=float(t), report=None, error=str(exc)))
        else:
            points.append(SweepPoint(transmissivity=report.transmissivity, report=report, error=None))
    return points
