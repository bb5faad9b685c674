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

from .circuit import STATE_NORM_TOL, EncodingCircuit, _check_real, as_param_vector, evolve
from .circuit import tangent_frame
from .errors import NumericError, ValidationError
from .fisher import (
    _check_success_prob,
    _tensor_from_frame,
    curvature_from_tensor,
    learnability_interval,
    postselected_geometric_tensor,
    qfim_from_tensor,
)


@dataclass(frozen=True)
class DistillationPlan:
    """A postselection filter anchored at a parameter guess.

    ``guess_state`` g is the encoded state at ``theta_guess``. The Kraus
    operator K = 1 - (1 - t)|g><g| acts on the encoded state; the plan's own
    paths apply it in split form, never densely.
    """

    transmissivity: float
    theta_guess: np.ndarray
    guess_state: np.ndarray

    @property
    def effect(self) -> np.ndarray:
        """F = K^dag K = 1 - (1 - t^2)|g><g|, the success outcome of the induced
        two-outcome measurement, formed densely on each read.

        K^dag K - F = (1 - t)^2 (|g|^2 - 1)|g><g| and F has eigenvalues 1 and
        1 + (t^2 - 1)|g|^2, so the plan's unit g makes F a valid effect."""
        g, t = self.guess_state, self.transmissivity
        return (t * t - 1.0) * np.outer(g, g.conj()) + np.eye(g.size)


def _check_transmissivity(t, name: str = "transmissivity") -> float:
    t = _check_real(t, name)
    if not 0.0 < t <= 1.0:
        raise ValidationError(f"{name} must lie in (0, 1], got {t}")
    if t * t < np.finfo(float).tiny:
        raise ValidationError(f"{name} {t} is too small: t^2 underflows a normal float")
    return t


def kraus_from_estimate(circuit: EncodingCircuit, theta_guess, t) -> DistillationPlan:
    """Build the distillation filter anchored at the guessed parameters."""
    t = _check_transmissivity(t)
    theta_guess = as_param_vector(circuit, theta_guess, "theta_guess").copy()
    guess_state = evolve(circuit, theta_guess)
    # A unit g keeps F = K^dag K a valid effect (see DistillationPlan.effect).
    drift = abs(float(np.linalg.norm(guess_state)) - 1.0)
    if drift > STATE_NORM_TOL:
        raise NumericError(f"guess state is off the unit sphere: |norm - 1| = {drift:.3e}")
    for arr in (theta_guess, guess_state):
        arr.setflags(write=False)
    return DistillationPlan(t, theta_guess, guess_state)


def _filter_frame(plan: DistillationPlan, frame: np.ndarray) -> tuple[np.ndarray, float]:
    """K on each column v of a D x k frame in split form (t<g|v>, v - g<g|v>), and
    the success probability of column 0. The two parts are orthogonal, so inner
    products are plain sums with nothing to cancel against 1, exact at any t."""
    along = plan.guess_state.conj() @ frame
    split = np.vstack((plan.transmissivity * along, frame - np.outer(plan.guess_state, along)))
    success_prob = float(np.real(np.vdot(split[:, 0], split[:, 0])))
    _check_success_prob(success_prob)
    return split, success_prob


def postselect(circuit: EncodingCircuit, theta, plan: DistillationPlan) -> tuple[np.ndarray, float]:
    """Apply the filter to the encoded state at theta.

    Returns ``(postselected_state, success_prob)`` with the state
    renormalized. Success probability below the floor aborts.
    """
    split, success_prob = _filter_frame(plan, evolve(circuit, theta)[:, None])
    filtered = split[0, 0] * plan.guess_state + split[1:, 0]
    return filtered / np.sqrt(success_prob), success_prob


def qfim_postselected(circuit: EncodingCircuit, theta, effect) -> tuple[np.ndarray, float]:
    """Exact QFIM of the postselected state and the success probability."""
    tensor, success_prob = postselected_geometric_tensor(circuit, theta, effect)
    return qfim_from_tensor(tensor), success_prob


@dataclass(frozen=True)
class DistillationReport:
    """Side-by-side account of one distillation filter at the true theta.

    ``qfim_predicted`` is the small-error prediction qfim_undistilled/t^2;
    ``lossless_residual`` is the max-abs gap between success_prob *
    qfim_exact and qfim_undistilled, which shrinks quadratically with the
    guess error. Risks are ``learnability_interval`` brackets (lower,
    upper) per input copy (surviving fraction folded in) and are None when
    the corresponding QFIM is singular.
    """

    plan: DistillationPlan
    theta_true: np.ndarray
    success_prob: float
    qfim_undistilled: np.ndarray
    qfim_exact: np.ndarray
    qfim_predicted: np.ndarray
    curvature_undistilled: np.ndarray
    curvature_exact: np.ndarray
    lossless_residual: float
    regime_ratio: float
    risk_before: tuple[float, float] | None
    risk_after: tuple[float, float] | None


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
    filtered, success_prob = _filter_frame(plan, np.column_stack((state, tangents)))
    filtered /= np.sqrt(success_prob)
    tensor = _tensor_from_frame(filtered[:, 0], filtered[:, 1:])
    qfim_exact = qfim_from_tensor(tensor)
    curvature_exact = curvature_from_tensor(tensor)
    qfim_predicted = qfim_plain / plan.transmissivity**2
    residual = float(np.max(np.abs(success_prob * qfim_exact - qfim_plain)))

    def _risk_or_none(fim):
        try:
            return learnability_interval(fim, weight, trials)
        except NumericError:
            return None

    return DistillationReport(
        plan=plan,
        theta_true=theta_true,
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

