"""Kirkwood-Dirac quasiprobability analysis of postselected information.

``kd_distribution`` builds the joint quasiprobability table over the
eigenvalue clusters of two effective generators together with a binary
postselection outcome. ``analyze_pair`` conditions it on success and
returns one record: the postselected-QFIM entry, the covariance bound's
spreads, the negativity and a consistency verdict. The entry can only beat
the classical covariance bound when the conditioned quasiprobability
distribution is nonclassical (negative or non-real somewhere).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import EncodingCircuit, _check_pair, _sweep, as_param_vector
from .errors import NumericError
from .fisher import _check_success_prob, require_effect

# Adjacent eigenvalues no farther apart than this fraction of the
# spectrum's spread are merged into one cluster.
DEGENERACY_TOL = 1e-8
# Gaps below this fraction of the largest eigenvalue magnitude are roundoff
# of one degenerate eigenvalue and are merged whatever the spread.
EIGENVALUE_ROUNDOFF_RTOL = 1e-12
# Tolerance for calling a quasiprobability entry classical, and relative
# slack on the classical covariance bound.
CLASSICALITY_TOL = 1e-9
# Slack for a KD table summing to 1 and for its spectrum marginals being
# real and nonnegative.
KD_TABLE_TOL = 1e-9


def _clusters(eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Group an ascending spectrum into clusters of near-equal eigenvalues.

    Returns ``(means, labels, spread)``: the mean eigenvalue of each
    cluster, the cluster of each eigenvalue, and the largest minus the
    smallest mean. A gap of at most DEGENERACY_TOL times the spectrum's
    spread, or at most EIGENVALUE_ROUNDOFF_RTOL times its largest
    magnitude, chains two neighbours. Both scale with the spectrum, so the
    clusters do not change when it is scaled, and a spread of pure roundoff
    gives one cluster.
    """
    tol = max(
        DEGENERACY_TOL * (eigenvalues[-1] - eigenvalues[0]),
        EIGENVALUE_ROUNDOFF_RTOL * float(np.max(np.abs(eigenvalues))),
    )
    first = np.concatenate(([True], np.diff(eigenvalues) > tol))
    starts = np.flatnonzero(first)
    means = np.add.reduceat(eigenvalues, starts) / np.diff(np.append(starts, eigenvalues.size))
    return means, np.cumsum(first) - 1, float(means[-1] - means[0])


@dataclass(frozen=True)
class KdDistribution:
    """Joint quasiprobability table for two generator spectra and a
    postselection outcome.

    ``table[k, l, m]`` is Tr[P_k F_m Q_l rho] where P_k projects onto the
    k-th eigenvalue of the first effective generator, Q_l likewise for the
    second, and F_0 / F_1 = effect / (1 - effect) are the postselection
    outcomes. Complex-valued by construction.
    """

    pair: tuple[int, int]
    table: np.ndarray
    eigenvalues_i: np.ndarray
    eigenvalues_j: np.ndarray
    spread_i: float
    spread_j: float

    @property
    def success_prob(self) -> float:
        """Probability that postselection succeeds."""
        return float(np.real(np.sum(self.table[:, :, 0])))


def kd_distribution(circuit: EncodingCircuit, theta, pair, effect) -> KdDistribution:
    """Joint Kirkwood-Dirac table at theta for a parameter pair and effect.

    Effective generator m has the spectrum of generators[m], and P_k psi is
    gates m..M-1 applied to the cluster-k part of the state's coordinates
    in the eigenbasis of generators[m]. One forward sweep in eigen-coordinates
    reaches gate m; each side scatters the coordinates by cluster label into
    a D x K block, which adds back to the state exactly, and carries it
    through the later gates with the same step as ``evolve``. Entry (k, l)
    is (P_k psi)^dag F (Q_l psi); the failure outcome is (P_k psi)^dag
    (Q_l psi) minus it. Besides F no D x D matrix is formed, and the cost
    is O(M D^2 (K + L)) plus the product of F with the D x L block.
    """
    theta = as_param_vector(circuit, theta)
    first, second = _check_pair(pair, "pair", circuit.n_params)
    mat = require_effect(effect, circuit.dim)
    coords, start, sides = circuit._entry, 0, {}
    for m in sorted({first, second}):
        coords, start = _sweep(circuit, theta, coords, start, m), m
        vals, labels, spread = _clusters(circuit._eigenvalues[m])
        scattered = np.zeros((circuit.dim, vals.size), dtype=complex)
        scattered[np.arange(circuit.dim), labels] = coords
        sides[m] = (_sweep(circuit, theta, scattered, m, circuit.n_params), vals, spread)
    (block_i, vals_i, spread_i), (block_j, vals_j, spread_j) = sides[first], sides[second]
    adjoint_i = block_i.conj().T
    success = adjoint_i @ (mat @ block_j)
    table = np.stack((success, adjoint_i @ block_j - success), axis=2)
    total = complex(np.sum(table))
    if abs(total - 1.0) > KD_TABLE_TOL:
        raise NumericError(f"quasiprobability table sums to {total:.12g}, expected 1")
    for axis, label in ((1, "first"), (0, "second")):
        marginal = table.sum(axis=2).sum(axis=axis)
        if float(np.max(np.abs(np.imag(marginal)))) > KD_TABLE_TOL:
            raise NumericError(f"{label}-spectrum marginal is not real")
        if float(np.min(np.real(marginal))) < -KD_TABLE_TOL:
            raise NumericError(f"{label}-spectrum marginal is negative")
    return KdDistribution(
        pair=(first, second),
        table=table,
        eigenvalues_i=vals_i,
        eigenvalues_j=vals_j,
        spread_i=spread_i,
        spread_j=spread_j,
    )


def _entry(conditioned: np.ndarray, vals_i: np.ndarray, vals_j: np.ndarray) -> float:
    """KdPairAnalysis.entry. Each spectrum is centred on its midrange first:
    that leaves the entry unchanged and keeps its roundoff on the scale of
    the covariance bound, so a one-cluster spectrum gives exactly 0."""
    vals_i = vals_i - (vals_i.min() + vals_i.max()) / 2.0
    vals_j = vals_j - (vals_j.min() + vals_j.max()) / 2.0
    correlation = vals_i @ conditioned @ vals_j
    left = vals_i @ conditioned.sum(axis=1)
    right = conditioned.sum(axis=0) @ vals_j
    return float(4.0 * np.real(correlation - left * right))


def _negativity(conditioned: np.ndarray) -> tuple[float, bool]:
    """``(total_negativity, classical)`` as KdPairAnalysis defines them."""
    real = np.real(conditioned)
    imag = np.abs(np.imag(conditioned))
    total = float(np.sum(np.maximum(0.0, -real)) + np.sum(imag))
    classical = (
        float(np.min(real)) >= -CLASSICALITY_TOL
        and float(np.max(real)) <= 1.0 + CLASSICALITY_TOL
        and float(np.max(imag)) <= CLASSICALITY_TOL
    )
    return total, classical


@dataclass(frozen=True)
class KdPairAnalysis:
    """One parameter pair under postselection, read from its KD table.

    ``conditioned`` is the table's success slice over ``success_prob``, a
    quasiprobability summing to 1. ``entry`` is the postselected-QFIM entry
    4 Re{E[a_i a_j] - E_left[a_i] E_right[a_j]} under it.
    ``total_negativity`` adds the sizes of all negative real parts and
    all imaginary parts of ``conditioned``; ``classical`` says all real
    parts lie in [0, 1] and all imaginary parts vanish, within
    CLASSICALITY_TOL.

    A classical distribution caps the entry at the covariance bound
    B = spread_i * spread_j, any other at (1 + 2N)(2 + 2N) B, N the total
    negativity. ``consistent`` is False only when the entry breaks its cap
    by more than the relative slack CLASSICALITY_TOL, which scales with B,
    so rescaling both generators keeps the verdict.
    """

    pair: tuple[int, int]
    success_prob: float
    conditioned: np.ndarray
    entry: float
    spread_i: float
    spread_j: float
    total_negativity: float
    classical: bool
    consistent: bool


def analyze_pair(circuit: EncodingCircuit, theta, pair, effect) -> KdPairAnalysis:
    """KD table, conditioning, entry, negativity and verdict for one pair."""
    dist = kd_distribution(circuit, theta, pair, effect)
    success_prob = dist.success_prob
    _check_success_prob(success_prob)
    conditioned = dist.table[:, :, 0] / success_prob
    entry = _entry(conditioned, dist.eigenvalues_i, dist.eigenvalues_j)
    total, classical = _negativity(conditioned)
    cap = 1.0 if classical else (1.0 + 2.0 * total) * (2.0 + 2.0 * total)
    return KdPairAnalysis(
        pair=dist.pair,
        success_prob=success_prob,
        conditioned=conditioned,
        entry=entry,
        spread_i=dist.spread_i,
        spread_j=dist.spread_j,
        total_negativity=total,
        classical=classical,
        consistent=abs(entry) <= cap * dist.spread_i * dist.spread_j * (1.0 + CLASSICALITY_TOL),
    )
