"""Per-layer timings over a grid of (D, M) sizes.

D is the Hilbert-space dimension and M the number of parameters. Each
layer is one public call on a seeded dense random circuit, timed with no
tracer installed; the value is the median over a few calls. An MLE
objective call is the time of one ``mle_fit`` divided by the number of
``loglikelihood`` calls it made. The KD table and the MLE fit are timed
only where they finish in about a second today: the KD table up to D=16
(D=32 takes 23 s), the fit up to D=128 (at (256, 32) it makes some 2000
objective calls of 12 ms each).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import qfisher

from .tracer import Tracer
from .workloads import guess_near, random_hermitian, random_state

GRID = ((2, 2), (8, 4), (32, 8), (128, 16), (256, 32))
# Largest D at which a layer is timed; layers not listed run at every size.
MAX_DIM = {"kd_table": 16, "mle_objective": 128}
LAYERS = (
    "circuit_build",
    "evolve",
    "tangent_frame",
    "geometric_tensor",
    "postselected_tensor",
    "kd_table",
    "mle_objective",
)
# Calls per layer: at most this many, and no new call after this budget.
MAX_CALLS = 7
BUDGET_S = 0.2
# Two-outcome POVM and sample size of the MLE layer.
MLE_TRIALS = 1000


def metric_name(layer: str, dim: int, params: int) -> str:
    return f"grid.{layer}.d{dim}m{params}.ms"


def metric_names() -> list[str]:
    return [
        metric_name(layer, dim, params)
        for layer in LAYERS
        for dim, params in GRID
        if dim <= MAX_DIM.get(layer, dim)
    ]


def _median_ms(call) -> float:
    times = []
    spent = 0.0
    while len(times) < MAX_CALLS and spent < BUDGET_S:
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    return 1000.0 * statistics.median(times)


def _mle_objective_ms(circuit, theta, rng) -> float:
    probe = random_state(rng, circuit.dim)
    projector = np.outer(probe, probe.conj())
    povm = (projector, np.eye(circuit.dim) - projector)
    probs = qfisher.outcome_probabilities(circuit, theta, povm)
    batch = qfisher.sample_outcomes(probs, MLE_TRIALS, int(rng.integers(0, 2**31)))
    counter = Tracer(names=("estimator.loglikelihood",))
    counter.install()
    try:
        start = time.perf_counter()
        qfisher.mle_fit(batch, circuit, povm, theta)
        elapsed = time.perf_counter() - start
    finally:
        counter.uninstall()
    return 1000.0 * elapsed / max(1, len(counter.start))


def run_grid(seed: int) -> dict[str, float]:
    """Time every layer at every grid size; returns metric name -> ms."""
    rng = np.random.default_rng(seed)
    metrics = {}
    for dim, params in GRID:
        gens = [random_hermitian(rng, dim) for _ in range(params)]
        psi = random_state(rng, dim)
        theta = rng.uniform(-np.pi, np.pi, params)
        guess = guess_near(rng, theta, 0.02)
        circuit = qfisher.EncodingCircuit(gens, psi)
        effect = qfisher.kraus_from_estimate(circuit, guess, 0.5).effect
        timings = {
            "circuit_build": lambda: qfisher.EncodingCircuit(gens, psi),
            "evolve": lambda: qfisher.evolve(circuit, theta),
            "tangent_frame": lambda: qfisher.tangent_frame(circuit, theta),
            "geometric_tensor": lambda: qfisher.geometric_tensor(circuit, theta),
            "postselected_tensor": lambda: qfisher.postselected_geometric_tensor(
                circuit, theta, effect
            ),
        }
        if dim <= MAX_DIM["kd_table"]:
            timings["kd_table"] = lambda: qfisher.kd_distribution(circuit, theta, (0, 1), effect)
        for layer, call in timings.items():
            metrics[metric_name(layer, dim, params)] = _median_ms(call)
        if dim <= MAX_DIM["mle_objective"]:
            name = metric_name("mle_objective", dim, params)
            metrics[name] = _mle_objective_ms(circuit, theta, rng)
    return metrics
