"""Per-layer metrics of a traced run, computed from its spans.

``<module>.<function>.calls`` counts the calls in the traced phase and
``<module>.<function>.self_ms`` is their self time per item. The derived
counts are measured where the work happens: at the span of the function
that does it, or by a hook on that function's arguments and result.
"""

from __future__ import annotations

import numpy as np

from . import grid
from .tracer import ITEM_SPAN, TRACED_NAMES

FIT_SCENARIOS = ("single_parameter_crb", "reference_qubit")

DERIVED = (
    "circuit.tangent_frame.calls_per_item",
    "linalg.herm_eig.calls_per_item",
    "estimator.loglikelihood.calls_per_fit",
    *(f"estimator.loglikelihood.calls_per_fit.{scenario}" for scenario in FIT_SCENARIOS),
    "estimator.mle_fit.boundary_hits",
    "kirkwood.kd_distribution.table_entries",
    "kirkwood.kd_distribution.self_frac",
    "cli.import_ms",
    "trace.item_ms",
    "trace.overhead_frac",
)

# Relative slack for calling an estimate clipped to the search-box edge.
EDGE_RTOL = 1e-12


# Functions traced through one extra set-up of the workload.
SETUP_TRACED = ("circuit.EncodingCircuit", "linalg.herm_eig", "scenario.load_scenario")


def metric_names() -> list[str]:
    names = [f"{name}.{kind}" for name in TRACED_NAMES for kind in ("calls", "self_ms")]
    names += [f"setup.{name}.{kind}" for name in SETUP_TRACED for kind in ("calls", "self_ms")]
    return names + list(DERIVED) + grid.metric_names()


def _table_entries(arguments, result) -> int:
    return int(result.table.shape[0] * result.table.shape[1])


def _boundary_hits(arguments, result) -> int:
    offset = np.abs(np.asarray(result) - np.asarray(arguments["theta_init"], dtype=float))
    radius = float(arguments["search_radius"])
    return int(np.any(offset >= radius * (1.0 - EDGE_RTOL)))


HOOKS = {
    "kirkwood.kd_distribution": _table_entries,
    "estimator.mle_fit": _boundary_hits,
}


def span_metrics(tracer, records, fit_scenario_of) -> dict[str, float]:
    """Metrics from the spans of the traced phase.

    ``records`` are that phase's items; ``fit_scenario_of`` maps an item
    kind to the shipped scenario its fits run on, if any.
    """
    arrays = tracer.arrays()
    name_id, parent, item_id = arrays["name_id"], arrays["parent"], arrays["item_id"]
    duration = arrays["end"] - arrays["start"]
    own = tracer.self_times()
    ids = {name: k for k, name in enumerate(tracer.names)}
    n_items = max(1, len(records))
    metrics = {}
    for name in TRACED_NAMES:
        mask = name_id == ids[name]
        metrics[f"{name}.calls"] = int(mask.sum())
        metrics[f"{name}.self_ms"] = 1000.0 * float(own[mask].sum()) / n_items

    for name in ("circuit.tangent_frame", "linalg.herm_eig"):
        metrics[f"{name}.calls_per_item"] = metrics[f"{name}.calls"] / n_items

    # Objective calls are the loglikelihood spans directly under an mle_fit span.
    parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)
    fits = name_id == ids["estimator.mle_fit"]
    objective = (name_id == ids["estimator.loglikelihood"]) & (
        parent_name == ids["estimator.mle_fit"]
    )
    metrics["estimator.loglikelihood.calls_per_fit"] = _ratio(objective.sum(), fits.sum())
    # Fit scenario of every span's item; spans outside items (id -1) read "".
    scenarios = np.full(int(item_id.max(initial=0)) + 2, "", dtype=object)
    for record in records:
        scenarios[record.index] = fit_scenario_of(record.kind) or ""
    scenarios = scenarios[item_id]
    for scenario in FIT_SCENARIOS:
        in_scenario = scenarios == scenario
        metrics[f"estimator.loglikelihood.calls_per_fit.{scenario}"] = _ratio(
            (objective & in_scenario).sum(), (fits & in_scenario).sum()
        )

    metrics["estimator.mle_fit.boundary_hits"] = tracer.counters["estimator.mle_fit"]
    entries = tracer.counters["kirkwood.kd_distribution"]
    metrics["kirkwood.kd_distribution.table_entries"] = entries / n_items

    # Share of the time of items that build a KD table spent in kd_distribution itself.
    items = name_id == ids[ITEM_SPAN]
    kd = name_id == ids["kirkwood.kd_distribution"]
    kd_items = np.isin(item_id, np.unique(item_id[kd]))
    metrics["kirkwood.kd_distribution.self_frac"] = _ratio(
        own[kd].sum(), duration[items & kd_items].sum()
    )
    metrics["trace.item_ms"] = 1000.0 * float(duration[items].mean()) if items.any() else 0.0
    return metrics


def setup_metrics(tracer) -> dict[str, float]:
    """Calls and self time of SETUP_TRACED in one traced set-up (not per item)."""
    arrays = tracer.arrays()
    own = tracer.self_times()
    metrics = {}
    for name in SETUP_TRACED:
        mask = arrays["name_id"] == tracer.names.index(name)
        metrics[f"setup.{name}.calls"] = int(mask.sum())
        metrics[f"setup.{name}.self_ms"] = 1000.0 * float(own[mask].sum())
    return metrics


def _ratio(numerator, denominator) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0
