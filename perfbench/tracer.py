"""Outside-in tracer: spans around qfisher's public functions.

The tracer edits no qfisher source. It rebinds each listed function to a
timing wrapper in every ``qfisher`` module namespace that binds it,
because the modules import functions by name and rebinding the defining
module alone would miss those calls. ``EncodingCircuit``
construction is traced through ``EncodingCircuit.__init__``. Spans are
kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from . import stats

# The package's layers and the public functions traced in each.
TRACED = {
    "linalg": ("herm_eig", "invert"),
    "circuit": ("EncodingCircuit", "evolve", "tangent_frame", "tilde_generator"),
    "fisher": (
        "geometric_tensor",
        "postselected_geometric_tensor",
        "classical_fim",
        "validate_povm",
        "require_effect",
    ),
    "distill": ("kraus_from_estimate", "distillation_report"),
    "kirkwood": ("analyze_pair", "kd_distribution", "eigenprojectors"),
    "estimator": ("run_crb_study", "mle_fit", "loglikelihood", "sample_outcomes"),
    "scenario": ("load_scenario", "build_circuit"),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)

ITEM_SPAN = "item"


def _qfisher_modules():
    return [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == "qfisher" or key.startswith("qfisher."))
    ]


class Tracer:
    """Records one span per call of each traced function.

    ``hooks`` maps a span name to ``hook(bound_arguments, result)``, which
    returns a number added to ``counters[span name]``; it counts work that
    only the call's arguments and result show.
    """

    def __init__(self, names=TRACED_NAMES, hooks=None):
        self.names = [ITEM_SPAN] + list(names)
        self.hooks = dict(hooks or {})
        self.counters = {name: 0 for name in self.hooks}
        self.absent: list[str] = []
        self.current_item = -1
        self.name_id = array("i")
        self.parent = array("i")
        self.item_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for span_id, full_name in enumerate(self.names):
            if full_name == ITEM_SPAN:
                continue
            module_name, attr = full_name.split(".")
            module = importlib.import_module(f"qfisher.{module_name}")
            target = getattr(module, attr, None)
            if target is None:
                self.absent.append(full_name)
                continue
            if inspect.isclass(target):
                original = target.__init__
                self._restore.append((target, "__init__", original))
                setattr(target, "__init__", self._wrap(span_id, original))
                continue
            wrapper = self._wrap(span_id, target)
            for namespace in _qfisher_modules():
                for key, value in list(vars(namespace).items()):
                    if value is target:
                        self._restore.append((namespace, key, value))
                        setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, span_id: int, fn):
        name_id, parent, item_id = self.name_id, self.parent, self.item_id
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self
        hook = self.hooks.get(self.names[span_id])
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(span_id)
            parent.append(stack[-1])
            item_id.append(tracer.current_item)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.counters[tracer.names[span_id]] += hook(bound.arguments, result)
            return result

        return traced

    @contextmanager
    def item(self, item_id: int):
        """Root span of one benchmark item; every traced call inside is its descendant."""
        self.current_item = item_id
        idx = len(self.start)
        self.name_id.append(0)
        self.parent.append(self._stack[-1])
        self.item_id.append(item_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self.current_item = -1

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item_id": np.frombuffer(self.item_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        return np.array(stats.self_times(self.start, self.end, self.parent))

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
