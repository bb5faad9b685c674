"""Tests of the benchmark's own arithmetic and tracer, on fixed inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

import qfisher  # noqa: E402
from perfbench import perlayer, run  # noqa: E402
from perfbench.stats import self_times, tail_percentile  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_ten_samples_above_the_tail(self):
        samples = [float(v) for v in range(20, 0, -1)]
        percentile, value = tail_percentile(samples)
        self.assertEqual(value, 10.0)
        self.assertEqual(sum(s > value for s in samples), 10)
        self.assertAlmostEqual(percentile, 100.0 * 9 / 19)
        self.assertEqual(float(np.percentile(samples, percentile)), value)

    def test_larger_sample_moves_the_percentile_up(self):
        samples = list(range(1000))
        percentile, value = tail_percentile(samples)
        self.assertEqual(value, 989)
        self.assertAlmostEqual(percentile, 100.0 * 989 / 999)

    def test_eleven_samples_is_the_minimum(self):
        self.assertEqual(tail_percentile(range(11)), (0.0, 0))
        with self.assertRaises(ValueError):
            tail_percentile(range(10))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 6.0]
        parents = [-1, 0, 1, 0]
        self.assertEqual(self_times(starts, ends, parents), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        # Children [1, 5] and [4, 8] overlap on [4, 5]; [9, 12] overhangs the parent.
        starts = [0.0, 1.0, 4.0, 9.0]
        ends = [10.0, 5.0, 8.0, 12.0]
        parents = [-1, 0, 0, 0]
        self.assertEqual(self_times(starts, ends, parents)[0], 2.0)


def _small_circuit():
    rng = np.random.default_rng(0)
    gens = []
    for _ in range(3):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gens.append((raw + raw.conj().T) / 2.0)
    psi = np.ones(4, dtype=complex) / 2.0
    return qfisher.EncodingCircuit(gens, psi), np.array([0.1, 0.2, 0.3])


class TracerTest(unittest.TestCase):
    def test_spans_nest_and_self_times_add_up_to_the_item(self):
        circuit, theta = _small_circuit()
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.item(7):
                qfisher.qfim_pure(circuit, theta)
        finally:
            tracer.uninstall()
        arrays = tracer.arrays()
        names = [tracer.names[k] for k in arrays["name_id"]]
        self.assertEqual(names, ["item", "fisher.geometric_tensor", "circuit.tangent_frame"])
        self.assertEqual(list(arrays["parent"]), [-1, 0, 1])
        self.assertEqual(set(arrays["item_id"]), {7})
        item_duration = arrays["end"][0] - arrays["start"][0]
        self.assertAlmostEqual(float(tracer.self_times().sum()), item_duration, places=12)

    def test_uninstall_restores_every_namespace(self):
        original = qfisher.circuit.tangent_frame
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(qfisher.fisher.tangent_frame, original)
        self.assertIs(qfisher.fisher.tangent_frame, qfisher.tangent_frame)
        tracer.uninstall()
        for namespace in (qfisher, qfisher.circuit, qfisher.fisher):
            self.assertIs(namespace.tangent_frame, original)

    def test_missing_function_is_recorded_as_absent(self):
        tracer = Tracer(names=("circuit.no_such_function", "circuit.evolve"))
        tracer.install()
        tracer.uninstall()
        self.assertEqual(tracer.absent, ["circuit.no_such_function"])

    def test_hook_counts_from_arguments_and_result(self):
        circuit, theta = _small_circuit()
        effect = qfisher.kraus_from_estimate(circuit, theta, 0.5).effect
        tracer = Tracer(hooks=perlayer.HOOKS)
        tracer.install()
        try:
            qfisher.kd_distribution(circuit, theta, (0, 1), effect)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.counters["kirkwood.kd_distribution"], 16)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_the_runs_report(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual([m["name"] for m in spec["per_layer"]], perlayer.metric_names())
        metrics, _ = run.end_to_end([_Record(0.001 * k) for k in range(1, 30)], 1.0, [0.5], 10.0)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(metrics))
        self.assertEqual(
            [m["unit"] for m in spec["end_to_end"]], [unit for _, unit in metrics.values()]
        )

    def test_inputs_repeat_for_a_seed(self):
        workload = WORKLOADS["kd-pairs"]
        first = workload.generate(5, ROOT, ROOT / ".perfbench_out")
        second = workload.generate(5, ROOT, ROOT / ".perfbench_out")
        for a, b in zip(first["points"], second["points"]):
            self.assertTrue(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))
            self.assertEqual(a[2], b[2])


class _Record:
    def __init__(self, latency_s):
        self.latency_s = latency_s


if __name__ == "__main__":
    unittest.main()
