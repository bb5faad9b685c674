#!/usr/bin/env python3
"""qfisher benchmark: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload geometry-scan --seed 1 --seconds 45 --trace 0

Workloads: geometry-scan, kd-pairs, crb-small, cli-cold (see README.md);
BENCHMARK.json lists the two that repeat within its bounds on a shared host.
``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the workload untraced for half the time and traced for
the other half, then reports the per-layer metrics, the (D, M) layer grid
and the tracing overhead. The last line of standard output is the result
object; a run record and, when traced, the spans are written under
``.perfbench_out/``.

Nothing from NumPy or qfisher is imported before set-up timing starts, so
set-up time includes ``import qfisher``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("geometry-scan", "kd-pairs", "crb-small", "cli-cold")
SUBPROCESS_WORKLOADS = ("cli-cold",)
# Set-ups per run; set-up time is their median.
SETUP_REPEATS = 5
# Fresh interpreters timed for cli.import_ms in a traced run.
IMPORT_REPEATS = 3
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="time one set-up in this fresh interpreter, print it and exit",
    )
    return parser.parse_args(argv)


def missing_program() -> list[str]:
    needed = (ROOT / "src" / "qfisher" / "__init__.py", ROOT / "scenarios" / "reference_qubit.json")
    return [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]


# -- set-up ------------------------------------------------------------------


def timed_setup(workload_name: str, seed: int):
    """Import qfisher, generate inputs, build what the items reuse.

    Returns ``(setup_s, workload, state)``. Input generation is the
    benchmark's own work and is excluded from set-up time.
    """
    start = time.perf_counter()
    import qfisher  # noqa: F401

    imported = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = workload.generate(seed, ROOT, OUT)
    generated = time.perf_counter()
    state = workload.setup(inputs)
    return (imported - start) + (time.perf_counter() - generated), workload, state


def time_cli_import() -> float:
    start = time.perf_counter()
    import qfisher.cli  # noqa: F401

    return time.perf_counter() - start


def probe(args, cli_import: bool) -> float:
    """Set-up time (or ``import qfisher.cli`` time) of a fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    command += ["--workload", "cli-cold" if cli_import else args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# -- metrics -----------------------------------------------------------------


def end_to_end(records, wall_s: float, setups: list[float], peak_rss_mb: float):
    from perfbench.stats import tail_percentile

    latencies_ms = [1000.0 * record.latency_s for record in records]
    percentile, tail_ms = tail_percentile(latencies_ms)
    metrics = {
        "throughput_per_s": (len(records) / wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "samples": len(latencies_ms),
        "tail_percentile": percentile,
        "setup_samples": setups,
        "timed_wall_s": wall_s,
    }
    return metrics, detail


def kind_medians(records) -> dict[str, dict]:
    kinds: dict[str, list[float]] = {}
    for record in records:
        kinds.setdefault(record.kind, []).append(1000.0 * record.latency_s)
    return {
        kind: {"samples": len(values), "median_ms": statistics.median(values)}
        for kind, values in kinds.items()
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def check_records(workload, state, records) -> list[str]:
    """Failure messages: items that raised, then items that miss their check."""
    failures = [f"item {r.index} ({r.kind}): {r.error}" for r in records if r.error is not None]
    passed = [r for r in records if r.error is None]
    for record, problem in zip(passed, workload.check(state, passed)):
        if problem is not None:
            failures.append(f"item {record.index} ({record.kind}): {problem}")
    return failures


# -- run record --------------------------------------------------------------


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def blas_library() -> str | None:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return None


def environment(seed: int) -> dict:
    import numpy as np

    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines,
    }


# -- runs --------------------------------------------------------------------


def run_untraced(args, setup_s, workload, state):
    from perfbench.stats import TAIL_MIN_ABOVE
    from perfbench.workloads import run_loop

    subprocess_items = args.workload in SUBPROCESS_WORKLOADS
    records, wall = run_loop(workload, state, args.seconds, min_items=TAIL_MIN_ABOVE + 1)
    rss = peak_rss_mb(children=subprocess_items)
    failures = check_records(workload, state, records)
    if subprocess_items:
        setups = [probe(args, cli_import=True) for _ in range(SETUP_REPEATS)]
    else:
        setups = [setup_s] + [probe(args, cli_import=False) for _ in range(SETUP_REPEATS - 1)]
    metrics, detail = end_to_end(records, wall, setups, rss)
    detail["kinds"] = kind_medians(records)
    return records, failures, metrics, detail


def run_traced(args, workload, state):
    from perfbench import grid, perlayer
    from perfbench.tracer import Tracer
    from perfbench.workloads import run_loop

    setup_tracer = Tracer(names=perlayer.SETUP_TRACED)
    inputs = workload.generate(args.seed, ROOT, OUT)
    setup_tracer.install()
    try:
        workload.setup(inputs)
    finally:
        setup_tracer.uninstall()

    workload.in_process(state)
    half = args.seconds / 2.0
    plain, plain_wall = run_loop(workload, state, half)
    tracer = Tracer(hooks=perlayer.HOOKS)
    tracer.install()
    try:
        traced, traced_wall = run_loop(workload, state, half, first_index=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    failures = check_records(workload, state, plain + traced)
    metrics = perlayer.span_metrics(tracer, traced, workload.fit_scenario)
    metrics.update(perlayer.setup_metrics(setup_tracer))
    metrics["trace.overhead_frac"] = (len(plain) / plain_wall) / (len(traced) / traced_wall) - 1.0
    imports = [probe(args, cli_import=True) for _ in range(IMPORT_REPEATS)]
    metrics["cli.import_ms"] = 1000.0 * statistics.median(imports)
    metrics.update(grid.run_grid(args.seed))
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")
    detail = {"absent": tracer.absent, "spans": len(tracer.start), "kinds": kind_medians(traced)}
    # Every per-layer metric, in the order BENCHMARK.json lists them.
    reported = {name: (metrics[name], _unit(name)) for name in perlayer.metric_names()}
    return plain + traced, failures, reported, detail


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = missing_program()
    if missing:
        print(f"error: the qfisher sources are missing here: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    if args.setup_probe:
        if args.workload in SUBPROCESS_WORKLOADS:
            setup_s = time_cli_import()
        else:
            setup_s = timed_setup(args.workload, args.seed)[0]
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_s, workload, state = timed_setup(args.workload, args.seed)
    if args.trace:
        records, failures, metrics, detail = run_traced(args, workload, state)
    else:
        records, failures, metrics, detail = run_untraced(args, setup_s, workload, state)
    detail["failures"] = failures[:20]
    detail["failed_frac"] = len(failures) / len(records)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "detail": detail,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print("detail: " + json.dumps({k: v for k, v in detail.items() if k != "kinds"}))
    for kind, summary in detail["kinds"].items():
        print(f"kind {kind}: {summary['samples']} items, median {summary['median_ms']:.3f} ms")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
