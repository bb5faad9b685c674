"""Command-line front end.

Subcommands:

* ``qfim``          QFIM, curvature, quantumness and risk bracket.
* ``distill``       audit one postselection filter.
* ``kd``            quasiprobability analysis of a parameter pair.
* ``sweep``         distillation audit across transmissivities (CSV).
* ``paper-example`` built-in qubit example with pinned self-checks.
* ``crb``           seeded Monte Carlo check of the Cramér-Rao bound.

Exit codes: 0 success, 1 pinned check failed, 2 invalid input, 3
numerical degeneracy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import stat
import sys
import warnings

import numpy as np

from .circuit import EncodingCircuit
from .distill import distillation_report, kraus_from_estimate
from .errors import NumericError, ValidationError
from .estimator import run_crb_study
from .fisher import (
    curvature_from_tensor,
    geometric_quantumness,
    geometric_tensor,
    learnability_interval,
    qfim_from_tensor,
    qfim_pure,
)
from .kirkwood import analyze_pair
from .scenario import ScenarioConfig, build_circuit, load_scenario

# Regime ratio above which the 1/t^2 prediction stops being trustworthy.
REGIME_WARN_THRESHOLD = 0.1

_DEFAULT_EXAMPLE_T = 1.0 / math.sqrt(10.0)
_EXAMPLE_P_WINDOW = (0.08, 0.12)
_EXAMPLE_GRID_TOL = 1e-9
_EXAMPLE_ENTRY_RTOL = 0.25
_EXAMPLE_P_SLACK = 0.02


def fmt(value) -> str:
    """12 significant digits for terminal output."""
    return format(float(value), ".12g")


def fmt_csv(value) -> str:
    """17 significant digits for CSV: round-trips float64 exactly."""
    return f"{float(value):.17g}"


def print_matrix(label: str, matrix) -> None:
    print(f"{label}:")
    for row in np.atleast_2d(np.asarray(matrix, dtype=float)):
        print("  " + " ".join(fmt(v) for v in row))


def print_vector(label: str, vector) -> None:
    print(f"{label}: " + " ".join(fmt(v) for v in np.asarray(vector, dtype=float)))


def _scenario_circuit(args) -> tuple[ScenarioConfig, EncodingCircuit]:
    config = load_scenario(args.scenario)
    return config, build_circuit(config)


@contextlib.contextmanager
def _open_csv(path, columns, default=None):
    """Yield a CSV writer, header written, whose table goes to ``path`` (or
    ``default`` without one) only when the block ends without raising.

    The path is opened before any computation, so a bad one fails fast, but
    for appending, so a failed run leaves an earlier file as it was (and
    removes a file it created).
    """
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(columns)
    if path is None:
        yield writer
        if default is not None:
            default.write(buffer.getvalue())
        return
    created = not os.path.lexists(path)
    with open(path, "a", newline="", encoding="utf-8") as target:
        try:
            yield writer
        except BaseException:
            if created:
                os.unlink(path)
            raise
        if stat.S_ISREG(os.fstat(target.fileno()).st_mode):
            target.truncate(0)  # a device, FIFO or pipe has nothing to clear
        target.write(buffer.getvalue())


def _risk_line(label: str, bracket, trials: int) -> None:
    """The lower edge of a learnability bracket, or why there is none."""
    if bracket is None:
        print(f"{label}: unavailable (singular information matrix)")
    else:
        print(f"{label}: {fmt(bracket[0])} (trials {trials})")


def cmd_qfim(args) -> int:
    config, circuit = _scenario_circuit(args)
    with _open_csv(args.csv, ("i", "j", "qfim", "uhlmann")) as writer:
        tensor = geometric_tensor(circuit, config.theta_true)
        qfim = qfim_from_tensor(tensor)
        curvature = curvature_from_tensor(tensor)
        print_vector("theta_true", config.theta_true)
        print_matrix("qfim", qfim)
        print_matrix("uhlmann_curvature", curvature)
        for (i, j), entry in np.ndenumerate(qfim):
            writer.writerow([i, j, fmt_csv(entry), fmt_csv(curvature[i, j])])
        # Both of these need the inverse QFIM; a singular matrix aborts with
        # exit code 3 after the matrices above have been shown.
        print(f"geometric_quantumness: {fmt(geometric_quantumness(qfim, curvature))}")
        trials = 1 if config.trials is None else config.trials
        lower, upper = learnability_interval(qfim, config.weight, trials)
        print(f"risk_lower: {fmt(lower)}")
        print(f"risk_upper: {fmt(upper)}")
    return 0


def cmd_distill(args) -> int:
    config, circuit = _scenario_circuit(args)
    trials = 1 if config.trials is None else config.trials
    report = distillation_report(
        circuit, config.theta_true, config.theta_guess, config.t, config.weight, trials
    )
    print(f"transmissivity: {fmt(report.plan.transmissivity)}")
    print_vector("theta_true", report.theta_true)
    print_vector("theta_guess", report.plan.theta_guess)
    print(f"success_prob: {fmt(report.success_prob)}")
    print_matrix("qfim_undistilled", report.qfim_undistilled)
    print_matrix("qfim_postselected_exact", report.qfim_exact)
    print_matrix("qfim_postselected_predicted", report.qfim_predicted)
    print(f"lossless_residual: {fmt(report.lossless_residual)}")
    print(f"regime_ratio: {fmt(report.regime_ratio)}")
    if report.regime_ratio > REGIME_WARN_THRESHOLD:
        print(
            f"warning: regime_ratio {fmt(report.regime_ratio)} exceeds "
            f"{REGIME_WARN_THRESHOLD}; the 1/t^2 prediction may be unreliable"
        )
    _risk_line("risk_before", report.risk_before, trials)
    _risk_line("risk_after", report.risk_after, trials)
    return 0


def cmd_kd(args) -> int:
    config, circuit = _scenario_circuit(args)
    if config.kd_pair is None:
        raise ValidationError("scenario has no kd_pair; the kd command needs one")
    plan = kraus_from_estimate(circuit, config.theta_guess, config.t)
    analysis = analyze_pair(circuit, config.theta_true, config.kd_pair, plan.effect)
    print(f"pair: {analysis.pair[0]} {analysis.pair[1]}")
    print(f"success_prob: {fmt(analysis.success_prob)}")
    print_matrix("conditioned_real", np.real(analysis.conditioned))
    print_matrix("conditioned_imag", np.imag(analysis.conditioned))
    print(f"qfim_entry: {fmt(analysis.entry)}")
    print(f"classical_bound: {fmt(analysis.spread_i * analysis.spread_j)}")
    print(f"total_negativity: {fmt(analysis.total_negativity)}")
    print(f"classical: {'yes' if analysis.classical else 'no'}")
    print(f"consistency: {'PASS' if analysis.consistent else 'FAIL'}")
    return 0 if analysis.consistent else 1


_SWEEP_COLUMNS = (
    "t",
    "p_ps",
    "det_qfim_exact",
    "det_qfim_pred",
    "lossless_residual",
    "risk_lower",
    "risk_upper",
    "regime_ratio",
)


def _parse_t_list(raw: str) -> list[float]:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(float(token))
        except ValueError as exc:
            raise ValidationError(f"--t-list entry {token!r} is not a number") from exc
    if not values:
        raise ValidationError("--t-list is empty")
    return values


def _sweep_rows(config: ScenarioConfig, circuit: EncodingCircuit, t_values, trials: int) -> list:
    """One CSV row per transmissivity; a point that fails becomes a warning."""
    rows = []
    for t in t_values:
        try:
            report = distillation_report(
                circuit, config.theta_true, config.theta_guess, t, config.weight, trials
            )
        except (ValidationError, NumericError) as exc:
            warnings.warn(f"t={fmt(t)}: {exc}")
            continue
        lower, upper = report.risk_after or (math.nan, math.nan)
        rows.append(
            [
                fmt_csv(report.plan.transmissivity),
                fmt_csv(report.success_prob),
                fmt_csv(np.linalg.det(report.qfim_exact)),
                fmt_csv(np.linalg.det(report.qfim_predicted)),
                fmt_csv(report.lossless_residual),
                fmt_csv(lower),
                fmt_csv(upper),
                fmt_csv(report.regime_ratio),
            ]
        )
    return rows


def cmd_sweep(args) -> int:
    config, circuit = _scenario_circuit(args)
    t_values = _parse_t_list(args.t_list)
    trials = 1 if config.trials is None else config.trials
    with _open_csv(args.csv, _SWEEP_COLUMNS, sys.stdout) as writer:
        rows = _sweep_rows(config, circuit, t_values, trials)
        if not rows:
            raise NumericError("every sweep point failed")
        writer.writerows(rows)
    return 0


def _reference_circuit() -> EncodingCircuit:
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    diagonal = (sigma_x + sigma_z) / math.sqrt(2.0)
    return EncodingCircuit((sigma_x, diagonal), np.array([1.0, 0.0], dtype=complex))


def _reference_qfim_closed_form(theta1: float) -> np.ndarray:
    off = 2.0 * math.sqrt(2.0)
    return np.array([[4.0, off], [off, 3.0 - math.cos(4.0 * theta1)]])


def cmd_reference_example(args) -> int:
    t = args.t
    circuit = _reference_circuit()
    theta_true = np.array([args.theta1, math.pi / 4.0])
    theta_guess = theta_true + np.array([0.1, -0.1])

    checks: list[tuple[str, bool, str]] = []

    grid = np.linspace(0.0, math.pi / 2.0, 25)
    worst = 0.0
    for point in grid:
        computed = qfim_pure(circuit, np.array([point, math.pi / 4.0]))
        worst = max(worst, float(np.max(np.abs(computed - _reference_qfim_closed_form(point)))))
    checks.append(
        ("closed-form qfim over 25-point grid", worst <= _EXAMPLE_GRID_TOL, f"max dev {worst:.3e}")
    )

    report = distillation_report(circuit, theta_true, theta_guess, t)
    qfim = report.qfim_undistilled
    print_vector("theta_true", theta_true)
    print_vector("theta_guess", theta_guess)
    print(f"transmissivity: {fmt(t)}")
    print_matrix("qfim", qfim)
    print(f"success_prob: {fmt(report.success_prob)}")
    print_matrix("qfim_postselected_exact", report.qfim_exact)
    print_matrix("qfim_postselected_predicted", report.qfim_predicted)
    print(f"lossless_residual: {fmt(report.lossless_residual)}")

    if t == _DEFAULT_EXAMPLE_T:
        low, high = _EXAMPLE_P_WINDOW
        checks.append(
            (
                f"success probability in [{low}, {high}]",
                low <= report.success_prob <= high,
                f"p = {fmt(report.success_prob)}",
            )
        )
    checks.append(
        (
            "success probability near t^2",
            abs(report.success_prob - t * t) <= _EXAMPLE_P_SLACK,
            f"|p - t^2| = {abs(report.success_prob - t * t):.3e}",
        )
    )
    entry_dev = float(np.max(np.abs(report.qfim_exact / report.qfim_predicted - 1.0)))
    checks.append(
        (
            "postselected qfim within 25% of boost prediction",
            entry_dev <= _EXAMPLE_ENTRY_RTOL,
            f"worst entry dev {entry_dev:.3f}",
        )
    )

    analysis = analyze_pair(circuit, theta_true, (0, 1), report.plan.effect)
    bound = analysis.spread_i * analysis.spread_j
    print(f"kd_entry: {fmt(analysis.entry)}")
    print(f"kd_classical_bound: {fmt(bound)}")
    print(f"kd_total_negativity: {fmt(analysis.total_negativity)}")
    checks.append(
        (
            "negativity consistent with qfim entry",
            analysis.consistent,
            "classical distribution stays under the covariance bound",
        )
    )
    if abs(analysis.entry) > bound:
        checks.append(
            (
                "anomalous entry comes with nonclassical distribution",
                not analysis.classical,
                f"entry {fmt(analysis.entry)} beats bound {fmt(bound)}",
            )
        )

    try:
        lower, upper = learnability_interval(qfim)
        print(f"risk_lower: {fmt(lower)}")
        print(f"risk_upper: {fmt(upper)}")
    except NumericError as exc:
        print(f"risk unavailable: {exc}")

    failed = 0
    for name, passed, detail in checks:
        print(f"check {'PASS' if passed else 'FAIL'}: {name} ({detail})")
        if not passed:
            failed += 1
    print(f"overall: {'PASS' if failed == 0 else 'FAIL'}")
    return 0 if failed == 0 else 1


def cmd_crb(args) -> int:
    config, circuit = _scenario_circuit(args)
    missing = [
        name
        for name, value in (("povm", config.povm), ("trials", config.trials), ("seed", config.seed))
        if value is None
    ]
    if missing:
        raise ValidationError(f"scenario lacks fields needed by crb: {', '.join(missing)}")
    columns = ["batch", "seed"] + [f"estimate_{m}" for m in range(circuit.n_params)]
    with _open_csv(args.csv, columns) as writer:
        study = run_crb_study(
            circuit,
            config.theta_true,
            config.povm,
            config.trials,
            args.batches,
            config.seed,
            theta_init=config.theta_guess,
        )
        print(f"master_seed: {study.master_seed}")
        print(f"trials: {study.trials}")
        print(f"batches: {len(study.batches)}")
        print_matrix("crb_bound", study.comparison.bound)
        print_matrix("empirical_cov", study.comparison.empirical_cov)
        print(f"slack: {fmt(study.comparison.slack)}")
        for k, estimate in enumerate(study.estimates):
            writer.writerow([k, study.master_seed + k] + [fmt_csv(v) for v in estimate])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfisher",
        description="Fisher information, postselected distillation and "
        "quasiprobability analysis for pure-state encoding circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qfim", help="QFIM, curvature, quantumness and risk bracket")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--csv", help="write long-format matrix entries to this CSV file")
    p.set_defaults(func=cmd_qfim)

    p = sub.add_parser("distill", help="audit the postselection filter of a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("kd", help="quasiprobability analysis of the scenario's kd_pair")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.set_defaults(func=cmd_kd)

    p = sub.add_parser("sweep", help="distillation audit across transmissivities")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--t-list", required=True, dest="t_list", help="comma-separated transmissivities")
    p.add_argument("--csv", help="write the sweep table here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "paper-example",
        help="built-in two-parameter qubit example with pinned self-checks",
    )
    p.add_argument("--theta1", type=float, default=math.pi / 4.0, help="first true parameter")
    p.add_argument("--t", type=float, default=_DEFAULT_EXAMPLE_T, help="transmissivity")
    p.set_defaults(func=cmd_reference_example)

    p = sub.add_parser("crb", help="seeded Monte Carlo check of the Cramér-Rao bound")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--batches", type=int, default=50, help="number of seeded batches")
    p.add_argument("--csv", help="write per-batch estimates to this CSV file")
    p.set_defaults(func=cmd_crb)

    return parser


def main(argv=None) -> int:
    """Run one command, then print its warnings and its error line, if any, to stderr."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, error = _run(args)
    tail = [] if error is None else [error]
    for line in [f"warning: {item.message}" for item in caught] + tail:
        print(line, file=sys.stderr)
    return code


def _run(args) -> tuple[int, str | None]:
    try:
        return args.func(args), None
    except (ValidationError, OSError, UnicodeDecodeError) as exc:
        return 2, f"error: {exc}"
    except json.JSONDecodeError as exc:
        return 2, f"error: scenario is not valid JSON: {exc}"
    except NumericError as exc:
        return 3, f"numeric error: {exc}"


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
