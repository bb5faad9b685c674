import contextlib
import copy
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfisher.cli
import qfisher.distill
from qfisher import NumericError, ScenarioConfig, save_scenario
from qfisher.cli import build_parser, fmt, fmt_csv, main

from helpers import SIGMA_X

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
REFERENCE = str(SCENARIO_DIR / "reference_qubit.json")
COMMUTING = str(SCENARIO_DIR / "commuting_classical.json")
SINGLE = str(SCENARIO_DIR / "single_parameter_crb.json")

# Stands for a 5000-digit integer literal, which Python's int() refuses to
# read (and json.dumps to write) past its default limit of 4300 digits.
PAST_DIGIT_LIMIT = "<5000 digits>"


def _singular_scenario(path):
    config = ScenarioConfig(
        dim=2,
        generators=(SIGMA_X, SIGMA_X),  # identical generators: rank-1 QFIM
        initial_state=np.array([1.0, 0.0], dtype=complex),
        theta_true=np.array([0.3, 0.4]),
        theta_guess=np.array([0.3, 0.4]),
        t=0.5,
    )
    save_scenario(config, path)
    return str(path)


def _huge_trials_scenario(path):
    data = json.loads(Path(SINGLE).read_text())
    data["trials"] = 2**63
    path.write_text(json.dumps(data))
    return str(path)


def test_formatters():
    assert fmt(4.0) == "4"
    assert fmt(math.pi) == "3.14159265359"
    assert fmt_csv(0.1) == "0.10000000000000001"


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([])
    assert excinfo.value.code == 2


def test_qfim_command(capsys):
    assert main(["qfim", "--scenario", REFERENCE]) == 0
    out = capsys.readouterr().out
    assert "qfim:" in out
    assert "uhlmann_curvature:" in out
    assert "geometric_quantumness: 1" in out
    assert "risk_lower: 0.0001" in out
    assert "risk_upper: 0.0002" in out


def test_qfim_csv_is_byte_stable(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["qfim", "--scenario", REFERENCE, "--csv", str(first)]) == 0
    assert main(["qfim", "--scenario", REFERENCE, "--csv", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().strip().splitlines()
    assert lines[0] == "i,j,qfim,uhlmann"
    assert len(lines) == 1 + 4  # header plus a row per matrix entry


def test_qfim_singular_exits_3(tmp_path, capsys):
    path = _singular_scenario(tmp_path / "singular.json")
    assert main(["qfim", "--scenario", path]) == 3
    captured = capsys.readouterr()
    assert "numeric error" in captured.err
    # the matrices are computed before the inversion fails, but a failed run
    # prints nothing to stdout
    assert captured.out == ""


def test_distill_command_prints_regime_warning(capsys):
    assert main(["distill", "--scenario", REFERENCE]) == 0
    out = capsys.readouterr().out
    assert "success_prob: 0.1052021574" in out
    assert "lossless_residual:" in out
    assert "warning: regime_ratio 0.2 exceeds 0.1" in out
    assert "risk_before: 0.0001 " in out
    assert "risk_after:" in out


def test_kd_command_reference(capsys):
    assert main(["kd", "--scenario", REFERENCE]) == 0
    out = capsys.readouterr().out
    assert "classical: no" in out
    assert "consistency: PASS" in out
    assert "classical_bound: 4" in out


def test_kd_command_commuting_is_classical(capsys):
    assert main(["kd", "--scenario", COMMUTING]) == 0
    out = capsys.readouterr().out
    assert "success_prob: 1" in out
    assert "classical: yes" in out
    assert "consistency: PASS" in out


def test_kd_command_requires_pair(capsys):
    assert main(["kd", "--scenario", SINGLE]) == 2
    assert "kd_pair" in capsys.readouterr().err


def test_sweep_to_stdout(capsys):
    assert main(["sweep", "--scenario", REFERENCE, "--t-list", "0.5,1.0"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "t,p_ps,det_qfim_exact,det_qfim_pred,lossless_residual,risk_lower,risk_upper,regime_ratio"
    assert len(lines) == 3
    assert lines[1].startswith("0.5,")
    assert lines[2].startswith("1,")


def test_sweep_csv_matches_stdout(tmp_path, capsys):
    assert main(["sweep", "--scenario", REFERENCE, "--t-list", "0.4,0.9"]) == 0
    stdout_table = capsys.readouterr().out
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", REFERENCE, "--t-list", "0.4,0.9", "--csv", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text().replace("\r\n", "\n") == stdout_table.replace("\r\n", "\n")


def test_sweep_partial_failure_keeps_going(capsys):
    assert main(["sweep", "--scenario", REFERENCE, "--t-list", "2.0,0.5"]) == 0
    captured = capsys.readouterr()
    assert "warning: t=2" in captured.err
    assert captured.out.count("\n") == 2  # header plus the surviving row
    # An exact guess: t = 2 fails validation, and t = 1e-7 drives the success
    # probability t^2 under the floor.
    assert main(["sweep", "--scenario", COMMUTING, "--t-list", "2.0,1e-7,0.5"]) == 0
    captured = capsys.readouterr()
    warnings = captured.err.splitlines()
    assert len(warnings) == 2
    assert warnings[0].startswith("warning: t=2: ") and "transmissivity" in warnings[0]
    assert warnings[1].startswith("warning: t=1e-07: ") and "probability" in warnings[1]
    assert captured.out.count("\n") == 2
    assert captured.out.splitlines()[1].startswith("0.5,")


def test_sweep_risk_columns_come_from_the_bracket(monkeypatch, capsys):
    # The learnability bracket has one owner: the CSV copies both of its edges.
    monkeypatch.setattr(
        qfisher.distill, "learnability_interval", lambda fim, weight=None, trials=1: (1.0, 3.0)
    )
    assert main(["sweep", "--scenario", REFERENCE, "--t-list", "0.5"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(row["risk_lower"], row["risk_upper"]) for row in rows] == [("1", "3")]


def test_sweep_all_failures_exit_3(tmp_path, capsys):
    argv = ["sweep", "--scenario", REFERENCE, "--t-list", "2.0,3.0"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("warning: t=2: ") and lines[1].startswith("warning: t=3: ")
    assert lines[2] == "numeric error: every sweep point failed"
    target = tmp_path / "keep.csv"
    target.write_bytes(b"earlier,run\r\n1,2\r\n")
    assert main([*argv, "--csv", str(target)]) == 3
    assert capsys.readouterr().err.splitlines() == lines
    assert target.read_bytes() == b"earlier,run\r\n1,2\r\n"


def test_sweep_bad_t_list(capsys):
    assert main(["sweep", "--scenario", REFERENCE, "--t-list", "0.5,abc"]) == 2
    assert "abc" in capsys.readouterr().err


def test_sweep_empty_t_list(capsys):
    assert main(["sweep", "--scenario", REFERENCE, "--t-list", ","]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --t-list is empty\n"


def test_scenario_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    assert main(["qfim", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scenario must be a JSON object, got list\n"


def test_reference_example_default_passes(capsys):
    assert main(["paper-example"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "check FAIL" not in out
    assert "success probability in [0.08, 0.12]" in out


def test_reference_example_accepts_overrides(capsys):
    assert main(["paper-example", "--theta1", "0.6", "--t", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    # the pinned probability window only applies at the default t
    assert "[0.08, 0.12]" not in out


def test_reference_example_rejects_bad_t(capsys):
    # The library's checks are the only rule for --t and --theta1.
    for argv, wording in (
        (["--t", "0"], "transmissivity must lie in (0, 1], got 0.0"),
        (["--t", "nan"], "transmissivity must lie in (0, 1], got nan"),
        (["--t", "1.5"], "transmissivity must lie in (0, 1], got 1.5"),
        (["--t", "1e-200"], "t^2 underflows"),
        (["--theta1", "nan"], "theta_true contains non-finite entries"),
        (["--theta1", "inf"], "theta_true contains non-finite entries"),
    ):
        assert main(["paper-example", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert wording in captured.err


def test_reference_example_builds_one_filter(monkeypatch, capsys):
    calls = []
    original = qfisher.distill.evolve

    def counting(circuit, theta):
        calls.append(theta)
        return original(circuit, theta)

    monkeypatch.setattr(qfisher.distill, "evolve", counting)
    assert main(["paper-example"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert len(calls) == 1


def _stdout_lines(argv, capsys) -> list[str]:
    main(argv)
    return capsys.readouterr().out.splitlines()


def test_reference_example_prints_the_distill_and_kd_blocks(capsys):
    # The built-in circuit is the shipped reference scenario's, so the
    # example's report and KD blocks are the distill and kd outputs on it.
    example = _stdout_lines(["paper-example"], capsys)
    distill = _stdout_lines(["distill", "--scenario", REFERENCE], capsys)
    kd = _stdout_lines(["kd", "--scenario", REFERENCE], capsys)
    checks = [line for line in example if line.startswith(("check ", "overall: "))]
    assert example[len(distill) + len(kd) :] == checks
    report, pair = example[: len(distill)], example[len(distill) : len(distill) + len(kd)]
    assert pair == kd

    def split(lines):
        risks = [line for line in lines if line.startswith(("risk_before: ", "risk_after: "))]
        return [line for line in lines if line not in risks], risks

    (report_rest, report_risks), (distill_rest, distill_risks) = split(report), split(distill)
    assert report_rest == distill_rest
    # The scenario sets trials 10000 and an identity weight; the example uses 1 trial.
    assert [line.split()[0] for line in report_risks] == ["risk_before:", "risk_after:"]
    for mine, theirs in zip(report_risks, distill_risks):
        assert mine.endswith(" (trials 1)") and theirs.endswith(" (trials 10000)")
        assert math.isclose(float(mine.split()[1]), 1e4 * float(theirs.split()[1]), rel_tol=1e-12)


def test_reference_example_reads_its_risk_off_the_report(monkeypatch, capsys):
    calls = []
    original = qfisher.distill.learnability_interval

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qfisher.distill, "learnability_interval", counting)
    monkeypatch.setattr(qfisher.cli, "learnability_interval", counting)
    assert main(["paper-example"]) == 0
    assert "risk_before: 1 (trials 1)" in capsys.readouterr().out
    assert len(calls) == 2  # the report's before and after brackets


def test_reference_example_failed_check_still_prints(capsys):
    # A failed check is a completed run: exit 1, with the whole stdout written.
    assert main(["paper-example", "--t", "0.05"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "transmissivity: 0.05"
    failed = "check FAIL: postselected qfim within 25% of boost prediction (worst entry dev 0.909)"
    assert failed in lines
    assert lines[-1] == "overall: FAIL"
    assert captured.err == ""


def test_reference_example_failing_after_its_report_prints_nothing(monkeypatch, capsys):
    # The report is printed before the KD step runs; a numeric failure there
    # still leaves stdout empty.
    def singular(*args):
        raise NumericError("matrix is singular")

    monkeypatch.setattr(qfisher.cli, "analyze_pair", singular)
    assert main(["paper-example"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric error: matrix is singular\n"


def test_crb_command(tmp_path, capsys):
    path = tmp_path / "batches.csv"
    assert main(["crb", "--scenario", SINGLE, "--batches", "5", "--csv", str(path)]) == 0
    out = capsys.readouterr().out
    assert "master_seed: 20240817" in out
    assert "crb_bound:" in out
    assert "slack:" in out
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "batch,seed,estimate_0"
    assert len(lines) == 6
    assert lines[1].split(",")[1] == "20240817"


def test_crb_prints_python_warnings_as_lines(tmp_path, capsys):
    # sigma_x qubit barely rotated: the z-basis outcome 1 has probability
    # 1e-14 but a nonzero slope, so classical_fim warns that the FIM diverges.
    config = ScenarioConfig(
        dim=2,
        generators=(SIGMA_X,),
        initial_state=np.array([1.0, 0.0], dtype=complex),
        theta_true=np.array([1e-7]),
        theta_guess=np.array([1e-7]),
        t=1.0,
        povm=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        trials=10000,
        seed=20240817,
    )
    path = tmp_path / "divergent.json"
    save_scenario(config, path)
    assert main(["crb", "--scenario", str(path), "--batches", "5"]) == 0
    err = capsys.readouterr().err
    assert "warning: outcome 1 has probability" in err
    assert "DivergentInformationWarning" not in err


def test_crb_requires_sampling_fields(capsys):
    assert main(["crb", "--scenario", COMMUTING]) == 2
    err = capsys.readouterr().err
    assert "povm" in err and "trials" in err and "seed" in err


def test_crb_rejects_too_few_batches(tmp_path, capsys):
    assert main(["crb", "--scenario", SINGLE, "--batches", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: batches must be an integer >= 2, got 1\n"
    # The library refuses the count inside the --csv block, which leaves no file.
    path = tmp_path / "new.csv"
    assert main(["crb", "--scenario", SINGLE, "--batches", "1", "--csv", str(path)]) == 2
    capsys.readouterr()
    assert not path.exists()


def test_crb_refuses_huge_trials_but_qfim_runs(tmp_path, capsys):
    # trials also counts copies for the risk bracket, so the scenario loads;
    # only sampling refuses a batch it could not hold in memory.
    path = _huge_trials_scenario(tmp_path / "huge_trials.json")
    assert main(["crb", "--scenario", path, "--batches", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trials must be at most 100000000, got 9223372036854775808\n"
    assert main(["qfim", "--scenario", path]) == 0
    assert "risk_lower:" in capsys.readouterr().out


def test_missing_scenario_file(tmp_path, capsys):
    # a missing file, a directory, non-UTF-8 bytes, nesting too deep to parse
    # and a directory as --csv are all unreadable input: exit 2 with an error
    # line, no traceback. The --csv target is checked before any computation,
    # so nothing is printed.
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"name": "\xff"}')
    deep = tmp_path / "deep.json"
    deep.write_text('{"generators": ' + "[" * 100_000 + "]" * 100_000 + "}")
    absent = tmp_path / "no-such-dir" / "out.csv"
    for argv in (
        ["qfim", "--scenario", "no-such-file.json"],
        ["qfim", "--scenario", str(tmp_path)],
        ["qfim", "--scenario", str(not_utf8)],
        ["qfim", "--scenario", str(deep)],
        ["qfim", "--scenario", REFERENCE, "--csv", str(tmp_path)],
        ["crb", "--scenario", SINGLE, "--batches", "5", "--csv", str(tmp_path)],
        ["sweep", "--scenario", REFERENCE, "--t-list", "0.5", "--csv", str(tmp_path)],
        ["sweep", "--scenario", REFERENCE, "--t-list", "0.5", "--csv", str(absent)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert captured.out == ""
    assert repr(str(absent)) in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["qfim", "--scenario", REFERENCE],
        ["sweep", "--scenario", REFERENCE, "--t-list", "0.5"],
        ["crb", "--scenario", SINGLE, "--batches", "5"],
    ],
    ids=["qfim", "sweep", "crb"],
)
def test_empty_csv_path_exits_2_before_any_output(capsys, argv):
    # An empty path is a path open() refuses, not a missing --csv.
    assert main([*argv, "--csv", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize(
    "command, failing, code, passing",
    [
        ("qfim", ["--scenario", _singular_scenario], 3, ["--scenario", REFERENCE]),
        (
            "sweep",
            ["--scenario", REFERENCE, "--t-list", "2"],
            3,
            ["--scenario", REFERENCE, "--t-list", "0.4,0.9"],
        ),
        (
            "crb",
            ["--scenario", _huge_trials_scenario, "--batches", "5"],
            2,
            ["--scenario", SINGLE, "--batches", "5"],
        ),
    ],
    ids=["qfim", "sweep", "crb"],
)
def test_failed_run_keeps_an_earlier_csv(tmp_path, capsys, command, failing, code, passing):
    """--csv replaces its target only when the command succeeds."""
    failing = [arg(tmp_path / "scenario.json") if callable(arg) else arg for arg in failing]
    target = tmp_path / "out" / "keep.csv"
    target.parent.mkdir()
    target.write_bytes(b"earlier,run\r\n1,2\r\n")
    assert main([command, *failing, "--csv", str(target)]) == code
    assert target.read_bytes() == b"earlier,run\r\n1,2\r\n"
    assert main([command, *failing, "--csv", str(tmp_path / "out" / "new.csv")]) == code
    assert sorted(p.name for p in target.parent.iterdir()) == ["keep.csv"]
    # A successful run over the old file writes what it writes to a new path.
    fresh = tmp_path / "fresh.csv"
    assert main([command, *passing, "--csv", str(fresh)]) == 0
    assert main([command, *passing, "--csv", str(target)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == fresh.read_bytes()
    assert sorted(p.name for p in target.parent.iterdir()) == ["keep.csv"]
    # The new file gets the mode open() gives one; an existing file keeps its own.
    with open(tmp_path / "opened.csv", "w"):
        pass
    assert fresh.stat().st_mode == (tmp_path / "opened.csv").stat().st_mode
    target.chmod(0o640)
    assert main([command, *passing, "--csv", str(target)]) == 0
    capsys.readouterr()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert target.read_bytes() == fresh.read_bytes()


def test_csv_writes_into_a_fifo_and_leaves_it_one(tmp_path, capsys):
    argv = ["sweep", "--scenario", REFERENCE, "--t-list", "0.4,0.9", "--csv"]
    fresh = tmp_path / "fresh.csv"
    assert main([*argv, str(fresh)]) == 0
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main([*argv, str(fifo)]) == 0
    reader.join(timeout=30)
    assert received == [fresh.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_invalid_json_scenario(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    assert main(["qfim", "--scenario", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_schema_error_reports_field(tmp_path, capsys):
    data = json.loads((SCENARIO_DIR / "reference_qubit.json").read_text())
    data["t"] = 2.0
    path = tmp_path / "bad_t.json"
    path.write_text(json.dumps(data))
    assert main(["qfim", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "error: t must lie in (0, 1], got 2.0\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("theta_guess", [math.nan, 0.0], "theta_guess[0]: expected a finite number"),
        ("t", math.inf, "t: expected a finite number"),
        ("weight", [[1.0, 0.0], [0.0, -1.0]], "weight must be positive definite"),
        pytest.param(
            "theta_true", [10**400, 0.5], "theta_true[0]: expected a finite number", id="huge-int"
        ),
        pytest.param("t", 10**400, "t: expected a finite number", id="huge-int-t"),
        pytest.param(
            "theta_true",
            [PAST_DIGIT_LIMIT, 0.5],
            "theta_true[0]: expected a finite number",
            id="int-past-digit-limit",
        ),
        pytest.param(
            "t", 1e-200, "t 1e-200 is too small: t^2 underflows a normal float", id="underflowing-t"
        ),
        pytest.param(
            "trials",
            10**400,
            f"trials must be at most {sys.float_info.max}, got {10**400}",
            id="huge-int-trials",
        ),
    ],
)
@pytest.mark.parametrize(
    "command",
    [["qfim"], ["kd"], ["distill"], ["sweep", "--t-list", "0.5,1"], ["crb", "--batches", "5"]],
)
def test_invalid_scenario_numbers_exit_2_before_any_output(
    tmp_path, capsys, key, value, message, command
):
    data = json.loads((SCENARIO_DIR / "reference_qubit.json").read_text())
    data[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data).replace(f'"{PAST_DIGIT_LIMIT}"', "9" * 5000))
    assert main([command[0], "--scenario", str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["qfim", "kd", "distill", "crb"])
def test_bad_povm_exits_2_before_any_output(tmp_path, capsys, command):
    data = json.loads((SCENARIO_DIR / "reference_qubit.json").read_text())
    data["povm"][0] = [[[5.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = tmp_path / "bad_povm.json"
    path.write_text(json.dumps(data))
    assert main([command, "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: povm[0] exceeds the identity: max eigenvalue 5.000e+00\n"


SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.json"))}
DELETE = object()
# Stand-ins for a field or an array entry, numbers drawn half the time. 10**30
# is a trials past MAX_TRIALS; none is a trials between 10**5 and MAX_TRIALS,
# whose batch crb would hold in memory (1.6 GB at 10**8).
NUMBERS = (0, -1, 2, 0.5, 1e-200, 1e308, 10**30)
OTHERS = (DELETE, None, True, False, "x", "", [], [0.5, [0.5]], {}, {"re": 0.5})


@st.composite
def scenario_mutations(draw):
    """A shipped scenario's name, a path to a field or to one entry deep in an
    array, and the value put there (DELETE removes it)."""
    name = draw(st.sampled_from(sorted(SHIPPED)))
    data = SHIPPED[name]
    keys = set(data) | {"weight", "kd_pair", "povm", "trials", "seed"}
    path = [draw(st.sampled_from(sorted(keys)))]
    node = data.get(path[0])
    if draw(st.booleans()):
        while isinstance(node, list) and node:
            path.append(draw(st.integers(0, len(node) - 1)))
            node = node[path[-1]]
    return name, tuple(path), draw(st.sampled_from(NUMBERS) | st.sampled_from(OTHERS))


def _mutated(name, path, value) -> dict:
    data = copy.deepcopy(SHIPPED[name])
    node = data
    for step in path[:-1]:
        node = node[step]
    if value is not DELETE:
        node[path[-1]] = value
    elif isinstance(node, list) or path[-1] in node:
        del node[path[-1]]
    return data


@settings(deadline=None, derandomize=True, max_examples=60)
@given(scenario_mutations())
# theta_true = [0, 0] makes the reference QFIM [[4, 2*sqrt(2)], [2*sqrt(2), 2]] singular.
@example(("reference_qubit", ("theta_true",), [0, 0]))
def test_cli_contract_on_mutated_scenarios(mutation):
    """Every scenario command on a mutated scenario raises nothing and exits 0,
    2 or 3 (1 only for kd's verdict). A failed run prints nothing to stdout,
    ends stderr with its error line and leaves an earlier --csv file as it was."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario, target = Path(tmp) / "scenario.json", Path(tmp) / "earlier.csv"
        scenario.write_text(json.dumps(_mutated(*mutation)))
        for argv in (
            ["qfim", "--csv", str(target)],
            ["distill"],
            ["kd"],
            ["sweep", "--t-list", "0.5,1"],
            ["crb", "--batches", "3", "--csv", str(target)],
        ):
            target.write_bytes(b"earlier,run\r\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--scenario", str(scenario)])
            lines = err.getvalue().splitlines()
            assert code in ({0, 1, 2, 3} if argv[0] == "kd" else {0, 2, 3}), (argv, lines)
            if code < 2:
                assert all(line.startswith("warning: ") for line in lines), (argv, lines)
                continue
            assert out.getvalue() == "", (argv, lines)
            assert lines[-1].startswith(("error: ", "numeric error: ")), (argv, lines)
            assert all(line.startswith("warning: ") for line in lines[:-1]), (argv, lines)
            assert target.read_bytes() == b"earlier,run\r\n", argv


def test_import_footprint_is_numpy_alone():
    """Importing the CLI loads no third-party package but numpy: start-up time
    is the interpreter's, numpy's and this package's own."""
    probe = (
        "import sys; before = set(sys.modules); import qfisher.cli; "
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(' '.join(sorted(added - set(sys.stdlib_module_names))))"
    )
    source = str(Path(qfisher.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == ["numpy", "qfisher"]
