"""Golden CLI outputs: every subcommand on every shipped scenario.

Each case stores its exit code and stdout in ``golden/<case>.out`` and, for
a command run with ``--csv``, the table in ``golden/<case>.csv``. Labels,
line structure and every non-numeric token must match exactly; numbers
match to 1e-9 relative or 1e-12 absolute, so BLAS roundoff (such as the
1e-17 imaginary parts of a commuting pair) cannot fail the test.

After an intended output change, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest

from qfisher.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = ("reference_qubit", "commuting_classical", "single_parameter_crb")

# A signed decimal or exponent literal; re.split keeps it at the odd indices.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _cases() -> dict:
    """Case name -> (argv, whether the run adds ``--csv``)."""
    cases = {
        "paper-example": (["paper-example"], False),
        "paper-example-t1-theta0.3": (["paper-example", "--t", "1", "--theta1", "0.3"], False),
        # A singular QFIM: the report prints "risk unavailable: ..." and exits 0.
        "paper-example-theta0": (["paper-example", "--theta1", "0"], False),
    }
    for name in SCENARIOS:
        scenario = ["--scenario", str(SCENARIO_DIR / f"{name}.json")]
        sweep = ["sweep", *scenario, "--t-list", "0.2,0.5,1"]
        cases[f"{name}-qfim"] = (["qfim", *scenario], True)
        cases[f"{name}-distill"] = (["distill", *scenario], False)
        cases[f"{name}-kd"] = (["kd", *scenario], False)
        cases[f"{name}-sweep"] = (sweep, False)
        cases[f"{name}-sweep-csv"] = (sweep, True)
        cases[f"{name}-crb"] = (["crb", *scenario, "--batches", "5"], True)
    return cases


CASES = _cases()


def _read(path: Path) -> str | None:
    """The file's text with its line endings as written, or None if absent."""
    return path.read_bytes().decode("utf-8") if path.exists() else None


def _run_case(name: str, workdir: Path) -> tuple[str, str | None]:
    """The case's ``.out`` text and its CSV text (None when no file is left)."""
    argv, with_csv = CASES[name]
    table = workdir / f"{name}.csv"
    if with_csv:
        argv = [*argv, "--csv", str(table)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n{stdout.getvalue()}", _read(table)


def _assert_close_text(actual: str, expected: str, where: str) -> None:
    got_lines = actual.splitlines(keepends=True)
    want_lines = expected.splitlines(keepends=True)
    assert len(got_lines) == len(want_lines), f"{where}: line count differs"
    for number, (got, want) in enumerate(zip(got_lines, want_lines), 1):
        got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
        assert got_parts[0::2] == want_parts[0::2], f"{where}:{number}: {got!r} != {want!r}"
        for a, b in zip(got_parts[1::2], want_parts[1::2]):
            assert math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12), (
                f"{where}:{number}: {a} != {b}"
            )


def test_close_text_tolerates_roundoff_only():
    _assert_close_text("a: 1e-17 -2\r\n", "a: -3e-18 -2.0000000000001\r\n", "ok")
    for actual in ("a: 1e-17 -2.1\r\n", "b: 0 -2\r\n", "a: 0 -2\n", "a: 0 -2 3\r\n"):
        with pytest.raises(AssertionError):
            _assert_close_text(actual, "a: 0 -2\r\n", "bad")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(tmp_path, name):
    out, table = _run_case(name, tmp_path)
    _assert_close_text(out, _read(GOLDEN_DIR / f"{name}.out"), f"{name}.out")
    expected_table = _read(GOLDEN_DIR / f"{name}.csv")
    assert (table is None) == (expected_table is None), f"{name}: --csv file presence"
    if table is not None:
        _assert_close_text(table, expected_table, f"{name}.csv")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for case in CASES:
            out, table = _run_case(case, Path(workdir))
            (GOLDEN_DIR / f"{case}.out").write_bytes(out.encode("utf-8"))
            if table is not None:
                (GOLDEN_DIR / f"{case}.csv").write_bytes(table.encode("utf-8"))

