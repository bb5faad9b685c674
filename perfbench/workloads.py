"""The four benchmark workloads: seeded inputs, items and correctness checks.

Every workload is a closed loop with one client. Its items follow a fixed
cycle of item kinds, and the loop only stops at the end of a cycle, so
each run holds every kind in the same proportion. Each cycle has an odd
number of items, which keeps the median inside one kind's cluster of
latencies rather than on the edge between two.

qfisher is called only through its public names, looked up on the
``qfisher`` package at call time so that the tracer's wrappers see every
call. The workload seed drives all inputs; qfisher receives only the
generated values.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qfisher
import qfisher.cli

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Central-difference step for the independent QFIM check.
FD_STEP = 1e-5
# Agreement required between the analytic and finite-difference QFIM,
# relative to the largest entry.
FD_RTOL = 1e-6
# Agreement required between two routes to one exact quantity.
EXACT_RTOL = 1e-8


# -- seeded generators ------------------------------------------------------


def random_hermitian(rng, dim: int) -> np.ndarray:
    """Dense Hermitian matrix with spectral radius of order one."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / (2.0 * np.sqrt(dim))


def random_state(rng, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_unitary(rng, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pauli_strings(rng, n_qubits: int, count: int) -> list[np.ndarray]:
    """Distinct non-identity Pauli strings: spectrum +-1, each half degenerate."""
    codes = rng.choice(np.arange(1, 4**n_qubits), size=count, replace=False)
    strings = []
    for code in codes:
        mat = np.ones((1, 1), dtype=complex)
        for _ in range(n_qubits):
            mat = np.kron(mat, PAULI[int(code) % 4])
            code = int(code) // 4
        strings.append(mat)
    return strings


def guess_near(rng, theta, error: float) -> np.ndarray:
    return theta + error * rng.normal(size=theta.shape)


# -- closed loop ----------------------------------------------------------


@dataclass
class ItemRecord:
    index: int
    kind: str
    latency_s: float
    output: object = None
    error: str | None = None


class Workload:
    """One workload. Subclasses fill in the hooks below.

    ``generate`` makes the inputs from the seed and is not part of set-up
    time; ``setup`` builds what the items reuse and is; ``run_item``
    executes item ``index`` of kind ``cycle[index % len(cycle)]``;
    ``check`` returns a failure message per record, or None.
    """

    name = ""
    cycle: tuple[str, ...] = ()

    def generate(self, seed: int, root: Path, scratch: Path):
        raise NotImplementedError

    def setup(self, inputs):
        raise NotImplementedError

    def run_item(self, state, index: int):
        raise NotImplementedError

    def check(self, state, records: list[ItemRecord]) -> list[str | None]:
        raise NotImplementedError

    def in_process(self, state) -> None:
        """Switch to in-process items (the traced run of a subprocess workload)."""

    def fit_scenario(self, kind: str) -> str | None:
        """Shipped scenario whose MLE fits items of this kind run, if any."""
        return None


def run_loop(
    workload: Workload, state, seconds: float, first_index: int = 0, tracer=None, min_items: int = 0
):
    """Run whole cycles until ``seconds`` of wall time and ``min_items`` items have passed.

    Returns the item records and the timed wall time. Exceptions from an
    item are recorded as its failure; the loop goes on.
    """
    clock = time.perf_counter
    records = []
    index = first_index
    begin = clock()
    while True:
        for kind in workload.cycle:
            scope = tracer.item(index) if tracer is not None else contextlib.nullcontext()
            output = error = None
            start = clock()
            with scope:
                try:
                    output = workload.run_item(state, index)
                except Exception as exc:  # an item failure, counted, never fatal
                    error = f"{type(exc).__name__}: {exc}"
            records.append(ItemRecord(index, kind, clock() - start, output, error))
            index += 1
        if clock() - begin >= seconds and len(records) >= min_items:
            return records, clock() - begin


# -- geometry-scan --------------------------------------------------------


class GeometryScan(Workload):
    """Dense D=128, M=16 circuits: QFIM, curvature, quantumness, distillation."""

    name = "geometry-scan"
    cycle = ("qfim+curvature+quantumness+report",)
    DIM, PARAMS, CIRCUITS, POINTS = 128, 16, 2, 64
    GUESS_ERROR, T = 0.02, 0.3

    def generate(self, seed, root, scratch):
        rng = np.random.default_rng(seed)
        circuits = []
        for _ in range(self.CIRCUITS):
            gens = [random_hermitian(rng, self.DIM) for _ in range(self.PARAMS)]
            circuits.append((gens, random_state(rng, self.DIM)))
        points = []
        for _ in range(self.POINTS):
            theta = rng.uniform(-np.pi, np.pi, self.PARAMS)
            points.append((theta, guess_near(rng, theta, self.GUESS_ERROR)))
        return {"circuits": circuits, "points": points, "fd_offset": int(rng.integers(8))}

    def setup(self, inputs):
        circuits = [qfisher.EncodingCircuit(gens, psi) for gens, psi in inputs["circuits"]]
        return {**inputs, "circuits": circuits}

    def _point(self, state, index):
        theta, guess = state["points"][index % self.POINTS]
        return state["circuits"][index % self.CIRCUITS], theta, guess

    def run_item(self, state, index):
        circuit, theta, guess = self._point(state, index)
        qfim = qfisher.qfim_pure(circuit, theta)
        curvature = qfisher.uhlmann_curvature(circuit, theta)
        quantumness = qfisher.geometric_quantumness(qfim, curvature)
        report = qfisher.distillation_report(circuit, theta, guess, self.T)
        return qfim, quantumness, report.success_prob

    def check(self, state, records):
        failures = []
        for record in records:
            circuit, theta, guess = self._point(state, record.index)
            qfim, quantumness, success_prob = record.output
            problems = []
            if not 0.0 <= quantumness <= 1.0 + 1e-9:
                problems.append(f"quantumness {quantumness} outside [0, 1]")
            plan = qfisher.kraus_from_estimate(circuit, guess, self.T)
            _, direct = qfisher.postselect(circuit, theta, plan)
            if abs(direct - success_prob) > EXACT_RTOL * max(1.0, direct):
                problems.append(f"success_prob {success_prob} != postselect {direct}")
            # A seeded eighth of the items also get the finite-difference route.
            if record.index % 8 == state["fd_offset"]:
                reference = fd_qfim(circuit, theta)
                gap = float(np.max(np.abs(reference - qfim)))
                if gap > FD_RTOL * max(1.0, float(np.max(np.abs(qfim)))):
                    problems.append(f"QFIM differs from finite differences by {gap:.3e}")
            failures.append("; ".join(problems) or None)
        return failures


def fd_qfim(circuit, theta) -> np.ndarray:
    """QFIM from central differences of evolve alone, independent of tangent_frame."""
    state = qfisher.evolve(circuit, theta)
    tangents = []
    for j in range(len(theta)):
        step = np.zeros(len(theta))
        step[j] = FD_STEP
        forward = qfisher.evolve(circuit, theta + step)
        backward = qfisher.evolve(circuit, theta - step)
        tangents.append((forward - backward) / (2.0 * FD_STEP))
    frame = np.column_stack(tangents)
    overlaps = state.conj() @ frame
    tensor = frame.conj().T @ frame - np.outer(overlaps.conj(), overlaps)
    return 4.0 * np.real(tensor)


# -- kd-pairs -------------------------------------------------------------


class KdPairs(Workload):
    """Filter plus Kirkwood-Dirac analysis of one parameter pair, D in {8, 16}.

    Nondegenerate random generators have K = L = D eigenvalue clusters;
    3- and 4-qubit Pauli strings have spectrum +-1, so K = L = 2.
    """

    name = "kd-pairs"
    PARAMS, POINTS = 4, 16
    GUESS_ERROR, T = 0.02, 0.5
    KINDS = {
        "nondeg-d8": ("nondeg", 8),
        "nondeg-d16": ("nondeg", 16),
        "pauli-d8": ("pauli", 8),
        "pauli-d16": ("pauli", 16),
    }
    cycle = ("nondeg-d16", "nondeg-d8", "pauli-d16", "pauli-d8", "pauli-d16")

    def generate(self, seed, root, scratch):
        rng = np.random.default_rng(seed)
        circuits = {}
        for kind, (spectrum, dim) in self.KINDS.items():
            if spectrum == "nondeg":
                gens = [random_hermitian(rng, dim) for _ in range(self.PARAMS)]
            else:
                gens = pauli_strings(rng, int(np.log2(dim)), self.PARAMS)
            circuits[kind] = (gens, random_state(rng, dim))
        points = []
        for _ in range(self.POINTS):
            theta = rng.uniform(-np.pi, np.pi, self.PARAMS)
            pair = tuple(int(v) for v in rng.choice(self.PARAMS, size=2, replace=False))
            points.append((theta, guess_near(rng, theta, self.GUESS_ERROR), pair))
        return {"circuits": circuits, "points": points}

    def setup(self, inputs):
        circuits = {
            kind: qfisher.EncodingCircuit(gens, psi)
            for kind, (gens, psi) in inputs["circuits"].items()
        }
        return {"circuits": circuits, "points": inputs["points"]}

    def _point(self, state, index):
        kind = self.cycle[index % len(self.cycle)]
        theta, guess, pair = state["points"][(index // len(self.cycle)) % self.POINTS]
        return state["circuits"][kind], theta, guess, pair

    def run_item(self, state, index):
        circuit, theta, guess, pair = self._point(state, index)
        plan = qfisher.kraus_from_estimate(circuit, guess, self.T)
        analysis = qfisher.analyze_pair(circuit, theta, pair, plan.effect)
        return analysis.entry, analysis.consistent

    def check(self, state, records):
        failures = []
        for record in records:
            circuit, theta, guess, pair = self._point(state, record.index)
            entry, consistent = record.output
            plan = qfisher.kraus_from_estimate(circuit, guess, self.T)
            direct = float(qfisher.qfim_postselected(circuit, theta, plan.effect)[0][pair])
            problems = []
            if abs(entry - direct) > EXACT_RTOL * max(1.0, abs(direct)):
                problems.append(f"KD entry {entry} != postselected QFIM entry {direct}")
            if not consistent:
                problems.append("negativity consistency check failed")
            failures.append("; ".join(problems) or None)
        return failures


# -- crb-small ------------------------------------------------------------


class CrbSmall(Workload):
    """Seeded Cramér-Rao studies on the shipped qubit scenarios.

    Three kinds of study with distinct costs, so that the median item is
    the middle kind's median rather than a tail quantile of another kind.
    """

    name = "crb-small"
    # kind -> (shipped scenario, batches per study)
    KINDS = {
        "single-50": ("single_parameter_crb", 50),
        "reference-10": ("reference_qubit", 10),
        "reference-50": ("reference_qubit", 50),
    }
    SEEDS = 64
    cycle = tuple(KINDS)

    def generate(self, seed, root, scratch):
        rng = np.random.default_rng(seed)
        scenarios = dict.fromkeys(scenario for scenario, _ in self.KINDS.values())
        return {
            "paths": {name: root / "scenarios" / f"{name}.json" for name in scenarios},
            "seeds": [int(v) for v in rng.integers(0, 2**31, size=self.SEEDS)],
        }

    def setup(self, inputs):
        scenarios = {}
        for name, path in inputs["paths"].items():
            config = qfisher.load_scenario(path)
            scenarios[name] = (config, qfisher.build_circuit(config))
        return {"scenarios": scenarios, "seeds": inputs["seeds"]}

    def _study(self, state, index):
        scenario, batches = self.KINDS[self.cycle[index % len(self.cycle)]]
        config, circuit = state["scenarios"][scenario]
        return qfisher.run_crb_study(
            circuit,
            config.theta_true,
            config.povm,
            config.trials,
            batches,
            state["seeds"][index % self.SEEDS],
            theta_init=config.theta_guess,
        )

    def fit_scenario(self, kind):
        return self.KINDS[kind][0]

    def run_item(self, state, index):
        study = self._study(state, index)
        return study.estimates, study.comparison.bound

    def check(self, state, records):
        failures = []
        repeated = set()
        for record in records:
            estimates, bound = record.output
            scenario, _ = self.KINDS[record.kind]
            config, _ = state["scenarios"][scenario]
            problems = []
            if not np.all(np.isfinite(estimates)):
                problems.append("non-finite estimates")
            if scenario == "single_parameter_crb":
                expected = 1.0 / (4.0 * config.trials)
                if abs(float(bound[0, 0]) - expected) > EXACT_RTOL * expected:
                    problems.append(f"bound {float(bound[0, 0])} != 1/(4 trials) = {expected}")
            # The first item of each kind is repeated and must match bit for bit.
            if record.kind not in repeated:
                repeated.add(record.kind)
                if not np.array_equal(self._study(state, record.index).estimates, estimates):
                    problems.append("repeated study gave different estimates")
            failures.append("; ".join(problems) or None)
        return failures


# -- cli-cold -------------------------------------------------------------


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str


class CliCold(Workload):
    """One ``python -m qfisher.cli`` subprocess per item.

    Shipped scenarios cover all six subcommands; a generated D=32, M=6
    scenario with a D-outcome projective POVM loads the scenario parser,
    and a generated nondegenerate D=16 scenario runs ``kd``.
    """

    name = "cli-cold"
    LARGE_DIM, LARGE_PARAMS = 32, 6
    KD_DIM, KD_PARAMS = 16, 4
    T_LIST = "0.2,0.3,0.5,0.8,1"
    CRB_BATCHES = "20"
    COMMANDS = {
        "qfim-reference": ("qfim", "--scenario", "{scenarios}/reference_qubit.json"),
        "qfim-single": ("qfim", "--scenario", "{scenarios}/single_parameter_crb.json"),
        "distill-reference": ("distill", "--scenario", "{scenarios}/reference_qubit.json"),
        "kd-reference": ("kd", "--scenario", "{scenarios}/reference_qubit.json"),
        "kd-commuting": ("kd", "--scenario", "{scenarios}/commuting_classical.json"),
        "sweep-reference": (
            "sweep", "--scenario", "{scenarios}/reference_qubit.json", "--t-list", T_LIST
        ),
        "paper-example": ("paper-example",),
        "crb-single": (
            "crb", "--scenario", "{scenarios}/single_parameter_crb.json", "--batches", CRB_BATCHES
        ),
        "crb-reference": (
            "crb", "--scenario", "{scenarios}/reference_qubit.json", "--batches", CRB_BATCHES
        ),
        "qfim-d32": ("qfim", "--scenario", "{generated}/large_d32.json"),
        "distill-d32": ("distill", "--scenario", "{generated}/large_d32.json"),
        "sweep-d32": ("sweep", "--scenario", "{generated}/large_d32.json", "--t-list", T_LIST),
        "kd-d16": ("kd", "--scenario", "{generated}/kd_d16.json"),
    }
    cycle = tuple(COMMANDS)

    def generate(self, seed, root, scratch):
        rng = np.random.default_rng(seed)
        generated = scratch / "scenarios"
        generated.mkdir(parents=True, exist_ok=True)
        basis = random_unitary(rng, self.LARGE_DIM)
        theta = rng.uniform(-np.pi, np.pi, self.LARGE_PARAMS)
        large = qfisher.ScenarioConfig(
            dim=self.LARGE_DIM,
            generators=tuple(
                random_hermitian(rng, self.LARGE_DIM) for _ in range(self.LARGE_PARAMS)
            ),
            initial_state=random_state(rng, self.LARGE_DIM),
            theta_true=theta,
            theta_guess=guess_near(rng, theta, 0.02),
            t=0.3,
            povm=tuple(np.outer(basis[:, k], basis[:, k].conj()) for k in range(self.LARGE_DIM)),
            trials=1000,
            seed=int(rng.integers(0, 2**31)),
        )
        qfisher.save_scenario(large, generated / "large_d32.json")
        theta = rng.uniform(-np.pi, np.pi, self.KD_PARAMS)
        kd = qfisher.ScenarioConfig(
            dim=self.KD_DIM,
            generators=tuple(random_hermitian(rng, self.KD_DIM) for _ in range(self.KD_PARAMS)),
            initial_state=random_state(rng, self.KD_DIM),
            theta_true=theta,
            theta_guess=guess_near(rng, theta, 0.02),
            t=0.5,
            kd_pair=tuple(int(v) for v in rng.choice(self.KD_PARAMS, size=2, replace=False)),
        )
        qfisher.save_scenario(kd, generated / "kd_d16.json")
        fields = {"scenarios": str(root / "scenarios"), "generated": str(generated)}
        argvs = {
            kind: [arg.format(**fields) for arg in argv] for kind, argv in self.COMMANDS.items()
        }
        return {"argvs": argvs, "root": root}

    def setup(self, inputs):
        return {**inputs, "in_process": False}

    def in_process(self, state):
        state["in_process"] = True

    def fit_scenario(self, kind):
        return {"crb-single": "single_parameter_crb", "crb-reference": "reference_qubit"}.get(kind)

    def run_item(self, state, index):
        argv = state["argvs"][self.cycle[index % len(self.cycle)]]
        if state["in_process"]:
            return run_cli_in_process(argv)
        return run_cli(state["root"], argv)

    def check(self, state, records):
        failures = []
        first_crb: dict[str, str] = {}
        for record in records:
            outcome = record.output
            problems = []
            if outcome.code != 0:
                problems.append(f"exit code {outcome.code}: {outcome.stderr.strip()[-200:]}")
            if record.kind == "paper-example" and "overall: PASS" not in outcome.stdout:
                problems.append("paper-example did not report overall: PASS")
            if record.kind.startswith("kd-") and "consistency: PASS" not in outcome.stdout:
                problems.append("kd did not report consistency: PASS")
            if record.kind.startswith("crb-"):
                if record.kind not in first_crb:
                    first_crb[record.kind] = outcome.stdout
                    # A one-cycle run has no repeat of its own, so make one.
                    if sum(r.kind == record.kind for r in records) == 1:
                        rerun = self.run_item(state, record.index)
                        if rerun.stdout != outcome.stdout:
                            problems.append("repeated crb stdout differs")
                elif outcome.stdout != first_crb[record.kind]:
                    problems.append("repeated crb stdout differs")
            failures.append("; ".join(problems) or None)
        return failures


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: Path, argv) -> CliOutcome:
    proc = subprocess.run(
        [sys.executable, "-m", "qfisher.cli", *argv],
        cwd=root,
        env=cli_env(root),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    return CliOutcome(proc.returncode, proc.stdout, proc.stderr)


def run_cli_in_process(argv) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qfisher.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliOutcome(code, out.getvalue(), err.getvalue())


WORKLOADS = {w.name: w for w in (GeometryScan(), KdPairs(), CrbSmall(), CliCold())}
