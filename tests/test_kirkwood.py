import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfisher import (
    EncodingCircuit,
    NumericError,
    ValidationError,
    analyze_pair,
    distillation_report,
    evolve,
    kd_distribution,
    kraus_from_estimate,
    qfim_postselected,
    qfim_pure,
    tangent_frame,
)
from qfisher import kirkwood
from qfisher.kirkwood import _negativity

from helpers import (
    REFERENCE_GENERATORS,
    conjugated_generator,
    dense_unitary,
    kd_table_oracle,
    pauli_circuit,
    pauli_problem,
    random_circuit,
    random_hermitian,
    random_problem,
    random_smeared_effect,
    random_state,
    random_unitary,
    reference_circuit,
    three_param_problem,
)


@pytest.mark.parametrize(
    "levels, values, spread",
    [
        pytest.param([2.0, -1.0, 0.5], [-1.0, 0.5, 2.0], 3.0, id="nondegenerate"),
        pytest.param([1.0, 1.0, 3.0], [1.0, 3.0], 2.0, id="merge-degenerate"),
        pytest.param([1.0, 1.0 + 1e-10, 3.0], [1.0, 3.0], 2.0, id="merge-within-tolerance"),
        pytest.param(
            [0.3, -1.2, 0.7, 1.9, -0.4], [-1.2, -0.4, 0.3, 0.7, 1.9], 3.1, id="resolve-identity"
        ),
        pytest.param([1.5, 1.5, 1.5], [1.5], 0.0, id="zero-spread"),
    ],
)
def test_kd_clusters_of_diagonal_generator(levels, values, spread):
    """Clusters of a diagonal generator whose basis a random later gate rotates.

    The first-spectrum marginal must equal the initial state's weight on each
    cluster of the diagonal, which holds only if both families of cluster
    projectors and the two outcomes resolve the identity.
    """
    rng = np.random.default_rng(51)
    dim = len(levels)
    state = random_state(rng, dim)
    later = random_hermitian(rng, dim, 2.0)
    circuit = EncodingCircuit((np.diag(levels).astype(complex), later), state)
    dist = kd_distribution(circuit, [0.4, -0.7], (0, 1), random_smeared_effect(rng, dim))
    assert dist.table.shape == (len(values), dim, 2)
    assert np.allclose(dist.eigenvalues_i, values, rtol=0.0, atol=1e-9)
    assert dist.spread_i == pytest.approx(spread)
    weights = np.abs(state) ** 2
    expected = [weights[np.abs(np.array(levels) - v) < 1e-6].sum() for v in values]
    assert np.max(np.abs(dist.table.sum(axis=(1, 2)) - expected)) < 1e-12


def _oracle_clusters(operator):
    """Eigenvector groups of ``operator``'s clusters, from a fresh eigendecomposition."""
    vals, vecs = np.linalg.eigh(operator)
    splits = np.flatnonzero(np.diff(vals) > 1e-6 * (vals[-1] - vals[0])) + 1
    return np.split(vecs, splits, axis=1)


def _oracle_projectors(operator):
    """Cluster projectors of ``operator``."""
    return [block @ block.conj().T for block in _oracle_clusters(operator)]


@pytest.mark.parametrize("dim", [4, 8])
def test_kd_scalar_generator_is_one_cluster(dim):
    """2*1 written in a random basis has eigenvalues spread by roundoff only.

    They form one cluster, so the table is the one-cluster trace formula
    Tr[F Q_l rho] over the clusters Q_l of the other generator.
    """
    rng = np.random.default_rng(55 + dim)
    basis = random_unitary(rng, dim)
    scalar = basis @ (2.0 * np.eye(dim)) @ basis.conj().T
    generators = (scalar, random_hermitian(rng, dim, 2.0))
    circuit = EncodingCircuit(generators, random_state(rng, dim))
    theta = np.array([0.3, -0.5])
    effect = random_smeared_effect(rng, dim)
    dist = kd_distribution(circuit, theta, (0, 1), effect)
    assert dist.table.shape == (1, dim, 2)
    assert dist.spread_i == 0.0
    assert dist.eigenvalues_i == pytest.approx([2.0], abs=1e-12)
    state = evolve(circuit, theta)
    rho = np.outer(state, state.conj())
    proj_j = _oracle_projectors(conjugated_generator(generators, theta, 1))
    for m, outcome in enumerate((effect, np.eye(dim) - effect)):
        expected = kd_table_oracle([np.eye(dim)], outcome, proj_j, rho)
        assert np.max(np.abs(dist.table[:, :, m] - expected)) < 1e-12
    analysis = analyze_pair(circuit, theta, (0, 1), effect)
    assert analysis.entry == 0.0
    assert analysis.consistent


def test_kd_scalar_generator_with_classical_pair_is_consistent():
    """A one-cluster spectrum has bound 0; its entry must be exactly 0, not
    roundoff that the relative slack would flag next to a classical table."""
    rng = np.random.default_rng(57)
    for _ in range(20):
        basis = random_unitary(rng, 4)
        scalar = basis @ (2.0 * np.eye(4)) @ basis.conj().T
        diagonal = np.diag(rng.uniform(-1.0, 1.0, 4)).astype(complex)
        circuit = EncodingCircuit((scalar, diagonal), random_state(rng, 4))
        effect = np.diag(rng.uniform(0.2, 1.0, 4)).astype(complex)
        analysis = analyze_pair(circuit, [0.3, 0.2], (0, 1), effect)
        assert analysis.classical
        assert analysis.spread_i == 0.0
        assert analysis.entry == 0.0
        assert analysis.consistent


def test_kd_table_matches_trace_oracle():
    rng = np.random.default_rng(52)
    problems = [random_problem(rng, max_params=3) for _ in range(8)]
    problems += [random_problem(rng, dim=dim, n_params=3) for dim in (16, 32)]
    problems += [pauli_problem(rng, n_qubits, 3) for n_qubits in (4, 5)]
    for generators, initial in problems:
        circuit = EncodingCircuit(generators, initial)
        if circuit.n_params < 2:
            continue
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        effect = random_smeared_effect(rng, circuit.dim)
        dist = kd_distribution(circuit, theta, (0, circuit.n_params - 1), effect)
        state = evolve(circuit, theta)
        rho = np.outer(state, state.conj())
        proj_i = _oracle_projectors(conjugated_generator(generators, theta, 0))
        proj_j = _oracle_projectors(conjugated_generator(generators, theta, circuit.n_params - 1))
        expected = kd_table_oracle(proj_i, effect, proj_j, rho)
        assert dist.table.shape[:2] == expected.shape
        assert np.max(np.abs(dist.table[:, :, 0] - expected)) < 1e-10
        complement = np.eye(circuit.dim) - effect
        expected_fail = kd_table_oracle(proj_i, complement, proj_j, rho)
        assert np.max(np.abs(dist.table[:, :, 1] - expected_fail)) < 1e-10


@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-9.0, 6.0),
    pauli=st.booleans(),
)
@example(seed=7, log_scale=-9.0, pauli=False)
@example(seed=7, log_scale=6.0, pauli=False)
@example(seed=8, log_scale=-9.0, pauli=True)
def test_kd_rescaling_scales_entry_by_square(seed, log_scale, pauli):
    """A -> cA with theta -> theta/c keeps the clusters and scales the entry by c^2."""
    rng = np.random.default_rng(seed)
    generators, initial = three_param_problem(rng, pauli)
    circuit = EncodingCircuit(generators, initial)
    theta = rng.uniform(-1.5, 1.5, 3)
    effect = random_smeared_effect(rng, circuit.dim)
    pair = tuple(int(k) for k in rng.integers(0, 3, 2))
    scale = 10.0**log_scale
    scaled = EncodingCircuit(tuple(scale * gen for gen in generators), initial)
    base = analyze_pair(circuit, theta, pair, effect)
    rescaled = analyze_pair(scaled, theta / scale, pair, effect)
    assert rescaled.conditioned.shape == base.conditioned.shape
    assert np.max(np.abs(rescaled.conditioned - base.conditioned)) < 1e-8
    bound = base.spread_i * base.spread_j
    assert rescaled.spread_i * rescaled.spread_j == pytest.approx(scale**2 * bound, rel=1e-10)
    assert rescaled.entry / scale**2 == pytest.approx(base.entry, rel=1e-8, abs=1e-8 * bound)


@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    phase=st.floats(-math.pi, math.pi),
    pauli=st.booleans(),
)
def test_kd_table_ignores_global_phase(seed, phase, pauli):
    rng = np.random.default_rng(seed)
    generators, initial = three_param_problem(rng, pauli)
    circuit = EncodingCircuit(generators, initial)
    theta = rng.uniform(-1.5, 1.5, 3)
    effect = random_smeared_effect(rng, circuit.dim)
    pair = tuple(int(k) for k in rng.integers(0, 3, 2))
    shifted = EncodingCircuit(generators, np.exp(1j * phase) * initial)
    base = kd_distribution(circuit, theta, pair, effect)
    moved = kd_distribution(shifted, theta, pair, effect)
    assert moved.table.shape == base.table.shape
    assert np.max(np.abs(moved.table - base.table)) < 1e-12


def test_kd_table_sums_to_one():
    rng = np.random.default_rng(53)
    for _ in range(8):
        circuit = random_circuit(rng, n_params=2)
        theta = rng.uniform(-1.5, 1.5, 2)
        effect = random_smeared_effect(rng, circuit.dim)
        dist = kd_distribution(circuit, theta, (0, 1), effect)
        assert complex(np.sum(dist.table)) == pytest.approx(1.0, abs=1e-9)
        analysis = analyze_pair(circuit, theta, (0, 1), effect)
        assert complex(np.sum(analysis.conditioned)) == pytest.approx(1.0, abs=1e-9)
        assert analysis.success_prob == pytest.approx(dist.success_prob)


def test_condition_rejects_vanishing_success():
    circuit = reference_circuit()
    effect = np.diag([0.0, 1.0]).astype(complex)
    assert kd_distribution(circuit, [0.0, 0.0], (0, 1), effect).success_prob == 0.0
    with pytest.raises(NumericError, match="probability"):
        analyze_pair(circuit, [0.0, 0.0], (0, 1), effect)


def test_entry_matches_direct_postselected_qfim():
    rng = np.random.default_rng(54)
    for _ in range(10):
        circuit = random_circuit(rng, max_params=3)
        if circuit.n_params < 2:
            continue
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        effect = random_smeared_effect(rng, circuit.dim)
        pair = (0, 1)
        entry = analyze_pair(circuit, theta, pair, effect).entry
        direct, _ = qfim_postselected(circuit, theta, effect)
        assert abs(entry - direct[pair]) < 1e-8


def test_kd_route_matches_frame_route_at_scale():
    """Every pair of dense D = 64 and 128 circuits and a 6-qubit Pauli circuit.

    The KD entry must equal the dense postselected-QFIM entry, and the table
    summed over outcomes and weighted by both spectra must give the tangent
    Gram matrix of the frame route, both to 1e-12 relative.
    """
    rng = np.random.default_rng(58)
    circuits = (
        random_circuit(rng, dim=64, n_params=4),
        random_circuit(rng, dim=128, n_params=3),
        pauli_circuit(rng, 6, 4),
    )
    for circuit in circuits:
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        guess = theta + 0.05 * rng.standard_normal(circuit.n_params)
        plan = kraus_from_estimate(circuit, guess, 0.3)
        direct, _ = qfim_postselected(circuit, theta, plan.effect)
        _, tangents = tangent_frame(circuit, theta)
        gram = tangents.conj().T @ tangents
        for i in range(circuit.n_params):
            for j in range(circuit.n_params):
                analysis = analyze_pair(circuit, theta, (i, j), plan.effect)
                assert abs(analysis.entry - direct[i, j]) <= 1e-12 * np.max(np.abs(direct))
                assert analysis.consistent
                dist = kd_distribution(circuit, theta, (i, j), plan.effect)
                moment = dist.eigenvalues_i @ dist.table.sum(axis=2) @ dist.eigenvalues_j
                assert abs(moment - gram[i, j]) <= 1e-12 * np.max(np.abs(gram))


def test_sweeps_match_dense_unitaries_at_scale():
    """evolve, tangent_frame and one KD table of a dense D = 128 circuit
    against products of dense gate unitaries, each from a fresh eigh of its
    generator, and cluster projections from a fresh eigh of each effective
    generator. Neither route touches the stored transfers."""
    rng = np.random.default_rng(60)
    generators, initial = random_problem(rng, dim=128, n_params=4)
    circuit = EncodingCircuit(generators, initial)
    theta = rng.uniform(-1.5, 1.5, 4)
    state = dense_unitary(generators, theta) @ initial
    assert np.max(np.abs(evolve(circuit, theta) - state)) < 1e-13
    frame_state, tangents = tangent_frame(circuit, theta)
    assert np.max(np.abs(frame_state - state)) < 1e-13
    for j in range(circuit.n_params):
        expected = 1j * conjugated_generator(generators, theta, j) @ state
        assert np.max(np.abs(tangents[:, j] - expected)) < 1e-12
    effect = random_smeared_effect(rng, circuit.dim)

    def oracle_block(m):
        groups = _oracle_clusters(conjugated_generator(generators, theta, m))
        return np.column_stack([group @ (group.conj().T @ state) for group in groups])

    block_i, block_j = oracle_block(1), oracle_block(3)
    success = block_i.conj().T @ effect @ block_j
    expected = np.stack((success, block_i.conj().T @ block_j - success), axis=2)
    dist = kd_distribution(circuit, theta, (1, 3), effect)
    assert dist.table.shape == (128, 128, 2)
    assert np.max(np.abs(dist.table - expected)) < 1e-14


def test_kd_table_sum_gate_catches_a_corrupt_transfer():
    """A scaled column of a stored transfer is no longer a basis change: the
    carried blocks lose their norm and the table no longer sums to 1."""
    rng = np.random.default_rng(59)
    circuit = random_circuit(rng, dim=6, n_params=3)
    theta = rng.uniform(-1.5, 1.5, 3)
    effect = random_smeared_effect(rng, 6)
    transfer = circuit._transfers[1].copy()
    transfer[:, 2] *= 1.01
    broken = copy.copy(circuit)
    broken._transfers = circuit._transfers[:1] + (transfer,) + circuit._transfers[2:]
    kd_distribution(circuit, theta, (2, 1), effect)
    with pytest.raises(NumericError, match=r"table sums to 1\.00065"):
        kd_distribution(broken, theta, (2, 1), effect)


def test_negativity_classical_cases():
    assert _negativity(np.array([[0.5, 0.25], [0.25, 0.0]], dtype=complex)) == (0.0, True)
    assert _negativity(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)) == (0.0, True)


def test_negativity_flags_negative_and_imaginary():
    total, classical = _negativity(np.array([[1.2, -0.1], [0.0, -0.1j]]))
    assert not classical
    assert total == pytest.approx(0.2)
    # a real part above 1 alone is nonclassical but adds no negativity
    assert _negativity(np.array([[1.2, 0.0], [0.0, 0.0]], dtype=complex)) == (0.0, False)
    assert not _negativity(np.array([[1.0, 0.0], [0.0, 2e-9j]]))[1]


def test_entry_within_negativity_budget():
    """|entry| <= (S + S^2) spread_i spread_j <= (1 + 2N)(2 + 2N) spread_i spread_j.

    S is the sum of |q| over the conditioned table and N its total
    negativity. With centred spectra each |a| is at most half its spread, so
    the correlation term is at most S/4 and each mean at most S/2 of the
    spreads; and S <= 1 + 2N, since the real parts sum to 1.
    """
    rng = np.random.default_rng(8)
    for k in range(200):
        dim, n_params = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        circuit = random_circuit(rng, dim, n_params)
        theta = rng.uniform(-math.pi, math.pi, n_params)
        pair = tuple(int(m) for m in rng.integers(0, n_params, 2))
        if k % 2:
            effect = random_smeared_effect(rng, dim)
        else:
            guess = theta + rng.normal(0.0, 0.05, n_params)
            effect = kraus_from_estimate(circuit, guess, 10.0 ** rng.uniform(-3.0, 0.0)).effect
        result = analyze_pair(circuit, theta, pair, effect)
        size = float(np.sum(np.abs(result.conditioned)))
        negativity = result.total_negativity
        spreads = result.spread_i * result.spread_j
        budget = (size + size**2) * spreads
        assert abs(result.entry) <= budget * (1.0 + 1e-9)
        ceiling = (1.0 + 2.0 * negativity) * (2.0 + 2.0 * negativity) * spreads
        assert budget <= ceiling * (1.0 + 1e-9)


def test_consistency_check_truth_table(monkeypatch):
    """The verdict on the reference pair, whose covariance bound is 4, with
    its entry and classicality replaced."""
    circuit = reference_circuit()
    theta = np.array([math.pi / 4.0, math.pi / 4.0])
    plan = kraus_from_estimate(circuit, theta + np.array([0.1, -0.1]), 1.0 / math.sqrt(10.0))
    cases = [
        # inside the bound anything goes
        (3.9, True, True),
        (3.9, False, True),
        # beyond the bound only a nonclassical distribution is allowed
        (4.5, False, True),
        (4.5, True, False),
        # the relative slack CLASSICALITY_TOL = 1e-9 on the bound
        (4.0 * (1.0 + 1e-10), True, True),
        (4.0 * (1.0 + 1e-8), True, False),
    ]
    for entry, classical, consistent in cases:
        monkeypatch.setattr(kirkwood, "_entry", lambda *args: entry)
        monkeypatch.setattr(kirkwood, "_negativity", lambda conditioned: (0.0, classical))
        analysis = analyze_pair(circuit, theta, (0, 1), plan.effect)
        assert analysis.spread_i * analysis.spread_j == pytest.approx(4.0)
        assert (analysis.entry, analysis.classical) == (entry, classical)
        assert analysis.consistent is consistent


@pytest.mark.parametrize("scale", [1.0, 1e-5, 1e-9])
def test_consistency_verdict_is_scale_free(monkeypatch, scale):
    """The reference entry beats its bound by the same factor at every scale,
    so a classical verdict next to it is flagged at every scale."""
    circuit = EncodingCircuit(
        tuple(scale * gen for gen in REFERENCE_GENERATORS), reference_circuit().initial_state
    )
    theta = np.array([math.pi / 4.0, math.pi / 4.0]) / scale
    guess = theta + np.array([0.1, -0.1]) / scale
    plan = kraus_from_estimate(circuit, guess, 1.0 / math.sqrt(10.0))
    analysis = analyze_pair(circuit, theta, (0, 1), plan.effect)
    bound = analysis.spread_i * analysis.spread_j
    assert bound == pytest.approx(4.0 * scale**2, rel=1e-12)
    assert abs(analysis.entry) > 6.0 * bound
    assert analysis.consistent
    monkeypatch.setattr(kirkwood, "_negativity", lambda conditioned: (0.0, True))
    flagged = analyze_pair(circuit, theta, (0, 1), plan.effect)
    assert flagged.entry == analysis.entry
    assert not flagged.consistent
    # just past the bound by more than its relative slack, at every scale
    monkeypatch.setattr(kirkwood, "_entry", lambda *args: bound * (1.0 + 1e-8))
    assert not analyze_pair(circuit, theta, (0, 1), plan.effect).consistent


def _commuting_problem(rng, dim, n_params):
    """Generators with random spectra in one shared random basis, and a state."""
    basis = random_unitary(rng, dim)
    generators = tuple(
        (basis * rng.uniform(-2.0, 2.0, dim)) @ basis.conj().T for _ in range(n_params)
    )
    return generators, random_state(rng, dim)


@settings(deadline=None, derandomize=True, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), n_params=st.integers(2, 4))
def test_reordering_commuting_generators_permutes_results(seed, dim, n_params):
    """Commuting gates give the same state in any order, so permuting the
    generators together with theta permutes the QFIMs and keeps the KD table
    of the mapped pair."""
    rng = np.random.default_rng(seed)
    generators, initial = _commuting_problem(rng, dim, n_params)
    circuit = EncodingCircuit(generators, initial)
    theta = rng.uniform(-1.5, 1.5, n_params)
    guess = theta + rng.uniform(-0.05, 0.05, n_params)
    perm = rng.permutation(n_params)
    moved = EncodingCircuit(tuple(generators[k] for k in perm), initial)
    inverse = np.argsort(perm)

    qfim = qfim_pure(circuit, theta)
    assert np.max(np.abs(qfim_pure(moved, theta[perm]) - qfim[np.ix_(perm, perm)])) < 1e-9
    report = distillation_report(circuit, theta, guess, 0.5)
    moved_report = distillation_report(moved, theta[perm], guess[perm], 0.5)
    assert moved_report.success_prob == pytest.approx(report.success_prob, abs=1e-12)
    for name in ("qfim_undistilled", "qfim_exact", "qfim_predicted"):
        before, after = getattr(report, name), getattr(moved_report, name)
        scale = max(1.0, float(np.max(np.abs(before))))
        assert np.max(np.abs(after - before[np.ix_(perm, perm)])) < 1e-9 * scale

    pair = tuple(int(k) for k in rng.choice(n_params, 2, replace=False))
    effect = kraus_from_estimate(circuit, guess, 0.5).effect
    dist = kd_distribution(circuit, theta, pair, effect)
    moved_dist = kd_distribution(moved, theta[perm], tuple(int(inverse[k]) for k in pair), effect)
    assert moved_dist.table.shape == dist.table.shape
    assert np.max(np.abs(moved_dist.table - dist.table)) < 1e-9
    assert np.allclose(moved_dist.eigenvalues_i, dist.eigenvalues_i, rtol=0.0, atol=1e-12)
    assert np.allclose(moved_dist.eigenvalues_j, dist.eigenvalues_j, rtol=0.0, atol=1e-12)


def test_reference_pair_is_anomalous_and_nonclassical():
    circuit = reference_circuit()
    theta = np.array([math.pi / 4.0, math.pi / 4.0])
    plan = kraus_from_estimate(circuit, theta + np.array([0.1, -0.1]), 1.0 / math.sqrt(10.0))
    analysis = analyze_pair(circuit, theta, (0, 1), plan.effect)
    assert analysis.success_prob == pytest.approx(0.10520215740019678, abs=1e-12)
    assert analysis.spread_i == pytest.approx(2.0)
    assert analysis.spread_j == pytest.approx(2.0)
    assert abs(analysis.entry) > analysis.spread_i * analysis.spread_j
    assert not analysis.classical
    assert analysis.consistent
    direct, _ = qfim_postselected(circuit, theta, plan.effect)
    assert analysis.entry == pytest.approx(direct[0, 1], abs=1e-9)


def test_commuting_diagonal_pair_is_classical():
    gens = (np.diag([1.0, 0.0, -1.0]).astype(complex), np.diag([0.5, -0.2, 0.3]).astype(complex))
    circuit = EncodingCircuit(gens, np.ones(3, dtype=complex) / math.sqrt(3.0))
    effect = np.diag([0.9, 0.6, 0.3]).astype(complex)
    analysis = analyze_pair(circuit, [0.4, 0.9], (0, 1), effect)
    assert analysis.classical
    assert abs(analysis.entry) <= analysis.spread_i * analysis.spread_j + 1e-9
    assert analysis.consistent


def test_pair_validation():
    circuit = reference_circuit()
    effect = np.eye(2)
    with pytest.raises(ValidationError):
        kd_distribution(circuit, [0.1, 0.2], (0, 5), effect)
    with pytest.raises(ValidationError):
        kd_distribution(circuit, [0.1, 0.2], (0,), effect)
    with pytest.raises(ValidationError):
        kd_distribution(circuit, [0.1, 0.2], (0, 1.5), effect)
    with pytest.raises(ValidationError):
        kd_distribution(circuit, [0.1, 0.2], (-1, 0), effect)
    with pytest.raises(ValidationError):
        kd_distribution(circuit, [0.1, 0.2], (True, 0), effect)
