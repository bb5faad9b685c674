import dataclasses
import json
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

import qfisher
from qfisher import (
    ScenarioConfig,
    ValidationError,
    build_circuit,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from helpers import (
    SIGMA_X,
    SIGMA_Z,
    random_hermitian,
    random_projective_povm,
    random_state,
    sic_povm,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_all_lists_every_public_name():
    """``__all__`` is exactly the package's public names that are not submodules."""
    public = {
        name
        for name, value in vars(qfisher).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(qfisher.__all__) == sorted(public)


def minimal_config():
    return ScenarioConfig(
        dim=2,
        generators=(SIGMA_X, (SIGMA_X + SIGMA_Z) / math.sqrt(2.0)),
        initial_state=np.array([1.0, 0.0], dtype=complex),
        theta_true=np.array([0.3, 0.7]),
        theta_guess=np.array([0.35, 0.65]),
        t=0.5,
    )


def full_config():
    return ScenarioConfig(
        dim=2,
        generators=(SIGMA_X, (SIGMA_X + SIGMA_Z) / math.sqrt(2.0)),
        initial_state=np.array([1.0, 0.0], dtype=complex),
        theta_true=np.array([0.3, 0.7]),
        theta_guess=np.array([0.35, 0.65]),
        t=0.5,
        weight=np.eye(2),
        kd_pair=(0, 1),
        povm=sic_povm(),
        trials=500,
        seed=11,
    )


def test_round_trip_through_dict():
    for config in (minimal_config(), full_config()):
        rebuilt = scenario_from_dict(scenario_to_dict(config))
        assert rebuilt == config


def test_round_trip_through_file(tmp_path):
    path = tmp_path / "scenario.json"
    config = full_config()
    save_scenario(config, path)
    assert load_scenario(path) == config
    # file is genuine JSON with [re, im] encoded complex entries
    raw = json.loads(path.read_text())
    assert raw["generators"][0][0][1] == [1.0, 0.0]


def test_optional_fields_default_to_none():
    data = scenario_to_dict(minimal_config())
    config = scenario_from_dict(data)
    assert config.weight is None
    assert config.kd_pair is None
    assert config.povm is None
    assert config.trials is None
    assert config.seed is None


def test_unknown_key_rejected():
    data = scenario_to_dict(minimal_config())
    data["typo_field"] = 1
    with pytest.raises(ValidationError, match="typo_field"):
        scenario_from_dict(data)


def test_missing_key_rejected():
    data = scenario_to_dict(minimal_config())
    del data["theta_true"]
    with pytest.raises(ValidationError, match="theta_true"):
        scenario_from_dict(data)


def test_field_path_in_error_messages():
    data = scenario_to_dict(minimal_config())
    data["generators"][1][0][1] = [1.0]  # not an [re, im] pair
    with pytest.raises(ValidationError, match=r"generators\[1\]\[0\]\[1\]"):
        scenario_from_dict(data)
    data = scenario_to_dict(minimal_config())
    data["theta_guess"] = [0.1]
    with pytest.raises(ValidationError, match="theta_guess"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "key, index, bad",
    [
        ("povm", (1, 0, 1, 0), True),
        ("povm", (1, 0, 1, 1), "0.5"),
        ("povm", (1, 0), [[0.5, 0.0]]),
        ("weight", (1, 0), False),
        ("weight", (0, 1), "0"),
        ("weight", (1,), [0.0]),
        ("generators", (0, 1, 0), 1.0),
        ("initial_state", (1,), 0.0),
        ("povm", (0, 0, 0), 0.5),
    ],
    ids=[
        "povm-bool",
        "povm-string",
        "povm-ragged-row",
        "weight-bool",
        "weight-string",
        "weight-ragged-row",
        "generators-plain-number",
        "initial-state-plain-number",
        "povm-plain-number",
    ],
)
def test_bad_entry_rejected_with_its_path(key, index, bad):
    data = scenario_to_dict(full_config())
    parent = data[key]
    for k in index[:-1]:
        parent = parent[k]
    parent[index[-1]] = bad
    path = key + "".join(f"[{k}]" for k in index)
    with pytest.raises(ValidationError, match="^" + re.escape(path) + ":"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "key, index, bad",
    [
        ("theta_guess", (0,), math.nan),
        ("theta_true", (1,), -math.inf),
        ("t", (), math.inf),
        ("generators", (0, 1, 0, 1), math.inf),
        ("initial_state", (0, 0), math.nan),
        ("weight", (1, 1), math.nan),
        ("povm", (2, 1, 0, 0), math.inf),
    ],
)
def test_non_finite_number_rejected_with_its_path(tmp_path, key, index, bad):
    data = scenario_to_dict(full_config())
    if index:
        parent = data[key]
        for k in index[:-1]:
            parent = parent[k]
        parent[index[-1]] = bad
    else:
        data[key] = bad
    # Python's json writes and reads NaN and Infinity.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    message = key + "".join(f"[{k}]" for k in index) + ": expected a finite number"
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        load_scenario(path)


@pytest.mark.parametrize(
    "weight, message",
    [
        ([[1.0, 0.0], [0.0, -1.0]], "positive definite"),
        ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),
        ([[1.0, 0.5], [0.0, 1.0]], "symmetric"),
    ],
)
def test_weight_checked_at_load(weight, message):
    data = scenario_to_dict(full_config())
    data["weight"] = weight
    with pytest.raises(ValidationError, match="^weight must be " + message):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "effect, message",
    [
        ([[5.0, 0.0], [0.0, 0.0]], "povm effects do not sum to the identity"),
        ([[1.5, 0.0], [0.0, -0.5]], "povm[0] is not positive semidefinite"),
        ([[0.5, 0.5], [0.0, 0.5]], "povm[0] is not Hermitian"),
    ],
)
def test_povm_checked_at_load(effect, message):
    data = scenario_to_dict(full_config())
    data["povm"][0] = [[[value, 0.0] for value in row] for row in effect]
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        scenario_from_dict(data)


def test_povm_stored_as_given():
    """The load-time check does not replace the effects by its symmetrized copies."""
    config = full_config()
    skew = np.array([[0.0, 1e-13j], [1e-13j, 0.0]])
    povm = (config.povm[0] + skew, config.povm[1] - skew) + config.povm[2:]
    data = scenario_to_dict(dataclasses.replace(config, povm=povm))
    loaded = scenario_from_dict(data)
    for given, stored in zip(povm, loaded.povm):
        assert np.array_equal(given, stored)


def test_generated_scenario_round_trips_byte_identically(tmp_path):
    rng = np.random.default_rng(61)
    dim, n_params = 16, 3
    raw = rng.standard_normal((n_params, n_params))
    theta = rng.uniform(-1.5, 1.5, n_params)
    config = ScenarioConfig(
        dim=dim,
        generators=tuple(random_hermitian(rng, dim, 2.0) for _ in range(n_params)),
        initial_state=random_state(rng, dim),
        theta_true=theta,
        theta_guess=theta + 0.01,
        t=0.4,
        weight=raw @ raw.T + np.eye(n_params),
        kd_pair=(0, 2),
        povm=random_projective_povm(rng, dim),
        trials=300,
        seed=5,
    )
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_scenario(config, first)
    loaded = load_scenario(first)
    save_scenario(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded == config
    for before, after in zip(config.generators + config.povm, loaded.generators + loaded.povm):
        assert before.tobytes() == after.tobytes()


def test_signed_zeros_parse_bit_equal():
    data = scenario_to_dict(minimal_config())
    zeros = [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]]
    data["generators"][0] = [zeros[:2], zeros[2:]]
    data["initial_state"] = [[1.0, -0.0], [-0.0, 0.0]]
    data["theta_true"] = [-0.0, 0.7]
    config = scenario_from_dict(data)
    expected = np.array(zeros).view(complex)[..., 0].reshape(2, 2)
    assert config.generators[0].tobytes() == expected.tobytes()
    assert np.signbit(config.generators[0].real).tolist() == [[True, False], [True, False]]
    assert np.signbit(config.generators[0].imag).tolist() == [[False, True], [True, False]]
    assert np.signbit(config.initial_state.imag).tolist() == [True, False]
    assert np.signbit(config.initial_state.real).tolist() == [False, True]
    assert np.signbit(config.theta_true).tolist() == [True, False]
    assert scenario_to_dict(config) == data


def test_t_range_and_kd_pair_range():
    data = scenario_to_dict(minimal_config())
    data["t"] = 0.0
    with pytest.raises(ValidationError, match="t"):
        scenario_from_dict(data)
    data = scenario_to_dict(minimal_config())
    data["kd_pair"] = [0, 2]
    with pytest.raises(ValidationError, match=r"kd_pair\[1\]"):
        scenario_from_dict(data)


def test_load_errors_pass_through(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scenario(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_scenario(bad)


def test_equality_detects_array_changes():
    base = minimal_config()
    other = ScenarioConfig(
        dim=base.dim,
        generators=base.generators,
        initial_state=base.initial_state,
        theta_true=np.array([0.3, 0.7001]),
        theta_guess=base.theta_guess,
        t=base.t,
    )
    assert base != other
    assert base != "not a scenario"


def test_shipped_scenarios_load_and_build():
    names = ("reference_qubit.json", "commuting_classical.json", "single_parameter_crb.json")
    for name in names:
        config = load_scenario(SCENARIO_DIR / name)
        circuit = build_circuit(config)
        assert circuit.dim == config.dim
        assert circuit.n_params == config.n_params


def test_shipped_reference_scenario_contents():
    config = load_scenario(SCENARIO_DIR / "reference_qubit.json")
    assert config.kd_pair == (0, 1)
    assert config.trials == 10000
    assert config.t == pytest.approx(1.0 / math.sqrt(10.0))
    assert np.allclose(config.theta_true, [math.pi / 4.0, math.pi / 4.0])
    assert np.allclose(config.theta_guess - config.theta_true, [0.1, -0.1])
