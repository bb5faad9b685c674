"""Scenario files: JSON descriptions of a circuit plus study settings.

A scenario pins everything a command-line run needs: dimension,
generators, initial state, true and guessed parameters, transmissivity,
and optional weight matrix, quasiprobability pair, POVM, trial count and
seed. Complex numbers are stored as [re, im] pairs; parse errors name
the offending field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .circuit import EncodingCircuit
from .errors import ValidationError
from .fisher import _validate_weight, validate_povm

_REQUIRED_KEYS = ("dim", "generators", "initial_state", "theta_true", "theta_guess", "t")
_OPTIONAL_KEYS = ("weight", "kd_pair", "povm", "trials", "seed")


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Parsed scenario. Optional fields are None when absent."""

    dim: int
    generators: tuple[np.ndarray, ...]
    initial_state: np.ndarray
    theta_true: np.ndarray
    theta_guess: np.ndarray
    t: float
    weight: np.ndarray | None = None
    kd_pair: tuple[int, int] | None = None
    povm: tuple[np.ndarray, ...] | None = None
    trials: int | None = None
    seed: int | None = None

    @property
    def n_params(self) -> int:
        return len(self.generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioConfig):
            return NotImplemented
        return scenario_to_dict(self) == scenario_to_dict(other)


def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


def _int_from_json(value, path: str, minimum: int, limit: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    if limit is not None and value >= limit:
        _fail(path, f"index {value} out of range [{minimum}, {limit})")
    return value


def _check_nested(value, path: str, dims: tuple, pairs: bool) -> None:
    """Raise ValidationError at the first entry of ``value`` off ``dims``."""
    if not dims:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, f"expected a number, got {value!r}")
        return
    is_pair = pairs and len(dims) == 1
    if not isinstance(value, (list, tuple) if is_pair else list) or (
        len(value) != dims[0] if dims[0] else not value
    ):
        if is_pair:
            _fail(path, f"complex entries must be [re, im] pairs, got {value!r}")
        _fail(path, f"expected a list of {dims[0] or 'one or more'} entries")
    for k, item in enumerate(value):
        _check_nested(item, f"{path}[{k}]", dims[1:], pairs)


def _plain_leaves(value, dims: tuple, pairs: bool):
    """``(leaves, shape)`` if ``value`` nests to ``dims`` in plain JSON types, else None.

    Checks one nesting level at a time, with no call per entry: every
    container a list (a tuple is also taken at the pair level), one exact
    length per level and every leaf exactly a float or an int. Whatever
    else it meets, even what ``_check_nested`` would take, returns None.
    """
    level, shape = [value], []
    for depth, size in enumerate(dims):
        containers = {list, tuple} if pairs and depth == len(dims) - 1 else {list}
        if not set(map(type, level)) <= containers:
            return None
        lengths = set(map(len, level))
        if len(lengths) != 1:
            return None
        (length,) = lengths
        if length != size if size else not length:
            return None
        shape.append(length)
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {float, int}:
        return None
    return level, tuple(shape)


def _huge_as_inf(value):
    """``value`` with every number too large for a float read as infinity."""
    if isinstance(value, (list, tuple)):
        return [_huge_as_inf(item) for item in value]
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _array_from_json(value, path: str, shape: tuple, pairs: bool = False) -> np.ndarray:
    """Decode numbers, or [re, im] pairs if ``pairs``, nested to ``shape``.

    A None in ``shape`` takes any nonzero length. Errors name the path of
    the first entry off shape, not a number, or not finite (an integer too
    large for a float counts as infinite). Pairs are read through a
    complex128 view, which keeps the sign of every zero.
    """
    dims = shape + (2,) if pairs else shape
    plain = _plain_leaves(value, dims, pairs)
    if plain is None:
        _check_nested(value, path, dims, pairs)
    numbers, found = plain or (value, None)
    try:
        array = np.array(numbers, dtype=float)
    except OverflowError:
        array = np.array(_huge_as_inf(numbers), dtype=float)
    if found is not None:
        array = array.reshape(found)
    bad = np.argwhere(~np.isfinite(array))
    if len(bad):
        _fail(path + "".join(f"[{k}]" for k in bad[0]), "expected a finite number")
    return array.view(complex)[..., 0] if pairs else array


def _array_to_json(array, pairs: bool = False) -> list:
    """Nested lists of floats, or of [re, im] pairs if ``pairs``."""
    if pairs:
        array = np.asarray(array, dtype=complex)
        array = np.stack((array.real, array.imag), axis=-1)
    return np.asarray(array, dtype=float).tolist()


def scenario_from_dict(data) -> ScenarioConfig:
    """Build and structurally validate a scenario from parsed JSON."""
    if not isinstance(data, dict):
        raise ValidationError(f"scenario must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
    if unknown:
        raise ValidationError(f"unknown scenario keys: {', '.join(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise ValidationError(f"missing scenario keys: {', '.join(missing)}")

    def field(key, decode, *args):
        value = data.get(key)
        return None if value is None and key in _OPTIONAL_KEYS else decode(value, key, *args)

    dim = field("dim", _int_from_json, 1)
    generators = tuple(field("generators", _array_from_json, (None, dim, dim), True))
    n_params = len(generators)
    initial_state = field("initial_state", _array_from_json, (dim,), True)
    theta_true = field("theta_true", _array_from_json, (n_params,))
    theta_guess = field("theta_guess", _array_from_json, (n_params,))
    t = float(field("t", _array_from_json, ()))
    if not 0.0 < t <= 1.0:
        _fail("t", f"must lie in (0, 1], got {t}")
    weight = field("weight", _array_from_json, (n_params, n_params))
    if weight is not None:
        _validate_weight(weight, n_params)
    kd_pair = data.get("kd_pair")
    if kd_pair is not None:
        if not isinstance(kd_pair, list) or len(kd_pair) != 2:
            _fail("kd_pair", f"expected two parameter indices, got {kd_pair!r}")
        kd_pair = tuple(
            _int_from_json(v, f"kd_pair[{k}]", 0, n_params) for k, v in enumerate(kd_pair)
        )
    povm = field("povm", _array_from_json, (None, dim, dim), True)
    if povm is not None:
        validate_povm(povm, dim)
        povm = tuple(povm)
    trials = field("trials", _int_from_json, 1)
    seed = field("seed", _int_from_json, 0)
    return ScenarioConfig(
        dim, generators, initial_state, theta_true, theta_guess, t,
        weight, kd_pair, povm, trials, seed,
    )


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Serialize a scenario to a JSON-ready dict, omitting absent options."""

    def optional(value, encode):
        return None if value is None else encode(value)

    data = {
        "dim": int(config.dim),
        "generators": [_array_to_json(g, pairs=True) for g in config.generators],
        "initial_state": _array_to_json(config.initial_state, pairs=True),
        "theta_true": _array_to_json(config.theta_true),
        "theta_guess": _array_to_json(config.theta_guess),
        "t": float(config.t),
        "weight": optional(config.weight, _array_to_json),
        "kd_pair": optional(config.kd_pair, lambda pair: [int(v) for v in pair]),
        "povm": optional(config.povm, lambda povm: [_array_to_json(e, pairs=True) for e in povm]),
        "trials": optional(config.trials, int),
        "seed": optional(config.seed, int),
    }
    return {key: value for key, value in data.items() if value is not None}


def _parse_int(text: str):
    """An integer literal, or infinity if it is past Python's digit limit."""
    try:
        return int(text)
    except ValueError:
        return math.inf


def load_scenario(path) -> ScenarioConfig:
    """Read and validate a scenario JSON file.

    Missing files and malformed JSON raise the underlying errors so
    callers can map them to exit codes; schema problems raise
    ValidationError with the field path.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle, parse_int=_parse_int)
    return scenario_from_dict(data)


def save_scenario(config: ScenarioConfig, path) -> None:
    """Write a scenario as indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario_to_dict(config), handle, indent=2)
        handle.write("\n")


def build_circuit(config: ScenarioConfig) -> EncodingCircuit:
    """Instantiate the encoding circuit, running the deep numeric checks."""
    return EncodingCircuit(config.generators, config.initial_state)
