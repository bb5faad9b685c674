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

from .circuit import EncodingCircuit, _check_int, _check_pair, _check_real
from .distill import _check_transmissivity
from .errors import ValidationError
from .fisher import MAX_FLOAT_TRIALS, _validate_weight, validate_povm

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


def _array_from_json(value, path: str, shape: tuple, pairs: bool = False) -> np.ndarray:
    """Decode numbers, or [re, im] pairs if ``pairs``, nested to ``shape``.

    A None in ``shape`` takes any nonzero length. Errors name the path of
    the first entry in file order that is off shape or not a number, else
    of the first number that is not finite (an integer too large for a
    float counts as infinite). Pairs are read through a complex128 view,
    which keeps the sign of every zero.

    Each nesting level is checked at once by its types and lengths. A level
    that fails is scanned for its first misfit, and only the entries before
    it go down a level: a misfit under them comes earlier in the file.
    """
    dims = shape + (2,) if pairs else shape
    level, lengths, error = [value], [], None

    def at(k) -> str:
        return path + "".join(f"[{i}]" for i in np.unravel_index(k, lengths))

    def keep_until_misfit(fits, message) -> None:
        nonlocal level, error
        for k, node in enumerate(level):
            if not fits(node):
                error, level = (at(k), message(node)), level[:k]
                return

    for depth, size in enumerate(dims):
        is_pair = pairs and depth == len(dims) - 1
        kinds = (list, tuple) if is_pair else (list,)

        def fits(node):
            return isinstance(node, kinds) and (len(node) == size if size else len(node) > 0)

        uniform = set(map(type, level)) <= set(kinds) and len(set(map(len, level))) == 1
        if not (uniform and fits(level[0])):
            keep_until_misfit(
                fits,
                lambda node: f"complex entries must be [re, im] pairs, got {node!r}"
                if is_pair
                else f"expected a list of {size or 'one or more'} entries",
            )
        lengths.append(len(level[0]) if level else 0)
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {float, int}:
        keep_until_misfit(
            lambda leaf: isinstance(leaf, (int, float)) and not isinstance(leaf, bool),
            lambda leaf: f"expected a number, got {leaf!r}",
        )
    if error is not None:
        _fail(*error)
    try:
        array = np.array(level, dtype=float)
    except OverflowError:
        array = np.array([_check_real(leaf, path) for leaf in level])
    bad = np.flatnonzero(~np.isfinite(array))
    if len(bad):
        _fail(at(bad[0]), "expected a finite number")
    array = array.reshape(lengths)
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

    dim = field("dim", _check_int, 1)
    generators = tuple(field("generators", _array_from_json, (None, dim, dim), True))
    n_params = len(generators)
    initial_state = field("initial_state", _array_from_json, (dim,), True)
    theta_true = field("theta_true", _array_from_json, (n_params,))
    theta_guess = field("theta_guess", _array_from_json, (n_params,))
    t = _check_transmissivity(float(field("t", _array_from_json, ())), "t")
    weight = field("weight", _array_from_json, (n_params, n_params))
    if weight is not None:
        _validate_weight(weight, n_params)
    kd_pair = field("kd_pair", _check_pair, n_params)
    povm = field("povm", _array_from_json, (None, dim, dim), True)
    if povm is not None:
        validate_povm(povm, dim)
        povm = tuple(povm)
    trials = field("trials", _check_int, 1, MAX_FLOAT_TRIALS)
    seed = field("seed", _check_int, 0)
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
    callers can map them to exit codes; nesting too deep for the JSON
    reader and schema problems raise ValidationError, the latter with the
    field path.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_int=_parse_int)
        except RecursionError:
            raise ValidationError("scenario is nested too deeply to parse") from None
    return scenario_from_dict(data)


def save_scenario(config: ScenarioConfig, path) -> None:
    """Write a scenario as indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scenario_to_dict(config), handle, indent=2)
        handle.write("\n")


def build_circuit(config: ScenarioConfig) -> EncodingCircuit:
    """Instantiate the encoding circuit, running the deep numeric checks."""
    return EncodingCircuit(config.generators, config.initial_state)
