"""Every public array parameter follows one rule, ``linalg.as_array``.

Each parameter is fed malformed values one at a time, the other arguments
valid: the call returns or raises ValidationError, never another error and
never a hang.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfisher import (
    EncodingCircuit,
    SampleBatch,
    ValidationError,
    analyze_pair,
    classical_fim,
    crb_comparison,
    distillation_report,
    evolve,
    geometric_quantumness,
    kraus_from_estimate,
    learnability_interval,
    loglikelihood,
    mle_fit,
    outcome_probabilities,
    postselected_geometric_tensor,
    qfim_pure,
    sample_outcomes,
    tangent_frame,
    uhlmann_curvature,
    validate_povm,
)

from helpers import REFERENCE_GENERATORS, reference_circuit, sic_povm

CIRCUIT = reference_circuit()
THETA = [0.3, 0.5]
STATE = [1.0, 0.0]
EFFECT = np.diag([0.9, 0.4]).astype(complex)
POVM = sic_povm()
QFIM = qfim_pure(CIRCUIT, THETA)
CURVATURE = uhlmann_curvature(CIRCUIT, THETA)
COUNTS = sample_outcomes(outcome_probabilities(CIRCUIT, THETA, POVM), 200, 1).counts
ESTIMATES = [[0.3, 0.5], [0.31, 0.52], [0.29, 0.49]]

# Parameter -> (a valid value, the call that takes it with every other argument valid).
PARAMETERS = {
    "evolve.theta": (THETA, lambda v: evolve(CIRCUIT, v)),
    "tangent_frame.theta": (THETA, lambda v: tangent_frame(CIRCUIT, v)),
    "qfim_pure.theta": (THETA, lambda v: qfim_pure(CIRCUIT, v)),
    "kraus_from_estimate.theta_guess": (THETA, lambda v: kraus_from_estimate(CIRCUIT, v, 0.3)),
    "distillation_report.theta_true": (
        THETA, lambda v: distillation_report(CIRCUIT, v, THETA, 0.3)
    ),
    "distillation_report.theta_guess": (
        THETA, lambda v: distillation_report(CIRCUIT, THETA, v, 0.3)
    ),
    "analyze_pair.theta": (THETA, lambda v: analyze_pair(CIRCUIT, v, (0, 1), EFFECT)),
    "EncodingCircuit.generators": (REFERENCE_GENERATORS, lambda v: EncodingCircuit(v, STATE)),
    "EncodingCircuit.initial_state": (STATE, lambda v: EncodingCircuit(REFERENCE_GENERATORS, v)),
    "postselected_geometric_tensor.effect": (
        EFFECT, lambda v: postselected_geometric_tensor(CIRCUIT, THETA, v)
    ),
    "analyze_pair.effect": (EFFECT, lambda v: analyze_pair(CIRCUIT, THETA, (0, 1), v)),
    "validate_povm.effects": (POVM, validate_povm),
    "classical_fim.povm": (POVM, lambda v: classical_fim(CIRCUIT, THETA, v)),
    "learnability_interval.fim": (QFIM, learnability_interval),
    "learnability_interval.weight": (np.eye(2), lambda v: learnability_interval(QFIM, v)),
    "geometric_quantumness.qfim": (QFIM, lambda v: geometric_quantumness(v, CURVATURE)),
    "geometric_quantumness.curvature": (CURVATURE, lambda v: geometric_quantumness(QFIM, v)),
    "sample_outcomes.probs": ([0.3, 0.7], lambda v: sample_outcomes(v, 10, 0)),
    "loglikelihood.counts": ([3, 7], lambda v: loglikelihood(v, [0.3, 0.7])),
    "loglikelihood.probs": ([0.3, 0.7], lambda v: loglikelihood([3, 7], v)),
    "mle_fit.batch.counts": (
        COUNTS, lambda v: mle_fit(SampleBatch(1, 200, v), CIRCUIT, POVM, THETA)
    ),
    "crb_comparison.estimates": (
        ESTIMATES, lambda v: crb_comparison(v, CIRCUIT, THETA, POVM, 100)
    ),
}


def _with_leaf(valid, index: int, leaf):
    """The valid value as nested lists with one entry, chosen by ``index``, replaced."""
    array = np.asarray(valid)
    nested = array.tolist()
    *path, last = np.unravel_index(index % array.size, array.shape)
    parent = nested
    for k in path:
        parent = parent[k]
    parent[last] = leaf
    return nested


def _mapped(nested, leaf):
    return [_mapped(item, leaf) for item in nested] if isinstance(nested, list) else leaf(nested)


# Malformed value name -> value from (valid value, entry index). Non-finite
# entries come as arrays, which reach the numerics past any attribute lookup.
MALFORMED = {
    "text": lambda valid, k: "abc",
    "numeric-text": lambda valid, k: "0.3",
    "bool": lambda valid, k: True,
    "none": lambda valid, k: None,
    "dict": lambda valid, k: {"a": 1},
    "empty": lambda valid, k: [],
    "empty-nested": lambda valid, k: [[]],
    "ragged": lambda valid, k: [[1.0, 2.0], [3.0]],
    "scalar": lambda valid, k: 5,
    "wrong-size": lambda valid, k: np.eye(3),
    "truncated": lambda valid, k: np.asarray(valid)[..., :-1],
    "nested": lambda valid, k: np.asarray(valid)[None],
    "all-numeric-text": lambda valid, k: _mapped(np.asarray(valid).tolist(), str),
    "all-bools": lambda valid, k: _mapped(np.asarray(valid).tolist(), bool),
    "nan": lambda valid, k: np.array(_with_leaf(valid, k, math.nan)),
    "inf": lambda valid, k: np.array(_with_leaf(valid, k, math.inf)),
    "-inf": lambda valid, k: np.array(_with_leaf(valid, k, -math.inf)),
    "huge-int": lambda valid, k: _with_leaf(valid, k, 10**30),
    "numeric-text-entry": lambda valid, k: _with_leaf(valid, k, "0.3"),
    "none-entry": lambda valid, k: _with_leaf(valid, k, None),
    "complex-entry": lambda valid, k: _with_leaf(valid, k, 0.5 + 1j),
}


def test_valid_values_are_accepted():
    for valid, call in PARAMETERS.values():
        call(valid)


# Every parameter meets every malformed value; Hypothesis picks the entry that
# the entry-level values replace.
@settings(deadline=None, derandomize=True, max_examples=20)
@given(index=st.integers(0, 63))
def test_array_inputs_return_or_raise_validation_error(index):
    for parameter, (valid, call) in PARAMETERS.items():
        for malformed, make in MALFORMED.items():
            try:
                call(make(valid, index))
            except ValidationError:
                pass
            except Exception as exc:
                raise AssertionError(f"{parameter} given {malformed}: {exc!r}") from exc


# A bool among numbers is read by numpy as 0 or 1, so only a walk over the
# entries can refuse it; each parameter gets one as a Python and a numpy bool.
@pytest.mark.parametrize("parameter", sorted(PARAMETERS))
def test_bool_entry_raises_validation_error(parameter):
    valid, call = PARAMETERS[parameter]
    for index in range(np.asarray(valid).size):
        for leaf in (True, np.False_):
            with pytest.raises(ValidationError, match="got a bool entry"):
                call(_with_leaf(valid, index, leaf))
