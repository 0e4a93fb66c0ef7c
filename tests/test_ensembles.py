import json
import math
import warnings

import numpy as np
import pytest

from tradeoff.ensembles import (
    builtin_ensemble,
    ensemble_hash,
    ensemble_to_dict,
    fibonacci_qubit_states,
    load_ensemble,
    parse_ensemble,
)
from tradeoff.states import ensemble_stats

ZERO_PLUS_SHA = "580e25435434e16c21ffe8221064537c7a18d9cb8c0f1ec598af401f82383b0e"


def test_builtin_orthonormal_pair():
    e = builtin_ensemble("orthonormal-pair")
    assert (e.m, e.dimA, e.dimB) == (2, 1, 2)
    stats = ensemble_stats(e)
    assert stats.S == pytest.approx(1.0)
    assert stats.Sbar == pytest.approx(0.0, abs=1e-12)


def test_builtin_bb84():
    stats = ensemble_stats(builtin_ensemble("bb84"))
    assert stats.S == pytest.approx(1.0)
    assert stats.chi == pytest.approx(1.0)
    assert stats.H == pytest.approx(2.0)


def test_builtin_zero_plus():
    e = builtin_ensemble("zero-plus")
    overlap = abs(np.vdot(e.states[0].amplitudes, e.states[1].amplitudes))
    assert overlap == pytest.approx(1.0 / math.sqrt(2.0))


def test_builtin_single_entangled():
    stats = ensemble_stats(builtin_ensemble("single-entangled"))
    assert stats.S == pytest.approx(1.0)
    assert stats.chi == pytest.approx(0.0, abs=1e-12)


def test_uniform_qubit_family():
    e = builtin_ensemble("uniform-qubit-24")
    assert e.m == 24
    assert np.all(e.probs == 1.0 / 24)
    stats = ensemble_stats(e)
    assert stats.S == pytest.approx(1.0, abs=1e-4)  # near-uniform Bloch cover
    with pytest.raises(ValueError):
        builtin_ensemble("uniform-qubit-0")
    with pytest.raises(ValueError):
        builtin_ensemble("uniform-qubit-")
    with pytest.raises(ValueError):
        builtin_ensemble("no-such-ensemble")


def test_fibonacci_states_are_spread():
    states = fibonacci_qubit_states(12)
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    overlaps = [abs(np.vdot(states[i].amplitudes, states[j].amplitudes))
                for i, j in pairs]
    assert max(overlaps) < 1.0 - 1e-3  # no two states coincide


def test_round_trip_through_json(tmp_path):
    e = builtin_ensemble("bb84")
    path = tmp_path / "bb84.json"
    path.write_text(json.dumps(ensemble_to_dict(e)), encoding="utf-8")
    loaded = load_ensemble(path)
    assert loaded.m == e.m
    np.testing.assert_allclose(loaded.probs, e.probs)
    for a, b in zip(loaded.states, e.states):
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)
    assert ensemble_hash(loaded) == ensemble_hash(e)


def test_hash_is_stable_and_sensitive(zero_plus):
    assert ensemble_hash(zero_plus) == ZERO_PLUS_SHA
    assert ensemble_hash(builtin_ensemble("bb84")) != ZERO_PLUS_SHA


def test_norm_tolerance_on_load():
    payload = {"dimA": 1, "dimB": 2, "probs": [1.0],
               "states": [[[1.0 + 5e-7, 0.0], [0.0, 0.0]]]}
    e = parse_ensemble(payload)  # renormalized silently
    assert np.linalg.norm(e.states[0].amplitudes) == pytest.approx(1.0)
    payload["states"] = [[[1.0 + 5e-6, 0.0], [0.0, 0.0]]]
    with pytest.raises(ValueError, match="norm"):
        parse_ensemble(payload)


def test_bad_payloads_rejected():
    with pytest.raises(ValueError, match="JSON object"):
        parse_ensemble([1, 2, 3])
    with pytest.raises(ValueError, match="missing keys"):
        parse_ensemble({"dimA": 1, "dimB": 2, "probs": [1.0]})
    with pytest.raises(ValueError, match="equal length"):
        parse_ensemble({"dimA": 1, "dimB": 2, "probs": [0.5, 0.5],
                        "states": [[[1.0, 0.0], [0.0, 0.0]]]})
    with pytest.raises(ValueError, match="amplitudes"):
        parse_ensemble({"dimA": 1, "dimB": 2, "probs": [1.0],
                        "states": [[[1.0, 0.0]]]})
    with pytest.raises(ValueError, match=r"\[re, im\]"):
        parse_ensemble({"dimA": 1, "dimB": 2, "probs": [1.0],
                        "states": [[["a", "b"], [0.0, 0.0]]]})


NAN = float("nan")


@pytest.mark.parametrize("patch, match", [
    ({"probs": [NAN, 0.5]}, "finite"),
    ({"probs": [float("inf"), 0.5]}, "finite"),
    ({"states": [[[NAN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
     "finite"),
    ({"dimA": 1.7}, "integer"),
    ({"dimB": "2"}, "integer"),
    ({"dimA": 0}, "positive"),  # not an amplitude-count error
])
def test_non_finite_and_non_integer_input_rejected(patch, match):
    payload = {"dimA": 1, "dimB": 2, "probs": [0.5, 0.5],
               "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    with pytest.raises(ValueError, match=match):
        parse_ensemble({**payload, **patch})


@pytest.mark.parametrize("pair", [[1e308, 0.0], [1e308, 1e308],
                                  [10 ** 400, 0]],
                         ids=["real", "complex", "integer"])
def test_huge_amplitudes_rejected_without_warning(pair):
    # The norm of such a vector overflowed with a RuntimeWarning, and an
    # integer beyond the float range raised OverflowError: under the console
    # script's error::RuntimeWarning both ended in a traceback.
    payload = {"dimA": 1, "dimB": 2, "probs": [0.5, 0.5],
               "states": [[pair, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="state 0"):
            parse_ensemble(payload)
        with pytest.raises(ValueError, match="probs must be numbers"):
            parse_ensemble({**payload, "probs": [10 ** 400, 0.5]})


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_ensemble(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_ensemble(tmp_path / "absent.json")
