"""Built-in ensembles and the ensemble JSON file format.

File format: a JSON object with keys

    dimA   int >= 1
    dimB   int >= 1
    probs  list of m nonnegative floats summing to 1
    states list of m amplitude vectors, each a list of dimA*dimB [re, im]
           pairs ordered with the A index major

Amplitude vectors are normalized on load when their norm is within 1e-6 of
1 and rejected otherwise; vectors already normalized to machine precision
are kept bit-exact so that save/load round trips preserve the ensemble hash.
"""

import json
import math
import re
import reprlib

import numpy as np

from .states import (BipartitePureState, Ensemble, _check_integers,
                     _is_number)

LOAD_NORM_TOL = 1e-6
_UNIFORM_QUBIT = re.compile(r"^uniform-qubit-(\d+)$")

_SQ2 = 1.0 / math.sqrt(2.0)
_KETS = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (_SQ2, _SQ2),
    "-": (_SQ2, -_SQ2),
}
# Each qubit built-in, an equal mixture of the kets its string names.
_QUBIT_BUILTINS = {"orthonormal-pair": "01", "bb84": "01+-", "zero-plus": "0+"}
BUILTIN_NAMES = (*_QUBIT_BUILTINS, "single-entangled", "uniform-qubit-N")


def _equal_mixture(states) -> Ensemble:
    """The ensemble of the given states, each at the same probability."""
    states = tuple(states)
    return Ensemble(states=states,
                    probs=np.full(len(states), 1.0 / len(states)))


def fibonacci_qubit_states(n: int) -> list:
    """n qubit states whose Bloch vectors form a Fibonacci sphere lattice."""
    _check_integers(n=(n, 1))
    golden_angle = math.pi * (3.0 - math.sqrt(5.0))
    states = []
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        theta = math.acos(z)
        phi = golden_angle * i
        amp = np.array([math.cos(theta / 2.0),
                        complex(math.cos(phi), math.sin(phi))
                        * math.sin(theta / 2.0)], dtype=complex)
        states.append(BipartitePureState(1, 2, amp))
    return states


def builtin_ensemble(name: str) -> Ensemble:
    """Look up a named built-in ensemble: one of BUILTIN_NAMES, with
    uniform-qubit-N for any positive integer N (Fibonacci-sphere states).
    """
    if name in _QUBIT_BUILTINS:
        return _equal_mixture(BipartitePureState(1, 2, _KETS[k])
                              for k in _QUBIT_BUILTINS[name])
    if name == "single-entangled":
        return _equal_mixture([BipartitePureState(2, 2, [_SQ2, 0, 0, _SQ2])])
    match = _UNIFORM_QUBIT.match(name)
    if match:
        return _equal_mixture(fibonacci_qubit_states(int(match.group(1))))
    raise ValueError(f"unknown built-in ensemble {name!r}")


def parse_ensemble(payload: dict) -> Ensemble:
    """Build an Ensemble from a decoded JSON object, validating the schema."""
    if not isinstance(payload, dict):
        raise ValueError("ensemble file must hold a JSON object")
    missing = {"dimA", "dimB", "probs", "states"} - payload.keys()
    if missing:
        raise ValueError(f"ensemble file is missing keys: {sorted(missing)}")
    dimA, dimB = payload["dimA"], payload["dimB"]
    _check_integers(dimA=(dimA, 1), dimB=(dimB, 1))
    probs = payload["probs"]
    raw_states = payload["states"]
    if not (isinstance(probs, list) and isinstance(raw_states, list)):
        raise ValueError("probs and states must be lists")
    if len(probs) != len(raw_states):
        raise ValueError("probs and states must have equal length")
    bad = next((i for i, p in enumerate(probs) if not _is_number(p)), None)
    if bad is not None:
        raise ValueError(f"probs must be numbers, got probs[{bad}] = "
                         f"{reprlib.repr(probs[bad])}")
    states = []
    for idx, entries in enumerate(raw_states):
        if not isinstance(entries, list):
            raise ValueError(f"state {idx} must be a list of [re, im] pairs")
        if len(entries) != dimA * dimB:
            raise ValueError(f"state {idx} needs {reprlib.repr(dimA * dimB)}"
                             f" amplitudes, got {len(entries)}")
        if not all(isinstance(pair, (list, tuple)) and len(pair) == 2
                   and all(map(_is_number, pair)) for pair in entries):
            raise ValueError(f"state {idx} amplitudes must be [re, im] pairs")
        amp = np.array([complex(*pair) for pair in entries])
        top = np.abs(amp.view(float)).max(initial=0.0)  # norm overflow guard
        if top > 1.0 + LOAD_NORM_TOL:  # no unit vector has such a part
            raise ValueError(f"state {idx} has an amplitude part of modulus "
                             f"{top:.9g}, so its norm cannot be near 1")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > LOAD_NORM_TOL:
            raise ValueError(f"state {idx} has norm {norm:.9g}, more than "
                             f"{LOAD_NORM_TOL:g} away from 1")
        if abs(norm - 1.0) > 1e-12:
            amp = amp / norm
        states.append(BipartitePureState(dimA, dimB, amp))
    return Ensemble(states=tuple(states), probs=np.array(probs, dtype=float))


def load_ensemble(path) -> Ensemble:
    """Load an ensemble from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return parse_ensemble(payload)


def ensemble_to_dict(ensemble: Ensemble) -> dict:
    """Serialize an ensemble to the JSON file schema."""
    return {
        "dimA": ensemble.dimA,
        "dimB": ensemble.dimB,
        "probs": [float(p) for p in ensemble.probs],
        "states": [[[float(a.real), float(a.imag)] for a in s.amplitudes]
                   for s in ensemble.states],
    }


def ensemble_hash(ensemble: Ensemble) -> str:
    """SHA-256 of the canonical JSON serialization of the ensemble."""
    import hashlib  # here, so that only runs that write a hash load OpenSSL
    canonical = json.dumps(ensemble_to_dict(ensemble), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
