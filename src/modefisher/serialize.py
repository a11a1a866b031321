"""JSON schemas for states and frames, shared with the CLI.

State object:
  {"N": int, "kind": "fock"|"pure"|"diagonal"|"density",
   "k": int                               (fock; N and k integral numbers, 4 or 4.0)
   "amplitudes_re": [..], "amplitudes_im": [..]   (pure)
   "p": [..]                              (diagonal)
   "rho_re": [[..]], "rho_im": [[..]]     (density)
   "frame": frame object}

Frame object:
  {"kind": "spatial"} | {"kind": "bogolubov", "phi": real}
  | {"kind": "unitary", "u_re": [[..]], "u_im": [[..]]}

A state or frame that is not an object, a missing or non-numeric field, or real and imaginary
parts of different shapes raise ValueError.
"""
from __future__ import annotations

import json

import numpy as np

from .fock import SectorState, diagonal_state, density_state, make_fock_state, pure_state
from .frames import ModeFrame, bogolubov_frame, custom_frame, spatial_frame

SCHEMA_VERSION = "1"


def frame_to_json(frame: ModeFrame) -> dict:
    if frame.is_spatial:
        return {"kind": "spatial"}
    if frame.label == "bogolubov" and frame.phi is not None:
        return {"kind": "bogolubov", "phi": frame.phi}
    return {
        "kind": "unitary",
        "u_re": frame.mixing.real.tolist(),
        "u_im": frame.mixing.imag.tolist(),
    }


def frame_from_json(obj: dict) -> ModeFrame:
    kind = _object(obj, "frame").get("kind")
    if kind == "spatial":
        return spatial_frame()
    if kind == "bogolubov":
        return bogolubov_frame(_number(obj, "phi"))
    if kind == "unitary":
        return custom_frame(_complex_array(obj, "u_re", "u_im"))
    raise ValueError(f"unknown frame kind {kind!r}")


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r:.40}")
    return obj


def _field(obj: dict, field: str):
    if field not in obj:
        raise ValueError(f"{field} is missing")
    return obj[field]


def _number(obj: dict, field: str, integral: bool = False):
    """obj[field], a JSON number as a float, or with `integral` an integral one (4 or 4.0) as
    an int; a bool, a string, an array, NaN or a fraction raises ValueError naming the field."""
    value = _field(obj, field)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or integral and value % 1:
        raise ValueError(f"{field} must be {'an integer' if integral else 'a number'}, "
                         f"got {value!r:.40}")
    return int(value) if integral else float(_floats(obj, field))


def _complex_array(obj: dict, re: str, im: str) -> np.ndarray:
    """obj[re] + i obj[im], set part by part: 1j * inf would make a NaN real part and a numpy
    warning.  The two parts must have one shape; a mismatch raises ValueError naming both."""
    real, imag = _floats(obj, re), _floats(obj, im)
    if real.shape != imag.shape:
        raise ValueError(f"{re} and {im} must have the same shape, got {real.shape} and "
                         f"{imag.shape}")
    out = real.astype(complex)
    out.imag = imag
    return out


def _floats(obj: dict, field: str) -> np.ndarray:
    """obj[field] as a float array.  An element that is not a JSON number (a bool, a string,
    null, an object, a ragged row) or lies past double range raises ValueError naming the
    field: numpy's own float conversion would read "1" and true as 1.0, and null as NaN."""
    values = np.array(_field(obj, field), dtype=object)
    kinds = set(map(type, values.flat))
    if all(kind is not bool and issubclass(kind, (int, float)) for kind in kinds):
        try:
            return values.astype(float)
        except OverflowError:  # an integer such as 10**400
            pass
    raise ValueError(f"{field} must hold numbers in double range, got {obj[field]!r:.40}")


def state_to_json(state: SectorState) -> dict:
    obj: dict = {"N": state.n_particles, "frame": frame_to_json(state.frame)}
    if state.amplitudes is not None:
        obj["kind"] = "pure"
        obj["amplitudes_re"] = state.amplitudes.real.tolist()
        obj["amplitudes_im"] = state.amplitudes.imag.tolist()
    else:
        obj["kind"] = "density"
        obj["rho_re"] = state.rho.real.tolist()
        obj["rho_im"] = state.rho.imag.tolist()
    return obj


def state_from_json(obj: dict) -> SectorState:
    big_n = _number(_object(obj, "state"), "N", integral=True)
    frame = frame_from_json(obj.get("frame", {"kind": "spatial"}))
    kind = obj.get("kind")
    if kind == "fock":
        return make_fock_state(_number(obj, "k", integral=True), big_n, frame)
    if kind == "pure":
        c = _complex_array(obj, "amplitudes_re", "amplitudes_im")
        if c.shape != (big_n + 1,):
            raise ValueError(f"amplitudes must have length N+1 = {big_n + 1}")
        return pure_state(c, frame)
    if kind == "diagonal":
        p = _floats(obj, "p")
        if p.shape != (big_n + 1,):
            raise ValueError(f"p must have length N+1 = {big_n + 1}")
        return diagonal_state(p, frame)
    if kind == "density":
        rho = _complex_array(obj, "rho_re", "rho_im")
        if rho.shape != (big_n + 1, big_n + 1):
            raise ValueError(f"rho must be (N+1)x(N+1) = {big_n + 1}x{big_n + 1}")
        return density_state(rho, frame)
    raise ValueError(f"unknown state kind {kind!r}")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
