"""Strict JSON loading for variety-model files.

A model file is a single JSON object with fields ``dim``, ``rho``,
``minusK``, ``nef`` (facets plus optional generators), ``chambers`` and an
optional ``counting`` block.  Rational data is carried as integer
numerators over a single positive denominator.  Unknown fields are
rejected so that typos cannot silently change a model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .counting import CountingConfig, EpsPower, EpsTable
from .errors import ModelFormatError
from .variety import Chamber, VarietyModel

__all__ = ["LoadedModel", "load_model", "load_model_file", "fixture_path"]

_TOP_KEYS = {"dim", "rho", "minusK", "nef", "chambers", "counting"}
_NEF_KEYS = {"facets", "generators"}
_CHAMBER_KEYS = {"facets", "filtration"}
_PIECE_KEYS = {"rank", "slope_num", "slope_den"}
_COUNTING_KEYS = {
    "q_num",
    "q_den",
    "br",
    "M",
    "beta",
    "outside_xi",
    "eps",
    "delta_num",
    "delta_den",
}
_EPS_POWER_KEYS = {"c_num", "c_den", "p_num", "p_den"}
_EPS_TABLE_KEYS = {"table"}


@dataclass(frozen=True)
class LoadedModel:
    model: VarietyModel
    counting: CountingConfig | None


def _check_keys(obj, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ModelFormatError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ModelFormatError(f"{where}: missing field(s) {sorted(missing)}")


def _int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ModelFormatError(f"{where}: expected an integer, got {x!r}")
    return x


def _int_list(x, where: str) -> tuple[int, ...]:
    if not isinstance(x, list):
        raise ModelFormatError(f"{where}: expected a list of integers")
    return tuple(_int(v, where) for v in x)


def _int_matrix(x, where: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(x, list):
        raise ModelFormatError(f"{where}: expected a list of integer vectors")
    return tuple(_int_list(row, where) for row in x)


def _parse_eps(obj):
    if not isinstance(obj, dict):
        raise ModelFormatError("counting.eps: expected an object")
    if "table" in obj:
        _check_keys(obj, _EPS_TABLE_KEYS, _EPS_TABLE_KEYS, "counting.eps")
        rows = obj["table"]
        if not isinstance(rows, list):
            raise ModelFormatError("counting.eps.table: expected a list")
        entries = []
        for row in rows:
            vals = _int_list(row, "counting.eps.table row")
            if len(vals) != 3:
                raise ModelFormatError("counting.eps.table row: need [d, num, den]")
            d, num, den = vals
            if den <= 0:
                raise ModelFormatError("counting.eps.table row: denominator <= 0")
            entries.append((d, Fraction(num, den)))
        return EpsTable(entries)
    _check_keys(obj, _EPS_POWER_KEYS, _EPS_POWER_KEYS, "counting.eps")
    c_den = _int(obj["c_den"], "counting.eps.c_den")
    p_den = _int(obj["p_den"], "counting.eps.p_den")
    if c_den <= 0 or p_den <= 0:
        raise ModelFormatError("counting.eps: denominators must be positive")
    return EpsPower(
        Fraction(_int(obj["c_num"], "counting.eps.c_num"), c_den),
        Fraction(_int(obj["p_num"], "counting.eps.p_num"), p_den),
    )


def _parse_counting(obj) -> CountingConfig:
    _check_keys(obj, _COUNTING_KEYS, _COUNTING_KEYS, "counting")
    q_den = _int(obj["q_den"], "counting.q_den")
    delta_den = _int(obj["delta_den"], "counting.delta_den")
    if q_den <= 0 or delta_den <= 0:
        raise ModelFormatError("counting: denominators must be positive")
    try:
        return CountingConfig(
            q=Fraction(_int(obj["q_num"], "counting.q_num"), q_den),
            br=_int(obj["br"], "counting.br"),
            m_cap=_int(obj["M"], "counting.M"),
            beta=_int_list(obj["beta"], "counting.beta"),
            outside_xi=_int(obj["outside_xi"], "counting.outside_xi"),
            eps=_parse_eps(obj["eps"]),
            delta=Fraction(_int(obj["delta_num"], "counting.delta_num"), delta_den),
        )
    except ValueError as exc:
        raise ModelFormatError(f"counting: {exc}") from exc


def _parse_chamber(obj, index: int) -> Chamber:
    where = f"chambers[{index}]"
    _check_keys(obj, _CHAMBER_KEYS, _CHAMBER_KEYS, where)
    pieces = obj["filtration"]
    if not isinstance(pieces, list):
        raise ModelFormatError(f"{where}.filtration: expected a list")
    filtration = []
    for pi, piece in enumerate(pieces):
        pw = f"{where}.filtration[{pi}]"
        _check_keys(piece, _PIECE_KEYS, _PIECE_KEYS, pw)
        den = _int(piece["slope_den"], f"{pw}.slope_den")
        if den <= 0:
            raise ModelFormatError(f"{pw}: slope_den must be positive")
        nums = _int_list(piece["slope_num"], f"{pw}.slope_num")
        filtration.append(
            (_int(piece["rank"], f"{pw}.rank"), tuple(Fraction(n, den) for n in nums))
        )
    try:
        return Chamber(_int_matrix(obj["facets"], f"{where}.facets"), filtration)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc


def load_model(data: dict) -> LoadedModel:
    """Build a model (and counting config, if present) from parsed JSON."""
    _check_keys(data, _TOP_KEYS, _TOP_KEYS - {"counting"}, "model")
    nef = data["nef"]
    _check_keys(nef, _NEF_KEYS, {"facets"}, "nef")
    generators = None
    if "generators" in nef:
        generators = _int_matrix(nef["generators"], "nef.generators")
    chambers_raw = data["chambers"]
    if not isinstance(chambers_raw, list):
        raise ModelFormatError("chambers: expected a list")
    chambers = [_parse_chamber(ch, i) for i, ch in enumerate(chambers_raw)]
    try:
        model = VarietyModel(
            rho=_int(data["rho"], "rho"),
            dim_n=_int(data["dim"], "dim"),
            minus_k=_int_list(data["minusK"], "minusK"),
            nef_facets=_int_matrix(nef["facets"], "nef.facets"),
            nef_generators=generators,
            chambers=chambers,
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
    counting = None
    if "counting" in data:
        counting = _parse_counting(data["counting"])
        if len(counting.beta) != model.rho:
            raise ModelFormatError(
                f"counting.beta has length {len(counting.beta)}, expected rho {model.rho}"
            )
    return LoadedModel(model, counting)


def load_model_file(path) -> LoadedModel:
    """Load and strictly validate a model file."""
    raw = Path(path).read_bytes()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON: {exc}") from exc
    return load_model(data)


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture model file."""
    return Path(__file__).resolve().parent / "fixtures" / name
