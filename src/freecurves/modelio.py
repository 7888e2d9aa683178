"""Strict JSON loading for variety-model files.

A model file is a single JSON object with fields ``dim``, ``rho``,
``minusK``, ``nef`` (its facets), ``chambers`` and an optional ``counting``
block.  Rational data is carried as integer numerators over a single
positive denominator.  Unknown and repeated fields are rejected so that
typos cannot silently change a model.

``load_model_file`` reads the file on every call but parses and builds a
model only once per distinct content (and integer digit limit) per
process, from a small LRU cache.  The ``LoadedModel`` it returns is shared
between callers and immutable, so what a model finds lazily, such as its
nef rays, is found once per content too.  An edit to the file is read on
the next call; an error is never kept, so a malformed file raises on every
call.  Only a caller that loads the same content again in one process
(library code, in-process ``cli.run``) gains; a one-shot ``freecurves``
process loads its one model once, as before.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .counting import CountingConfig, EpsPower, EpsTable
from .errors import ModelFormatError, Value
from .variety import Chamber, VarietyModel

__all__ = ["LoadedModel", "load_model", "load_model_file", "fixture_path"]

_TOP_KEYS = {"dim", "rho", "minusK", "nef", "chambers", "counting"}
_NEF_KEYS = {"facets"}
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


class LoadedModel(Value):
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


def _fractions(nums, den, where: str) -> tuple[Fraction, ...]:
    """Integer numerators over the denominator ``den`` read at ``where``: the
    one place the rule that a denominator is positive lives, checked once
    even for no numerators."""
    if _int(den, where) <= 0:
        raise ModelFormatError(f"{where} must be positive")
    return tuple(Fraction(n, den) for n in nums)


def _fraction(obj, field: str, where: str) -> Fraction:
    """The rational ``{field}_num / {field}_den`` of the object at ``where``."""
    num = _int(obj[field + "_num"], f"{where}.{field}_num")
    return _fractions((num,), obj[field + "_den"], f"{where}.{field}_den")[0]


def _parse_eps(obj):
    if not isinstance(obj, dict):
        raise ModelFormatError("counting.eps: expected an object")
    if "table" in obj:
        _check_keys(obj, _EPS_TABLE_KEYS, _EPS_TABLE_KEYS, "counting.eps")
        rows = obj["table"]
        if not isinstance(rows, list):
            raise ModelFormatError("counting.eps.table: expected a list")
        entries = []
        for i, row in enumerate(rows):
            vals = _int_list(row, "counting.eps.table row")
            if len(vals) != 3:
                raise ModelFormatError("counting.eps.table row: need [d, num, den]")
            d, num, den = vals
            (value,) = _fractions((num,), den, f"counting.eps.table[{i}][2]")
            entries.append((d, value))
        return EpsTable(entries)
    _check_keys(obj, _EPS_POWER_KEYS, _EPS_POWER_KEYS, "counting.eps")
    return EpsPower(
        _fraction(obj, "c", "counting.eps"), _fraction(obj, "p", "counting.eps")
    )


def _parse_counting(obj) -> CountingConfig:
    _check_keys(obj, _COUNTING_KEYS, _COUNTING_KEYS, "counting")
    try:
        return CountingConfig(
            q=_fraction(obj, "q", "counting"),
            br=_int(obj["br"], "counting.br"),
            m_cap=_int(obj["M"], "counting.M"),
            beta=_int_list(obj["beta"], "counting.beta"),
            outside_xi=_int(obj["outside_xi"], "counting.outside_xi"),
            eps=_parse_eps(obj["eps"]),
            delta=_fraction(obj, "delta", "counting"),
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
        nums = _int_list(piece["slope_num"], f"{pw}.slope_num")
        slopes = _fractions(nums, piece["slope_den"], f"{pw}.slope_den")
        filtration.append((_int(piece["rank"], f"{pw}.rank"), slopes))
    try:
        return Chamber(_int_matrix(obj["facets"], f"{where}.facets"), filtration)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc


def load_model(data: dict) -> LoadedModel:
    """Build a model (and counting config, if present) from parsed JSON."""
    _check_keys(data, _TOP_KEYS, _TOP_KEYS - {"counting"}, "model")
    nef = data["nef"]
    _check_keys(nef, _NEF_KEYS, _NEF_KEYS, "nef")
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


def _unique_fields(pairs) -> dict:
    """A decoded JSON object; a repeated field raises rather than letting the
    last one win."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = sorted(key for key, n in counts.items() if n > 1)
        raise ModelFormatError(f"repeated field(s) {repeated}")
    return obj


# Reading an integer takes time quadratic in its digits (a million take
# seconds), so model files keep the interpreter's default 4,300-digit limit
# even where it is lifted, as the freecurves entry point does to print long
# results.  The lookbehind keeps the scan linear.
_LONG_INTEGER = re.compile(r"(?<![0-9])[0-9]{4301}")


# Distinct model contents kept per process: enough for every model a session
# alternates between, small enough that the kept bytes stay negligible.
_CACHE_SIZE = 16
# What a fresh load returns depends only on the bytes and this limit (a
# lower limit refuses integers that the default admits); 3.10.0-3.10.6 have
# no limit.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)


@lru_cache(maxsize=_CACHE_SIZE)
def _load_bytes(raw: bytes, digit_limit: int | None) -> LoadedModel:
    """The model that ``raw`` holds.  ``digit_limit`` is only a key: the
    decoder reads the interpreter's limit itself."""
    try:
        text = raw.decode("utf-8")
        if _LONG_INTEGER.search(text):
            raise ModelFormatError("an integer has more than 4,300 digits")
        data = json.loads(text, object_pairs_hook=_unique_fields)
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers past a digit limit
        # set lower than the default; RecursionError covers nesting too deep
        raise ModelFormatError(f"invalid JSON: {exc}") from exc
    return load_model(data)


@lru_cache(maxsize=_CACHE_SIZE)
def _str_name(path: str) -> str:
    """``str(Path(path))``, kept per name: building a ``Path`` costs about
    a third of reading a small model."""
    return str(Path(path))


def load_model_file(path) -> LoadedModel:
    """Load and strictly validate a model file.

    The file is read on every call, with one ``open``, so an edit shows on
    the next one, but its content is parsed and built once per process: the
    same bytes, under any path, give the same shared, immutable
    ``LoadedModel``.  ``path`` is read as ``Path(path)``, so it is refused
    where ``Path`` refuses it.  Errors are not kept; every ModelFormatError
    names the file as pathlib does."""
    name = _str_name(path) if isinstance(path, str) else str(Path(path))
    with open(name, "rb") as file:
        raw = file.read()
    try:
        return _load_bytes(raw, _digit_limit())
    except ModelFormatError as exc:
        raise ModelFormatError(f"{name}: {exc}") from exc


_FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture model file."""
    return _FIXTURES / name
