"""On-disk formats: sparse/dense fields, term symbols, reports; atomic writes.

Sparse fields serialize as JSON with coefficients sorted in frequency order;
dense fields as a raw little-endian complex64 array next to a JSON sidecar.
Term-form symbols store one descriptor per multiplier, written by the
multiplier's own to_json() and read back by a lookup on its "kind".  The
support radii are not stored: they are derived from the multiplier when it
is rebuilt.  Malformed input raises ValueError (KeyError for a missing
key): a value of the wrong JSON type is never cast, truncated or dropped.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .fields import DenseField, SparseField
from .symbols import (
    Ball,
    Block,
    Corona,
    Modulated,
    Multiplier,
    One,
    RadialBump,
    SeparableSymbol,
    Term,
)
from .cutoffs import CutoffProfile


def atomic_write_text(path: Path | str, text: str) -> Path:
    """atomic_write_bytes of the UTF-8 encoding of text."""
    return atomic_write_bytes(path, text.encode())


def atomic_write_bytes(path: Path | str, blob: bytes) -> Path:
    """Write via a temp file and rename, so readers never see partial data."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def json_text(obj) -> str:
    """obj as standard JSON text; a NaN or infinite float raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=False, allow_nan=False) + "\n"


def write_json(path: Path | str, obj) -> Path:
    """atomic_write_text of json_text(obj)."""
    return atomic_write_text(path, json_text(obj))


# -- sparse fields ---------------------------------------------------------------


def _index(obj: dict | list, key: str | int) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _number(obj: dict, key: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"field {key!r} is too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"field {key!r} must be finite, got {value!r}")
    return value


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def sparse_to_json(u: SparseField) -> dict:
    return {
        "n": u.n,
        "coeffs": [
            {"xi": list(xi), "re": c.real, "im": c.imag} for xi, c in u.items()
        ],
    }


def sparse_from_json(obj: dict) -> SparseField:
    """Inverse of sparse_to_json; a malformed shape or value raises ValueError.

    That covers a field or coefficient entry that is not an object, a
    dimension other than 1 or 2, a "coeffs" or "xi" that is not a list, a
    frequency of the wrong length or with a non-integer component, a repeated
    frequency and a non-numeric or non-finite "re"/"im" (also one too large
    for a float).
    """
    n = _index(_typed(obj, dict, "sparse field"), "n")
    if n not in (1, 2):
        raise ValueError(f"dimension {n} not in {{1, 2}}")
    coeffs = {}
    for entry in _typed(obj["coeffs"], list, "coeffs"):
        xi = _typed(_typed(entry, dict, "coefficient entry")["xi"], list, "xi")
        if len(xi) != n:
            raise ValueError(f"frequency {xi!r} does not have {n} components")
        xi = tuple(_index(xi, i) for i in range(n))
        if xi in coeffs:
            raise ValueError(f"frequency {list(xi)} appears twice")
        coeffs[xi] = complex(_number(entry, "re"), _number(entry, "im"))
    return SparseField(n, coeffs)


def save_sparse(u: SparseField, path: Path | str) -> Path:
    return write_json(path, sparse_to_json(u))


def load_sparse(path: Path | str) -> SparseField:
    with open(path) as handle:
        return sparse_from_json(json.load(handle))


# -- dense fields ------------------------------------------------------------------


def save_dense(g: DenseField, base: Path | str) -> tuple[Path, Path]:
    """Write <base>.c64 (raw little-endian complex64) and <base>.json."""
    base = Path(base)
    data = np.ascontiguousarray(g.samples.astype("<c8"))
    bin_path = atomic_write_bytes(base.with_suffix(".c64"), data.tobytes())
    meta_path = write_json(base.with_suffix(".json"), {"M": g.M, "n": g.n})
    return bin_path, meta_path


def load_dense(base: Path | str) -> DenseField:
    """Inverse of save_dense; a malformed sidecar or sample file raises ValueError.

    The sidecar must be an object with an integer "n" in {1, 2} and an
    integer "M" that is a power of two >= 2, and the .c64 file must hold
    exactly M^n samples: 8 M^n bytes, none left over.
    """
    base = Path(base)
    with open(base.with_suffix(".json")) as handle:
        meta = _typed(json.load(handle), dict, "dense sidecar")
    n, M = _index(meta, "n"), _index(meta, "M")
    if n not in (1, 2):
        raise ValueError(f"dimension {n} not in {{1, 2}}")
    if M < 2 or M & (M - 1):
        raise ValueError(f"grid size {M} is not a power of two >= 2")
    size = base.with_suffix(".c64").stat().st_size
    if size != 8 * M**n:
        raise ValueError(f"{size} bytes in the .c64 file, expected 8 M^n = {8 * M**n}")
    raw = np.fromfile(base.with_suffix(".c64"), dtype="<c8")
    return DenseField(n, M, raw.reshape((M,) * n).astype(np.complex128))


# -- term-form symbols ---------------------------------------------------------------


def _bump(obj: dict) -> RadialBump:
    _typed(obj, dict, "chi")
    return RadialBump(
        *(_number(obj, key) for key in ("lo", "hi", "plo", "phi")),
        _typed(obj["kind"], str, "chi kind"),
        _index(obj, "zero_order"),
    )


def profile_from_json(obj: dict) -> CutoffProfile:
    """A cutoff profile from exactly the keys "r", "R" (numbers) and "kind" (a string)."""
    extra = _typed(obj, dict, "profile").keys() - {"r", "R", "kind"}
    if extra:
        raise ValueError(f"unknown profile keys {sorted(extra)}")
    return CutoffProfile(
        _number(obj, "r"), _number(obj, "R"), _typed(obj["kind"], str, "profile kind")
    )


_MULT_FROM_JSON = {
    "one": lambda m: One(),
    "corona": lambda m: Corona(_bump(m["chi"]), _index(m, "j")),
    "block": lambda m: Block(profile_from_json(m["profile"]), _index(m, "j")),
    "ball": lambda m: Ball(_number(m, "radius")),
    "modulated": lambda m: Modulated(
        mult_from_json(m["inner"]), _index(m, "m"), profile_from_json(m["profile"])
    ),
}


def mult_from_json(obj: dict) -> Multiplier:
    kind = _typed(obj, dict, "multiplier")["kind"]
    if not isinstance(kind, str) or kind not in _MULT_FROM_JSON:
        raise ValueError(f"unknown multiplier kind {kind!r}")
    return _MULT_FROM_JSON[kind](obj)


def symbol_to_json(a: SeparableSymbol) -> dict:
    terms = [{"xpart": sparse_to_json(t.xpart), "mult": t.mult.to_json()} for t in a.terms]
    return {"d": a.d, "n": a.n, "terms": terms}


def symbol_from_json(obj: dict) -> SeparableSymbol:
    """Inverse of symbol_to_json; a malformed shape or value raises ValueError.

    Besides the checks of sparse_from_json on each x-part and of the
    multiplier constructors, that covers a symbol or term that is not an
    object, a "terms" that is not a list, an order "d" that is not a finite
    number, a dimension "n" other than the integers 1 and 2, an x-part of
    another dimension, and a radius, bump or profile value of the wrong type.
    """
    n = _index(_typed(obj, dict, "symbol"), "n")
    if n not in (1, 2):
        raise ValueError(f"dimension {n} not in {{1, 2}}")
    terms = []
    for entry in _typed(obj["terms"], list, "terms"):
        xpart = sparse_from_json(_typed(entry, dict, "term")["xpart"])
        if xpart.n != n:
            raise ValueError(f"x-part of dimension {xpart.n} in a symbol of dimension {n}")
        terms.append(Term(xpart, mult_from_json(entry["mult"])))
    return SeparableSymbol(_number(obj, "d"), n, tuple(terms))


def save_symbol(a: SeparableSymbol, path: Path | str) -> Path:
    return write_json(path, symbol_to_json(a))


def load_symbol(path: Path | str) -> SeparableSymbol:
    with open(path) as handle:
        return symbol_from_json(json.load(handle))
