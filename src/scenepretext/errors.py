"""Exception types raised across the pipeline, and the one reader and
writer of stored JSON: each stored record checks in ``__post_init__`` that
every value has its declared type (`check_field_types`, `numeric_array`),
`from_record` reads one from a JSON object, turning a refusal into
CorruptManifest, `read_record` reads one from a stored JSON file, and
`write_json` writes any document of records, arrays and JSON values through
a temporary file. This module imports nothing from the package, so every
module can use it.
"""

import json
import os
from dataclasses import fields, is_dataclass

import numpy as np


class ScenePretextError(Exception):
    """Base class for all library errors."""


class AllZeroCounts(ScenePretextError):
    """A category table contains no observations at all."""


class DimensionMismatch(ScenePretextError):
    """Array or table dimensions are mutually inconsistent."""


class PlacementFailure(ScenePretextError):
    """Rejection sampling could not place an object within the retry budget."""


class UnknownCategory(ScenePretextError):
    """No asset recipe exists for the requested category id."""


class DegenerateObject(ScenePretextError):
    """An object has too few points for the requested operation."""


class TooFewPoints(ScenePretextError):
    """A point set is smaller than the requested sample size."""


class NonFiniteInput(ScenePretextError):
    """An input array contains NaN or infinity."""


class EmptyBatch(ScenePretextError):
    """A loss batch contains no scene pairs."""


class EmptySet(ScenePretextError):
    """A point set that must be nonempty is empty."""


class CorruptManifest(ScenePretextError):
    """A stored file is missing, unreadable or fails validation."""


class KernelUnavailable(ScenePretextError):
    """A compiled kernel cannot be built or loaded: no C compiler, a failed
    compile or an unwritable cache directory."""


_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool,
          "str | None": (str, type(None)), "list[dict]": list, "dict": dict}


def check_field_types(record) -> None:
    """TypeError for a field whose value is not of its declared type; an
    int is a float, a bool is only a bool. Fields of other types are
    checked by their record."""
    for f in fields(record):
        v = getattr(record, f.name)
        if (not isinstance(v, _TYPES.get(f.type, object))
                or isinstance(v, bool) and f.type != "bool"):
            raise TypeError(f"{type(record).__name__}.{f.name}: "
                            f"{type(v).__name__} is not {f.type}")


def numeric_array(value, what: str, integer: bool = False) -> np.ndarray:
    """``value`` as a float64 array, or an intp array when ``integer`` is
    set. Strings, booleans, nulls and, when ``integer`` is set, floats
    raise TypeError naming ``what`` and the values' type."""
    arr = np.asarray(value)
    if arr.dtype.kind not in ("iu" if integer and arr.size else "iuf"):
        kind = {"b": "bool", "U": "str", "f": "float"}.get(arr.dtype.kind,
                                                             "non-numeric")
        raise TypeError(f"{what}: {kind} values are not "
                        f"{'integers' if integer else 'numbers'}")
    return arr.astype(np.intp if integer else np.float64, copy=False)


def from_record(cls, doc, what: str):
    """``cls(**doc)`` for a stored JSON object and a record class, or a
    reader taking the object's keys; a missing or unknown key, or a value
    ``cls`` refuses, raises CorruptManifest naming ``what``."""
    try:
        return cls(**doc)
    except (KeyError, TypeError, ValueError) as e:
        raise CorruptManifest(f"{what}: {type(e).__name__}: {e}") from None


def read_record(cls, path):
    """``from_record(cls, doc, path)`` for the JSON object in file ``path``;
    a file that is missing, unreadable, unparsable or holds another JSON
    value raises CorruptManifest naming ``path``."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise CorruptManifest(f"{path}: missing") from None
    except OSError as e:
        # strerror alone: str(e) repeats the path
        raise CorruptManifest(f"{path}: {e.strerror or e}") from None
    except (ValueError, RecursionError) as e:
        raise CorruptManifest(f"{path}: {e}") from None
    if not isinstance(doc, dict):
        raise CorruptManifest(f"{path}: not a JSON object")
    return from_record(cls, doc, str(path))


def _jsonable(value):
    """A record as its instance fields, an array as its values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value):
        return vars(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def to_json(doc, indent: int | None = None) -> str:
    """``doc`` as JSON, keys sorted: compact, or indented by ``indent``."""
    return json.dumps(doc, sort_keys=True, indent=indent, default=_jsonable,
                      separators=None if indent else (",", ":"))


def write_json(path, doc, indent: int | None = None) -> None:
    """Write ``to_json(doc, indent)`` and a newline to ``path + ".tmp"``,
    then rename it to ``path``: a cut write leaves any previous file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="\n") as f:
            f.write(to_json(doc, indent) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
