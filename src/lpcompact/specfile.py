"""Strict parsing of problem spec documents (grid + space + family).

The format is deliberately rigid: unknown keys are rejected everywhere, so a
typo cannot silently change an experiment.  Tables may be given inline or as
a CSV path resolved relative to the spec file.
"""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import SpecFileError
from .grid import Grid
from .moduli import Family
from .profiles import Bump, Constant, Gaussian, Indicator, PowerLaw, Table, _sample_all
from .spaces import WeightedSpace

__all__ = ["Problem", "parse_problem", "load_problem"]


@dataclass(frozen=True)
class Problem:
    grid: Grid
    space: WeightedSpace
    family: Family
    weight_profile: object = None


def _require_keys(doc: dict, required, optional=(), where: str = "document") -> None:
    if not isinstance(doc, dict):
        raise SpecFileError(f"{where} must be an object, got {type(doc).__name__}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise SpecFileError(f"{where} is missing keys {missing}")
    unknown = [k for k in doc if k not in (*required, *optional)]
    if unknown:
        raise SpecFileError(f"{where} has unknown keys {unknown}")


def _float(v, where: str) -> float:
    """``float(v)`` for a JSON number; an integer beyond float range raises."""
    try:
        return float(v)
    except OverflowError:
        raise SpecFileError(f"{where} is too large for a float") from None


def _number(doc: dict, key: str, where: str) -> float:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecFileError(f"{where}.{key} must be a number, got {v!r}")
    return _float(v, f"{where}.{key}")


def _integer(doc: dict, key: str, where: str) -> int:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SpecFileError(f"{where}.{key} must be an integer, got {v!r}")
    return v


def _table_values(doc: dict, base_dir: Path, where: str):
    if ("values" in doc) == ("path" in doc):
        raise SpecFileError(f"{where} needs exactly one of 'values' or 'path'")
    if "values" in doc:
        return doc["values"]
    path = base_dir / str(doc["path"])
    try:
        with open(path, newline="") as fh:
            rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
    except OSError as exc:
        raise SpecFileError(f"{where}: cannot read table {path}: {exc}") from exc
    except ValueError as exc:
        raise SpecFileError(f"{where}: non-numeric entry in {path}: {exc}") from exc
    if not rows:
        raise SpecFileError(f"{where}: table {path} is empty")
    if len(rows) == 1:
        return rows[0]
    return rows


def _record(cls, doc: dict, where: str, read=None):
    """Build the dataclass ``cls`` from the JSON object ``doc``, one field at
    a time in field order: a name in ``read`` through its own function, a
    field annotated ``int`` through ``_integer`` and any other through
    ``_number``, each called as ``(doc, name, where)``.  A field with a
    default may be absent; a missing field or a key that names no field
    raises ``SpecFileError``."""
    required = [f.name for f in fields(cls) if f.default is MISSING]
    _require_keys(doc, required, [f.name for f in fields(cls)], where)
    values = {}
    for f in fields(cls):
        if f.name in doc:
            reader = (read or {}).get(f.name, _integer if f.type == "int" else _number)
            values[f.name] = reader(doc, f.name, where)
    return cls(**values)


# per profile kind, its class, the required keys besides "kind" and the
# optional ones
_PROFILE_KEYS = {
    "constant": (Constant, ["value"], []),
    "gaussian": (Gaussian, ["center", "sigma"], ["amplitude"]),
    "bump": (Bump, ["center", "radius"], ["amplitude"]),
    "indicator": (Indicator, ["center", "radius"], []),
    "power": (PowerLaw, ["exponent"], ["support"]),
    "table": (Table, [], ["values", "path"]),
}
_ALL_KEYS = sorted({k for _, req, opt in _PROFILE_KEYS.values() for k in req + opt})


def _parse_profile(doc: dict, base_dir: Path, where: str):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    # until it is reported, an unknown kind admits the keys of every kind
    known = isinstance(kind, str) and kind in _PROFILE_KEYS
    cls, required, optional = _PROFILE_KEYS[kind] if known else (None, [], _ALL_KEYS)
    # unknown keys are reported before missing ones
    _require_keys(doc, ["kind"], optional=[*required, *optional], where=where)
    _require_keys(doc, ["kind", *required], optional=optional, where=where)
    if not known:
        raise SpecFileError(f"{where}: unknown profile kind {kind!r}")
    if cls is Table:
        return Table(values=_freeze(_table_values(doc, base_dir, where), where))
    # the kind picks the class and is none of its fields
    fields_doc = {k: v for k, v in doc.items() if k != "kind"}
    return _record(cls, fields_doc, where, read={"center": _vector})


def _vector(doc: dict, key: str, where: str):
    v = doc[key]
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return _float(v, f"{where}.{key}")
    if isinstance(v, list) and v and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    ):
        return tuple(_float(x, f"{where}.{key}") for x in v)
    raise SpecFileError(f"{where}: {key} must be a number or a list of numbers, got {v!r}")


def _freeze(values, where: str, depth: int = 0):
    """A table's entries as floats in nested tuples: JSON numbers, not bools,
    nested into a rectangle of at most two axes, as a grid has, or a
    ``SpecFileError``."""
    if isinstance(values, float):
        return values
    if isinstance(values, int) and not isinstance(values, bool):
        return _float(values, f"{where}.values")
    if not isinstance(values, list):
        raise SpecFileError(f"{where}.values may hold only numbers, got {values!r}")
    if depth == 2:
        raise SpecFileError(f"{where}.values nests lists deeper than a grid's two axes")
    rows = tuple(_freeze(v, where, depth + 1) for v in values)
    # rows of floats, or of one length
    if len({len(r) if isinstance(r, tuple) else None for r in rows}) > 1:
        raise SpecFileError(f"{where}.values has rows of different shapes")
    return rows


def parse_problem(doc: dict, base_dir: Path | str = ".") -> Problem:
    base_dir = Path(base_dir)
    _require_keys(doc, ["grid", "space", "members"], optional=["labels"], where="spec")

    grid = _record(Grid, doc["grid"], "spec.grid")

    sdoc = doc["space"]
    _require_keys(sdoc, ["p", "weight"], where="spec.space")
    weight_profile = _parse_profile(sdoc["weight"], base_dir, "spec.space.weight")
    p = _number(sdoc, "p", "spec.space")

    mdoc = doc["members"]
    if not isinstance(mdoc, list) or not mdoc:
        raise SpecFileError("spec.members must be a non-empty list")
    profiles = []
    member_labels: list[str | None] = []
    for i, entry in enumerate(mdoc):
        where = f"spec.members[{i}]"
        if not isinstance(entry, dict):
            raise SpecFileError(f"{where} must be an object")
        entry = dict(entry)
        label = entry.pop("label", None)
        if label is not None and not isinstance(label, str):
            raise SpecFileError(f"{where}.label must be a string")
        member_labels.append(label)
        profiles.append(_parse_profile(entry, base_dir, where))

    if "labels" in doc:
        labels_doc = doc["labels"]
        if not (
            isinstance(labels_doc, list)
            and len(labels_doc) == len(profiles)
            and all(isinstance(s, str) for s in labels_doc)
        ):
            raise SpecFileError("spec.labels must list one string per member")
        labels = list(labels_doc)
    else:
        labels = [
            lab if lab is not None else f"m{i:02d}" for i, lab in enumerate(member_labels)
        ]
    if len(set(labels)) != len(labels):
        raise SpecFileError("member labels must be unique")

    # every spec error is raised above: the weight and the members are
    # sampled on one center mesh
    weight, *members = _sample_all((weight_profile, *profiles), grid)
    space = WeightedSpace(p=p, weight=weight)
    family = Family(grid=grid, members=members, labels=labels)
    return Problem(grid=grid, space=space, family=family, weight_profile=weight_profile)


def load_problem(path) -> Problem:
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read spec {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, bad UTF-8, an integer literal past Python's digit limit,
        # or arrays or objects nested past the recursion limit
        raise SpecFileError(f"spec {path} is not valid JSON: {exc}") from exc
    return parse_problem(doc, base_dir=path.parent)
