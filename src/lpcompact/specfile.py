"""Strict parsing of problem spec documents (grid + space + family).

The format is deliberately rigid: unknown keys are rejected everywhere, so a
typo cannot silently change an experiment.  Tables may be given inline or as
a CSV path resolved relative to the spec file.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import SpecFileError
from .grid import Grid
from .moduli import Family
from .profiles import Bump, Constant, Gaussian, Indicator, PowerLaw, Table, sample
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


# per profile kind, the required keys besides "kind" and the optional ones
_PROFILE_KEYS = {
    "constant": (["value"], []),
    "gaussian": (["center", "sigma"], ["amplitude"]),
    "bump": (["center", "radius"], ["amplitude"]),
    "indicator": (["center", "radius"], []),
    "power": (["exponent"], ["support"]),
    "table": ([], ["values", "path"]),
}
_ALL_KEYS = sorted({k for keys in _PROFILE_KEYS.values() for k in keys[0] + keys[1]})


def _parse_profile(doc: dict, base_dir: Path, where: str):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    # until it is reported, an unknown kind admits the keys of every kind
    known = isinstance(kind, str) and kind in _PROFILE_KEYS
    required, optional = _PROFILE_KEYS[kind] if known else ([], _ALL_KEYS)
    # unknown keys are reported before missing ones
    _require_keys(doc, ["kind"], optional=[*required, *optional], where=where)
    _require_keys(doc, ["kind", *required], optional=optional, where=where)
    if kind == "constant":
        return Constant(value=_number(doc, "value", where))
    if kind == "gaussian":
        return Gaussian(
            center=_vector(doc["center"], where),
            sigma=_number(doc, "sigma", where),
            amplitude=_number(doc, "amplitude", where) if "amplitude" in doc else 1.0,
        )
    if kind == "bump":
        return Bump(
            center=_vector(doc["center"], where),
            radius=_number(doc, "radius", where),
            amplitude=_number(doc, "amplitude", where) if "amplitude" in doc else 1.0,
        )
    if kind == "indicator":
        return Indicator(center=_vector(doc["center"], where), radius=_number(doc, "radius", where))
    if kind == "power":
        return PowerLaw(
            exponent=_number(doc, "exponent", where),
            support=_number(doc, "support", where) if "support" in doc else None,
        )
    if kind == "table":
        return Table(values=_freeze(_table_values(doc, base_dir, where), where))
    raise SpecFileError(f"{where}: unknown profile kind {kind!r}")


def _vector(v, where: str):
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return _float(v, f"{where}.center")
    if isinstance(v, list) and v and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v
    ):
        return tuple(_float(x, f"{where}.center") for x in v)
    raise SpecFileError(f"{where}: center must be a number or a list of numbers, got {v!r}")


def _freeze(values, where: str):
    if isinstance(values, list):
        return tuple(_freeze(v, where) for v in values)
    if isinstance(values, int) and not isinstance(values, bool):
        return _float(values, f"{where}.values")
    return values


def parse_problem(doc: dict, base_dir: Path | str = ".") -> Problem:
    base_dir = Path(base_dir)
    _require_keys(doc, ["grid", "space", "members"], optional=["labels"], where="spec")

    gdoc = doc["grid"]
    _require_keys(gdoc, ["dim", "box_level", "cell_exp"], where="spec.grid")
    grid = Grid(
        dim=_integer(gdoc, "dim", "spec.grid"),
        box_level=_integer(gdoc, "box_level", "spec.grid"),
        cell_exp=_integer(gdoc, "cell_exp", "spec.grid"),
    )

    sdoc = doc["space"]
    _require_keys(sdoc, ["p", "weight"], where="spec.space")
    weight_profile = _parse_profile(sdoc["weight"], base_dir, "spec.space.weight")
    space = WeightedSpace(p=_number(sdoc, "p", "spec.space"), weight=sample(weight_profile, grid))

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

    family = Family.from_profiles(grid, profiles, labels)
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
