"""The validator's boundary with the builder, checked where the code is.

The validator shares only the norm and coefficient-expansion primitives with
the builder.  The lpcompact names that the validator functions reach must be
exactly those two, the validator functions themselves, the power-transfer
maps and ``select_power``, besides the data classes and errors.
"""

import ast
import dataclasses
import inspect
import textwrap

from lpcompact import netbuilder, quasi

VALIDATOR = (
    netbuilder.validate_certificate,
    netbuilder._remeasure,
    netbuilder._check_cube_claims,
    quasi.validate_quasi_certificate,
)
SHARED = {
    "_array_norm", "_write_cubes", "_remeasure", "_check_cube_claims", "validate_certificate",
    "root_family", "root_space", "select_power",
}


def _reached(fn):
    """The names in ``fn``'s source that its module binds to lpcompact objects."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    scope = fn.__globals__
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {
        name: scope[name] for name in names
        if name in scope and getattr(scope[name], "__module__", "").startswith("lpcompact")
    }


def test_validator_reaches_only_the_shared_primitives():
    reached = {}
    for fn in VALIDATOR:
        reached.update(_reached(fn))
    records = {
        name for name, obj in reached.items()
        if dataclasses.is_dataclass(obj) or (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert set(reached) - records == SHARED
