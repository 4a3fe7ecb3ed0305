import importlib
import pkgutil

import lpcompact

MODULES = [
    importlib.import_module(f"lpcompact.{info.name}")
    for info in pkgutil.iter_modules(lpcompact.__path__)
]


def test_each_public_name_is_declared_once_in_its_own_module():
    # a name in two modules' __all__ would be silently shadowed by the
    # package's star imports
    owners = {}
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert name not in owners, f"{name} is public in {owners[name]} and {module.__name__}"
            owners[name] = module.__name__
            assert getattr(module, name).__module__ == module.__name__


def test_package_exports_the_module_lists_and_the_errors():
    declared = {
        name
        for module in MODULES
        if module.__name__ != "lpcompact.cli"
        for name in getattr(module, "__all__", ())
    }
    assert set(lpcompact.__all__) == declared | {"HypothesisError", "ModelError", "SpecFileError"}
    assert len(lpcompact.__all__) == len(set(lpcompact.__all__)) == 74
    for name in lpcompact.__all__:
        assert hasattr(lpcompact, name)


def test_retired_names_are_gone():
    for name in ("cube_average", "dyadic_cube_family", "restrict_inside", "restrict_outside"):
        assert name not in lpcompact.__all__
        assert not hasattr(lpcompact, name)
    assert not hasattr(lpcompact.DyadicPartition, "cube_multi_index")
