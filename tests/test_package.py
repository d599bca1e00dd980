"""The package's export list: public names only, and exactly what a star
import binds."""

import pkgutil
import types

import lodecomp

SUBMODULES = {info.name for info in pkgutil.iter_modules(lodecomp.__path__)}


def test_every_exported_name_is_a_public_non_module_attribute():
    assert lodecomp.__all__
    assert len(set(lodecomp.__all__)) == len(lodecomp.__all__)
    for name in lodecomp.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(lodecomp, name), types.ModuleType), name


def test_no_submodule_is_exported():
    assert {"catalog", "decomposition", "fileio", "tensor"} <= SUBMODULES
    assert not SUBMODULES & set(lodecomp.__all__)


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from lodecomp import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lodecomp.__all__)
    assert all(namespace[name] is getattr(lodecomp, name) for name in namespace)
