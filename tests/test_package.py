"""Package surface: the names `symstab` re-exports."""

import types

import symstab


def test_all_lists_no_modules_and_every_name_resolves():
    assert len(symstab.__all__) == len(set(symstab.__all__))
    for name in symstab.__all__:
        obj = getattr(symstab, name)
        assert not isinstance(obj, types.ModuleType), name
    assert "__version__" in symstab.__all__


def test_star_import_keeps_stdlib_io():
    ns = {}
    exec("import io\nfrom symstab import *", ns)
    assert ns["io"].__name__ == "io"
    assert "stabilized_index" in ns and "verify_surface" in ns
