"""The package's public-name list is exactly what it exports."""

import beamsparse


def test_all_lists_each_public_name_once_and_star_import_binds_them():
    names = beamsparse.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(beamsparse, name)] == []
    namespace = {}
    exec("from beamsparse import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(names)
