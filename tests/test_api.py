"""The package's public-name list is exactly what it exports, and each public function
checks what it is given where it enters."""

import inspect

import pytest

import beamsparse

PUBLIC_FUNCTIONS = [
    name for name in beamsparse.__all__ if inspect.isfunction(getattr(beamsparse, name))
]


def test_all_lists_each_public_name_once_and_star_import_binds_them():
    names = beamsparse.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(beamsparse, name)] == []
    namespace = {}
    exec("from beamsparse import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(names)


@pytest.mark.parametrize("name", PUBLIC_FUNCTIONS)
def test_public_function_given_none_raises_a_package_error(name, tmp_path, monkeypatch):
    # None for every required argument; a bare AttributeError or TypeError would mean the
    # function reached into its input before checking it
    monkeypatch.chdir(tmp_path)
    function = getattr(beamsparse, name)
    required = [
        p for p in inspect.signature(function).parameters.values()
        if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    assert required
    with pytest.raises(beamsparse.BeamsparseError):
        function(*[None] * len(required))
    assert not any(tmp_path.iterdir())
