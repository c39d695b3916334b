"""The package's lazy exports: every name resolves to the object of its
defining module, on every lookup, and nothing is cached in the package."""

import importlib

import pytest

import grassdef

SUBMODULES = ("bounds", "birational", "indices", "oracle", "schubert")


def test_every_export_is_its_defining_modules_object():
    assert len(grassdef.__all__) == len(set(grassdef.__all__))
    for name in grassdef.__all__:
        module = importlib.import_module(f"grassdef.{grassdef._MODULE_OF[name]}")
        assert getattr(grassdef, name) is vars(module)[name], name
    assert grassdef.CapExceeded is grassdef.oracle.CapExceeded is grassdef.indices.CapExceeded
    assert grassdef.limit_hyperplane_coeffs is grassdef.bounds.limit_hyperplane_coeffs
    assert grassdef.LimitHyperplane is grassdef.bounds.LimitHyperplane
    # the limit hyperplanes left the oracle, and Schubert's _det is the one
    # determinant
    for name in ("limit_hyperplane_coeffs", "LimitHyperplane", "_bareiss"):
        assert not hasattr(grassdef.oracle, name), name
    assert not hasattr(grassdef.indices, "_bareiss")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from grassdef import *", namespace)
    assert set(grassdef.__all__) <= set(namespace)
    assert namespace["secant_dimension"] is grassdef.oracle.secant_dimension


def test_submodules_resolve_after_a_bare_import(fresh_python):
    # in a fresh interpreter, where the bare import has loaded no submodule
    child = (
        "import importlib, sys, grassdef\n"
        "assert not [m for m in sys.modules if m.startswith('grassdef.')]\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(grassdef, name) is importlib.import_module('grassdef.' + name)\n"
        "print('ok')\n"
    )
    proc = fresh_python(child)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
    assert set(SUBMODULES) | set(grassdef.__all__) <= set(dir(grassdef))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        grassdef.no_such_name
    assert not hasattr(grassdef, "_check_size")
    # a removed export stays removed
    with pytest.raises(AttributeError, match="has no attribute 'TangentDevelopable'"):
        grassdef.TangentDevelopable
    assert "TangentDevelopable" not in grassdef.__all__


def test_exports_follow_a_rebinding_in_their_module(monkeypatch):
    original = grassdef.secant_dimension
    sentinel = object()
    monkeypatch.setattr(grassdef.oracle, "secant_dimension", sentinel)
    assert grassdef.secant_dimension is sentinel
    monkeypatch.undo()
    assert grassdef.secant_dimension is original
    assert "secant_dimension" not in vars(grassdef)
