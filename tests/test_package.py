"""The package's public names: every name in permpoly.__all__ resolves."""

import permpoly


def test_every_public_name_resolves():
    names = permpoly.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(permpoly, name)] == []


def test_star_import():
    namespace = {}
    exec("from permpoly import *", namespace)
    assert set(permpoly.__all__) <= set(namespace)
