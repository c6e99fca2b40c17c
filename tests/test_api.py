"""The package's public names resolve.

A stale ``__all__`` entry (a name deleted from its module but still
listed) passes ``import hochhom`` and fails only on a star import."""

import hochhom


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from hochhom import *", namespace)
    assert sorted(set(hochhom.__all__)) == sorted(hochhom.__all__)
    assert all(namespace[name] is getattr(hochhom, name)
               for name in hochhom.__all__)
