"""Package surface: every exported name resolves."""

import compulse


def test_all_names_resolve():
    missing = [name for name in compulse.__all__ if not hasattr(compulse, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from compulse import *", namespace)
    assert set(compulse.__all__) <= set(namespace)
