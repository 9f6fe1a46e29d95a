"""The public API: every exported name resolves and none is listed twice."""

import glset


def test_every_exported_name_resolves():
    assert [name for name in glset.__all__ if not hasattr(glset, name)] == []


def test_no_name_exported_twice():
    assert len(glset.__all__) == len(set(glset.__all__))
