import importlib

import pytest

import flame_match


def test_lazy_exports_resolve_to_their_modules():
    for name in flame_match.__all__:
        module = importlib.import_module(f"flame_match.{flame_match._EXPORTS[name]}")
        assert getattr(flame_match, name) is getattr(module, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        flame_match.no_such_name
    assert not hasattr(flame_match, "grouper_backend")
