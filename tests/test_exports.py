import importlib
import pkgutil

import pytest

import switchgain

MODULES = [f"switchgain.{m.name}" for m in pkgutil.iter_modules(switchgain.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    # tools that wrap a module's public names read every __all__ entry with getattr
    module = importlib.import_module(name)
    assert module.__all__
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
