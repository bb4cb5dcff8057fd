"""Every public name the package lists must resolve.

A name dropped from a module but left in icsphere.__all__ (or the other
way round) fails here rather than at a user's import.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import icsphere

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(icsphere.__path__)
    if info.name != "__main__"
)


def test_package_all_resolves():
    missing = [name for name in icsphere.__all__ if not hasattr(icsphere, name)]
    assert missing == []
    assert len(set(icsphere.__all__)) == len(icsphere.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"icsphere.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_all_is_the_library_modules_lists():
    from icsphere import errors, moments, montecarlo, optimize, specfun, sphere

    modules = (errors, specfun, sphere, moments, optimize, montecarlo)
    assert icsphere.__all__ == ["__version__"] + [
        name for module in modules for name in module.__all__
    ]
    for module in modules:
        for name in module.__all__:
            assert getattr(icsphere, name) is getattr(module, name)


def test_distribution_metadata_matches_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["name"] == "icsphere"
    assert project["version"] == icsphere.__version__
