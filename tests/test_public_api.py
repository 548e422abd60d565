"""Public API surface tests: every exported name resolves and is documented."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.dnn",
    "repro.core",
    "repro.dlv",
    "repro.dql",
    "repro.hub",
    "repro.lifecycle",
    "repro.wire",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.{name} is exported but missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_docstrings(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and len(package.__doc__) > 40


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_classes_and_functions_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in getattr(package, "__all__", []):
        obj = getattr(package, name)
        if callable(obj) and not getattr(obj, "__doc__", None):
            undocumented.append(name)
    assert not undocumented, f"{package_name}: undocumented {undocumented}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2
