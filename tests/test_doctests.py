"""Every docstring example in the package runs and passes."""

import doctest
import importlib
import pkgutil

import pytest

import cohodist

MODULES = ["cohodist"] + sorted(
    info.name for info in pkgutil.iter_modules(cohodist.__path__, "cohodist."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_docstring_examples_are_collected():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted
                    for name in MODULES)
    assert attempted >= 15
