"""The benchmark's tracer reaches package code by name; check those names.

``bench/tracer.py`` wraps the private kernels in ``PRIVATE`` and the
methods in ``METHODS`` when a traced run starts.  A renamed or deleted
one would fail only that run, so this test reads the tables and resolves
every name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_private_names_resolve():
    tracer = load_tracer()
    assert tracer.PRIVATE
    for short, names in tracer.PRIVATE.items():
        mod = importlib.import_module(f"cohodist.{short}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"cohodist.{short}.{name}"


def test_methods_are_defined_on_their_classes():
    tracer = load_tracer()
    assert tracer.METHODS
    for short, classes in tracer.METHODS.items():
        mod = importlib.import_module(f"cohodist.{short}")
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                assert meth in vars(cls), f"cohodist.{short}.{cls_name}.{meth}"


def test_modules_import():
    tracer = load_tracer()
    for short in tracer.MODULES:
        importlib.import_module(f"cohodist.{short}")
