"""Every name the benchmark's tracer wraps exists in the package: deleting
one would pass the other tests and then crash each traced run.  The tracer
is read by path; its module level imports only the standard library."""

import importlib
import importlib.util
import os

spec = importlib.util.spec_from_file_location("perfbench_traced", os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "traced.py"))
traced = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced)


def layer(name):
    return importlib.import_module("thetaforge." + name)


def test_spanned_functions_exist_and_are_callable():
    assert traced.SPANNED and traced.COUNTED and traced.CACHED
    for module, attr, _ in traced.SPANNED:
        assert callable(getattr(layer(module), attr, None)), (module, attr)


def test_counted_classes_define_their_own_product():
    # the counter replaces __mul__ only where the class itself defines it
    for module, cls, _ in traced.COUNTED:
        assert "__mul__" in vars(getattr(layer(module), cls)), (module, cls)


def test_cached_functions_report_their_cache():
    for module, attr in traced.CACHED:
        fn = getattr(layer(module), attr)
        assert callable(getattr(fn, "cache_info", None)), (module, attr)
