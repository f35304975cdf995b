import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import lzi
from lzi import ado, demkov_osherov, errors, gaudin, propagator, spin


def test_package_exports_exactly_the_public_names_of_its_modules():
    # a name retired from a module but left in the package (or the reverse) fails here
    expected = set().union(*(m.__all__ for m in (ado, demkov_osherov, gaudin, propagator, spin)))
    expected |= {name for name, obj in vars(errors).items()
                 if inspect.isclass(obj) and issubclass(obj, Exception)}
    exported = {name for name, obj in vars(lzi).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert exported == expected


def _tracer_module():
    """perfbench/tracer.py, loaded from its file (perfbench is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_tracer_rebinds_exists():
    # a retired name the tracer still rebinds would fail only in a traced benchmark run
    tracer = _tracer_module()
    for module_name, attr in tracer.SPANS + tracer.COUNTS:
        module = importlib.import_module(f"lzi.{module_name}")
        if "." in attr:  # a method, rebound on its class
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(method)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)
