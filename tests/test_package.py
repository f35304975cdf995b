import inspect
import types

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
