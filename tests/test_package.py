import types

import mcgcalc


def test_all_is_exactly_the_public_names_the_package_binds():
    """A class or function removed from the package cannot leave a stale
    ``__all__`` entry behind, which would break ``from mcgcalc import *``."""
    bound = {
        name
        for name, value in vars(mcgcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(mcgcalc.__all__) == sorted(bound)
    namespace = {}
    exec("from mcgcalc import *", namespace)
    assert bound <= set(namespace)
