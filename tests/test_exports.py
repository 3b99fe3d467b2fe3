"""The package's export list names exactly what it binds."""

import types

import nia


def test_all_matches_public_names():
    bound = {
        name
        for name, value in vars(nia).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(nia.__all__) == len(set(nia.__all__))
    assert set(nia.__all__) == bound
