"""The names that the `mvmc` package exports."""
import types

import mvmc


def test_all_lists_every_public_name_the_package_binds():
    public = {name for name, value in vars(mvmc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(mvmc.__all__)) == len(mvmc.__all__)
    assert set(mvmc.__all__) == public
