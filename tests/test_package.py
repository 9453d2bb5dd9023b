"""The package's public names."""

import lopcsim


def test_every_exported_name_resolves_once():
    assert len(lopcsim.__all__) == len(set(lopcsim.__all__))
    missing = [name for name in lopcsim.__all__ if not hasattr(lopcsim, name)]
    assert missing == []
