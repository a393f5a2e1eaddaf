"""The package's public names."""

import degenrd


def test_every_exported_name_resolves():
    assert [n for n in degenrd.__all__ if not hasattr(degenrd, n)] == []
