"""The package's public names all resolve."""

from __future__ import annotations

import dfol


def test_every_exported_name_resolves():
    assert len(dfol.__all__) == len(set(dfol.__all__)) >= 121
    missing = [name for name in dfol.__all__ if not hasattr(dfol, name)]
    assert missing == []
