"""The kernel's array namespace is plain NumPy."""

from __future__ import annotations

import numpy as np

from repro.kernel import array_namespace


class TestArrayNamespace:
    def test_default_is_numpy(self):
        assert array_namespace() is np
