"""The epoch kernel's array namespace: plain NumPy.

The kernel calls ``numpy`` directly.  NumPy is the namespace the
bit-identity contract is proven against — the golden traces and the
conformance suite pin its results — so it is the only one.
"""

from __future__ import annotations

from types import ModuleType

import numpy

__all__ = ["array_namespace"]


def array_namespace() -> ModuleType:
    """The namespace the kernel computes with (``numpy``)."""
    return numpy
