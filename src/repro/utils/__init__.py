"""Small cross-cutting utilities shared by otherwise independent layers."""

import numpy as np


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer other than a ``bool``.

    Node ids and counts must be: a float such as 3.0 equals 3 but indexes
    nothing, and a ``bool`` is an ``int`` subclass that names no node.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
