"""Small cross-cutting utilities shared by otherwise independent layers."""

import numpy as np


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer other than a ``bool``.

    Node ids and counts must be: a float such as 3.0 equals 3 but indexes
    nothing, and a ``bool`` is an ``int`` subclass that names no node.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def fits_int64(value) -> bool:
    """Whether the integer ``value`` lies in ``-2**63 <= value < 2**63``.

    Node ids must: edge tables, checkpoints and batch queries hold them in
    int64 arrays, so a larger id could join but never be written there.
    """
    return -(2**63) <= value < 2**63
