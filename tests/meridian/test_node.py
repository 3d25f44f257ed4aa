"""One Meridian node's rings: a row of the overlay's ring store.

A node keeps no object of its own: its rings are one row of a
:class:`~repro.meridian.rings.RingStore` filled by ``RingStore.place``, and
the members a query at the node may probe are the row's slots that
``RingStore.eligible`` passes for the β window around the delay to the
target.
"""

import numpy as np
import pytest

from repro.errors import MeridianError
from repro.meridian.rings import MeridianConfig
from tests.meridian.test_rings import one_row, row_rings, within


def eligible_members(store, beta: float, delay_to_target: float) -> list[int]:
    """The row's members inside ``[(1 - beta) * d, (1 + beta) * d]``."""
    return within(store, (1.0 - beta) * delay_to_target, (1.0 + beta) * delay_to_target)


class TestMeridianNode:
    def test_eligible_members_window(self):
        config = MeridianConfig(beta=0.5)
        store = one_row(config, [1, 2, 3, 4], [40.0, 100.0, 160.0, 400.0])
        # target at 100 ms -> eligible window [50, 150]
        assert eligible_members(store, config.beta, 100.0) == [2]
        # target at 300 ms -> window [150, 450]
        assert eligible_members(store, config.beta, 300.0) == [3, 4]

    def test_eligible_members_negative_delay_raises(self):
        # The second placement delay is checked as the measured one is, so
        # no placement a window can see is negative or infinite.
        config = MeridianConfig()
        for bad in (-1.0, np.inf):
            with pytest.raises(MeridianError, match="invalid second placement delay"):
                one_row(config, [5], [300.0], extra=[bad])

    def test_adjuster_double_places(self):
        config = MeridianConfig()
        store = one_row(config, [5, 6], [300.0, 300.0], extra=[10.0, None])
        rings = row_rings(store)
        assert sum(5 in ring for ring in rings) == 2
        assert sum(6 in ring for ring in rings) == 1
        assert eligible_members(store, config.beta, 10.0) == [5]
