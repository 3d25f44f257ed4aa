"""Tests for repro.meridian.node."""

import math

import pytest

from repro.errors import MeridianError
from repro.meridian.node import MeridianNode
from repro.meridian.rings import MeridianConfig


class TestMeridianNode:
    def test_add_member(self):
        node = MeridianNode(0, MeridianConfig())
        assert node.add_member(3, 25.0)
        assert node.members() == [3]

    def test_self_member_raises(self):
        node = MeridianNode(0, MeridianConfig())
        with pytest.raises(MeridianError):
            node.add_member(0, 10.0)

    def test_eligible_members_window(self):
        node = MeridianNode(0, MeridianConfig(beta=0.5))
        node.add_member(1, 40.0)
        node.add_member(2, 100.0)
        node.add_member(3, 160.0)
        node.add_member(4, 400.0)
        # target at 100 ms -> eligible window [50, 150]
        assert node.eligible_members(100.0) == [2]
        # target at 300 ms -> window [150, 450]
        assert set(node.eligible_members(300.0)) == {3, 4}

    def test_eligible_members_negative_delay_raises(self):
        node = MeridianNode(0, MeridianConfig())
        with pytest.raises(MeridianError):
            node.eligible_members(-1.0)

    def test_adjuster_double_places(self):
        node = MeridianNode(0, MeridianConfig())

        def adjuster(owner, member, delay):
            return 10.0 if member == 5 else None

        node.add_member(5, 300.0, adjuster=adjuster)
        node.add_member(6, 300.0, adjuster=adjuster)
        assert len(node.rings.ring_of(5)) == 2
        assert len(node.rings.ring_of(6)) == 1

    def test_repr(self):
        node = MeridianNode(2, MeridianConfig())
        assert "id=2" in repr(node)
        assert not math.isnan(len(node.members()) + 0.0)
