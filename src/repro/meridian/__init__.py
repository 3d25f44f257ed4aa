"""The Meridian overlay (Wong et al., SIGCOMM 2005).

Meridian solves closest-neighbour selection without virtual coordinates:
every Meridian node keeps a set of other Meridian nodes organised into
concentric, exponentially growing delay rings, and a query is forwarded
recursively to whichever ring member is measured (online) to be closest to
the target.

* :mod:`repro.meridian.rings` — ring geometry, the overlay-wide array
  ring store and each node's view of its row;
* :mod:`repro.meridian.node` — one Meridian node's membership state;
* :mod:`repro.meridian.overlay` — overlay construction and the recursive
  closest-neighbour query (with probe accounting and the β termination
  condition);
* :mod:`repro.meridian.analysis` — the Fig. 13 ring-misplacement analysis.

The TIV-aware extensions of §5.3 plug in through the ``membership_adjuster``
and ``restart_policy`` hooks of :class:`repro.meridian.overlay.MeridianOverlay`;
the concrete TIV-alert-driven policies live in
:mod:`repro.core.tiv_aware_meridian`.
"""

from repro.meridian.analysis import ring_misplacement_by_delay
from repro.meridian.node import MeridianNode
from repro.meridian.overlay import MeridianOverlay, QueryResult
from repro.meridian.rings import MeridianConfig, ring_index

__all__ = [
    "MeridianConfig",
    "ring_index",
    "MeridianNode",
    "MeridianOverlay",
    "QueryResult",
    "ring_misplacement_by_delay",
]
