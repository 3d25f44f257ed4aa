"""The edge table's live rows, in id-pair order, against a sorted-tuple oracle.

``state_dict`` and ``worst_edges`` gather the rows that hold an edge, and
``observed_edges`` the edge map's keys, in ``(a, b)`` order: one argsort
of a packed integer key while the ids span fewer than 2**31 values, a
lexsort otherwise.  Both must give the order plain Python gives by
sorting the edge tuples.  Joins, measurements and leaves are driven over three id
pools: small non-negative ids, negative ids, and ids near -2**40 and
+2**40 (a span past 2**31).  Each run holds more than 256 edges at once,
so the table grows past its first 256 rows, and adds edges after leaves
have freed rows, so freed rows are reused.
"""

import random
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import StreamCoordinateService

POOLS = {
    "small": list(range(32)),
    "negative": list(range(-40, -8)),
    "spread": [sign * 2**40 + k for sign in (-1, 1) for k in range(16)],
}


def packed_span(edges) -> int:
    """The span of ids the packed key covers (the smallest a to the largest b)."""
    return max(b for _, b in edges) - min(a for a, _ in edges) + 1


def check_against_oracle(service, observed, k):
    """``observed`` maps each remembered edge to its (RTT, time)."""
    edges = sorted(observed)
    listed = service.observed_edges()
    assert listed == edges
    # The map's own key tuples, not a new tuple per edge.
    assert {id(edge) for edge in listed} == {id(key) for key in service._row_of}

    state = service.state_dict()
    expected_ids = np.array(edges, dtype=np.int64).reshape(-1, 2)
    assert state["edge_ids"].dtype == np.int64
    assert np.array_equal(state["edge_ids"], expected_ids)
    assert np.array_equal(
        state["edge_obs"], np.array([observed[edge] for edge in edges]).reshape(-1, 2)
    )
    # Each edge's estimate looked up through its own row, not the ordered gather.
    estimates = [(edge, service.severity_estimate(*edge)) for edge in edges]
    estimates = [(edge, value) for edge, value in estimates if value is not None]
    assert np.array_equal(
        state["severity_ids"],
        np.array([edge for edge, _ in estimates], dtype=np.int64).reshape(-1, 2),
    )
    assert state["severity"].tolist() == [value for _, value in estimates]

    ranked = sorted(estimates, key=lambda item: (-item[1], item[0]))
    assert service.worst_edges(k) == ranked[:k]


def order_path(call) -> str:
    """Which sort ordered the id pairs in one call."""
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort, mock.patch.object(
        np, "lexsort", wraps=np.lexsort
    ) as lexsort:
        call()
    assert argsort.call_count + lexsort.call_count == 1
    return "lexsort" if lexsort.call_count else "packed"


@settings(max_examples=25, deadline=None)
@given(
    pool=st.sampled_from(sorted(POOLS)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=0, max_value=40),
)
def test_live_rows_match_sorted_tuples(pool, seed, k):
    ids = POOLS[pool]
    rng = random.Random(seed)
    service = StreamCoordinateService(rng=seed)
    observed: dict[tuple[int, int], tuple[float, float]] = {}
    paths = set()
    t = 0.0

    def observe(src, dst):
        nonlocal t
        t += 0.01
        rtt = rng.uniform(1.0, 200.0)
        service.observe(src, dst, rtt, t=t)
        observed[(min(src, dst), max(src, dst))] = (rtt, t)

    def check():
        check_against_oracle(service, observed, k)
        expected = "lexsort" if packed_span(observed) >= 2**31 else "packed"
        assert order_path(service._live_rows) == expected
        assert order_path(service.observed_edges) == expected
        paths.add(expected)

    # 300 distinct edges at once: the table grows past its first 256 rows.
    for node in ids:
        service.join(node)
    active = set(ids)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    rng.shuffle(pairs)
    for src, dst in pairs[:300]:
        observe(src, dst)
    check()

    # Churn: every leave frees its node's rows, and the free stack hands
    # them to the next new edges before any row never used.
    freed = reused = 0
    for step in range(240):
        draw = rng.random()
        if step == 0 or (draw < 0.05 and len(active) > 2):
            node = rng.choice(sorted(active))
            t += 0.01
            service.leave(node, t=t)
            active.discard(node)
            gone = [edge for edge in observed if node in edge]
            freed += len(gone)
            for edge in gone:
                del observed[edge]
        elif draw < 0.1 and len(active) < len(ids):
            node = rng.choice(sorted(set(ids) - active))
            t += 0.01
            service.join(node, t=t)
            active.add(node)
        else:
            src, dst = rng.sample(sorted(active), 2)
            reused += (min(src, dst), max(src, dst)) not in observed and reused < freed
            observe(src, dst)
        if step == 120:
            check()
    check()
    assert reused > 0
    assert paths == ({"lexsort"} if pool == "spread" else {"packed"})


def test_empty_table_orders_nothing():
    service = StreamCoordinateService(rng=0)
    service.join(1)
    service.join(2)
    assert service.observed_edges() == []
    assert service.state_dict()["edge_ids"].shape == (0, 2)
    assert service.worst_edges(3) == []
    service.observe(1, 2, 5.0, t=1.0)
    service.leave(2, t=2.0)
    assert service.observed_edges() == []
    assert service.state_dict()["edge_obs"].shape == (0, 2)
