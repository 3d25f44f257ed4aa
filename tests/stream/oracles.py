"""Plain-Python oracles of the stream service's ranking and TIV-alert reads.

``closest`` is ``closest_batch`` on a batch of one and ``tiv_alert`` is
``tiv_alert_batch`` on a batch of one, so a test that compares a batch
with them compares the code with itself.  These oracles answer from
single-value reads instead:

* :func:`closest_oracle` ranks every other active node by
  ``core + (h_query + h_other)``, the order every ``distance`` adds the
  heights in, ties by id, and keeps the first ``k``.  The core sums its
  squares in the library's fixed order
  (``tests/coords/oracles.py::oracle_norm``);
* :func:`tiv_alert_oracle` builds the verdict from
  ``embedding.distance(a, b)``, the edge's ``edge_obs`` row in
  ``state_dict()``, ``severity_estimate`` and ``clock``.
"""

from tests.coords.oracles import oracle_norm


def closest_oracle(embedding, node, k):
    """What ``embedding.closest(node, k)`` must answer."""
    query = embedding.coordinate_of(node).tolist()
    use_height = embedding.config.use_height
    ranked = []
    for other in embedding.active_nodes():
        if other == node:
            continue
        delay = oracle_norm(embedding.coordinate_of(other).tolist(), query)
        if use_height:
            delay = delay + (embedding.height_of(node) + embedding.height_of(other))
        ranked.append((other, delay))
    ranked.sort(key=lambda item: (item[1], item[0]))
    return ranked[:k]


def tiv_alert_oracle(service, a, b):
    """What ``service.tiv_alert(a, b)`` must answer for an observed edge."""
    edge = (int(min(a, b)), int(max(a, b)))
    state = service.state_dict()
    row = [tuple(ids) for ids in state["edge_ids"].tolist()].index(edge)
    rtt, observed_at = state["edge_obs"][row].tolist()
    predicted = service.embedding.distance(a, b)
    ratio = predicted / rtt
    return {
        "edge": edge,
        "predicted": predicted,
        "observed": rtt,
        "ratio": ratio,
        "alerted": ratio < service.config.alert_threshold,
        "severity_estimate": service.severity_estimate(a, b),
        "observation_age": service.clock - observed_at,
    }
