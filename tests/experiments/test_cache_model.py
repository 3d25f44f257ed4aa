"""The artifact cache against a dict model.

Random sequences of stores, loads, evictions, corruptions, killed writers
and prune passes must keep the cache's contents, ``contains`` answers and
hit/miss counters equal to the model's.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.artifacts import prune_cache
from repro.experiments.cache import TEMP_PREFIX, ArtifactCache, stable_key

KIND = "dataset"
ADDRESSES = st.integers(0, 3)


def _params(n: int) -> dict:
    return {"n": n}


def _stem(n: int) -> str:
    return stable_key(KIND, _params(n))


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="cache-model-"))
        self.cache = ArtifactCache(self.root)
        self.model: dict[int, np.ndarray] = {}
        self.hits = self.misses = 0

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    @rule(n=ADDRESSES, fill=st.integers(-3, 3))
    def store(self, n, fill):
        array = np.full((n + 1, 2), float(fill))
        self.cache.store(KIND, _params(n), {"delays": array})
        self.model[n] = array

    @rule(n=ADDRESSES)
    def load(self, n):
        entry = self.cache.load(KIND, _params(n))
        if n in self.model:
            self.hits += 1
            assert entry is not None
            np.testing.assert_array_equal(entry.arrays["delays"], self.model[n])
        else:
            self.misses += 1
            assert entry is None

    @rule(n=ADDRESSES)
    def evict(self, n):
        self.cache.evict(KIND, _params(n))
        self.model.pop(n, None)

    @rule(n=ADDRESSES)
    def corrupt(self, n):
        if n not in self.model:
            return
        (self.root / KIND / f"{_stem(n)}.npz").write_bytes(b"not an array")
        # A corrupted entry reads as a miss and is evicted on the spot.
        assert self.cache.load(KIND, _params(n)) is None
        self.misses += 1
        del self.model[n]

    @rule(n=ADDRESSES)
    def writer_killed_mid_store(self, n):
        kind_dir = self.root / KIND
        kind_dir.mkdir(parents=True, exist_ok=True)
        (kind_dir / f"{TEMP_PREFIX}{_stem(n)}.npz-dead").write_bytes(b"partial")

    @rule()
    def prune(self):
        report = prune_cache(self.root)
        assert report.kept == len(self.model)
        assert all("abandoned temp file" in e.reason for e in report.pruned)
        assert not list(self.root.glob(f"*/{TEMP_PREFIX}*"))

    @invariant()
    def contents_match_the_model(self):
        for n in range(4):
            assert self.cache.contains(KIND, _params(n)) == (n in self.model)
        assert (self.cache.stats.hits, self.cache.stats.misses) == (self.hits, self.misses)


CacheMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestCacheModel = CacheMachine.TestCase
