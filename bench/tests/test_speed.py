"""Machine-speed normalisation arithmetic and probe lifecycle."""

import os
import time

import pytest

import speed
from speed import SpeedProbe


def test_factor_is_the_mean_of_reference_over_probe_inside_the_window():
    probe = SpeedProbe([])
    probe.samples[0] = [(1.0, speed.REF_S), (2.0, 2 * speed.REF_S), (9.0, 4 * speed.REF_S)]
    assert probe.factor([0], 0.5, 2.5) == pytest.approx(0.75)
    # A wall second at half speed is worth half a reference second.
    assert probe.factor([0], 1.5, 2.5) == pytest.approx(0.5)


def test_a_short_interval_is_widened_around_its_middle():
    probe = SpeedProbe([])
    probe.samples[0] = [(10.0, speed.REF_S), (10.02, 2 * speed.REF_S), (11.0, 4 * speed.REF_S)]
    assert probe.factor([0], 10.009, 10.011) == pytest.approx(0.75)
    assert probe.scale([0], [(10.009, 0.002)]) == [pytest.approx(0.0015)]


def test_a_window_without_samples_uses_the_nearest_probe():
    probe = SpeedProbe([])
    probe.samples[0] = [(1.0, speed.REF_S), (5.0, 2 * speed.REF_S)]
    assert probe.factor([0], 4.0, 4.2) == pytest.approx(0.5)
    assert SpeedProbe([]).factor([], 0.0, 1.0) == 1.0


def test_only_the_given_cpus_count():
    probe = SpeedProbe([])
    probe.samples = {0: [(1.0, speed.REF_S)], 1: [(1.0, 4 * speed.REF_S)]}
    assert probe.factor([0], 0.0, 2.0) == pytest.approx(1.0)
    assert probe.factor([0, 1], 0.0, 2.0) == pytest.approx(0.625)


def test_probe_threads_sample_their_cpu_and_stop():
    cpu = min(os.sched_getaffinity(0))
    probe = SpeedProbe([cpu])
    time.sleep(10 * speed.EVERY_S)
    probe.close()
    assert len(probe.samples[cpu]) >= 2
    assert all(p > 0 for _, p in probe.samples[cpu])
    assert not any(thread.is_alive() for thread in probe._threads)
