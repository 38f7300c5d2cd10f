"""Per-stage timing benches for the stage-graph executor.

Every sense path runs through ``repro.radar.stages``; this bench exercises
the FMCW and pulsed radars, checks that every stage's wall-time histogram
actually accumulated observations, and dumps the
process-wide :func:`repro.radar.stages.stage_metrics` snapshot to
``stage-timings.json`` (path overridable via ``RFPROTECT_STAGE_TIMINGS``)
— the benchmarks job uploads it next to the pytest-benchmark artifacts,
so a perf regression can be localized to the stage that moved.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.geometry import Rectangle
from repro.radar import (
    FmcwRadar,
    PulsedRadar,
    PulsedRadarConfig,
    RadarConfig,
    Scene,
    Stage,
    stage_metrics,
)
from repro.signal.chirp import ChirpConfig
from repro.types import Trajectory

TIMINGS_PATH = os.environ.get("RFPROTECT_STAGE_TIMINGS",
                              "stage-timings.json")


def bench_scene() -> Scene:
    room = Rectangle(0.0, 0.0, 8.0, 6.0)
    scene = Scene(room)
    scene.add_static((2.0, 3.0))
    walk = Trajectory(np.linspace([2.0, 2.0], [5.5, 4.0], 40), dt=0.1)
    scene.add_human(walk)
    return scene


def test_fmcw_stage_timings():
    radar = FmcwRadar(RadarConfig(chirp=ChirpConfig(duration=6.4e-5)))
    result = radar.sense(bench_scene(), 1.0, rng=np.random.default_rng(0))
    result.tracks()
    histograms = stage_metrics().snapshot()["histograms"]
    for stage in Stage:
        name = f"stages.{stage.value}.wall_s"
        assert histograms.get(name, {}).get("count", 0) > 0, name


def test_pulsed_stage_timings():
    name = "stages.background_subtract.wall_s"
    before = stage_metrics().snapshot()["histograms"].get(name, {})
    radar = PulsedRadar(PulsedRadarConfig(sample_rate=2.0e9, max_range=10.0))
    radar.sense(bench_scene(), 1.0, rng=np.random.default_rng(1))
    after = stage_metrics().snapshot()["histograms"][name]
    assert after["count"] > before.get("count", 0)


def test_zz_dump_stage_timings():
    """Write the accumulated per-stage snapshot (runs last by name)."""
    snapshot = stage_metrics().snapshot()
    assert snapshot["histograms"], "no stage timings accumulated"
    with open(TIMINGS_PATH, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
    print(f"\nwrote per-stage timing snapshot to {TIMINGS_PATH}")
