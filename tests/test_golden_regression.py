"""Golden regression suite: checked-in digests of the range-angle cubes.

The equivalence suites pin the production kernels against the reference
loops (:mod:`repro.radar.reference`); this suite pins both against
*history*. One FMCW scene and one pulsed scene are sensed by each —
``vectorized`` is the production ``sense`` call, ``naive`` the reference
run — and summarized into a small digest (shapes, cube statistics, probe
cells, raw-profile mass) that is compared against the checked-in fixture
at tight relative tolerance. Any numerical drift in the stage-graph
kernels — a reordered reduction, a changed crop, a new window — shows up
here even if both implementations drift together.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/test_golden_regression.py

and review the fixture diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.geometry import Rectangle
from repro.radar import (
    FmcwRadar,
    PulsedRadar,
    PulsedRadarConfig,
    RadarConfig,
    Scene,
)
from repro.radar.reference import reference_pulsed_sense, reference_sense
from repro.signal.chirp import ChirpConfig
from repro.types import Trajectory

GOLDEN_PATH = (Path(__file__).resolve().parent
               / "fixtures" / "golden" / "range_angle_digests.json")
TRACKER_GOLDEN_PATH = (Path(__file__).resolve().parent
                       / "fixtures" / "golden" / "tracker_digests.json")

RTOL = 1e-7

#: Fixture keys: ``naive`` is the reference run, ``vectorized`` production.
BACKENDS = ("naive", "vectorized")

#: Probe cells as fractional (frame, bin, angle) coordinates, scaled to
#: each cube's shape so the digest stays shape-agnostic.
PROBE_FRACTIONS = (
    (0.0, 0.0, 0.0),
    (0.0, 0.5, 0.5),
    (0.25, 0.33, 0.66),
    (0.5, 0.1, 0.9),
    (0.5, 0.75, 0.25),
    (0.75, 0.9, 0.1),
    (1.0, 0.5, 0.5),
    (1.0, 1.0, 1.0),
)


def fmcw_scene() -> Scene:
    room = Rectangle(0.0, 0.0, 8.0, 6.0)
    scene = Scene(room)
    scene.add_static((2.0, 3.0))
    scene.add_static((6.0, 4.5), rcs=0.5)
    walk = Trajectory(np.linspace([2.0, 2.0], [5.5, 4.0], 40), dt=0.1)
    scene.add_human(walk)
    return scene


def pulsed_scene() -> Scene:
    room = Rectangle(0.0, 0.0, 8.0, 6.0)
    scene = Scene(room)
    scene.add_static((5.5, 2.5))
    walk = Trajectory(np.linspace([2.5, 4.5], [5.0, 2.0], 40), dt=0.1)
    scene.add_human(walk)
    return scene


def sense_fmcw(backend: str):
    radar = FmcwRadar(RadarConfig(chirp=ChirpConfig(duration=6.4e-5)))
    rng = np.random.default_rng(2022)
    sense = reference_sense if backend == "naive" else FmcwRadar.sense
    return sense(radar, fmcw_scene(), 1.2, rng=rng)


def sense_pulsed(backend: str):
    radar = PulsedRadar(PulsedRadarConfig(sample_rate=2.5e9,
                                          bandwidth=1.0e9,
                                          max_range=12.0))
    rng = np.random.default_rng(1337)
    sense = reference_pulsed_sense if backend == "naive" else PulsedRadar.sense
    return sense(radar, pulsed_scene(), 1.2, rng=rng)


def digest(result) -> dict:
    """Summary statistics of a sensing result's range-angle cube."""
    cube = np.stack([profile.power for profile in result.profiles])
    num_frames, num_bins, num_angles = cube.shape
    probes = {}
    for frac_frame, frac_bin, frac_angle in PROBE_FRACTIONS:
        index = (round(frac_frame * (num_frames - 1)),
                 round(frac_bin * (num_bins - 1)),
                 round(frac_angle * (num_angles - 1)))
        probes["/".join(map(str, index))] = float(cube[index])
    raw = result.raw_profiles
    return {
        "cube_shape": list(cube.shape),
        "cube_sum": float(cube.sum()),
        "cube_max": float(cube.max()),
        "cube_argmax": int(cube.argmax()),
        "probes": probes,
        "ranges_first": float(result.profiles[0].ranges[0]),
        "ranges_last": float(result.profiles[0].ranges[-1]),
        "raw_abs_sum": float(np.abs(raw).sum()),
        "raw_shape": list(raw.shape),
    }


def tracker_digest(result) -> dict:
    """Track-level summary: stable IDs, lifecycles, trajectory mass.

    Computed through the *streaming* tracker (``stream_tracks``) so the
    digest also guards the incremental path; streaming≡batch equality is
    separately pinned by ``tests/test_property_tracker.py``.
    """
    tracks = result.stream_tracks().tracks()
    track_entries = []
    for track in tracks:
        positions = np.vstack(track.raw_positions)
        trajectory = track.to_trajectory()
        track_entries.append({
            "track_id": track.track_id,
            "num_points": len(track),
            "age": track.age,
            "misses": track.misses,
            "total_misses": track.total_misses,
            "first_time": float(track.times[0]),
            "last_time": float(track.times[-1]),
            "first_position": [float(x) for x in positions[0]],
            "last_position": [float(x) for x in positions[-1]],
            "position_sum": [float(x) for x in positions.sum(axis=0)],
            "total_power": track.total_power,
            "trajectory_points": len(trajectory),
            "trajectory_sum": [
                float(x) for x in trajectory.points.sum(axis=0)
            ],
        })
    return {"num_tracks": len(tracks), "tracks": track_entries}


def compute_digests() -> dict:
    return {
        "fmcw": {backend: digest(sense_fmcw(backend))
                 for backend in BACKENDS},
        "pulsed": {backend: digest(sense_pulsed(backend))
                   for backend in BACKENDS},
    }


def compute_tracker_digests() -> dict:
    return {
        "fmcw": {backend: tracker_digest(sense_fmcw(backend))
                 for backend in BACKENDS},
        "pulsed": {backend: tracker_digest(sense_pulsed(backend))
                   for backend in BACKENDS},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - regeneration aid
        pytest.fail(f"golden fixture missing; regenerate via "
                    f"PYTHONPATH=src python {Path(__file__).name}")
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_tracker() -> dict:
    if not TRACKER_GOLDEN_PATH.exists():  # pragma: no cover - regen aid
        pytest.fail(f"tracker golden fixture missing; regenerate via "
                    f"PYTHONPATH=src python {Path(__file__).name}")
    return json.loads(TRACKER_GOLDEN_PATH.read_text(encoding="utf-8"))


def assert_digest_matches(actual: dict, expected: dict) -> None:
    assert actual.keys() == expected.keys()
    assert actual["cube_shape"] == expected["cube_shape"]
    assert actual["raw_shape"] == expected["raw_shape"]
    assert actual["cube_argmax"] == expected["cube_argmax"]
    for key in ("cube_sum", "cube_max", "ranges_first", "ranges_last",
                "raw_abs_sum"):
        np.testing.assert_allclose(actual[key], expected[key], rtol=RTOL,
                                   err_msg=key)
    assert actual["probes"].keys() == expected["probes"].keys()
    for cell, value in expected["probes"].items():
        np.testing.assert_allclose(actual["probes"][cell], value, rtol=RTOL,
                                   err_msg=f"probe {cell}")


@pytest.mark.parametrize("backend", BACKENDS)
class TestGoldenDigests:
    def test_fmcw_matches_golden(self, golden, backend):
        assert_digest_matches(digest(sense_fmcw(backend)),
                              golden["fmcw"][backend])

    def test_pulsed_matches_golden(self, golden, backend):
        assert_digest_matches(digest(sense_pulsed(backend)),
                              golden["pulsed"][backend])


def assert_tracker_digest_matches(actual: dict, expected: dict) -> None:
    assert actual["num_tracks"] == expected["num_tracks"]
    for track, ref in zip(actual["tracks"], expected["tracks"]):
        for key in ("track_id", "num_points", "age", "misses",
                    "total_misses", "trajectory_points"):
            assert track[key] == ref[key], key
        for key in ("first_time", "last_time", "total_power"):
            np.testing.assert_allclose(track[key], ref[key], rtol=RTOL,
                                       err_msg=key)
        for key in ("first_position", "last_position", "position_sum",
                    "trajectory_sum"):
            np.testing.assert_allclose(track[key], ref[key], rtol=RTOL,
                                       err_msg=key)


@pytest.mark.parametrize("backend", BACKENDS)
class TestGoldenTrackerDigests:
    """History-pinned tracker output: IDs, lifecycles, trajectories."""

    def test_fmcw_tracks_match_golden(self, golden_tracker, backend):
        assert_tracker_digest_matches(tracker_digest(sense_fmcw(backend)),
                                      golden_tracker["fmcw"][backend])

    def test_pulsed_tracks_match_golden(self, golden_tracker, backend):
        assert_tracker_digest_matches(tracker_digest(sense_pulsed(backend)),
                                      golden_tracker["pulsed"][backend])


class TestGoldenInternalConsistency:
    def test_backends_agree_with_each_other(self, golden):
        """The checked-in digests themselves must be cross-backend equal."""
        for radar_kind, per_backend in golden.items():
            naive, vectorized = (per_backend["naive"],
                                 per_backend["vectorized"])
            assert naive["cube_shape"] == vectorized["cube_shape"], radar_kind
            np.testing.assert_allclose(naive["cube_sum"],
                                       vectorized["cube_sum"], rtol=1e-6,
                                       err_msg=radar_kind)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
    TRACKER_GOLDEN_PATH.write_text(
        json.dumps(compute_tracker_digests(), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {TRACKER_GOLDEN_PATH}")
