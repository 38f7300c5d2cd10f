"""Golden equivalence suite: batched vs per-frame receive processing.

The batched engine in `repro.radar.pipeline` is only trusted because these
tests pin every stage — cube FFT, shifted-difference background
subtraction, lag-domain Eq. 2 beamforming — and the full ``sense`` paths
(FMCW and pulsed) to the per-frame reference loops
(`repro.radar.reference`) at ``atol=1e-10``, with and without noise, plus
the read-only invariants of the shared sweep planes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SignalProcessingError
from repro.geometry import Rectangle
from repro.radar import (
    ZERO_PAD_FACTOR,
    FmcwRadar,
    PulsedRadar,
    RadarConfig,
    Scene,
    UniformLinearArray,
    background_subtract,
    batched_background_subtract,
    batched_beamform_power,
    batched_range_profiles,
    frame_range_profiles,
    process_sweep,
)
from repro.radar import pipeline as pipeline_module
from repro.radar.reference import (
    reference_pulsed_sense,
    reference_receive,
    reference_sense,
)
from repro.signal.chirp import ChirpConfig
from repro.types import Trajectory

ATOL = 1e-10


@pytest.fixture(scope="module")
def config() -> RadarConfig:
    # Short chirps keep the FFTs small; the kernels are shape-generic.
    return RadarConfig(chirp=ChirpConfig(duration=6.4e-5))


@pytest.fixture(scope="module")
def array(config) -> UniformLinearArray:
    return UniformLinearArray(config)


def random_cube(seed: int, num_frames: int, config: RadarConfig,
                scale: float = 0.05) -> np.ndarray:
    """A beat cube with realistic (small) amplitudes."""
    rng = np.random.default_rng(seed)
    shape = (num_frames, config.num_antennas, config.chirp.num_samples)
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def walking_scene() -> Scene:
    room = Rectangle(0.0, 0.0, 8.0, 6.0)
    scene = Scene(room)
    scene.add_static((2.0, 3.0))
    scene.add_static((6.0, 4.5), rcs=0.5)
    walk = Trajectory(np.linspace([2.0, 2.0], [5.5, 4.0], 40), dt=0.1)
    scene.add_human(walk)
    return scene


class TestStageEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_cube_fft_matches_per_frame(self, config, seed):
        cube = random_cube(seed, 9, config)
        batched = batched_range_profiles(cube, config)
        for frame, profile in zip(cube, batched):
            np.testing.assert_allclose(
                profile, frame_range_profiles(frame, config), atol=ATOL)

    def test_blocked_fft_matches_single_pass(self, config, monkeypatch):
        cube = random_cube(11, 17, config)
        whole = batched_range_profiles(cube, config)
        # Shrink the block budget so the cube is split across many blocks.
        monkeypatch.setattr(pipeline_module, "_CHUNK_BYTES", 1 << 14)
        blocked = batched_range_profiles(cube, config)
        np.testing.assert_array_equal(blocked, whole)

    def test_shifted_difference_matches_chain(self, config):
        profiles = batched_range_profiles(random_cube(2, 7, config), config)
        batched = batched_background_subtract(profiles)
        previous = None
        for frame, subtracted in zip(profiles, batched):
            reference = background_subtract(frame, previous)
            previous = frame
            np.testing.assert_allclose(subtracted, reference, atol=ATOL)

    @pytest.mark.parametrize("taper", ["hamming", "hann", None])
    def test_lag_domain_beamform_matches_eq2(self, config, array, taper):
        profiles = batched_range_profiles(random_cube(3, 6, config), config)
        subtracted = batched_background_subtract(profiles)
        angles = config.angle_grid()
        power_cube = batched_beamform_power(subtracted, array, angles,
                                            taper=taper)
        assert power_cube.shape == (6, profiles.shape[-1], angles.size)
        for frame, power in zip(subtracted, power_cube):
            reference = array.beamform(frame, angles, taper=taper)
            np.testing.assert_allclose(power, reference.T, atol=ATOL)

    def test_process_sweep_matches_naive_backend(self, config):
        radar = FmcwRadar(config)
        cube = random_cube(5, 8, config)
        times = np.arange(8) / config.frame_rate
        naive_profiles, naive_raw = reference_receive(radar, times, cube, 6.0)
        sweep = process_sweep(cube, config, radar.array, times, max_range=6.0)
        np.testing.assert_allclose(sweep.raw_profiles, naive_raw, atol=ATOL)
        for ours, reference in zip(sweep.profiles(), naive_profiles):
            np.testing.assert_allclose(ours.power, reference.power, atol=ATOL)
            np.testing.assert_array_equal(ours.ranges, reference.ranges)
            np.testing.assert_array_equal(ours.angles, reference.angles)
            assert ours.time == reference.time


class TestStageValidation:
    def test_fft_rejects_non_cube(self, config):
        with pytest.raises(SignalProcessingError, match="beat cube"):
            batched_range_profiles(
                np.zeros((config.num_antennas, config.chirp.num_samples),
                         dtype=complex), config)

    def test_fft_rejects_wrong_antenna_count(self, config):
        with pytest.raises(SignalProcessingError, match="beat cube"):
            batched_range_profiles(
                np.zeros((4, config.num_antennas + 1,
                          config.chirp.num_samples), dtype=complex), config)

    def test_subtract_rejects_empty_cube(self):
        with pytest.raises(SignalProcessingError, match="frame axis"):
            batched_background_subtract(np.zeros((0, 3, 5), dtype=complex))

    def test_beamform_rejects_wrong_antenna_count(self, config, array):
        with pytest.raises(SignalProcessingError, match="profile cube"):
            batched_beamform_power(np.zeros((3, 2, 5), dtype=complex),
                                   array, config.angle_grid())

    def test_process_sweep_rejects_time_mismatch(self, config, array):
        cube = random_cube(6, 4, config)
        with pytest.raises(SignalProcessingError, match="frame times"):
            process_sweep(cube, config, array, np.arange(5, dtype=float))


class TestSenseEquivalence:
    @pytest.mark.parametrize("noise_std", [0.0, 5e-4])
    def test_fmcw_sense_is_backend_independent(self, noise_std):
        radar = FmcwRadar(RadarConfig(noise_std=noise_std))
        naive = reference_sense(radar, walking_scene(), 1.2,
                                rng=np.random.default_rng(17))
        vectorized = radar.sense(walking_scene(), 1.2,
                                 rng=np.random.default_rng(17))
        np.testing.assert_allclose(vectorized.raw_profiles,
                                   naive.raw_profiles, atol=ATOL)
        assert len(vectorized.profiles) == len(naive.profiles)
        for p_vec, p_naive in zip(vectorized.profiles, naive.profiles):
            np.testing.assert_allclose(p_vec.power, p_naive.power, atol=ATOL)
            np.testing.assert_array_equal(p_vec.ranges, p_naive.ranges)
            np.testing.assert_array_equal(p_vec.angles, p_naive.angles)
            assert p_vec.time == p_naive.time

    def test_pulsed_sense_is_backend_independent(self):
        radar = PulsedRadar()
        naive = reference_pulsed_sense(radar, walking_scene(), 1.0,
                                       rng=np.random.default_rng(23))
        vectorized = radar.sense(walking_scene(), 1.0,
                                 rng=np.random.default_rng(23))
        for p_vec, p_naive in zip(vectorized.profiles, naive.profiles):
            np.testing.assert_allclose(p_vec.power, p_naive.power, atol=ATOL)
            np.testing.assert_array_equal(p_vec.ranges, p_naive.ranges)
            assert p_vec.time == p_naive.time


class TestSensingResultInvariants:
    @pytest.fixture(scope="class")
    def both_results(self):
        radar = FmcwRadar()
        return {
            "naive": reference_sense(radar, walking_scene(), 3.0,
                                     rng=np.random.default_rng(29)),
            "vectorized": radar.sense(walking_scene(), 3.0,
                                      rng=np.random.default_rng(29)),
        }

    def test_phase_series_identical(self, both_results):
        naive = both_results["naive"].phase_series(3.0)
        vectorized = both_results["vectorized"].phase_series(3.0)
        np.testing.assert_allclose(vectorized, naive, atol=ATOL)

    def test_tracks_identical(self, both_results):
        naive_tracks = both_results["naive"].tracks()
        vec_tracks = both_results["vectorized"].tracks()
        assert len(vec_tracks) == len(naive_tracks)
        for ours, reference in zip(vec_tracks, naive_tracks):
            np.testing.assert_allclose(ours.to_trajectory().points,
                                       reference.to_trajectory().points,
                                       atol=1e-8)

    def test_best_trajectory_identical(self, both_results):
        naive = both_results["naive"].best_trajectory()
        vectorized = both_results["vectorized"].best_trajectory()
        np.testing.assert_allclose(vectorized.points, naive.points,
                                   atol=1e-8)

    def test_vectorized_profiles_share_readonly_planes(self, both_results):
        profiles = both_results["vectorized"].profiles
        assert profiles[0].ranges is profiles[1].ranges
        assert profiles[0].angles is profiles[1].angles
        for plane in (profiles[0].power, profiles[0].ranges,
                      profiles[0].angles):
            assert not plane.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                plane[...] = 0.0

    def test_range_bins_match_raw_profile_grid(self, both_results):
        for result in both_results.values():
            bins = result.range_bins()
            assert bins.shape[0] == result.raw_profiles.shape[-1]
            assert (bins.shape[0]
                    == result.config.chirp.num_samples * ZERO_PAD_FACTOR // 2)


class TestZeroPadSingleSource:
    def test_private_alias_is_the_public_constant(self):
        from repro.radar.processing import _ZERO_PAD_FACTOR
        assert _ZERO_PAD_FACTOR is ZERO_PAD_FACTOR

    def test_pipeline_grid_uses_the_constant(self, config):
        cube = random_cube(7, 3, config)
        profiles = batched_range_profiles(cube, config)
        assert (profiles.shape[-1]
                == config.chirp.num_samples * ZERO_PAD_FACTOR // 2)
