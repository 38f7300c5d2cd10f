"""Golden equivalence suite: vectorized vs naive frame synthesis.

The batched engine in `repro.radar.batch` is only trusted because these
tests pin it to the reference per-component loop
(`repro.radar.reference.synthesize_frame_naive`) at ``atol=1e-10``
across randomized component sets, every ``PathComponent`` field, the empty
frame, noise streams, and the super-Nyquist drop rule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.radar import (
    SYNTH_STATS,
    FmcwRadar,
    PathComponent,
    RadarConfig,
    Scene,
    UniformLinearArray,
    pack_components,
    synthesize_frame_vectorized,
    synthesize_frames,
)
from repro.geometry import Rectangle
from repro.radar.reference import reference_sense, synthesize_frame_naive

ATOL = 1e-10


@pytest.fixture(scope="module")
def config() -> RadarConfig:
    return RadarConfig()


@pytest.fixture(scope="module")
def array(config) -> UniformLinearArray:
    return UniformLinearArray(config)


def random_components(rng: np.random.Generator, count: int,
                      config: RadarConfig) -> list[PathComponent]:
    """Component sets exercising every PathComponent field."""
    components = []
    for _ in range(count):
        components.append(PathComponent(
            distance=float(rng.uniform(0.0, 14.0)),
            angle=float(rng.uniform(1e-3, np.pi - 1e-3)),
            amplitude=float(rng.uniform(0.0, 0.3)),
            beat_offset_hz=float(rng.uniform(-5e4, 5e4)),
            phase_offset=float(rng.uniform(0.0, 2.0 * np.pi)),
            extra_delay_s=float(rng.uniform(0.0, 3e-8)),
        ))
    return components


class TestFrameEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("count", [1, 3, 17, 50])
    def test_randomized_component_sets(self, config, array, seed, count):
        rng = np.random.default_rng(seed)
        components = random_components(rng, count, config)
        naive = synthesize_frame_naive(components, config, array, None)
        vectorized = synthesize_frame_vectorized(components, config, array, None)
        np.testing.assert_allclose(vectorized, naive, atol=ATOL)

    def test_empty_component_list(self, config, array):
        naive = synthesize_frame_naive([], config, array, None)
        vectorized = synthesize_frame_vectorized([], config, array, None)
        assert naive.shape == vectorized.shape
        assert np.all(vectorized == 0)
        np.testing.assert_array_equal(vectorized, naive)

    def test_noise_streams_are_bit_identical(self, config, array):
        components = random_components(np.random.default_rng(1), 5, config)
        naive = synthesize_frame_naive(components, config, array,
                                       np.random.default_rng(99))
        vectorized = synthesize_frame_vectorized(components, config, array,
                                                 np.random.default_rng(99))
        # Tones agree to ATOL; the noise added on top is bit-identical
        # because both kernels draw through the same helper.
        np.testing.assert_allclose(vectorized, naive, atol=ATOL)

    def test_packed_input_accepted(self, config, array):
        components = random_components(np.random.default_rng(4), 9, config)
        from_list = synthesize_frame_vectorized(components, config, array, None)
        from_packed = synthesize_frame_vectorized(
            pack_components(components), config, array, None)
        np.testing.assert_array_equal(from_list, from_packed)


class TestNyquistDropParity:
    def super_nyquist_components(self, config) -> list[PathComponent]:
        chirp = config.chirp
        return [
            # Geometric distance beyond the unambiguous range.
            PathComponent(chirp.max_unambiguous_range + 3.0, 1.0, 0.1),
            # Beat offset pushes an in-range path over Nyquist.
            PathComponent(1.0, 1.2, 0.1,
                          beat_offset_hz=chirp.sample_rate),
            # Negative offset below -Nyquist.
            PathComponent(0.5, 0.8, 0.1,
                          beat_offset_hz=-chirp.sample_rate),
            # Exactly at Nyquist: the `>=` cut drops it in both kernels.
            PathComponent(0.0, 1.5, 0.1,
                          beat_offset_hz=chirp.sample_rate / 2.0),
            # Extra delay alone carries the tone out of band.
            PathComponent(0.0, 0.4, 0.1,
                          extra_delay_s=2.0 * chirp.max_unambiguous_range
                          / 3.0e8 * 1.5),
        ]

    def test_super_nyquist_tones_dropped_identically(self, config, array):
        components = self.super_nyquist_components(config)
        survivors = random_components(np.random.default_rng(2), 4, config)
        mixed = components + survivors
        naive = synthesize_frame_naive(mixed, config, array, None)
        vectorized = synthesize_frame_vectorized(mixed, config, array, None)
        np.testing.assert_allclose(vectorized, naive, atol=ATOL)
        # The dropped tones contribute nothing at all.
        only_survivors = synthesize_frame_naive(survivors, config, array, None)
        np.testing.assert_allclose(vectorized, only_survivors, atol=ATOL)

    def test_dropped_tone_counts_match(self, config, array):
        components = self.super_nyquist_components(config)
        components += random_components(np.random.default_rng(3), 6, config)

        SYNTH_STATS.reset()
        synthesize_frame_naive(components, config, array, None)
        naive_dropped = SYNTH_STATS.dropped_tones
        assert naive_dropped == 5

        SYNTH_STATS.reset()
        synthesize_frame_vectorized(components, config, array, None)
        assert SYNTH_STATS.dropped_tones == naive_dropped
        assert SYNTH_STATS.components_seen == len(components)
        assert SYNTH_STATS.frames_synthesized == 1

    def test_drop_emits_debug_log(self, config, array, caplog):
        far = PathComponent(config.chirp.max_unambiguous_range + 3.0, 1.0, 0.1)
        with caplog.at_level("DEBUG", logger="repro.radar.frontend"):
            synthesize_frame_naive([far], config, array, None)
            synthesize_frame_vectorized([far], config, array, None)
        drops = [r for r in caplog.records if "super-Nyquist" in r.message]
        assert len(drops) == 2
        assert all(r.levelname == "DEBUG" for r in drops)


class TestSweepEquivalence:
    def test_sweep_matches_per_frame_synthesis(self, config, array):
        rng = np.random.default_rng(11)
        per_frame = [random_components(rng, count, config)
                     for count in (4, 0, 12, 1, 27)]
        sweep = synthesize_frames(per_frame, config, array, None)
        for frame, components in zip(sweep, per_frame):
            reference = synthesize_frame_naive(components, config, array, None)
            np.testing.assert_allclose(frame, reference, atol=ATOL)

    def test_sweep_noise_stream_matches_single_frames(self, config, array):
        rng = np.random.default_rng(13)
        per_frame = [random_components(rng, 5, config) for _ in range(4)]
        sweep = synthesize_frames(per_frame, config, array,
                                  np.random.default_rng(42))
        single_rng = np.random.default_rng(42)
        for frame, components in zip(sweep, per_frame):
            reference = synthesize_frame_vectorized(components, config, array,
                                                    single_rng)
            np.testing.assert_array_equal(frame, reference)

    def test_sense_is_backend_independent(self):
        """A full sensing session matches its reference-loop run."""
        scene = Scene(Rectangle(0.0, 0.0, 8.0, 6.0))
        scene.add_static((2.0, 3.0))
        scene.add_static((5.0, 4.0), rcs=0.5)
        radar = FmcwRadar()
        naive = reference_sense(radar, scene, 0.5,
                                rng=np.random.default_rng(21))
        vectorized = radar.sense(scene, 0.5, rng=np.random.default_rng(21))
        np.testing.assert_allclose(vectorized.raw_profiles,
                                   naive.raw_profiles, atol=1e-8)
        for p_vec, p_naive in zip(vectorized.profiles, naive.profiles):
            np.testing.assert_allclose(p_vec.power, p_naive.power,
                                       rtol=1e-6, atol=1e-10)
