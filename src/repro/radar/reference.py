"""Reference kernels: the per-frame loops the production kernels are tested against.

Each function here is the plain, loop-per-frame (or per-component) form of
one stage of the sensing chain — the arithmetic the batched kernels in
:mod:`repro.radar.batch`, :mod:`repro.radar.pipeline` and
:mod:`repro.radar.stages` regroup. The equivalence and golden suites run
both and compare, so every production kernel keeps an independent oracle.

Only tests and benchmarks import this module; no production path does.

- :func:`synthesize_frame_naive` — one ``(K, N)`` outer product per path
  component (the physics of :mod:`repro.radar.frontend`, written out).
- :func:`reference_synthesize` — that loop over a whole sweep, plus noise.
- :func:`reference_range_profiles` — a windowed range FFT per frame.
- :func:`reference_background_subtract` — the frame-chained subtraction.
- :func:`reference_beamform` — Eq. 2 per frame, with fresh axis arrays.
- :func:`reference_receive` / :func:`reference_sense` /
  :func:`reference_pulsed_sense` — the loops chained into whole sense runs.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.radar.antenna import UniformLinearArray
from repro.radar.config import RadarConfig
from repro.radar.frontend import SYNTH_STATS, PathComponent, thermal_noise
from repro.radar.processing import (
    ZERO_PAD_FACTOR,
    RangeAngleProfile,
    background_subtract,
    frame_range_profiles,
    range_keep_mask,
)
from repro.radar.pulsed import PulsedRadar, PulsedSensingResult
from repro.radar.radar import FmcwRadar, SensingResult
from repro.radar.scene import Scene
from repro.radar.stages import emit_sweep
from repro.signal.spectral import range_axis

__all__ = [
    "reference_background_subtract",
    "reference_beamform",
    "reference_pulsed_sense",
    "reference_range_profiles",
    "reference_receive",
    "reference_sense",
    "reference_synthesize",
    "synthesize_frame_naive",
]


def synthesize_frame_naive(components: list[PathComponent], config: RadarConfig,
                           array: UniformLinearArray,
                           rng: np.random.Generator | None = None) -> np.ndarray:
    """One frame of beat samples, ``(K, N)``, one component at a time."""
    chirp = config.chirp
    t = chirp.sample_times()
    frame = np.zeros((config.num_antennas, chirp.num_samples), dtype=complex)

    dropped = 0
    for component in components:
        # A true extra delay behaves exactly like extra distance for FMCW.
        effective_distance = component.distance + float(
            chirp.delay_to_distance(component.extra_delay_s)
        )
        beat_frequency = (chirp.distance_to_beat_frequency(effective_distance)
                          + component.beat_offset_hz)
        if abs(beat_frequency) >= chirp.sample_rate / 2.0:
            # Tone beyond Nyquist: a real ADC's anti-alias filter removes it.
            dropped += 1
            continue
        carrier_phase = (chirp.carrier_phase(effective_distance)
                         + component.phase_offset)
        tone = component.amplitude * np.exp(
            1j * (2.0 * np.pi * beat_frequency * t + carrier_phase)
        )
        antenna_phases = array.arrival_phases(component.angle)
        frame += np.exp(1j * antenna_phases)[:, None] * tone[None, :]
    SYNTH_STATS.record_frame(len(components), dropped, "naive")

    if rng is not None and config.noise_std > 0:
        frame = frame + thermal_noise(config, rng, frame.shape)
    return frame


def reference_synthesize(components_per_frame: Sequence[list[PathComponent]],
                         noise: np.ndarray | None, config: RadarConfig,
                         array: UniformLinearArray) -> np.ndarray:
    """A sweep's beat cube ``(F, K, N)``, frame by frame, plus ``noise``."""
    frames = np.stack([
        synthesize_frame_naive(components, config, array, None)
        for components in components_per_frame
    ])
    if noise is not None:
        frames += noise
    return frames


def reference_range_profiles(frames: np.ndarray,
                             config: RadarConfig) -> np.ndarray:
    """Complex range profiles ``(F, K, B)``, one windowed FFT per frame."""
    return np.stack([frame_range_profiles(frame, config) for frame in frames])


def reference_background_subtract(profiles: np.ndarray) -> np.ndarray:
    """Frame-chained subtraction; frame 0 subtracts against nothing (zeros)."""
    subtracted = np.empty_like(profiles)
    previous: np.ndarray | None = None
    for f in range(profiles.shape[0]):
        subtracted[f] = background_subtract(profiles[f], previous)
        previous = profiles[f]
    return subtracted


def reference_beamform(subtracted: np.ndarray, array: UniformLinearArray,
                       angles: np.ndarray, ranges: np.ndarray,
                       times: np.ndarray) -> list[RangeAngleProfile]:
    """Eq. 2 per frame; every profile gets fresh, writable axis arrays."""
    profiles: list[RangeAngleProfile] = []
    for f, t in enumerate(times):
        power = array.beamform(subtracted[f], angles)
        profiles.append(RangeAngleProfile(power=power.T, ranges=ranges.copy(),
                                          angles=angles.copy(),
                                          time=float(t)))
    return profiles


def _subtract_and_beamform(raw_profiles: np.ndarray, ranges_full: np.ndarray,
                           radar: FmcwRadar | PulsedRadar, times: np.ndarray,
                           max_range: float | None,
                           ) -> list[RangeAngleProfile]:
    """Crop to the range window, then the subtraction and Eq. 2 loops."""
    keep = range_keep_mask(ranges_full, min_range=radar.config.min_range,
                           max_range=max_range)
    subtracted = reference_background_subtract(
        np.ascontiguousarray(raw_profiles[:, :, keep])
    )
    return reference_beamform(subtracted, radar.array,
                              radar.config.angle_grid(), ranges_full[keep],
                              times)


def reference_receive(radar: FmcwRadar, times: np.ndarray, frames: np.ndarray,
                      max_range: float | None,
                      ) -> tuple[list[RangeAngleProfile], np.ndarray]:
    """The FMCW receive chain as per-frame loops: ``(profiles, raw_profiles)``."""
    raw_profiles = reference_range_profiles(np.asarray(frames), radar.config)
    ranges_full = range_axis(radar.config.chirp,
                             zero_pad_factor=ZERO_PAD_FACTOR)
    profiles = _subtract_and_beamform(raw_profiles, ranges_full, radar,
                                      np.asarray(times, dtype=float),
                                      max_range)
    return profiles, raw_profiles


def reference_sense(radar: FmcwRadar, scene: Scene, duration: float, *,
                    rng: np.random.Generator | None = None,
                    start_time: float = 0.0,
                    max_range: float | None = None) -> SensingResult:
    """:meth:`FmcwRadar.sense` with every stage after Emit on its reference loop.

    Emission is the production one, so a seed draws the same scene and
    noise stream as a direct ``sense`` call.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if max_range is None:
        max_range = radar.default_max_range(scene)
    times = radar.frame_times(duration, start_time)
    components, noise = emit_sweep(scene, times, radar.config, radar.array,
                                   rng)
    frames = reference_synthesize(components, noise, radar.config,
                                  radar.array)
    profiles, raw_profiles = reference_receive(radar, times, frames,
                                               max_range)
    return SensingResult(times=times, profiles=profiles,
                         raw_profiles=raw_profiles, config=radar.config,
                         array=radar.array)


def reference_pulsed_sense(radar: PulsedRadar, scene: Scene, duration: float,
                           *, rng: np.random.Generator | None = None,
                           start_time: float = 0.0) -> PulsedSensingResult:
    """:meth:`PulsedRadar.sense` with subtraction and Eq. 2 on their loops.

    The pulsed echo model is already its own matched filter, so the
    reference run re-processes the production run's raw echo cube.
    """
    result = radar.sense(scene, duration, rng=rng, start_time=start_time)
    profiles = _subtract_and_beamform(result.raw_profiles, result.range_bins(),
                                      radar, result.times,
                                      radar.config.max_range)
    return dataclasses.replace(result, profiles=profiles)
