"""Pulsed (impulse) radar: the "New Sensor Types" extension of Sec. 13.

The paper notes that pulsed radars are "prone to similar defenses", but
that distance spoofing "needs to be achieved through other mechanisms (e.g.
by adding a set of delay lines and switching between them)". This module
provides the pulsed-radar substrate to test that claim:

- the radar transmits a short Gaussian pulse, receives the superposition of
  delayed echoes per antenna, matched-filters against the pulse, and reuses
  the *same* downstream pipeline as the FMCW radar (background subtraction,
  Eq. 2 beamforming, range-angle maps, Kalman tracking);
- a :class:`~repro.radar.frontend.PathComponent`'s ``extra_delay_s`` delays
  its echo — the delay-line spoofing mechanism;
- a component's ``beat_offset_hz`` (the FMCW switching trick) does NOT move
  a pulsed echo: on/off switching at kHz rates only gates whole pulses, so
  the line appears at its *physical* distance at duty-cycle amplitude. The
  reproduction therefore demonstrates the paper's implicit negative result:
  the FMCW tag does not spoof distance against a pulsed radar.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import constants
from repro.errors import ConfigurationError, TrackingError
from repro.radar.antenna import UniformLinearArray
from repro.radar.config import RadarConfig
from repro.radar.batch import pack_components
from repro.radar.frontend import PathComponent
from repro.radar.processing import RangeAngleProfile
from repro.radar.scene import Scene
from repro.radar.stages import (
    RECEIVE_PLAN,
    ExecutionContext,
    Stage,
    TrackedResultMixin,
    execute,
)

__all__ = ["PulsedRadar", "PulsedRadarConfig", "PulsedSensingResult"]


@dataclasses.dataclass(frozen=True)
class PulsedRadarConfig:
    """Configuration of the pulsed radar.

    Attributes:
        center_frequency: carrier, Hz (sets the array wavelength).
        bandwidth: pulse bandwidth, Hz — range resolution is ``C / 2B``.
        sample_rate: fast-time ADC rate, Hz (>= 2x bandwidth).
        max_range: largest observed range, meters (sets the window length).
        num_antennas / antenna_spacing / position / axis_angle /
        facing_angle / frame_rate / noise_std / angle_grid_points /
        min_range: as in :class:`~repro.radar.config.RadarConfig`.
    """

    center_frequency: float = 6.5e9
    bandwidth: float = 1.0e9
    sample_rate: float = 4.0e9
    max_range: float = 20.0
    num_antennas: int = constants.RADAR_NUM_ANTENNAS
    antenna_spacing: float | None = None
    position: tuple[float, float] = (0.0, 0.0)
    axis_angle: float = 0.0
    facing_angle: float = np.pi / 2.0
    frame_rate: float = 10.0
    noise_std: float = 5e-4
    angle_grid_points: int = 181
    min_range: float = 0.6

    def __post_init__(self) -> None:
        if self.center_frequency <= 0 or self.bandwidth <= 0:
            raise ConfigurationError("frequencies must be positive")
        if self.sample_rate < 2.0 * self.bandwidth:
            raise ConfigurationError(
                "sample_rate must be at least twice the pulse bandwidth"
            )
        if self.max_range <= self.min_range or self.min_range < 0:
            raise ConfigurationError("need 0 <= min_range < max_range")
        if self.num_antennas < 2:
            raise ConfigurationError("angle estimation needs >= 2 antennas")
        if self.frame_rate <= 0 or self.noise_std < 0:
            raise ConfigurationError("bad frame_rate or noise_std")

    @property
    def wavelength(self) -> float:
        return constants.SPEED_OF_LIGHT / self.center_frequency

    @property
    def spacing(self) -> float:
        if self.antenna_spacing is not None:
            return self.antenna_spacing
        return self.wavelength / 2.0

    @property
    def range_resolution(self) -> float:
        return constants.SPEED_OF_LIGHT / (2.0 * self.bandwidth)

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.frame_rate

    @property
    def num_samples(self) -> int:
        """Fast-time samples covering the round trip to ``max_range``."""
        window = 2.0 * self.max_range / constants.SPEED_OF_LIGHT
        return int(np.ceil(window * self.sample_rate)) + 1

    def pulse_sigma(self) -> float:
        """Gaussian pulse width (seconds) matching the bandwidth."""
        return 1.0 / (2.0 * np.pi * self.bandwidth / 2.355)  # FWHM ~ B

    def angle_grid(self) -> np.ndarray:
        return np.linspace(0.0, np.pi, self.angle_grid_points + 2)[1:-1]

    def _geometry_config(self) -> RadarConfig:
        """A RadarConfig carrying just the fields the array geometry needs."""
        return RadarConfig(
            num_antennas=self.num_antennas,
            antenna_spacing=self.spacing,
            position=self.position,
            axis_angle=self.axis_angle,
            facing_angle=self.facing_angle,
            frame_rate=self.frame_rate,
            noise_std=self.noise_std,
            angle_grid_points=self.angle_grid_points,
            min_range=self.min_range,
        )


@dataclasses.dataclass
class PulsedSensingResult(TrackedResultMixin):
    """Frames captured by a pulsed radar (same downstream API as FMCW).

    Tracking, trajectory extraction, and phase analysis come from
    :class:`~repro.radar.stages.TrackedResultMixin`, shared with
    :class:`~repro.radar.radar.SensingResult`.
    """

    times: np.ndarray
    profiles: list[RangeAngleProfile]
    config: PulsedRadarConfig
    array: UniformLinearArray
    raw_profiles: np.ndarray | None = None

    def range_bins(self) -> np.ndarray:
        """Distance of each raw-profile fast-time bin, meters."""
        delays = np.arange(self.config.num_samples) / self.config.sample_rate
        return constants.SPEED_OF_LIGHT * delays / 2.0


class PulsedRadar:
    """A pulsed radar sharing the scene/entity/tracking machinery."""

    def __init__(self, config: PulsedRadarConfig | None = None) -> None:
        self.config = config if config is not None else PulsedRadarConfig()
        self.array = UniformLinearArray(self.config._geometry_config())

    def _range_axis(self) -> np.ndarray:
        delays = np.arange(self.config.num_samples) / self.config.sample_rate
        return constants.SPEED_OF_LIGHT * delays / 2.0

    def _echo_profile(self, components: list[PathComponent],
                      rng: np.random.Generator | None) -> np.ndarray:
        """Matched-filtered echoes per antenna, ``(K, num_samples)``.

        Each component contributes a Gaussian pulse (the matched-filter
        output of the real pulse) at its round-trip delay, carrying the
        carrier phase ``2 pi f_c tau`` and the per-antenna array phase.
        """
        config = self.config
        delays = np.arange(config.num_samples) / config.sample_rate
        sigma = config.pulse_sigma()
        if components:
            packed = pack_components(components)
            # kHz on/off switching cannot shift a ~ns pulse in delay; it
            # only gates pulses, scaling the echo by the duty cycle. The
            # echo stays at the PHYSICAL distance — the FMCW distance
            # trick is inert against pulsed radars.
            amplitudes = np.where(packed.beat_offsets_hz != 0.0,
                                  packed.amplitudes * 0.5, packed.amplitudes)
            tau = (2.0 * packed.distances / constants.SPEED_OF_LIGHT
                   + packed.extra_delays_s)
            envelopes = np.exp(
                -0.5 * ((delays[None, :] - tau[:, None]) / sigma) ** 2
            )
            phases = (2.0 * np.pi * config.center_frequency * tau
                      + packed.phase_offsets)
            echoes = (amplitudes * np.exp(1j * phases))[:, None] * envelopes
            steering = np.exp(1j * self.array.arrival_phase_matrix(packed.angles))
            profile = np.einsum("kc,cn->kn", steering, echoes)
        else:
            profile = np.zeros((config.num_antennas, config.num_samples),
                               dtype=complex)
        if rng is not None and config.noise_std > 0:
            scale = config.noise_std / np.sqrt(2.0)
            profile = profile + (rng.normal(0.0, scale, profile.shape)
                                 + 1j * rng.normal(0.0, scale, profile.shape))
        return profile

    def _emit_stage(self, ctx: ExecutionContext) -> None:
        """Emit kernel: scene components + noise draws, frame by frame.

        The scene query and the noise draw hit the generator in the same
        time order as the historical per-frame loop, so a fixed seed
        reproduces bit-for-bit.
        """
        config = self.config
        rng = ctx.rng
        add_noise = rng is not None and config.noise_std > 0
        scale = config.noise_std / np.sqrt(2.0)
        shape = (config.num_antennas, config.num_samples)
        emitter = ctx.scene.sweep_emitter(self.array)
        components_per_frame: list[list[PathComponent]] = []
        noise: list[np.ndarray] = []
        for t in ctx.times:
            components_per_frame.append(emitter.components_at(float(t), rng))
            if add_noise and rng is not None:
                noise.append(rng.normal(0.0, scale, shape)
                             + 1j * rng.normal(0.0, scale, shape))
        ctx.workspace["components"] = components_per_frame
        ctx.workspace["noise"] = np.stack(noise) if add_noise else None

    def _synthesize_stage(self, ctx: ExecutionContext) -> None:
        """Synthesize kernel: deterministic echoes, then the noise stack."""
        frames = np.stack([
            self._echo_profile(frame_components, None)
            for frame_components in ctx.workspace["components"]
        ])
        noise = ctx.workspace.get("noise")
        if noise is not None:
            frames = frames + noise
        ctx.workspace["frames"] = frames

    def _matched_filter_stage(self, ctx: ExecutionContext) -> None:
        """Range-transform kernel: pulsed echoes are already range profiles.

        Matched filtering happened inside the echo model (the Gaussian
        envelope IS the filter output), so this stage only publishes the
        profile cube and its fast-time range axis — the pulsed analogue of
        the FMCW range FFT.
        """
        ctx.workspace["raw_profiles"] = ctx.workspace["frames"]
        ctx.workspace["ranges_full"] = self._range_axis()

    def sense(self, scene: Scene, duration: float, *,
              rng: np.random.Generator | None = None,
              start_time: float = 0.0) -> PulsedSensingResult:
        """Capture ``duration`` seconds of pulsed frames from ``scene``.

        The emission/echo kernels are pulsed-specific, but background
        subtraction and Eq. 2 beamforming are the FMCW radar's stage
        kernels.
        """
        if duration <= 0:
            raise TrackingError(f"duration must be positive, got {duration}")
        if rng is None:
            rng = np.random.default_rng(0)
        config = self.config
        num_frames = max(int(round(duration * config.frame_rate)), 2)
        times = start_time + np.arange(num_frames) * config.frame_interval

        ctx = ExecutionContext(
            array=self.array, times=times, config=config, scene=scene,
            rng=rng, max_range=config.max_range, min_range=config.min_range,
        )
        execute((
            (Stage.EMIT, self._emit_stage),
            (Stage.SYNTHESIZE, self._synthesize_stage),
            (Stage.RANGE_FFT, self._matched_filter_stage),
            *RECEIVE_PLAN[1:],
        ), ctx)
        return PulsedSensingResult(times=times,
                                   profiles=ctx.workspace["profiles"],
                                   config=config, array=self.array,
                                   raw_profiles=ctx.workspace["raw_profiles"])
