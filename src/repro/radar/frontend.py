"""Beat-signal synthesis: from propagation paths to per-antenna ADC samples.

After dechirping, each propagation path contributes one complex tone to the
beat signal (Sec. 3):

    a * exp(j * (2 pi (f_b + f_off) t + phi_carrier + phi_extra + phi_k))

with ``f_b = sl * tau`` set by the path's geometric distance, ``phi_carrier
= 2 pi f0 tau`` carrying sub-wavelength motion, ``phi_k`` the per-antenna
array phase, and — crucially for RF-Protect — an optional *beat frequency
offset* ``f_off``. Physical scatterers have ``f_off = 0``; the switched
reflector's square-wave harmonics appear as components with ``f_off = ±n *
f_switch`` (Sec. 5.1), which is exactly how the tag spoofs distance.

This module holds the path model and the noise draw; the synthesis kernel
itself is the batched, broadcasted engine in :mod:`repro.radar.batch`. The
per-component reference loop it is tested against lives in
:mod:`repro.radar.reference`, and ``tests/test_frontend_equivalence.py``
pins the two to each other.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from repro.errors import SignalProcessingError
from repro.radar.config import RadarConfig

__all__ = [
    "PathComponent",
    "SYNTH_STATS",
    "SynthesisStats",
]

logger = logging.getLogger(__name__)


@dataclasses.dataclass
class SynthesisStats:
    """Process-wide counters for the synthesis kernels.

    A super-Nyquist tone is silently invisible to the radar (a real ADC's
    anti-alias filter removes it), but silently *dropping* it in simulation
    made a whole class of bugs untestable. The synthesis kernel and its
    reference loop log each drop at debug level and accumulate counts here
    so tests can assert both discard exactly the same tones.
    """

    frames_synthesized: int = 0
    components_seen: int = 0
    dropped_tones: int = 0

    def reset(self) -> None:
        self.frames_synthesized = 0
        self.components_seen = 0
        self.dropped_tones = 0

    def record_frame(self, num_components: int, num_dropped: int,
                     backend: str) -> None:
        self.frames_synthesized += 1
        self.components_seen += num_components
        self.dropped_tones += num_dropped
        if num_dropped:
            logger.debug(
                "%s synthesis dropped %d/%d super-Nyquist tone(s)",
                backend, num_dropped, num_components,
            )


SYNTH_STATS = SynthesisStats()


@dataclasses.dataclass(frozen=True)
class PathComponent:
    """One tone in the dechirped beat signal.

    Attributes:
        distance: one-way geometric distance radar -> scatter point, meters.
            Sets both the beat frequency and the carrier phase.
        angle: azimuth of arrival, radians from the array axis, in (0, pi).
        amplitude: linear amplitude at the radar.
        beat_offset_hz: extra beat-frequency shift (0 for physical paths;
            ``±n * f_switch`` for the tag's switching harmonics).
        phase_offset: extra carrier phase in radians (breathing spoof,
            switching-oscillator phase, random scatter phase).
        extra_delay_s: true additional propagation delay, seconds — the
            mechanism of a *delay-line* spoofer (Sec. 13's pulsed-radar
            extension). Unlike ``beat_offset_hz`` it is modulation-agnostic:
            an FMCW radar sees it as a beat shift ``sl * delay`` plus the
            carrier rotation, a pulsed radar sees the echo arrive late.
    """

    distance: float
    angle: float
    amplitude: float
    beat_offset_hz: float = 0.0
    phase_offset: float = 0.0
    extra_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise SignalProcessingError(f"path distance must be >= 0, got {self.distance}")
        if self.amplitude < 0:
            raise SignalProcessingError(f"path amplitude must be >= 0, got {self.amplitude}")
        if self.extra_delay_s < 0:
            raise SignalProcessingError(
                f"extra delay must be >= 0, got {self.extra_delay_s}"
            )


def apparent_distance(component: PathComponent, config: RadarConfig) -> float:
    """Distance the radar measures for ``component`` under ``config``."""
    delay_distance = float(
        config.chirp.delay_to_distance(component.extra_delay_s)
    )
    return float(component.distance + delay_distance
                 + config.chirp.offset_for_switch_frequency(component.beat_offset_hz))


def thermal_noise(config: RadarConfig, rng: np.random.Generator,
                  shape: tuple[int, ...]) -> np.ndarray:
    """Complex thermal noise with ``config.noise_std`` per-sample deviation.

    Every synthesis path (single frame, batched sweep, the reference loop)
    draws noise through this one helper with identical generator calls, so
    a fixed-seed ``rng`` yields a bit-identical noise stream regardless of
    which path synthesized the tones.
    """
    scale = config.noise_std / np.sqrt(2.0)
    return rng.normal(0.0, scale, shape) + 1j * rng.normal(0.0, scale, shape)
