"""`FmcwRadar`: the end-to-end sensing facade.

Ties together frontend synthesis, the processing pipeline, and the tracker:
point it at a :class:`~repro.radar.scene.Scene`, get back range-angle
profiles, extracted trajectories, and per-bin phase series (for breathing).
This is both the eavesdropper and the legitimate sensor of the paper — the
difference between them is purely whether they receive the tag's
side-channel report (Sec. 11.3).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import TrackingError
from repro.radar.antenna import UniformLinearArray
from repro.radar.config import RadarConfig
from repro.radar.frontend import PathComponent
from repro.radar.processing import ZERO_PAD_FACTOR, RangeAngleProfile
from repro.radar.scene import Scene
from repro.radar.stages import (
    SENSE_PLAN,
    ExecutionContext,
    TrackedResultMixin,
    emit_sweep,
    execute,
)
from repro.signal.spectral import range_axis

__all__ = ["FmcwRadar", "SensingResult"]


@dataclasses.dataclass
class SensingResult(TrackedResultMixin):
    """Everything a radar captured over one sensing session.

    Tracking, trajectory extraction, and phase analysis come from
    :class:`~repro.radar.stages.TrackedResultMixin`, shared with the
    pulsed radar's result type.

    Attributes:
        times: frame capture times, seconds.
        profiles: background-subtracted range-angle maps, one per frame.
        raw_profiles: complex per-antenna range profiles *before*
            subtraction, shape ``(num_frames, K, num_bins)`` — needed for
            phase/breathing analysis where static targets matter.
        config: radar configuration used.
        array: array geometry used.
    """

    times: np.ndarray
    profiles: list[RangeAngleProfile]
    raw_profiles: np.ndarray
    config: RadarConfig
    array: UniformLinearArray

    @property
    def frame_dt(self) -> float:
        return self.config.frame_interval

    def range_bins(self) -> np.ndarray:
        """Distance of each raw-profile range bin, meters.

        Uses the pipeline-wide ``ZERO_PAD_FACTOR`` so the reported axis can
        never drift from the FFT grid that produced ``raw_profiles``.
        """
        return range_axis(self.config.chirp, zero_pad_factor=ZERO_PAD_FACTOR)


class FmcwRadar:
    """A simulated FMCW radar deployed at a fixed position and orientation."""

    def __init__(self, config: RadarConfig | None = None) -> None:
        self.config = config if config is not None else RadarConfig()
        self.array = UniformLinearArray(self.config)

    def frame_times(self, duration: float,
                    start_time: float = 0.0) -> np.ndarray:
        """Frame capture times for a ``duration``-second sensing session.

        At least two frames are always captured (background subtraction
        needs a warmup frame). This is the single source of truth for the
        frame grid: the direct :meth:`sense` path and the batched serving
        engine (:mod:`repro.serve.engine`) both derive times here, so a
        served request can never land on a different grid than a direct
        call.
        """
        if duration <= 0:
            raise TrackingError(f"duration must be positive, got {duration}")
        num_frames = max(int(round(duration * self.config.frame_rate)), 2)
        return start_time + np.arange(num_frames) * self.config.frame_interval

    def default_max_range(self, scene: Scene) -> float:
        """The far crop applied when a caller does not pass ``max_range``.

        An eavesdropper targeting a known building crops the range axis at
        the far walls; anything beyond is another apartment.
        """
        corners = np.array([
            [scene.room.x_min, scene.room.y_min],
            [scene.room.x_min, scene.room.y_max],
            [scene.room.x_max, scene.room.y_min],
            [scene.room.x_max, scene.room.y_max],
        ])
        return float(
            np.linalg.norm(corners - self.array.position, axis=1).max()
        ) + 0.5

    def sweep_components(self, scene: Scene, times: np.ndarray,
                         rng: np.random.Generator,
                         ) -> tuple[list[list[PathComponent]],
                                    np.ndarray | None]:
        """Per-frame scene components and thermal noise for a whole sweep.

        The scene is queried and noise is drawn frame-by-frame in time
        order — exactly the generator call sequence of the historical
        per-frame loop — so a fixed seed reproduces bit-for-bit whether the
        frames are then synthesized one by one, as one batched sweep, or
        fused into a larger multi-request batch by the serving engine.

        Thin delegation to :func:`repro.radar.stages.emit_sweep`, the Emit
        stage's kernel (the serving engine calls this per request before
        fusing the sweeps into one batch).

        Returns the per-frame component lists and, when the config has a
        positive noise floor, the matching ``(F, K, N)`` noise stack
        (``None`` otherwise).
        """
        return emit_sweep(scene, times, self.config, self.array, rng)

    def sense(self, scene: Scene, duration: float, *,
              rng: np.random.Generator | None = None,
              start_time: float = 0.0,
              max_range: float | None = None) -> SensingResult:
        """Capture ``duration`` seconds of frames from ``scene``.

        Args:
            scene: the room and its entities (humans, clutter, tags).
            duration: sensing span in seconds.
            rng: randomness source for noise/multipath; a fixed default seed
                is used when omitted so runs are reproducible.
            start_time: scene time of the first frame.
            max_range: optional crop of the range axis (defaults to the
                room's diagonal — reflections can't be farther than that).
        """
        if rng is None:
            rng = np.random.default_rng(0)
        if max_range is None:
            max_range = self.default_max_range(scene)

        times = self.frame_times(duration, start_time)
        ctx = ExecutionContext(
            array=self.array, times=times, config=self.config, scene=scene,
            rng=rng, max_range=max_range, min_range=self.config.min_range,
        )
        execute(SENSE_PLAN, ctx)
        return SensingResult(
            times=times,
            profiles=ctx.workspace["profiles"],
            raw_profiles=ctx.workspace["raw_profiles"],
            config=self.config,
            array=self.array,
        )
