"""Stage-graph execution: one typed pipeline behind every sense path.

The paper's processing chain (Sec. 9.1) is a fixed sequence of stages:

    Emit -> Synthesize -> RangeFFT -> BackgroundSubtract -> Beamform -> Detect

Every sense path — ``FmcwRadar.sense``, ``PulsedRadar.sense``, the serving
engine's fused batch path, and through them the experiments runner — runs
that chain through this module:

- :class:`Stage` names the stages; a *plan* is a sequence of
  ``(Stage, function)`` pairs executed in order by :func:`execute`. Each
  stage has one production kernel, defined here; the serving engine and
  the pulsed radar bind their own functions for the stages they fuse or
  replace. The per-frame reference loops the kernels are tested against
  live in :mod:`repro.radar.reference`, which no production module
  imports.
- :class:`ExecutionContext` carries what kernels share: the RNG, the
  frame-time grid, crop bounds, and a workspace whose named slots are the
  inter-stage contract (see the table below).
- Every stage run is timed and observed into per-stage wall-time
  histograms (:func:`stage_metrics`, built on
  :class:`repro.serve.metrics.MetricsRegistry`); the benchmarks job dumps
  the snapshot as an artifact.

Workspace slots (the inter-stage contract)::

    components   list[list[PathComponent]]  Emit -> Synthesize
    noise        (F, K, N) complex | None   Emit -> Synthesize
    frames       (F, K, N) complex          Synthesize -> RangeFFT
    raw_profiles (F, K, B) complex          RangeFFT -> BackgroundSubtract
    ranges_full  (B,) float                 RangeFFT -> BackgroundSubtract
    ranges       (B_kept,) float            BackgroundSubtract -> Beamform
    subtracted   (F, K, B_kept) complex     BackgroundSubtract -> Beamform
    angles       (A,) float                 Beamform output
    power_cube   (F, B_kept, A) float       Beamform output
    profiles     list[RangeAngleProfile]    Beamform -> Detect
    tracker      StreamingTracker           Detect (streaming) carry-over state
    tracks       list[Track]                Detect output

Kernels look up the batch functions they call (``emit_sweep``,
``synthesize_frames``, the ``batched_*`` passes) through this module's
globals at call time, so a wrapper installed on those names sees every
sense path.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import TrackingError
from repro.radar.antenna import UniformLinearArray
from repro.radar.batch import synthesize_frames
from repro.radar.frontend import PathComponent, thermal_noise
from repro.radar.pipeline import (
    batched_background_subtract,
    batched_beamform_power,
    batched_range_profiles,
)
from repro.radar.processing import (
    ZERO_PAD_FACTOR,
    RangeAngleProfile,
    range_keep_mask,
)
from repro.radar.tracker import (
    StreamingTracker,
    Track,
    TrackerConfig,
    extract_tracks,
)
from repro.signal.phase import extract_phase
from repro.signal.spectral import range_axis
from repro.types import Trajectory

if TYPE_CHECKING:
    from repro.serve.metrics import MetricsRegistry

__all__ = [
    "ExecutionContext",
    "Plan",
    "RECEIVE_PLAN",
    "SENSE_PLAN",
    "STAGE_TIME_BUCKETS",
    "Stage",
    "StageFn",
    "TrackedResultMixin",
    "emit_sweep",
    "execute",
    "stage_metrics",
]

#: Wall-time histogram grid for stage instrumentation, seconds. Stages run
#: from tens of microseconds (subtract on a cropped cube) to seconds (a
#: long synthesis sweep), so the grid is finer than the serving latency
#: buckets.
STAGE_TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Stage(enum.Enum):
    """The typed stage sequence of a sense run."""

    EMIT = "emit"
    SYNTHESIZE = "synthesize"
    RANGE_FFT = "range_fft"
    BACKGROUND_SUBTRACT = "background_subtract"
    BEAMFORM = "beamform"
    DETECT = "detect"


# --------------------------------------------------------------------------
# Execution context
# --------------------------------------------------------------------------


@dataclasses.dataclass
class ExecutionContext:
    """Shared state a plan's kernels execute against.

    Attributes:
        array: array geometry (steering/taper/lag-basis memos live here).
        times: frame capture times, seconds.
        config: radar configuration (``RadarConfig`` for FMCW,
            ``PulsedRadarConfig`` for pulsed — kernels only touch the
            fields their radar family defines, so the slot is untyped).
        scene: the scene being sensed (``None`` for frame-cube-only plans).
        rng: randomness source for emission; ``None`` disables noise draws.
        max_range: far crop of the range axis, meters (``None`` = no crop).
        min_range: near-field blanking, meters.
        workspace: named inter-stage slots (see the module docstring).
    """

    array: UniformLinearArray
    times: np.ndarray
    config: Any = None
    scene: Any = None
    rng: np.random.Generator | None = None
    max_range: float | None = None
    min_range: float = 0.0
    workspace: dict[str, Any] = dataclasses.field(default_factory=dict)


#: A stage kernel: reads and writes ``ctx.workspace``.
StageFn = Callable[[ExecutionContext], None]

#: A plan: the stages to run, in order, each with the function that runs it.
Plan = Sequence[tuple[Stage, StageFn]]


# --------------------------------------------------------------------------
# Instrumentation
# --------------------------------------------------------------------------

# Imported lazily: repro.serve.metrics is dependency-free, but importing it
# initializes the repro.serve package, which imports the radar facade —
# a cycle if it happened while this module (or repro.radar.radar) loads.
_STAGE_METRICS: "MetricsRegistry | None" = None


def stage_metrics() -> "MetricsRegistry":
    """The process-wide per-stage timing registry (lazily constructed).

    One wall-time histogram per stage (``stages.<stage>.wall_s``) — the
    same Prometheus-shaped instruments the serving service exports, so a
    service snapshot, the benchmarks artifact, and an experiment record
    all read identically.
    """
    global _STAGE_METRICS
    if _STAGE_METRICS is None:
        from repro.serve.metrics import MetricsRegistry
        _STAGE_METRICS = MetricsRegistry()
    return _STAGE_METRICS


# --------------------------------------------------------------------------
# Executor
# --------------------------------------------------------------------------


def execute(plan: Plan, ctx: ExecutionContext) -> ExecutionContext:
    """Run ``plan`` in order against ``ctx``, timing every stage.

    Each stage's wall time is observed into its histogram in
    :func:`stage_metrics`. Returns ``ctx`` for chaining.
    """
    registry = stage_metrics()
    for stage, run in plan:
        started = time.perf_counter()
        run(ctx)
        registry.observe(f"stages.{stage.value}.wall_s",
                         time.perf_counter() - started, STAGE_TIME_BUCKETS)
    return ctx


# --------------------------------------------------------------------------
# Emit
# --------------------------------------------------------------------------


def emit_sweep(scene: Any, times: np.ndarray, config: Any,
               array: UniformLinearArray, rng: np.random.Generator | None,
               ) -> tuple[list[list[PathComponent]], np.ndarray | None]:
    """Per-frame scene components and thermal noise for a whole FMCW sweep.

    The scene is queried and noise is drawn frame-by-frame in time order —
    exactly the generator call sequence of the historical per-frame loop —
    so a fixed seed reproduces bit-for-bit whether the frames are then
    synthesized one by one, as one batched sweep, or fused into a larger
    multi-request batch by the serving engine. Time-invariant entities are
    memoized per sweep (:class:`~repro.radar.scene.SweepEmitter`), which
    consumes no generator draws.
    """
    shape = (config.num_antennas, config.chirp.num_samples)
    add_noise = rng is not None and config.noise_std > 0
    emitter = scene.sweep_emitter(array)
    components_per_frame: list[list[PathComponent]] = []
    noise: list[np.ndarray] = []
    for t in times:
        components_per_frame.append(emitter.components_at(float(t), rng))
        if add_noise:
            noise.append(thermal_noise(config, rng, shape))
    return components_per_frame, (np.stack(noise) if add_noise else None)


def _emit(ctx: ExecutionContext) -> None:
    """Emit kernel: scene components + noise stack into the workspace."""
    components, noise = emit_sweep(ctx.scene, ctx.times, ctx.config,
                                   ctx.array, ctx.rng)
    ctx.workspace["components"] = components
    ctx.workspace["noise"] = noise


# --------------------------------------------------------------------------
# Synthesize
# --------------------------------------------------------------------------


def _synthesize(ctx: ExecutionContext) -> None:
    """Batched sweep synthesis over the emitted components, plus noise."""
    frames = synthesize_frames(ctx.workspace["components"], ctx.config,
                               ctx.array, rng=None)
    noise = ctx.workspace.get("noise")
    if noise is not None:
        frames += noise
    ctx.workspace["frames"] = frames


# --------------------------------------------------------------------------
# RangeFFT
# --------------------------------------------------------------------------


def _range_fft(ctx: ExecutionContext) -> None:
    """Whole-cube blocked range FFT."""
    ctx.workspace["raw_profiles"] = batched_range_profiles(
        ctx.workspace["frames"], ctx.config
    )
    ctx.workspace["ranges_full"] = range_axis(
        ctx.config.chirp, zero_pad_factor=ZERO_PAD_FACTOR
    )


# --------------------------------------------------------------------------
# BackgroundSubtract
# --------------------------------------------------------------------------


def _background_subtract(ctx: ExecutionContext) -> None:
    """Crop to in-window bins, then one shifted-difference pass.

    Cropping commutes exactly with the elementwise successive-frame
    subtraction, so the cube is cut down *before* differencing and the
    difference pass touches only the in-room slice.
    """
    keep = range_keep_mask(ctx.workspace["ranges_full"],
                           min_range=ctx.min_range, max_range=ctx.max_range)
    ctx.workspace["keep"] = keep
    ctx.workspace["ranges"] = ctx.workspace["ranges_full"][keep]
    ctx.workspace["subtracted"] = batched_background_subtract(
        np.ascontiguousarray(ctx.workspace["raw_profiles"][:, :, keep])
    )


# --------------------------------------------------------------------------
# Beamform
# --------------------------------------------------------------------------


def _beamform(ctx: ExecutionContext) -> None:
    """Lag-domain Eq. 2 over the whole sweep.

    Every profile is a zero-copy view into one frozen power cube sharing
    frozen range/angle planes.
    """
    angles = ctx.config.angle_grid()
    angles.flags.writeable = False
    ranges = ctx.workspace["ranges"]
    ranges.flags.writeable = False
    power_cube = batched_beamform_power(ctx.workspace["subtracted"],
                                        ctx.array, angles)
    power_cube.flags.writeable = False
    ctx.workspace["angles"] = angles
    ctx.workspace["power_cube"] = power_cube
    ctx.workspace["profiles"] = [
        RangeAngleProfile(power=power_cube[f], ranges=ranges, angles=angles,
                          time=float(t))
        for f, t in enumerate(ctx.times)
    ]


#: The full FMCW sense plan (Detect runs lazily via the result mixin).
SENSE_PLAN: tuple[tuple[Stage, StageFn], ...] = (
    (Stage.EMIT, _emit),
    (Stage.SYNTHESIZE, _synthesize),
    (Stage.RANGE_FFT, _range_fft),
    (Stage.BACKGROUND_SUBTRACT, _background_subtract),
    (Stage.BEAMFORM, _beamform),
)

#: The receive-only sub-plan: a beat cube already in ``workspace["frames"]``.
RECEIVE_PLAN: tuple[tuple[Stage, StageFn], ...] = SENSE_PLAN[2:]


# --------------------------------------------------------------------------
# Detect
# --------------------------------------------------------------------------


def _detect_tracks(ctx: ExecutionContext) -> None:
    """Peak detection + Kalman trajectory extraction over the profiles."""
    ctx.workspace["tracks"] = extract_tracks(
        ctx.workspace["profiles"], ctx.array,
        ctx.workspace.get("tracker_config"),
    )


def _detect_tracks_streaming(ctx: ExecutionContext) -> None:
    """Frame-at-a-time Detect: drives the incremental tracker.

    Ingests the workspace profiles one by one into a
    :class:`StreamingTracker` — resuming the tracker already in
    ``workspace["tracker"]`` when one is present, which is how a serving
    session appends new frames to its long-lived tracker state through
    the instrumented executor. ``stream(frames) == batch(frames)`` holds
    by construction (the batch kernel is this loop inlined), and the
    property suite pins it.
    """
    tracker = ctx.workspace.get("tracker")
    if tracker is None:
        tracker = StreamingTracker(ctx.array,
                                   ctx.workspace.get("tracker_config"))
        ctx.workspace["tracker"] = tracker
    for profile in ctx.workspace["profiles"]:
        tracker.ingest(profile)
    ctx.workspace["tracks"] = tracker.tracks()


class TrackedResultMixin:
    """Shared post-processing for sensing results (FMCW and pulsed).

    Subclasses provide ``times``, ``profiles``, ``array``, and (for phase
    analysis) ``raw_profiles`` + ``range_bins()``; this mixin runs the
    Detect stage through the instrumented executor and derives
    trajectories and per-bin phase series from it — one implementation for
    both radar families.
    """

    if TYPE_CHECKING:
        times: np.ndarray
        profiles: list[RangeAngleProfile]
        array: UniformLinearArray
        raw_profiles: np.ndarray | None

        def range_bins(self) -> np.ndarray: ...

    def tracks(self, tracker_config: TrackerConfig | None = None,
               ) -> list[Track]:
        """Run trajectory extraction (the Detect stage) on the profiles."""
        ctx = ExecutionContext(array=self.array, times=self.times)
        ctx.workspace["profiles"] = self.profiles
        ctx.workspace["tracker_config"] = tracker_config
        execute(((Stage.DETECT, _detect_tracks),), ctx)
        result: list[Track] = ctx.workspace["tracks"]
        return result

    def stream_tracks(self, tracker_config: TrackerConfig | None = None,
                      tracker: StreamingTracker | None = None,
                      ) -> StreamingTracker:
        """Feed the profiles frame-by-frame into an incremental tracker.

        Runs the Detect stage's streaming kernel through the instrumented
        executor and returns the primed
        :class:`StreamingTracker` — read ``tracks()`` off it, keep
        ingesting later profiles, or checkpoint it. Pass ``tracker`` to
        continue an existing session instead of starting fresh;
        ``tracker_config`` is ignored in that case (the tracker already
        owns its config).
        """
        ctx = ExecutionContext(array=self.array, times=self.times)
        ctx.workspace["profiles"] = self.profiles
        ctx.workspace["tracker_config"] = tracker_config
        if tracker is not None:
            ctx.workspace["tracker"] = tracker
        execute(((Stage.DETECT, _detect_tracks_streaming),), ctx)
        primed: StreamingTracker = ctx.workspace["tracker"]
        return primed

    def trajectories(self, tracker_config: TrackerConfig | None = None,
                     *, smooth: bool = True) -> list[Trajectory]:
        """Extracted trajectories, longest first."""
        return [t.to_trajectory(smooth=smooth)
                for t in self.tracks(tracker_config)]

    def best_trajectory(self, tracker_config: TrackerConfig | None = None,
                        ) -> Trajectory:
        """The longest extracted trajectory; raises if nothing was tracked."""
        trajectories = self.trajectories(tracker_config)
        if not trajectories:
            raise TrackingError("no target was tracked in this session")
        return trajectories[0]

    def phase_series(self, distance: float, *,
                     antenna: int = 0) -> np.ndarray:
        """Beat-tone phase across frames at the bin nearest ``distance``.

        This is the observable that carries breathing (Sec. 11.4).
        """
        if self.raw_profiles is None:
            raise TrackingError(
                "this sensing session did not retain raw profiles"
            )
        bins = self.range_bins()
        bin_index = int(np.argmin(np.abs(bins - distance)))
        return extract_phase(self.raw_profiles[:, antenna, :], bin_index)
