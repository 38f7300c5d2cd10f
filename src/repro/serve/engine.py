"""Batch execution: a key-homogeneous group of requests -> sensing results.

This is the synchronous compute half of the service (the scheduler half
lives in :mod:`repro.serve.service`); workers call :func:`execute_batch`
from the executor thread pool. The fused path rides the batched synthesis
and receive engines end to end:

1. **Emission** — each request's scene components and thermal noise are
   drawn frame-by-frame from that request's *own* seeded generator, in the
   exact draw order of a direct ``FmcwRadar.sense`` call, so batching can
   never perturb a request's random stream.
2. **Fused synthesis** — all requests' frames go through *one*
   :func:`~repro.radar.batch.synthesize_frame_batches` call: one packed
   component batch, one beat/carrier/steering pass, per-frame contractions
   that each read only their own slice.
3. **Fused receive** — one blocked range FFT over the concatenated cube,
   one shared range-crop mask (equal ``BatchKey`` guarantees equal crop),
   one shifted-difference background subtraction with each request's first
   frame re-zeroed (frame 0 of a request has no predecessor — exactly the
   reference warmup), and one cube-wide lag-vector pass. Only the final
   thin GEMM (:func:`~repro.radar.pipeline.beamform_from_lags_stacked`)
   runs per request, so every output has shapes that depend only on the
   request itself — results are bitwise independent of how the scheduler
   grouped them.
4. **Per-request ownership** — each result owns its arrays: its raw
   profiles are copied out of the fused cube and its power cube is its own
   GEMM output, so a caller keeping one response keeps only that
   request's bytes, never its batch-mates'.

The fused passes form a plan of the stage graph (:mod:`repro.radar.stages`)
and run through the same instrumented executor as every direct ``sense``
call, so served batches show up in the identical per-stage wall-time
histograms.

If anything in the fused path raises, :func:`execute_batch` isolates the
fault: each request is re-run alone through the same fused plan, so only a
poisoned request fails while its batch-mates still complete — with results
bitwise equal to the batched ones, since a request's output never depends
on its grouping.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
from collections.abc import Sequence

import numpy as np

from repro.radar.batch import synthesize_frame_batches
from repro.radar.config import RadarConfig
from repro.radar.pipeline import (
    SweepProcessingResult,
    batched_background_subtract,
    batched_lag_vectors,
    batched_range_profiles,
    beamform_from_lags_stacked,
)
from repro.radar.processing import ZERO_PAD_FACTOR, range_keep_mask
from repro.radar.radar import FmcwRadar, SensingResult
from repro.radar.stages import ExecutionContext, Stage, execute
from repro.serve.request import (
    BACKEND_NAIVE_FALLBACK,
    BACKEND_VECTORIZED,
    BatchKey,
    SenseRequest,
)
from repro.signal.spectral import range_axis

__all__ = [
    "ExecutionItem",
    "ExecutionOutcome",
    "execute_batch",
    "radar_for",
]

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class ExecutionItem:
    """One admitted request handed to the execution engine."""

    request_id: int
    request: SenseRequest
    key: BatchKey


@dataclasses.dataclass(frozen=True)
class ExecutionOutcome:
    """What the engine produced for one item: a result or an error."""

    request_id: int
    result: SensingResult | None
    backend: str
    error: BaseException | None = None


@functools.lru_cache(maxsize=64)
def radar_for(config: RadarConfig) -> FmcwRadar:
    """A shared radar facade per distinct configuration.

    ``FmcwRadar`` is immutable after construction (config + array
    geometry), so one instance can serve every request and executor thread
    with that configuration; caching it keeps per-request admission cheap
    and reuses the array's process-wide steering/taper/lag-basis memos.
    """
    return FmcwRadar(config)


def _fused_emit(ctx: ExecutionContext) -> None:
    """Per-request emission, each from its own seeded generator.

    Draw order inside a request is exactly that of a direct
    ``FmcwRadar.sense`` call, so batching can never perturb a request's
    random stream.
    """
    radar: FmcwRadar = ctx.workspace["radar"]
    sweeps = []
    noises = []
    times_list = []
    for item in ctx.workspace["items"]:
        request = item.request
        rng = np.random.default_rng(request.seed)
        times = radar.frame_times(request.duration, request.start_time)
        components, noise = radar.sweep_components(request.scene, times, rng)
        sweeps.append(components)
        noises.append(noise)
        times_list.append(times)
    ctx.workspace["sweeps"] = sweeps
    ctx.workspace["noises"] = noises
    ctx.workspace["times_list"] = times_list
    ctx.workspace["frame_counts"] = [len(times) for times in times_list]
    ctx.times = np.concatenate(times_list)


def _fused_synthesize(ctx: ExecutionContext) -> None:
    """One packed synthesis pass over every request's sweep."""
    radar: FmcwRadar = ctx.workspace["radar"]
    fused, cubes = synthesize_frame_batches(ctx.workspace["sweeps"],
                                            ctx.config, radar.array)
    for cube, noise in zip(cubes, ctx.workspace["noises"]):
        if noise is not None:
            cube += noise  # disjoint views: writes land in `fused`
    ctx.workspace["frames"] = fused


def _fused_range_fft(ctx: ExecutionContext) -> None:
    """One blocked range FFT over the concatenated beat cube."""
    ctx.workspace["raw_profiles"] = batched_range_profiles(
        ctx.workspace["frames"], ctx.config
    )
    ctx.workspace["ranges_full"] = range_axis(
        ctx.config.chirp, zero_pad_factor=ZERO_PAD_FACTOR
    )


def _fused_subtract(ctx: ExecutionContext) -> None:
    """Shared crop + shifted difference with request boundaries re-zeroed."""
    keep = range_keep_mask(ctx.workspace["ranges_full"],
                           min_range=ctx.min_range, max_range=ctx.max_range)
    ranges = ctx.workspace["ranges_full"][keep]
    ranges.flags.writeable = False
    ctx.workspace["keep"] = keep
    ctx.workspace["ranges"] = ranges
    kept_profiles = np.ascontiguousarray(
        ctx.workspace["raw_profiles"][:, :, keep]
    )
    subtracted = batched_background_subtract(kept_profiles)
    # A request's first frame has no predecessor inside *its* sweep; the
    # cube-wide shifted difference must not leak the previous request's
    # last frame across the boundary.
    frame_counts = ctx.workspace["frame_counts"]
    starts = np.cumsum([0, *frame_counts[:-1]])
    subtracted[starts] = 0.0
    ctx.workspace["subtracted"] = subtracted


def _fused_beamform(ctx: ExecutionContext) -> None:
    """Cube-wide lag vectors, then one GEMM per request."""
    radar: FmcwRadar = ctx.workspace["radar"]
    angles = ctx.config.angle_grid()
    angles.flags.writeable = False
    ranges = ctx.workspace["ranges"]
    frame_counts = ctx.workspace["frame_counts"]

    lag_vectors = batched_lag_vectors(ctx.workspace["subtracted"],
                                      radar.array)

    num_bins = int(ranges.shape[0])
    num_angles = int(angles.shape[0])

    # Per-request GEMMs (a stack of one): each output's shape depends only
    # on its own request, keeping results bitwise independent of the batch
    # grouping, and each request's power cube owns its own memory.
    frame_offsets = np.concatenate(([0], np.cumsum(frame_counts)))
    power_cubes: list[np.ndarray] = []
    for num_frames, start in zip(frame_counts, frame_offsets):
        rows = lag_vectors[start * num_bins:(start + num_frames) * num_bins]
        power = beamform_from_lags_stacked(rows[np.newaxis], radar.array,
                                           angles)
        cube = power[0].reshape(num_frames, num_bins, num_angles)
        cube.flags.writeable = False
        power_cubes.append(cube)
    ctx.workspace["angles"] = angles
    ctx.workspace["frame_offsets"] = frame_offsets
    ctx.workspace["power_cubes"] = power_cubes


#: The fused batch plan: the same stage sequence as a direct sense call,
#: bound to multi-request kernels and instrumented under the same stages.
_FUSED_PLAN = (
    (Stage.EMIT, _fused_emit),
    (Stage.SYNTHESIZE, _fused_synthesize),
    (Stage.RANGE_FFT, _fused_range_fft),
    (Stage.BACKGROUND_SUBTRACT, _fused_subtract),
    (Stage.BEAMFORM, _fused_beamform),
)


def _run_group_vectorized(key: BatchKey,
                          items: Sequence[ExecutionItem],
                          ) -> list[SensingResult]:
    """The fused vectorized path for one key-homogeneous group."""
    config = key.config
    radar = radar_for(config)

    ctx = ExecutionContext(
        array=radar.array, times=np.empty(0, dtype=np.float64),
        config=config, max_range=key.max_range, min_range=config.min_range,
    )
    ctx.workspace["radar"] = radar
    ctx.workspace["items"] = items
    execute(_FUSED_PLAN, ctx)

    raw_profiles = ctx.workspace["raw_profiles"]
    frame_offsets = ctx.workspace["frame_offsets"]
    power_cubes = ctx.workspace["power_cubes"]
    ranges = ctx.workspace["ranges"]
    angles = ctx.workspace["angles"]

    results: list[SensingResult] = []
    for i, times in enumerate(ctx.workspace["times_list"]):
        frame_slice = slice(int(frame_offsets[i]), int(frame_offsets[i + 1]))
        raw_slice = raw_profiles[frame_slice].copy()
        sweep = SweepProcessingResult(raw_profiles=raw_slice,
                                      power_cube=power_cubes[i],
                                      ranges=ranges, angles=angles,
                                      times=times)
        results.append(SensingResult(times=times, profiles=sweep.profiles(),
                                     raw_profiles=raw_slice, config=config,
                                     array=radar.array))
    return results


def execute_batch(items: Sequence[ExecutionItem]) -> list[ExecutionOutcome]:
    """Execute one taken batch; never raises, reports per-item outcomes.

    Tries the fused path for the whole group first; on any failure, re-runs
    each request alone through the same path so a single poisoned request
    cannot take its batch-mates down with it.
    """
    if not items:
        return []
    key = items[0].key
    if any(item.key != key for item in items):
        raise ValueError("execute_batch requires a key-homogeneous batch")
    try:
        results = _run_group_vectorized(key, items)
    except Exception as error:
        logger.warning(
            "fused batch of %d request(s) failed (%s: %s); "
            "re-running each request alone",
            len(items), type(error).__name__, error,
        )
        return [_isolated_outcome(key, item) for item in items]
    return [
        ExecutionOutcome(request_id=item.request_id, result=result,
                         backend=BACKEND_VECTORIZED)
        for item, result in zip(items, results)
    ]


def _isolated_outcome(key: BatchKey, item: ExecutionItem) -> ExecutionOutcome:
    try:
        [result] = _run_group_vectorized(key, [item])
    except Exception as error:  # surfaced per request, not swallowed
        logger.warning("isolated re-run failed for request %d (%s: %s)",
                       item.request_id, type(error).__name__, error)
        return ExecutionOutcome(request_id=item.request_id, result=None,
                                backend=BACKEND_NAIVE_FALLBACK, error=error)
    return ExecutionOutcome(request_id=item.request_id, result=result,
                            backend=BACKEND_NAIVE_FALLBACK)
