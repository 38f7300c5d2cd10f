"""Batched receive processing: whole beat cubes -> range-angle map stacks.

The reference path in :mod:`repro.radar.processing` handles one frame at a
time: range-FFT its antennas, subtract the previous frame's profile, then
beamform (Eq. 2) across the angle grid. Looping that over a sweep pays the
Python dispatch, the window/steering/range-axis recomputation, and many
small BLAS calls once *per frame*.

This module processes the whole ``(F, K, N)`` cube from
``synthesize_frames`` in three cube-wide passes:

1. **Range FFT** — one windowed ``np.fft.fft`` over the full cube (in
   cache-sized frame blocks) yields every frame's complex range profiles
   ``(F, K, B)`` at once.
2. **Background subtraction** — the paper's successive-frame subtraction is
   a single shifted difference on the (cropped) profile cube — frame 0
   subtracts to zero, matching the reference path's one-frame warmup.
3. **Beamforming** — Eq. 2 for all frames via the lag-domain identity:
   per-bin spatial autocorrelation lags, then two thin real GEMMs against
   cos/sin planes fetched from the process-wide memo
   (:mod:`repro.radar.antenna`), writing a contiguous ``(F, B, A)`` power
   cube whose per-frame slices back the
   :class:`~repro.radar.processing.RangeAngleProfile` views.

Stage by stage, the arithmetic is either identical to the per-frame
reference loops in :mod:`repro.radar.reference` (FFT, subtraction) or an
exact algebraic regrouping of them (lag-domain Eq. 2), so the two agree to
``atol=1e-10`` (``tests/test_pipeline_equivalence.py`` pins this).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import SignalProcessingError
from repro.radar.antenna import UniformLinearArray
from repro.radar.config import RadarConfig
from repro.radar.processing import (
    ZERO_PAD_FACTOR,
    RangeAngleProfile,
    range_keep_mask,
)
from repro.signal.spectral import range_axis, range_fft

__all__ = [
    "SweepProcessingResult",
    "batched_background_subtract",
    "batched_beamform_power",
    "batched_lag_vectors",
    "batched_range_profiles",
    "beamform_from_lags",
    "process_sweep",
]

#: Working-set ceiling (bytes) for the blocked cube passes. Blocks of this
#: size keep each pass's operands L2-resident on small hosts while staying
#: large enough that loop/BLAS dispatch overhead is negligible.
_CHUNK_BYTES = 1 << 22


def batched_range_profiles(frames: np.ndarray,
                           config: RadarConfig) -> np.ndarray:
    """Complex range profiles for a whole sweep, shape ``(F, K, B)``.

    One windowed FFT over the full beat cube — numpy applies the identical
    1-D transform along the last axis, so each frame's profiles match
    ``frame_range_profiles`` bit for bit.
    """
    cube = np.asarray(frames)
    if cube.ndim != 3 or cube.shape[1] != config.num_antennas:
        raise SignalProcessingError(
            f"beat cube must be (num_frames, num_antennas, num_samples), "
            f"got {cube.shape}"
        )
    num_frames, num_antennas, _ = cube.shape
    n_bins = config.chirp.num_samples * ZERO_PAD_FACTOR // 2
    # Transform in frame blocks sized so each block's windowed input and
    # spectrum stay cache-resident — one giant FFT over a multi-ten-MB cube
    # thrashes, while the per-block transforms are identical 1-D FFTs and
    # land bit-for-bit in the preallocated output.
    block = max(1, _CHUNK_BYTES // (num_antennas * n_bins * 16))
    if block >= num_frames:
        return range_fft(cube, config.chirp, zero_pad_factor=ZERO_PAD_FACTOR)
    out = np.empty((num_frames, num_antennas, n_bins), dtype=np.complex128)
    for start in range(0, num_frames, block):
        stop = min(start + block, num_frames)
        out[start:stop] = range_fft(cube[start:stop], config.chirp,
                                    zero_pad_factor=ZERO_PAD_FACTOR)
    return out


def batched_background_subtract(profile_cube: np.ndarray) -> np.ndarray:
    """Successive-frame subtraction as one shifted difference, ``(F, ...)``.

    Frame ``f`` becomes ``cube[f] - cube[f - 1]``; frame 0 has nothing to
    subtract and is zero, exactly like the reference path's warmup frame.
    """
    cube = np.asarray(profile_cube)
    if cube.ndim < 1 or cube.shape[0] < 1:
        raise SignalProcessingError(
            f"profile cube needs a leading frame axis, got shape {cube.shape}"
        )
    subtracted = np.zeros_like(cube)
    subtracted[1:] = cube[1:] - cube[:-1]
    return subtracted


def batched_beamform_power(subtracted_cube: np.ndarray,
                           array: UniformLinearArray, angles: np.ndarray, *,
                           taper: str | None = "hamming") -> np.ndarray:
    """Eq. 2 over every frame at once: real power cube ``(F, B, A)``.

    Rather than contracting every (frame, bin) vector against all ``A``
    steering vectors and squaring (``28 A`` real MACs per map cell), the
    sweep is beamformed in the *lag domain*. The element-``k`` steering
    phase is ``k * c(theta)``, linear in ``k``, so Eq. 2 factors through
    the spatial autocorrelation of the tapered signals ``g = w * h``:

        P(theta) = R_0 + 2 sum_m [Re R_m cos(m c) + Im R_m sin(m c)]

    with ``R_m = sum_l g_{l+m} conj(g_l)`` the lag-``m`` autocorrelation
    (``m = 1 .. K-1``). The lags cost ``O(K^2)`` per bin *once*, and the
    whole angle sweep collapses into a single thin real GEMM
    ``(F*B, 2K-1) @ (2K-1, A)`` against the memoized lag basis
    (:meth:`~repro.radar.antenna.UniformLinearArray.lag_power_basis`,
    which folds the factor 2 and the ``R_0`` ones-row into the plane) —
    ~13 real MACs per map cell for K = 7 instead of 28, producing real
    power directly with no complex intermediate and no post-passes. The
    expansion is an exact algebraic identity, so the result matches the
    reference ``|steering @ h|^2`` to a few ulp (well inside the pinned
    1e-10 budget).
    """
    cube = np.asarray(subtracted_cube)
    if cube.ndim != 3 or cube.shape[1] != array.num_antennas:
        raise SignalProcessingError(
            f"profile cube must be (num_frames, {array.num_antennas}, "
            f"num_bins), got {cube.shape}"
        )
    num_frames, _, num_bins = cube.shape
    lag_vectors = batched_lag_vectors(cube, array, taper=taper)
    power = beamform_from_lags(lag_vectors, array, angles)
    return power.reshape(num_frames, num_bins, power.shape[-1])


def batched_lag_vectors(subtracted_cube: np.ndarray,
                        array: UniformLinearArray, *,
                        taper: str | None = "hamming") -> np.ndarray:
    """Per-cell spatial-autocorrelation lags for a whole cube, ``(F*B, 2K-1)``.

    The first (lag-vector) half of :func:`batched_beamform_power`, exposed
    as its own batch-entry hook: every row is computed independently of
    every other row, so the serving engine can stack *several requests'*
    subtracted cubes (same antenna count) into one call and still get, row
    for row, exactly the values a per-request call would produce.
    """
    cube = np.asarray(subtracted_cube)
    if cube.ndim != 3 or cube.shape[1] != array.num_antennas:
        raise SignalProcessingError(
            f"profile cube must be (num_frames, {array.num_antennas}, "
            f"num_bins), got {cube.shape}"
        )
    num_frames, num_antennas, num_bins = cube.shape
    rows = num_frames * num_bins

    # Tapered signals, laid out (F*B, K) so the lag products and the GEMM
    # stream along contiguous rows.
    flat = np.ascontiguousarray(cube.transpose(0, 2, 1)).reshape(-1, num_antennas)
    tapered = flat * array.taper_weights(taper)

    # Per-row lag vector [R_0 | Re R_1..R_{K-1} | Im R_1..R_{K-1}],
    # matching the basis's row order.
    lag_vectors = np.empty((rows, 2 * num_antennas - 1), dtype=np.float64)
    lag_vectors[:, 0] = np.einsum("rk,rk->r", tapered.real, tapered.real)
    lag_vectors[:, 0] += np.einsum("rk,rk->r", tapered.imag, tapered.imag)
    for m in range(1, num_antennas):
        lag = np.einsum("rk,rk->r", tapered[:, m:],
                        np.conj(tapered[:, :num_antennas - m]))
        lag_vectors[:, m] = lag.real
        lag_vectors[:, num_antennas - 1 + m] = lag.imag
    return lag_vectors


def beamform_from_lags(lag_vectors: np.ndarray, array: UniformLinearArray,
                       angles: np.ndarray) -> np.ndarray:
    """Eq. 2 power from precomputed lag vectors: ``(rows, A)`` real GEMM.

    The second half of :func:`batched_beamform_power`. Kept separate so a
    caller that fused several requests' lag vectors into one array can
    still run this thin GEMM *per request* — the output shape then depends
    only on the request itself, which keeps served results bitwise
    independent of how the scheduler happened to group them.
    """
    lags = np.asarray(lag_vectors)
    expected = 2 * array.num_antennas - 1
    if lags.ndim != 2 or lags.shape[1] != expected:
        raise SignalProcessingError(
            f"lag vectors must be (rows, {expected}), got {lags.shape}"
        )
    num_angles = int(np.asarray(angles).shape[0])
    basis = array.lag_power_basis(np.asarray(angles, dtype=float))
    power = np.empty((lags.shape[0], num_angles), dtype=np.float64)
    np.matmul(lags, basis, out=power)
    return power


def beamform_from_lags_stacked(lag_stack: np.ndarray,
                               array: UniformLinearArray,
                               angles: np.ndarray) -> np.ndarray:
    """Eq. 2 power for a stack of equal-row-count lag blocks, ``(S, rows, A)``.

    The serving engine's grouped form of :func:`beamform_from_lags`: when
    several batched requests share a row count, their per-request GEMMs
    collapse into one stacked matmul. Each stack slice runs the identical
    ``(rows, 2K-1) @ (2K-1, A)`` GEMM a standalone call would, so every
    request's power map stays bitwise independent of how many batch-mates
    it happened to share the stack with.
    """
    lags = np.asarray(lag_stack)
    expected = 2 * array.num_antennas - 1
    if lags.ndim != 3 or lags.shape[2] != expected:
        raise SignalProcessingError(
            f"stacked lag vectors must be (stack, rows, {expected}), "
            f"got {lags.shape}"
        )
    num_angles = int(np.asarray(angles).shape[0])
    basis = array.lag_power_basis(np.asarray(angles, dtype=float))
    power = np.empty((lags.shape[0], lags.shape[1], num_angles),
                     dtype=np.float64)
    np.matmul(lags, basis, out=power)
    return power


@dataclasses.dataclass(frozen=True)
class SweepProcessingResult:
    """Everything the batched engine produced for one sweep.

    Attributes:
        raw_profiles: pre-subtraction complex profiles, ``(F, K, B)``.
        power_cube: contiguous range-angle power stack, ``(F, B_kept, A)``,
            frozen read-only because every profile view shares it.
        ranges: cropped range axis shared by every frame (read-only).
        angles: beamforming grid shared by every frame (read-only).
        times: frame capture times, seconds.
    """

    raw_profiles: np.ndarray
    power_cube: np.ndarray
    ranges: np.ndarray
    angles: np.ndarray
    times: np.ndarray

    def profiles(self) -> list[RangeAngleProfile]:
        """Per-frame :class:`RangeAngleProfile`\\ s as cheap views.

        Each profile's ``power`` is a zero-copy slice of :attr:`power_cube`
        and its axes are the shared read-only sweep axes — building the
        list allocates no new numeric data.
        """
        return [
            RangeAngleProfile(power=self.power_cube[f], ranges=self.ranges,
                              angles=self.angles, time=float(t))
            for f, t in enumerate(self.times)
        ]


def process_sweep(frames: np.ndarray, config: RadarConfig,
                  array: UniformLinearArray, times: np.ndarray, *,
                  max_range: float | None = None,
                  min_range: float | None = None) -> SweepProcessingResult:
    """Run the full receive pipeline on a beat cube in three batched passes.

    Args:
        frames: raw beat cube ``(F, K, N)`` from ``synthesize_frames``.
        config: radar configuration the cube was captured under.
        array: array geometry for Eq. 2.
        times: frame capture times, length ``F``.
        max_range: optional far crop of the range axis, meters.
        min_range: near-field blanking (defaults to ``config.min_range``).
    """
    times = np.asarray(times, dtype=float)
    if times.shape[0] != np.asarray(frames).shape[0]:
        raise SignalProcessingError(
            f"got {times.shape[0]} frame times for "
            f"{np.asarray(frames).shape[0]} frames"
        )
    # Imported lazily: repro.radar.stages builds its kernels from this
    # module's batch passes, so it imports us at module load.
    from repro.radar.stages import RECEIVE_PLAN, ExecutionContext, execute

    ctx = ExecutionContext(
        array=array, times=times, config=config, max_range=max_range,
        min_range=config.min_range if min_range is None else min_range,
    )
    ctx.workspace["frames"] = np.asarray(frames)
    execute(RECEIVE_PLAN, ctx)
    return SweepProcessingResult(raw_profiles=ctx.workspace["raw_profiles"],
                                 power_cube=ctx.workspace["power_cube"],
                                 ranges=ctx.workspace["ranges"],
                                 angles=ctx.workspace["angles"],
                                 times=times)
