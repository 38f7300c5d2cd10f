"""FMCW radar simulator: the eavesdropper (and legitimate sensor) substrate.

The paper evaluates RF-Protect against a custom 6--7 GHz FMCW radar with a
7-antenna array (Sec. 9.1). This package reproduces that radar in software:
beat-signal synthesis from a scene of reflectors (`frontend`), the paper's
range/angle processing pipeline with background subtraction (`processing`),
and the trajectory extraction stage with Kalman tracking (`tracker`).

Every sense path — FMCW, pulsed, the serving engine, the experiments
runner — executes through the stage-graph executor in `stages`: a typed
Emit → Synthesize → RangeFFT → BackgroundSubtract → Beamform → Detect
plan with one production kernel per stage and per-stage wall-time
instrumentation. The per-frame reference loops those kernels are tested
against live in `reference`, which only tests and benchmarks import.
"""

from repro.radar.antenna import UniformLinearArray
from repro.radar.channel import ChannelModel
from repro.radar.config import RadarConfig
from repro.radar.frontend import SYNTH_STATS, PathComponent, SynthesisStats
from repro.radar.batch import (
    PackedComponents,
    pack_components,
    synthesize_frame,
    synthesize_frame_batches,
    synthesize_frame_vectorized,
    synthesize_frames,
)
from repro.radar.pipeline import (
    SweepProcessingResult,
    batched_background_subtract,
    batched_beamform_power,
    batched_lag_vectors,
    batched_range_profiles,
    beamform_from_lags,
    process_sweep,
)
from repro.radar.processing import (
    ZERO_PAD_FACTOR,
    RangeAngleProfile,
    background_subtract,
    compute_range_angle_map,
    frame_range_profiles,
    range_keep_mask,
)
from repro.radar.pulsed import PulsedRadar, PulsedRadarConfig, PulsedSensingResult
from repro.radar.radar import FmcwRadar, SensingResult
from repro.radar.scene import (
    Fan,
    HumanTarget,
    OcclusionSpec,
    Scene,
    StaticReflector,
)
from repro.radar.stages import (
    RECEIVE_PLAN,
    SENSE_PLAN,
    ExecutionContext,
    Stage,
    execute,
    stage_metrics,
)
from repro.radar.tracker import (
    KalmanTracker2D,
    StreamingTracker,
    Track,
    TrackerConfig,
    extract_tracks,
    track_detections,
)

__all__ = [
    "ChannelModel",
    "ExecutionContext",
    "Fan",
    "FmcwRadar",
    "HumanTarget",
    "KalmanTracker2D",
    "OcclusionSpec",
    "PackedComponents",
    "PathComponent",
    "RECEIVE_PLAN",
    "SENSE_PLAN",
    "SYNTH_STATS",
    "SynthesisStats",
    "PulsedRadar",
    "PulsedRadarConfig",
    "PulsedSensingResult",
    "RadarConfig",
    "RangeAngleProfile",
    "Scene",
    "SensingResult",
    "Stage",
    "StaticReflector",
    "StreamingTracker",
    "SweepProcessingResult",
    "Track",
    "TrackerConfig",
    "UniformLinearArray",
    "ZERO_PAD_FACTOR",
    "execute",
    "stage_metrics",
    "background_subtract",
    "batched_background_subtract",
    "batched_beamform_power",
    "batched_lag_vectors",
    "batched_range_profiles",
    "beamform_from_lags",
    "compute_range_angle_map",
    "extract_tracks",
    "frame_range_profiles",
    "pack_components",
    "process_sweep",
    "range_keep_mask",
    "synthesize_frame",
    "synthesize_frame_batches",
    "synthesize_frame_vectorized",
    "synthesize_frames",
    "track_detections",
]
