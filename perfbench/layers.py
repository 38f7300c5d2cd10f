"""Which entry points the traced run times, and what each layer predicts.

``ENTRY_POINTS`` maps each span name to the public ``repro`` callables
timed under it. ``LAYERS`` is the prediction table a later performance
change is judged against: for each layer, the per-layer metrics it
reports, the end-to-end metric (and workload) a change to that layer
should move, and the workloads on which such a change should read no
change. ``EXERCISED`` lists, per workload, the spans that must record at
least one call; the traced run fails otherwise, so a rename cannot
silently zero a layer.
"""

from __future__ import annotations

from spans import Span, covered_seconds, layer_totals


def _len_arg(index: int):
    return lambda args, kwargs: len(args[index])


def _sweeps_frames(args, kwargs) -> int:
    return sum(len(sweep) for sweep in args[0])


def _result_frames(args, kwargs) -> int:
    return len(args[0].profiles)


#: span name -> (target, units-of-work function or None for 1 per call)
ENTRY_POINTS: dict[str, tuple[tuple[str, object], ...]] = {
    "experiments.place_ghost": (
        ("repro.experiments.artifacts:place_ghost_in_room", None),),
    "gan.train": (("repro.gan.trainer:GanTrainer.train", None),),
    "gan.sample": (("repro.gan.sampling:TrajectorySampler.sample", None),),
    "nn.lstm_sequence": (("repro.nn.functional:lstm_sequence", None),),
    "nn.backward": (("repro.nn.tensor:Tensor.backward", None),),
    "nn.optim_step": (("repro.nn.optim:Adam.step", None),
                      ("repro.nn.optim:SGD.step", None)),
    "reflector.plan": (
        ("repro.reflector.controller:ReflectorController.place_trajectory",
         None),
        ("repro.reflector.controller:ReflectorController.plan_trajectory",
         None),
        ("repro.reflector.tag:RfProtectTag.deploy", None)),
    "scenarios.build": (
        ("repro.scenarios.builders:build", None),
        ("repro.scenarios.builders:BuiltScenario.build_scene", None)),
    "radar.sense": (("repro.radar.radar:FmcwRadar.sense", None),),
    "radar.emit": (("repro.radar.stages:emit_sweep", _len_arg(1)),),
    "radar.synthesize": (
        ("repro.radar.batch:synthesize_frames", _len_arg(0)),
        ("repro.radar.batch:synthesize_frame_batches", _sweeps_frames)),
    "radar.range_fft": (("repro.radar.pipeline:batched_range_profiles",
                         None),),
    "radar.background_subtract": (
        ("repro.radar.pipeline:batched_background_subtract", None),),
    "radar.beamform": (
        ("repro.radar.pipeline:batched_beamform_power", None),
        ("repro.radar.pipeline:batched_lag_vectors", None),
        ("repro.radar.pipeline:beamform_from_lags_stacked", None)),
    "radar.track": (
        ("repro.radar.tracker:extract_tracks", _len_arg(0)),
        ("repro.radar.tracker:StreamingTracker.ingest", None)),
    "signal.detect_peaks": (("repro.signal.detection:detect_peaks_2d", None),),
    "metrics.align": (("repro.metrics.alignment:spoofing_errors", None),),
    "serve.execute": (("repro.serve.engine:execute_batch", _len_arg(0)),),
    "serve.ingest": (
        ("repro.radar.stages:TrackedResultMixin.stream_tracks",
         _result_frames),),
    "session.restore": (
        ("repro.radar.tracker:StreamingTracker.from_checkpoint", None),),
    "session.checkpoint": (
        ("repro.radar.tracker:StreamingTracker.checkpoint", None),),
}

_RADAR_CHAIN = ("radar.emit", "radar.synthesize", "radar.range_fft",
                "radar.background_subtract", "radar.beamform")

#: workload -> spans that must record calls in its traced run
EXERCISED: dict[str, tuple[str, ...]] = {
    "fig11": ("experiments.place_ghost", "gan.train", "gan.sample",
              "nn.lstm_sequence", "nn.backward", "nn.optim_step",
              "reflector.plan", "scenarios.build", "radar.sense",
              *_RADAR_CHAIN, "radar.track", "signal.detect_peaks",
              "metrics.align"),
    "serve-sweep": ("scenarios.build", *_RADAR_CHAIN, "serve.execute"),
    "serve-track": ("scenarios.build", *_RADAR_CHAIN, "radar.track",
                    "signal.detect_peaks", "serve.execute", "serve.ingest",
                    "session.restore", "session.checkpoint"),
}

#: layer -> (per-layer metrics, should move, predicted no change on)
LAYERS: dict[str, tuple[tuple[str, ...], str, str]] = {
    "experiments (fig11 sweep loop)": (
        ("spoof.attempts", "spoof.produced", "spoof.produced_per_attempt",
         "ghost.draws", "ghost.placed_per_draw"),
        "ops_per_s and cpu_ms_per_op on fig11", "serve-sweep, serve-track"),
    "gan": (
        ("gan.steps", "gan.train.busy_s", "gan.sample.calls",
         "gan.sample.busy_s"),
        "ops_per_s and cpu_ms_per_op on fig11", "serve-sweep, serve-track"),
    "nn": (
        ("nn.lstm_sequence.calls", "nn.lstm_sequence.busy_s",
         "nn.backward.calls", "nn.backward.busy_s", "nn.optim_step.calls",
         "nn.optim_step.busy_s"),
        "ops_per_s and cpu_ms_per_op on fig11", "serve-sweep, serve-track"),
    "reflector": (
        ("reflector.plan.calls", "reflector.plan.busy_s"),
        "ops_per_s and cpu_ms_per_op on fig11", "serve-sweep, serve-track"),
    "scenarios": (
        ("scenarios.build.calls", "scenarios.build.busy_s"),
        "setup_s", "-"),
    "radar: Emit": (
        ("radar.emit.frames", "radar.emit.busy_s"),
        "ops_per_s and cpu_ms_per_op on fig11 and serve-sweep", "-"),
    "radar: Synthesize": (
        ("radar.synthesize.frames", "radar.synthesize.busy_s"),
        "ops_per_s and cpu_ms_per_op on serve-sweep and fig11", "-"),
    "radar: RangeFFT / BackgroundSubtract / Beamform": (
        ("radar.range_fft.busy_s", "radar.background_subtract.busy_s",
         "radar.beamform.busy_s"),
        "ops_per_s and cpu_ms_per_op on serve-sweep and fig11", "-"),
    "radar: Detect/track": (
        ("radar.track.frames", "radar.track.busy_s", "radar.track.self_s"),
        "ops_per_s and cpu_ms_per_op on fig11; cpu_ms_per_op and "
        "serve.track_latency_ms_* on serve-track", "serve-sweep"),
    "signal": (
        ("signal.detect_peaks.calls", "signal.detect_peaks.busy_s"),
        "same as Detect/track", "serve-sweep"),
    "metrics": (
        ("metrics.align.busy_s",),
        "ops_per_s and cpu_ms_per_op on fig11", "serve-sweep, serve-track"),
    "serve": (
        ("serve.batches", "serve.batch_size_mean", "serve.queue_wait_ms_p50",
         "serve.queue_wait_ms_p90", "serve.execute.calls",
         "serve.execute.busy_s", "serve.ingest.busy_s", "serve.failed",
         "serve.fallback", "serve.sweep_latency_ms_p90",
         "serve.track_latency_ms_p50", "serve.track_latency_ms_p90"),
        "larger batches raise ops_per_s on serve-sweep and can raise "
        "serve.track_latency_ms_p50; queue wait moves "
        "serve.sweep_latency_ms_p90 and serve.track_latency_ms_p90", "fig11"),
    "serve.session": (
        ("session.parks", "session.restores", "session.restore.busy_s",
         "session.checkpoint.busy_s"),
        "cpu_ms_per_op and serve.track_latency_ms_p90 on "
        "serve-track", "fig11, serve-sweep"),
    "load generator / trace": (
        ("loadgen.lag_ms_p90", "loadgen.lag_ms_max", "trace.overhead_frac",
         "trace.unattributed_frac"),
        "validity of serve-track; tracing cost", "-"),
}


def per_layer_values(spans: list[Span], window, span_cost_s: float
                     ) -> dict[str, float]:
    """Every per-layer value of a traced run, keyed by metric name.

    ``window`` is the measured window (:class:`workloads.Window`); its
    ``layer`` entries are values read from the program's outputs.
    """
    totals = layer_totals(spans)
    values: dict[str, float] = {}
    for name, total in totals.items():
        values[f"{name}.calls"] = total.calls
        values[f"{name}.frames"] = total.units
        values[f"{name}.busy_s"] = total.busy_s
        values[f"{name}.self_s"] = total.self_s

    def calls(name: str) -> int:
        return totals[name].calls if name in totals else 0

    attempts = calls("radar.sense")
    draws = calls("gan.sample")
    produced = window.layer.get("spoof.produced", 0)
    in_window = sum(window.start <= span.start < window.end
                    for span in spans)
    values.update({
        "spoof.attempts": attempts,
        "spoof.produced_per_attempt": produced / attempts if attempts else 0,
        "ghost.draws": draws,
        "ghost.placed_per_draw": (calls("experiments.place_ghost") / draws
                                  if draws else 0),
        "session.parks": calls("session.checkpoint"),
        "session.restores": calls("session.restore"),
        "trace.overhead_frac": in_window * span_cost_s / window.cpu_s,
        "trace.unattributed_frac": 1.0 - covered_seconds(
            spans, window.start, window.end) / (window.end - window.start),
        **window.layer,
    })
    return values
