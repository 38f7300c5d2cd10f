"""The three benchmark workloads: set-up, measured run, output checks.

Each workload builds its inputs from the workload seed in :meth:`setup`,
runs for the measured window in :meth:`run` and raises
:class:`CheckFailed` from :meth:`check` when an output is wrong. The
program only sees the generated inputs; every timing below is taken from
the benchmark's own clock readings, never from ``repro.serve.metrics``.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import statistics
import time
from concurrent.futures import Future

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    ServiceOverloadedError,
    SessionNotFoundError,
)
from repro.experiments import artifacts, fig11
from repro.experiments.environments import home_environment, office_environment
from repro.radar.radar import FmcwRadar
from repro.scenarios import TrafficMix, scenario_names
from repro.serve import (
    BACKEND_NAIVE_FALLBACK,
    InProcessClient,
    SenseRequest,
    ServiceConfig,
    TrackRequest,
)
from repro.serve.app import build_demo_scene

#: Fig. 11's per-environment sweep size, the paper's 45 trajectories. With
#: 24 the office location median spread by a fifth over ten seeds.
FIG11_TRAJECTORIES = 45
#: Dataset size of the ``fast`` GAN preset that ``fig11.run`` trains.
FAST_PRESET_TRACES = 300
#: ``fig11.run``'s default seed. Every workload seed trains this one
#: generator (training cost does not depend on the seed) and varies only
#: the sweeps: a generator trained per seed moved the office location
#: median by half between seeds, more than any bound allows.
FIG11_GAN_SEED = 0
#: Location-error medians ``benchmarks/test_bench_fig11.py`` asserts.
FIG11_LOCATION_LIMIT_M = {"home": 0.35, "office": 0.50}

#: Closed-loop callers, as in the ``rfprotect serve`` demos.
SWEEP_CALLERS = 64
SWEEP_REQUEST_S = 0.4
#: Requests planned from the traffic mix; the loop cycles through them.
SWEEP_PLAN = 4096
#: Every this many window requests, one response is re-sensed directly.
SWEEP_CHECK_EVERY = 256
#: The window's completions are cut into blocks of this many; the metrics
#: are medians over the blocks, so a short host stall does not move them.
SWEEP_BLOCK = 128

#: Above the session store's default live bound of 64, so trackers are
#: parked and restored. The offered rate stays well below the knee: at
#: 64 chunks/s and more the GIL-bound service ran near saturation and its
#: p90 moved by up to 2x from run to run on two cores. Even at 32/s the
#: due-to-reply latency follows the host's CPU steal (p90 from 14 to 49 ms
#: over ten runs), so the bounded metric is the CPU time per chunk and the
#: latency percentiles are reported by the traced run.
TRACK_SESSIONS = 96
TRACK_RATE_PER_S = 32.0
TRACK_CHUNK_S = 0.5

WARMUP_S = 2.0


class CheckFailed(Exception):
    """An output of the program is wrong."""


def percentile(values: list[float], q: float) -> float:
    """Exact percentile of raw samples; inf samples stand for failures."""
    if not values:
        raise CheckFailed("no samples to take a percentile of")
    result = float(np.percentile(np.asarray(values, dtype=float), q))
    if not np.isfinite(result):
        raise CheckFailed(f"p{q:g} falls on failed requests")
    return result


def service_config(loop_computes: bool) -> ServiceConfig:
    """The default service configuration, capped so busy threads <= cores.

    Each worker runs one single-threaded BLAS; when the event loop also
    computes (tracker ingest and restore), it takes one core of its own.
    """
    default = ServiceConfig()
    cores = (os.cpu_count() or 1) - loop_computes
    return dataclasses.replace(default,
                               workers=max(1, min(default.workers, cores)))


@dataclasses.dataclass
class Window:
    """What a measured window reports back to the runner."""

    start: float
    end: float
    cpu_s: float
    units: int           # runs, completed requests or chunks in the window
    attempted: int
    failed: int
    metrics: dict[str, float]  # ``ops_per_s`` and ``cpu_ms_per_op``
    layer: dict[str, float]  # per-layer values the trace cannot see
    shape: dict[str, object]  # stated input sizes
    figures: dict[str, float] = dataclasses.field(default_factory=dict)


class Fig11:
    """Fast-preset generator training, then the home and office sweeps."""

    name = "fig11"
    workers = 0  # no service
    busy_threads = 1

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dataset = artifacts.motion_dataset(FAST_PRESET_TRACES,
                                                FIG11_GAN_SEED)

    def run(self, seconds: float) -> Window:
        """Fixed work: training and both sweeps, whatever ``seconds`` is."""
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        self.gan = artifacts.trained_gan("fast", FIG11_GAN_SEED)
        t1 = time.perf_counter()
        # fig11.run's loop, with the sweep seeds taken from the workload seed.
        self.sweeps = {
            environment.name: fig11.run_environment(
                environment, num_trajectories=FIG11_TRAJECTORIES,
                seed=self.seed + 1000 * index, gan_seed=FIG11_GAN_SEED)
            for index, environment in enumerate((home_environment(),
                                                 office_environment()))}
        t2 = time.perf_counter()
        cpu = time.process_time() - cpu0
        sweeps = self.sweeps
        produced = sum(sweep.num_trajectories for sweep in sweeps.values())
        requested = FIG11_TRAJECTORIES * len(sweeps)
        # One operation is one spoofed trajectory of the whole figure, so a
        # gain in training or in the sensing chain moves both metrics.
        metrics = {"ops_per_s": produced / (t2 - t0),
                   "cpu_ms_per_op": cpu / produced * 1e3}
        figures = {"fig11_s": t2 - t0, "gan_train_s": t1 - t0,
                   "spoof_traj_per_s": produced / (t2 - t1)}
        for name, sweep in sweeps.items():
            figures[f"spoof_loc_cm_p50_{name}"] = (
                sweep.medians()["location_m"] * 100.0)
        return Window(
            start=t0, end=t2, cpu_s=cpu, units=produced,
            attempted=requested, failed=requested - produced,
            metrics=metrics, figures=figures,
            layer={"spoof.produced": produced,
                   "gan.steps": len(self.gan.trainer.history.generator_losses)},
            shape={"trajectories_per_environment": FIG11_TRAJECTORIES,
                   "trajectory_s": 10.0, "gan_quality": "fast",
                   "gan_traces": FAST_PRESET_TRACES,
                   "gan_seed": FIG11_GAN_SEED},
        )

    def check(self) -> None:
        trainer = self.gan.trainer
        if self.gan.dataset is not self.dataset:
            raise CheckFailed("training did not use the set-up dataset")
        history = trainer.history
        steps = trainer.config.epochs * (len(self.dataset)
                                         // trainer.config.batch_size)
        if len(history.generator_losses) != steps:
            raise CheckFailed(f"training ran {len(history.generator_losses)} "
                              f"steps, expected {steps}")
        losses = history.generator_losses + history.discriminator_losses
        if not np.all(np.isfinite(losses)):
            raise CheckFailed("training losses are not finite")
        for name, sweep in self.sweeps.items():
            if sweep.num_trajectories != FIG11_TRAJECTORIES:
                raise CheckFailed(f"{name}: {sweep.num_trajectories} "
                                  f"trajectories, expected "
                                  f"{FIG11_TRAJECTORIES}")
            median = sweep.medians()["location_m"]
            if not median < FIG11_LOCATION_LIMIT_M[name]:
                raise CheckFailed(f"{name}: median location error "
                                  f"{median * 100:.1f} cm is out of range")

    def close(self) -> None:
        pass


class _Failures:
    """Failed requests by kind; a failure misses every latency limit."""

    KINDS = (ServiceOverloadedError, DeadlineExceededError,
             SessionNotFoundError)

    def __init__(self) -> None:
        self.counts = {kind.__name__: 0 for kind in self.KINDS}
        self.counts["naive-fallback"] = 0

    def record(self, future: Future) -> object | None:
        """The future's response, or ``None`` after counting its failure."""
        error = future.exception()
        if error is not None:
            if not isinstance(error, self.KINDS):
                raise error
            self.counts[type(error).__name__] += 1
            return None
        response = future.result()
        if response.backend == BACKEND_NAIVE_FALLBACK:
            self.counts["naive-fallback"] += 1
            return None
        return response

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _serve_layer(served: list[tuple[int, float]], failures: _Failures,
                 lags_ms: list[float]) -> dict[str, float]:
    """Serve-layer values from the window's ``(batch_size, queued_s)``."""
    sizes = [size for size, _ in served]
    waits = [queued_s * 1e3 for _, queued_s in served]
    return {
        "serve.batches": round(sum(1.0 / size for size in sizes)),
        "serve.batch_size_mean": float(np.mean(sizes)),
        "serve.queue_wait_ms_p50": percentile(waits, 50),
        "serve.queue_wait_ms_p90": percentile(waits, 90),
        "serve.failed": failures.total - failures.counts["naive-fallback"],
        "serve.fallback": failures.counts["naive-fallback"],
        "loadgen.lag_ms_p90": percentile(lags_ms, 90),
        "loadgen.lag_ms_max": max(lags_ms),
    }


class ServeSweep:
    """Closed loop: 64 waiting callers send stateless mixed-scenario requests."""

    name = "serve-sweep"

    def setup(self, seed: int) -> None:
        self.scenes = {name: build_demo_scene(scenario=name)
                       for name in scenario_names()}
        self.plan = TrafficMix().plan(SWEEP_PLAN, base_seed=seed)
        config = service_config(loop_computes=False)
        self.workers = self.busy_threads = config.workers
        self.client = InProcessClient(
            config, default_radar_config=self.scenes["office"][1])

    def _request(self, index: int) -> SenseRequest:
        planned = self.plan[index % SWEEP_PLAN]
        scene, config = self.scenes[planned.scenario]
        return SenseRequest(scene=scene, duration=SWEEP_REQUEST_S,
                            seed=planned.seed, config=config)

    def run(self, seconds: float) -> Window:
        done: queue.SimpleQueue = queue.SimpleQueue()
        sent = 0

        def send() -> None:
            nonlocal sent
            index = sent
            sent += 1
            sent_at = time.perf_counter()
            future = self.client.submit(self._request(index))
            future.add_done_callback(
                lambda f: done.put((index, sent_at, time.perf_counter(), f)))

        begin = time.perf_counter()
        start = begin + WARMUP_S
        end = start + seconds
        for _ in range(SWEEP_CALLERS):
            send()
        outstanding = SWEEP_CALLERS
        failures = _Failures()
        latencies_ms: list[float] = []
        lags_ms: list[float] = []
        served: list[tuple[int, float]] = []
        self.samples = []
        completed = 0
        # (wall, process time) at every SWEEP_BLOCK-th completion in window
        marks: list[tuple[float, float]] = []
        in_window = 0
        while outstanding:
            index, sent_at, done_at, future = done.get()
            outstanding -= 1
            now = time.perf_counter()
            if start <= done_at < end:
                if completed % SWEEP_BLOCK == 0:
                    marks.append((now, time.process_time()))
                completed += 1
            response = failures.record(future)
            if start <= sent_at < end:
                if response is None:
                    latencies_ms.append(float("inf"))
                else:
                    latencies_ms.append((done_at - sent_at) * 1e3)
                    served.append((response.batch_size, response.queued_s))
                    if in_window % SWEEP_CHECK_EVERY == 0:
                        self.samples.append((index, response))
                in_window += 1
            if now < end:
                lags_ms.append((time.perf_counter() - done_at) * 1e3)
                send()
                outstanding += 1
        return Window(
            start=start, end=end, cpu_s=marks[-1][1] - marks[0][1],
            units=completed, attempted=sent, failed=failures.total,
            metrics={
                "ops_per_s": statistics.median(
                    SWEEP_BLOCK / (after[0] - before[0])
                    for before, after in zip(marks, marks[1:])),
                "cpu_ms_per_op": statistics.median(
                    (after[1] - before[1]) / SWEEP_BLOCK * 1e3
                    for before, after in zip(marks, marks[1:])),
            },
            layer={**_serve_layer(served, failures, lags_ms),
                   "serve.sweep_latency_ms_p90": percentile(latencies_ms, 90)},
            shape={"callers": SWEEP_CALLERS, "request_s": SWEEP_REQUEST_S,
                   "planned_requests": SWEEP_PLAN,
                   "requests": sent, "window_requests": in_window,
                   "scenarios": sorted(self.scenes),
                   "warmup_s": WARMUP_S},
        )

    def check(self) -> None:
        if len(self.samples) < 4:
            raise CheckFailed(f"only {len(self.samples)} responses sampled")
        for index, response in self.samples:
            request = self._request(index)
            direct = FmcwRadar(request.config).sense(
                request.scene, request.duration,
                rng=np.random.default_rng(request.seed))
            served = response.result
            same = (np.array_equal(direct.times, served.times)
                    and np.array_equal(direct.raw_profiles,
                                       served.raw_profiles)
                    and len(direct.profiles) == len(served.profiles)
                    and all(np.array_equal(a.power, b.power)
                            for a, b in zip(direct.profiles,
                                            served.profiles)))
            if not same:
                raise CheckFailed(f"served request {index} differs from a "
                                  f"direct sense call")

    def close(self) -> None:
        self.client.close()


class ServeTrack:
    """Open loop: tracking sessions each send chunks on a fixed schedule."""

    name = "serve-track"

    def setup(self, seed: int) -> None:
        self.scene, config = build_demo_scene(scenario="office")
        self.frames_per_chunk = len(
            FmcwRadar(config).frame_times(TRACK_CHUNK_S))
        self.seed = seed
        service = service_config(loop_computes=True)
        self.workers = service.workers
        self.busy_threads = service.workers + 1  # the event loop ingests
        self.client = InProcessClient(service, default_radar_config=config)
        self.sessions = [self.client.create_session()
                         for _ in range(TRACK_SESSIONS)]

    def _chunk_seed(self, session: int, chunk: int) -> int:
        sequence = np.random.SeedSequence([self.seed, session, chunk])
        return int(sequence.generate_state(1, dtype=np.uint32)[0])

    def run(self, seconds: float) -> Window:
        done: queue.SimpleQueue = queue.SimpleQueue()
        interval = 1.0 / TRACK_RATE_PER_S
        warmup_events = int(round(WARMUP_S * TRACK_RATE_PER_S))
        events = warmup_events + int(round(seconds * TRACK_RATE_PER_S))
        seeds = [self._chunk_seed(event % TRACK_SESSIONS,
                                  event // TRACK_SESSIONS)
                 for event in range(events)]
        self.chunks = [0] * TRACK_SESSIONS
        lags_ms: list[float] = []
        begin = time.perf_counter()
        start = begin + warmup_events * interval
        end = begin + events * interval
        cpu0 = None
        for event in range(events):
            due = begin + event * interval
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if event == warmup_events:
                cpu0 = time.process_time()
            session = event % TRACK_SESSIONS
            request = TrackRequest(session_id=self.sessions[session],
                                   scene=self.scene, duration=TRACK_CHUNK_S,
                                   seed=seeds[event])
            future = self.client.submit_tracked(request)
            self.chunks[session] += 1
            if event >= warmup_events:
                lags_ms.append((time.perf_counter() - due) * 1e3)
            future.add_done_callback(
                lambda f, e=event, d=due: done.put(
                    (e, d, time.perf_counter(), f)))
        failures = _Failures()
        latencies_ms: list[float] = []
        served: list[tuple[int, float]] = []
        self.ingested: dict[str, list[tuple[int, int]]] = {}
        replied: list[float] = []  # reply times inside the window
        for _ in range(events):
            event, due, done_at, future = done.get()
            if start <= done_at < end:
                replied.append(done_at)
            response = failures.record(future)
            if response is not None:
                self.ingested.setdefault(response.session_id, []).append(
                    (response.frames_added, response.frames_total))
            if event >= warmup_events:
                if response is None:
                    latencies_ms.append(float("inf"))
                else:
                    latencies_ms.append((done_at - due) * 1e3)
                    served.append((response.batch_size, response.queued_s))
        cpu = time.process_time() - cpu0
        measured = events - warmup_events
        return Window(
            start=start, end=end, cpu_s=cpu, units=measured,
            attempted=events, failed=failures.total,
            # Open loop: the reply rate is the offered rate until the
            # service falls behind.
            metrics={"ops_per_s": (len(replied) - 1)
                     / (max(replied) - min(replied)),
                     "cpu_ms_per_op": cpu / measured * 1e3},
            layer={**_serve_layer(served, failures, lags_ms),
                   **{f"serve.track_latency_ms_p{q}":
                      percentile(latencies_ms, q) for q in (50, 90)}},
            shape={"sessions": TRACK_SESSIONS,
                   "offered_chunks_per_s": TRACK_RATE_PER_S,
                   "chunk_s": TRACK_CHUNK_S,
                   "frames_per_chunk": self.frames_per_chunk,
                   "chunks": measured, "warmup_s": WARMUP_S},
        )

    def check(self) -> None:
        for session, session_id in enumerate(self.sessions):
            ingested = self.ingested.get(session_id, [])
            expected = self.chunks[session] * self.frames_per_chunk
            total = max((total for _, total in ingested), default=0)
            if total != expected:
                raise CheckFailed(f"{session_id}: {total} frames ingested, "
                                  f"expected {expected}")
            if any(added != self.frames_per_chunk for added, _ in ingested):
                raise CheckFailed(f"{session_id}: a chunk added the wrong "
                                  f"number of frames")

    def close(self) -> None:
        self.client.close()


WORKLOADS = {workload.name: workload
             for workload in (Fig11, ServeSweep, ServeTrack)}
