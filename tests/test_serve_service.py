"""Tests for the micro-batching sensing service (``repro.serve``).

Pins the subsystem's four contracts:

- **equivalence/determinism** — served results are bitwise identical to
  direct ``FmcwRadar.sense`` calls with the same parameters, for any
  submission order and any batch grouping, and inside 1e-10 of the
  reference loops (`repro.radar.reference`);
- **saturation** — a full admission queue rejects with
  ``ServiceOverloadedError``; expired deadlines cancel queued work with
  ``DeadlineExceededError`` before compute is spent;
- **fault isolation** — when a fused batch fails, each request is re-run
  alone, so only the poisoned one fails, visibly (response backend +
  fallback counter);
- **telemetry** — the metrics snapshot reports counts, batch sizes, and
  latency percentiles as JSON.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

import repro.serve.engine as serve_engine
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
    SignalProcessingError,
)
from repro.geometry import Rectangle
from repro.radar import FmcwRadar, RadarConfig, Scene
from repro.radar.reference import reference_sense
from repro.serve import (
    BACKEND_NAIVE_FALLBACK,
    BACKEND_VECTORIZED,
    InProcessClient,
    SenseRequest,
    SenseService,
    ServiceConfig,
    TrackRequest,
)
from repro.serve.engine import ExecutionItem
from repro.serve.request import BatchKey
from repro.signal.chirp import ChirpConfig

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def fast_radar_config(**overrides) -> RadarConfig:
    """A 64-sample chirp keeps every service test sub-second."""
    defaults = dict(
        chirp=ChirpConfig(duration=3.2e-5),
        position=(2.0, 0.1),
        facing_angle=np.pi / 2.0,
    )
    defaults.update(overrides)
    return RadarConfig(**defaults)


@pytest.fixture(scope="module")
def scene() -> Scene:
    room = Rectangle.from_size(4.0, 4.0)
    built = Scene(room)
    built.add_static((1.0, 3.0), rcs=4.0)
    built.add_static((3.2, 2.1), rcs=2.0)
    return built


@pytest.fixture(scope="module")
def radar_config() -> RadarConfig:
    return fast_radar_config()


def quick_service_config(**overrides) -> ServiceConfig:
    defaults = dict(max_batch_size=4, queue_depth=64,
                    default_deadline_s=10.0, workers=2)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestRequestValidation:
    def test_bad_duration_rejected(self, scene):
        with pytest.raises(ConfigurationError, match="duration"):
            SenseRequest(scene=scene, duration=0.0)

    def test_bad_max_range_rejected(self, scene):
        with pytest.raises(ConfigurationError, match="max_range"):
            SenseRequest(scene=scene, duration=1.0, max_range=-1.0)

    def test_bad_deadline_rejected(self, scene):
        with pytest.raises(ConfigurationError, match="deadline"):
            SenseRequest(scene=scene, duration=1.0, deadline_s=0.0)

    # One such request used to fail its whole fused batch at execution
    # and force a re-run of every batch-mate.
    @pytest.mark.parametrize("request_type", [SenseRequest, TrackRequest])
    @pytest.mark.parametrize("overrides, match", [
        ({"duration": float("nan")}, "duration"),
        ({"duration": float("inf")}, "duration"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"max_range": float("nan")}, "max_range"),
        ({"max_range": float("inf")}, "max_range"),
        ({"deadline_s": float("nan")}, "deadline"),
    ])
    def test_non_finite_and_negative_fields_rejected(self, scene,
                                                     request_type, overrides,
                                                     match):
        fields = {"scene": scene, "duration": 1.0, **overrides}
        if request_type is TrackRequest:
            fields["session_id"] = "session"
        with pytest.raises(ConfigurationError, match=match):
            request_type(**fields)


class TestEquivalenceAndDeterminism:
    def test_served_results_bitwise_match_direct_sense(self, scene,
                                                       radar_config):
        seeds = [3, 1, 4, 1, 5, 9]  # includes a duplicate seed
        radar = FmcwRadar(radar_config)
        direct = [radar.sense(scene, 0.3, rng=np.random.default_rng(s))
                  for s in seeds]

        requests = [SenseRequest(scene=scene, duration=0.3, seed=s)
                    for s in seeds]
        with InProcessClient(quick_service_config(),
                             default_radar_config=radar_config) as client:
            served = client.sense_many(requests)

        assert [r.backend for r in served] == [BACKEND_VECTORIZED] * len(seeds)
        for expected, response in zip(direct, served):
            result = response.result
            assert np.array_equal(result.times, expected.times)
            assert np.array_equal(result.raw_profiles, expected.raw_profiles)
            assert len(result.profiles) == len(expected.profiles)
            for got, want in zip(result.profiles, expected.profiles):
                assert np.array_equal(got.power, want.power)
                assert np.array_equal(got.ranges, want.ranges)
                assert np.array_equal(got.angles, want.angles)

    def test_equivalence_to_naive_reference_within_1e10(self, scene,
                                                        radar_config):
        radar = FmcwRadar(radar_config)
        naive = reference_sense(radar, scene, 0.3,
                                rng=np.random.default_rng(11))
        with InProcessClient(quick_service_config(),
                             default_radar_config=radar_config) as client:
            served = client.sense(
                SenseRequest(scene=scene, duration=0.3, seed=11)
            )
        for got, want in zip(served.result.profiles, naive.profiles):
            np.testing.assert_allclose(got.power, want.power, atol=1e-10)

    def test_arrival_order_and_grouping_do_not_change_results(self, scene,
                                                              radar_config):
        seeds = list(range(8))
        requests = {
            s: SenseRequest(scene=scene, duration=0.3, seed=s) for s in seeds
        }
        # Run 1: submission order 0..7, large batches.
        with InProcessClient(quick_service_config(max_batch_size=8),
                             default_radar_config=radar_config) as client:
            responses = client.sense_many([requests[s] for s in seeds])
            first = dict(zip(seeds, responses))
        # Run 2: reversed order, singleton batches.
        with InProcessClient(
            quick_service_config(max_batch_size=1),
            default_radar_config=radar_config,
        ) as client:
            responses = client.sense_many(
                [requests[s] for s in reversed(seeds)]
            )
            second = dict(zip(reversed(seeds), responses))
        for s in seeds:
            assert np.array_equal(first[s].result.raw_profiles,
                                  second[s].result.raw_profiles)
            for got, want in zip(first[s].result.profiles,
                                 second[s].result.profiles):
                assert np.array_equal(got.power, want.power)

    def test_distinct_radar_configs_batch_separately_and_correctly(
            self, scene):
        config_a = fast_radar_config()
        config_b = fast_radar_config(frame_rate=20.0)
        direct_a = FmcwRadar(config_a).sense(scene, 0.3,
                                             rng=np.random.default_rng(2))
        direct_b = FmcwRadar(config_b).sense(scene, 0.3,
                                             rng=np.random.default_rng(2))
        requests = [
            SenseRequest(scene=scene, duration=0.3, seed=2, config=config_a),
            SenseRequest(scene=scene, duration=0.3, seed=2, config=config_b),
        ]
        with InProcessClient(quick_service_config(),
                             default_radar_config=config_a) as client:
            served_a, served_b = client.sense_many(requests)
        assert np.array_equal(served_a.result.raw_profiles,
                              direct_a.raw_profiles)
        assert np.array_equal(served_b.result.raw_profiles,
                              direct_b.raw_profiles)
        assert len(served_a.result.times) == len(direct_a.times)
        assert len(served_b.result.times) == len(direct_b.times)
        assert len(served_b.result.times) > len(served_a.result.times)


def owner(array: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``array`` views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


class TestResultOwnership:
    def test_one_response_owns_exactly_its_own_bytes(self, scene,
                                                     radar_config):
        requests = [SenseRequest(scene=scene, duration=0.3, seed=s)
                    for s in range(4)]
        with InProcessClient(quick_service_config(max_batch_size=4),
                             default_radar_config=radar_config) as client:
            responses = client.sense_many(requests)
        # Bitwise equality to a direct sense call is pinned by
        # TestEquivalenceAndDeterminism; this pins what a response keeps.
        for response in responses:
            assert response.batch_size > 1
            result = response.result
            raw = result.raw_profiles
            assert owner(raw).nbytes == raw.nbytes
            power_owners = {id(owner(p.power)): owner(p.power)
                            for p in result.profiles}
            assert len(power_owners) == 1
            (cube,) = power_owners.values()
            assert cube.nbytes == sum(p.power.nbytes for p in result.profiles)


class BlockableExecute:
    """An injectable execute callable that parks until released.

    Records the size of every batch it is handed, in call order.
    """

    def __init__(self):
        self.release = threading.Event()
        self.calls = 0
        self.sizes = []

    def __call__(self, items):
        self.calls += 1
        self.sizes.append(len(items))
        assert self.release.wait(timeout=30.0), "test never released executor"
        return serve_engine.execute_batch(items)


async def occupy_workers(service, blocker, request, workers):
    """Submit one request per worker and wait until all of them compute.

    One at a time: requests submitted together would share one batch.
    """
    held = []
    for busy in range(1, workers + 1):
        held.append(asyncio.ensure_future(service.submit(request)))
        while blocker.calls < busy:
            await asyncio.sleep(0.001)
    return held


class TestPullScheduling:
    @pytest.mark.parametrize("count, cap", [(5, 8), (6, 4), (9, 3)])
    def test_requests_held_while_busy_form_full_batches(self, scene,
                                                        radar_config, count,
                                                        cap):
        blocker = BlockableExecute()

        async def run() -> list[int]:
            service = SenseService(
                quick_service_config(max_batch_size=cap, workers=2),
                default_radar_config=radar_config, execute=blocker,
            )
            async with service:
                request = SenseRequest(scene=scene, duration=0.3, seed=0)
                busy = await occupy_workers(service, blocker, request, 2)
                held = [asyncio.ensure_future(service.submit(
                    SenseRequest(scene=scene, duration=0.3, seed=s)))
                    for s in range(count)]
                await asyncio.sleep(0.01)
                assert blocker.calls == 2  # nothing runs while both compute
                blocker.release.set()
                await asyncio.gather(*busy, *held)
            return blocker.sizes

        sizes = asyncio.run(run())
        full, rest = divmod(count, cap)
        assert sizes[:2] == [1, 1]
        expected = [cap] * full + ([rest] if rest else [])
        assert sorted(sizes[2:], reverse=True) == expected

    def test_idle_service_runs_a_lone_request_without_waiting(
            self, scene, radar_config):
        blocker = BlockableExecute()

        async def run() -> tuple[float, int]:
            service = SenseService(quick_service_config(),
                                   default_radar_config=radar_config,
                                   execute=blocker)
            async with service:
                future = asyncio.ensure_future(service.submit(
                    SenseRequest(scene=scene, duration=0.3, seed=0)))
                # A few loop passes and no timer: the request is already
                # out of the queue and executing.
                for _ in range(5):
                    await asyncio.sleep(0)
                depth = service.metrics.gauge("queue.depth").value
                blocker.release.set()
                response = await future
            return depth, response.batch_size

        depth, batch_size = asyncio.run(run())
        assert depth == 0.0
        assert batch_size == 1

    def test_stop_drains_held_requests_and_inflight_batches(self, scene,
                                                            radar_config):
        blocker = BlockableExecute()

        async def run() -> list:
            service = SenseService(
                quick_service_config(max_batch_size=2, workers=1),
                default_radar_config=radar_config, execute=blocker,
            )
            await service.start()
            request = SenseRequest(scene=scene, duration=0.3, seed=0)
            inflight = await occupy_workers(service, blocker, request, 1)
            held = [asyncio.ensure_future(service.submit(
                SenseRequest(scene=scene, duration=0.3, seed=s)))
                for s in range(5)]
            await asyncio.sleep(0)
            stopping = asyncio.ensure_future(service.stop())
            await asyncio.sleep(0.01)
            assert not stopping.done()
            with pytest.raises(ServiceClosedError):
                await service.submit(request)
            blocker.release.set()
            await stopping
            assert all(future.done() for future in inflight + held)
            return [future.result() for future in inflight + held]

        responses = asyncio.run(run())
        assert len(responses) == 6
        assert blocker.sizes == [1, 2, 2, 1]
        assert all(r.backend == BACKEND_VECTORIZED for r in responses)


class TestSaturationAndDeadlines:
    def test_full_queue_rejects_with_overload_error(self, scene,
                                                    radar_config):
        blocker = BlockableExecute()

        async def run() -> dict:
            service = SenseService(
                quick_service_config(max_batch_size=1, queue_depth=2,
                                     workers=1),
                default_radar_config=radar_config,
                execute=blocker,
            )
            async with service:
                request = SenseRequest(scene=scene, duration=0.3, seed=0)
                # First request: flushed instantly, occupies the one worker
                # (blocked inside the executor), leaving the queue empty.
                first = asyncio.ensure_future(service.submit(request))
                while blocker.calls == 0:
                    await asyncio.sleep(0.001)
                # Two more fill the admission queue.
                second = asyncio.ensure_future(service.submit(request))
                third = asyncio.ensure_future(service.submit(request))
                await asyncio.sleep(0.01)
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(request)
                rejected_count = service.metrics.counter(
                    "requests.rejected").value
                blocker.release.set()
                responses = await asyncio.gather(first, second, third)
            return {"rejected": rejected_count, "responses": responses}

        outcome = asyncio.run(run())
        assert outcome["rejected"] == 1
        assert len(outcome["responses"]) == 3
        assert all(r.backend == BACKEND_VECTORIZED
                   for r in outcome["responses"])

    def test_expired_deadline_cancels_queued_work(self, scene, radar_config):
        blocker = BlockableExecute()

        async def run() -> int:
            service = SenseService(
                quick_service_config(max_batch_size=1, workers=1),
                default_radar_config=radar_config,
                execute=blocker,
            )
            async with service:
                hold = asyncio.ensure_future(service.submit(
                    SenseRequest(scene=scene, duration=0.3, seed=0)
                ))
                while blocker.calls == 0:
                    await asyncio.sleep(0.001)
                doomed = asyncio.ensure_future(service.submit(
                    SenseRequest(scene=scene, duration=0.3, seed=1,
                                 deadline_s=0.02)
                ))
                await asyncio.sleep(0.05)  # let the deadline lapse in queue
                calls_before_release = blocker.calls
                blocker.release.set()
                with pytest.raises(DeadlineExceededError):
                    await doomed
                await hold
                # The doomed request never reached the executor: only the
                # holding request's batch was executed.
                assert blocker.calls == calls_before_release == 1
                return service.metrics.counter("requests.expired").value

        assert asyncio.run(run()) == 1

    def test_submit_to_stopped_service_raises_closed(self, scene,
                                                     radar_config):
        async def run() -> None:
            service = SenseService(quick_service_config(),
                                   default_radar_config=radar_config)
            with pytest.raises(ServiceClosedError):
                await service.submit(
                    SenseRequest(scene=scene, duration=0.3, seed=0)
                )

        asyncio.run(run())


POISONED_SEED = 4


def poison_seed(monkeypatch, seed: int) -> None:
    """Make the fused Emit kernel raise for any batch holding ``seed``."""
    original = FmcwRadar.sweep_components

    def sweep_components(self, scene, times, rng):
        if rng.bit_generator.seed_seq.entropy == seed:
            raise SignalProcessingError(f"injected fault for seed {seed}")
        return original(self, scene, times, rng)

    monkeypatch.setattr(FmcwRadar, "sweep_components", sweep_components)


class TestFaultIsolation:
    def test_batch_mates_rerun_bitwise_equal(self, monkeypatch, scene,
                                             radar_config):
        seeds = [3, POISONED_SEED, 5, 6]
        poison_seed(monkeypatch, POISONED_SEED)
        key = BatchKey(config=radar_config, max_range=5.0)
        outcomes = serve_engine.execute_batch([
            ExecutionItem(request_id=i, key=key,
                          request=SenseRequest(scene=scene, duration=0.3,
                                               seed=seed))
            for i, seed in enumerate(seeds)
        ])

        radar = FmcwRadar(radar_config)
        assert [o.backend for o in outcomes] == [BACKEND_NAIVE_FALLBACK] * 4
        for seed, outcome in zip(seeds, outcomes):
            if seed == POISONED_SEED:
                assert outcome.result is None
                assert isinstance(outcome.error, SignalProcessingError)
                continue
            expected = radar.sense(scene, 0.3, max_range=5.0,
                                   rng=np.random.default_rng(seed))
            assert outcome.error is None
            assert np.array_equal(outcome.result.raw_profiles,
                                  expected.raw_profiles)
            for got, want in zip(outcome.result.profiles, expected.profiles):
                assert np.array_equal(got.power, want.power)

    def test_poisoned_request_fails_alone(self, monkeypatch, scene,
                                          radar_config):
        seeds = [3, POISONED_SEED, 5, 6]
        poison_seed(monkeypatch, POISONED_SEED)
        radar = FmcwRadar(radar_config)

        with InProcessClient(quick_service_config(),
                             default_radar_config=radar_config) as client:
            futures = {
                seed: client.submit(SenseRequest(scene=scene, duration=0.3,
                                                 seed=seed))
                for seed in seeds
            }
            with pytest.raises(SignalProcessingError):
                futures.pop(POISONED_SEED).result(timeout=60)
            responses = {seed: future.result(timeout=60)
                         for seed, future in futures.items()}
            snapshot = client.metrics_snapshot()

        for seed, response in responses.items():
            expected = radar.sense(scene, 0.3,
                                   rng=np.random.default_rng(seed))
            assert np.array_equal(response.result.raw_profiles,
                                  expected.raw_profiles)
            for got, want in zip(response.result.profiles,
                                 expected.profiles):
                assert np.array_equal(got.power, want.power)
        assert snapshot["counters"]["batches.fallback"] >= 1
        assert snapshot["counters"]["requests.failed"] == 1
        assert snapshot["counters"]["requests.completed"] == 3


class TestTelemetry:
    def test_snapshot_reports_counts_batches_and_latency(self, scene,
                                                         radar_config):
        requests = [SenseRequest(scene=scene, duration=0.3, seed=s)
                    for s in range(6)]
        with InProcessClient(quick_service_config(),
                             default_radar_config=radar_config) as client:
            responses = client.sense_many(requests)
            snapshot = client.metrics_snapshot()
            as_json = client.service.metrics.to_json()

        counters = snapshot["counters"]
        assert counters["requests.submitted"] == 6
        assert counters["requests.completed"] == 6
        assert counters["batches.executed"] >= 1

        batch_hist = snapshot["histograms"]["batch.size"]
        assert batch_hist["count"] == counters["batches.executed"]
        assert batch_hist["sum"] == 6.0
        assert any(bucket["count"] for bucket in batch_hist["buckets"])

        latency_hist = snapshot["histograms"]["request.latency_s"]
        assert latency_hist["count"] == 6
        assert 0.0 <= latency_hist["p50"] <= latency_hist["p95"]

        assert snapshot["gauges"]["queue.depth"] == 0.0
        assert json.loads(as_json) == json.loads(
            json.dumps(snapshot, sort_keys=True)
        )
        assert {r.batch_size for r in responses} <= {1, 2, 3, 4}

    def test_snapshot_accepts_caller_supplied_stamps(self):
        # The SessionStore now= convention: the registry never reads a
        # clock, so a snapshot stamped by the caller is byte-for-byte
        # reproducible — the property the audit ledger depends on.
        from repro.serve.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.inc("requests.submitted", 2)
        stamped = registry.snapshot(now=42.5, sequence=3)
        assert stamped["now"] == 42.5
        assert stamped["sequence"] == 3
        bare = registry.snapshot()
        assert "now" not in bare and "sequence" not in bare
        assert (registry.to_json(now=42.5, sequence=3)
                == registry.to_json(now=42.5, sequence=3))


class TestResponseMetadata:
    def test_batch_size_and_timings_populated(self, scene, radar_config):
        with InProcessClient(
            quick_service_config(max_batch_size=8),
            default_radar_config=radar_config,
        ) as client:
            responses = client.sense_many(
                [SenseRequest(scene=scene, duration=0.3, seed=s)
                 for s in range(4)]
            )
        for response in responses:
            assert 1 <= response.batch_size <= 4
            assert response.queued_s >= 0.0
            assert response.total_s >= response.queued_s

    def test_request_ids_are_admission_ordered(self, scene, radar_config):
        with InProcessClient(quick_service_config(),
                             default_radar_config=radar_config) as client:
            responses = client.sense_many(
                [SenseRequest(scene=scene, duration=0.3, seed=s)
                 for s in range(3)]
            )
        ids = [r.request_id for r in responses]
        assert ids == sorted(ids)
