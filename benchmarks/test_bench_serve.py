"""Serving-throughput benches for the micro-batching sensing service.

Performance-regression guard for ``repro.serve``: at 64 concurrent
in-process clients issuing small sense requests, the micro-batched service
(requests coalesced into fused vectorized batches) must clear >= 3x the
throughput of the same service forced to execute one request at a time
(``max_batch_size=1``, one worker) — the configuration that models a
naive request-per-call server.

The workload is deliberately small per request (64-sample chirp, 2 frames,
noise-free static-clutter scene in a small room): per-request dispatch
overhead is exactly what micro-batching amortizes, and a compact request
keeps the shared GEMM/FFT arithmetic from drowning that signal on small
CI hosts.
"""

import time

import numpy as np
import pytest

from repro.geometry import Rectangle
from repro.radar import RadarConfig, Scene
from repro.serve import InProcessClient, SenseRequest, ServiceConfig
from repro.signal.chirp import ChirpConfig

NUM_CLIENTS = 64
SENSE_DURATION_S = 0.2


@pytest.fixture(scope="module")
def serve_workload():
    """64 small sense requests against a static-clutter room."""
    config = RadarConfig(chirp=ChirpConfig(duration=3.2e-5),
                         position=(1.25, 0.1), noise_std=0.0)
    room = Rectangle.from_size(2.5, 2.5)
    scene = Scene(room)
    scene.add_static((1.0, 2.0), rcs=4.0)
    scene.add_static((2.2, 1.1), rcs=2.0)
    requests = [
        SenseRequest(scene=scene, duration=SENSE_DURATION_S, seed=seed)
        for seed in range(NUM_CLIENTS)
    ]
    return config, requests


def best_of(fn, rounds=3):
    elapsed = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - started)
    return min(elapsed)


BATCHED = ServiceConfig(max_batch_size=32, queue_depth=2 * NUM_CLIENTS,
                        workers=2)
SEQUENTIAL = ServiceConfig(max_batch_size=1, queue_depth=2 * NUM_CLIENTS,
                           workers=1)


@pytest.mark.benchmark(group="serve")
def test_bench_serve_batched_burst(benchmark, serve_workload):
    """One 64-client burst through the micro-batched service."""
    radar_config, requests = serve_workload
    with InProcessClient(BATCHED, default_radar_config=radar_config) as client:
        client.sense_many(requests)  # warm radar/plane memos and the pool
        responses = benchmark(client.sense_many, requests)
    assert len(responses) == NUM_CLIENTS
    assert max(response.batch_size for response in responses) > 1


@pytest.mark.benchmark(group="serve")
def test_bench_serve_batched_vs_sequential_speedup(serve_workload):
    """Micro-batched vs one-request-at-a-time service: >= 3x at 64 clients.

    Measured directly (best of 3) rather than through pytest-benchmark so
    the throughput ratio can be asserted as a regression guard.
    """
    radar_config, requests = serve_workload

    with InProcessClient(SEQUENTIAL,
                         default_radar_config=radar_config) as client:
        client.sense_many(requests)  # warm-up
        sequential_s = best_of(lambda: client.sense_many(requests))
        assert all(response.batch_size == 1
                   for response in client.sense_many(requests))

    with InProcessClient(BATCHED,
                         default_radar_config=radar_config) as client:
        client.sense_many(requests)  # warm-up
        batched_s = best_of(lambda: client.sense_many(requests))
        batched_responses = client.sense_many(requests)
    assert max(r.batch_size for r in batched_responses) > 1

    speedup = sequential_s / batched_s
    print(f"\n{NUM_CLIENTS} concurrent clients x "
          f"{SENSE_DURATION_S}s sense requests: "
          f"sequential {sequential_s * 1e3:.1f} ms "
          f"({NUM_CLIENTS / sequential_s:.0f} req/s), "
          f"micro-batched {batched_s * 1e3:.1f} ms "
          f"({NUM_CLIENTS / batched_s:.0f} req/s), "
          f"speedup {speedup:.1f}x")

    # Same requests, same seeds: the two scheduling modes must agree
    # bitwise (determinism is independent of batching).
    with InProcessClient(SEQUENTIAL,
                         default_radar_config=radar_config) as client:
        sequential_responses = client.sense_many(requests)
    for batched_r, sequential_r in zip(batched_responses,
                                       sequential_responses):
        assert np.array_equal(batched_r.result.raw_profiles,
                              sequential_r.result.raw_profiles)

    assert speedup >= 3.0
