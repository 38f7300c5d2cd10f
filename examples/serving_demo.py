#!/usr/bin/env python3
"""Serving demo: concurrent ghost-injection sensing through ``repro.serve``.

The sensing service turns the simulator into shared infrastructure: many
callers submit sense/spoof requests, compatible requests coalesce into one
vectorized batch, and every caller gets back exactly the result a private
``FmcwRadar.sense`` call would have produced. This demo:

1. builds the office deployment with a deployed RF-Protect tag spoofing a
   walking ghost (the workload of ``rfprotect serve``);
2. fires a burst of concurrent sense requests with distinct seeds through
   an :class:`~repro.serve.client.InProcessClient`;
3. shows the batching telemetry and verifies a repeated seed reproduces
   its result bit for bit — batching never perturbs a request.

Run: ``python examples/serving_demo.py``
"""

import numpy as np

from repro.serve import InProcessClient, SenseRequest, ServiceConfig
from repro.serve.app import build_demo_scene


def main() -> None:
    scene, radar_config = build_demo_scene()
    service_config = ServiceConfig(max_batch_size=16, queue_depth=128,
                                   workers=2)

    with InProcessClient(service_config,
                         default_radar_config=radar_config) as client:
        # A burst of concurrent requests: distinct seeds, one shared scene.
        requests = [SenseRequest(scene=scene, duration=0.5, seed=seed)
                    for seed in range(24)]
        responses = client.sense_many(requests)

        # Determinism spot-check: resubmitting seed 0 (now in a completely
        # different batch) must reproduce its result bit for bit.
        replay = client.sense(SenseRequest(scene=scene, duration=0.5, seed=0))
        snapshot = client.metrics_snapshot()

    batch_sizes = sorted({response.batch_size for response in responses})
    backends = sorted({response.backend for response in responses})
    print(f"served {len(responses)} concurrent sense requests "
          f"(backends: {', '.join(backends)})")
    print(f"batch sizes seen: {batch_sizes} "
          f"(max_batch={service_config.max_batch_size})")

    counters = snapshot["counters"]
    latency = snapshot["histograms"]["request.latency_s"]
    print(f"telemetry: {counters['requests.completed']} completed over "
          f"{counters['batches.executed']} batches, "
          f"latency p50 {float(latency['p50']) * 1e3:.1f}ms / "
          f"p95 {float(latency['p95']) * 1e3:.1f}ms")

    identical = all(
        np.array_equal(a.power, b.power)
        for a, b in zip(responses[0].result.profiles, replay.result.profiles)
    )
    print(f"seed-0 replay bitwise identical across batchings: {identical}")
    if not identical:
        raise SystemExit("determinism violated: replay differed")

    frames = sum(len(response.result.times) for response in responses)
    print(f"the eavesdropper cube stack covers {frames} frames of a room "
          f"whose only 'occupant' is a reflector-spoofed ghost")


if __name__ == "__main__":
    main()
