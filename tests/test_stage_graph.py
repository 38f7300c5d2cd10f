"""Tests for the stage-graph executor.

A plan is a sequence of ``(Stage, function)`` pairs; these tests pin that
:func:`execute` runs each function against the shared context and times
it into its stage's histogram — for direct sense calls, standalone
receive plans, and the serving engine's fused plan alike — and that no
production module imports the reference loops the kernels are tested
against.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.geometry import Rectangle
from repro.radar import (
    RECEIVE_PLAN,
    SENSE_PLAN,
    ExecutionContext,
    FmcwRadar,
    RadarConfig,
    Scene,
    Stage,
    UniformLinearArray,
    execute,
    stage_metrics,
)
from repro.radar.reference import reference_receive
from repro.serve.engine import ExecutionItem, execute_batch
from repro.serve.request import BatchKey, SenseRequest
from repro.signal.chirp import ChirpConfig
from repro.types import Trajectory

ATOL = 1e-10


@pytest.fixture(scope="module")
def config() -> RadarConfig:
    return RadarConfig(chirp=ChirpConfig(duration=6.4e-5))


@pytest.fixture(scope="module")
def scene() -> Scene:
    room = Rectangle(0.0, 0.0, 8.0, 6.0)
    built = Scene(room)
    built.add_static((2.0, 3.0))
    walk = Trajectory(np.linspace([2.0, 2.0], [5.0, 4.0], 30), dt=0.1)
    built.add_human(walk)
    return built


def snapshot_counts() -> dict[str, int]:
    histograms = stage_metrics().snapshot()["histograms"]
    return {name: data["count"] for name, data in histograms.items()}


class TestExecutor:
    def test_explicit_kernel_binding_runs_and_is_labeled(self, config):
        calls = []

        def custom(ctx: ExecutionContext) -> None:
            calls.append(ctx)
            ctx.workspace["marker"] = 42

        ctx = ExecutionContext(array=UniformLinearArray(config),
                               times=np.zeros(1))
        before = snapshot_counts()
        execute(((Stage.BEAMFORM, custom),), ctx)
        after = snapshot_counts()
        assert calls == [ctx]
        assert ctx.workspace["marker"] == 42
        assert (after["stages.beamform.wall_s"]
                == before.get("stages.beamform.wall_s", 0) + 1)

    def test_sense_populates_every_stage_histogram(self, config, scene):
        radar = FmcwRadar(config)
        before = snapshot_counts()
        result = radar.sense(scene, 0.5, rng=np.random.default_rng(3))
        result.tracks()
        after = snapshot_counts()
        for stage in Stage:
            name = f"stages.{stage.value}.wall_s"
            assert after.get(name, 0) > before.get(name, 0), name


    def test_receive_plan_reusable_standalone(self, config):
        """RECEIVE_PLAN processes a raw beat cube without a scene."""
        rng = np.random.default_rng(9)
        shape = (4, config.num_antennas, config.chirp.num_samples)
        frames = 0.05 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        times = np.arange(4) / config.frame_rate
        ctx = ExecutionContext(
            array=UniformLinearArray(config), times=times, config=config,
            max_range=8.0, min_range=config.min_range,
        )
        ctx.workspace["frames"] = frames
        execute(RECEIVE_PLAN, ctx)
        reference, _ = reference_receive(FmcwRadar(config), times, frames,
                                         8.0)
        for ref, fast in zip(reference, ctx.workspace["profiles"]):
            np.testing.assert_allclose(fast.power, ref.power, atol=ATOL)


class TestServeInstrumentation:
    def test_execute_batch_lands_in_stage_histograms(self, config, scene):
        requests = [SenseRequest(scene=scene, duration=0.4, seed=s)
                    for s in (0, 1)]
        key = BatchKey(config=config, max_range=10.0)
        items = [ExecutionItem(request_id=i, request=r, key=key)
                 for i, r in enumerate(requests)]
        before = snapshot_counts()
        outcomes = execute_batch(items)
        after = snapshot_counts()
        assert all(o.result is not None for o in outcomes)
        for stage in (Stage.EMIT, Stage.SYNTHESIZE, Stage.RANGE_FFT,
                      Stage.BACKGROUND_SUBTRACT, Stage.BEAMFORM):
            name = f"stages.{stage.value}.wall_s"
            assert after.get(name, 0) > before.get(name, 0), name

    def test_plan_constants_cover_the_chain(self):
        assert [stage for stage, _ in SENSE_PLAN] == [
            Stage.EMIT, Stage.SYNTHESIZE, Stage.RANGE_FFT,
            Stage.BACKGROUND_SUBTRACT, Stage.BEAMFORM,
        ]
        assert RECEIVE_PLAN == SENSE_PLAN[2:]


REFERENCE_MODULES = {"repro.radar.reference", "repro.nn.reference"}


def test_no_production_module_imports_the_reference_loops():
    package = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.stem == "reference":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {node.module or ""}
                names |= {f"{node.module}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & REFERENCE_MODULES:
                offenders.append(f"{path.relative_to(package)}:{node.lineno}")
    assert offenders == []
