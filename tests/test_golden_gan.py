"""Golden regression digests for GAN training steps, per backend × dtype.

The ``fused`` backend is production; ``naive`` runs the same trainer with
the per-step reference scan (:mod:`repro.nn.reference`) substituted for
the fused LSTM op.

Same contract as the range-angle/tracker digests: a short fixed-seed
training run's loss trajectory is pinned against a checked-in fixture.
Any change to the autograd engine, the sequence kernels, the dtype policy,
or the trainer that moves these numbers must be deliberate — regenerate
with::

    PYTHONPATH=src python tests/test_golden_gan.py

and review the fixture diff like any other code change.

float64 runs are pinned tightly (the only freedom is summation order);
float32 runs get a loose tolerance because every intermediate rounds and
BLAS kernels differ across machines — the digest still catches real
regressions (wrong math changes losses at the first digit, not the
fourth).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.gan.trainer import GanConfig, GanTrainer
from repro.nn import dtype_scope, recurrent
from repro.nn.reference import reference_lstm_sequence
from repro.trajectories import HumanMotionSimulator

GOLDEN_PATH = (Path(__file__).resolve().parent
               / "fixtures" / "golden" / "gan_digests.json")

#: (backend, dtype) -> relative tolerance for the stored loss trajectory.
CONFIGS: dict[tuple[str, str], float] = {
    ("naive", "float64"): 1e-7,
    ("fused", "float64"): 1e-7,
    ("naive", "float32"): 5e-2,
    ("fused", "float32"): 5e-2,
}


def compute_digest(backend: str, dtype: str) -> dict[str, list[float]]:
    """One short fixed-seed training run (3 optimizer steps per network)."""
    dataset = HumanMotionSimulator(
        rng=np.random.default_rng(3), num_points=16
    ).build_dataset(48)
    config = GanConfig(noise_dim=6, hidden_size=10, embed_dim=4,
                       feature_dim=8, batch_size=16, epochs=1,
                       dropout_probability=0.0, seed=1)
    with dtype_scope(dtype), pytest.MonkeyPatch.context() as patch:
        if backend == "naive":
            patch.setattr(recurrent, "lstm_sequence", reference_lstm_sequence)
        trainer = GanTrainer(dataset, config)
        history = trainer.train(epochs=1)
    return {
        "discriminator_losses": [float(v) for v in history.discriminator_losses],
        "generator_losses": [float(v) for v in history.generator_losses],
        "real_scores": [float(v) for v in history.real_scores],
        "fake_scores": [float(v) for v in history.fake_scores],
    }


def _key(backend: str, dtype: str) -> str:
    return f"{backend}.{dtype}"


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, list[float]]]:
    if not GOLDEN_PATH.exists():
        pytest.fail("GAN golden fixture missing; regenerate via "
                    "PYTHONPATH=src python tests/test_golden_gan.py")
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("backend,dtype", sorted(CONFIGS))
def test_gan_step_digest_matches_golden(golden, backend, dtype):
    stored = golden.get(_key(backend, dtype))
    assert stored is not None, f"no golden entry for {backend}/{dtype}"
    actual = compute_digest(backend, dtype)
    tolerance = CONFIGS[(backend, dtype)]
    assert sorted(actual) == sorted(stored)
    for series, values in actual.items():
        np.testing.assert_allclose(
            values, stored[series], rtol=tolerance, atol=tolerance,
            err_msg=f"{backend}/{dtype} {series} drifted from golden",
        )


def test_backends_agree_at_float64():
    """The two backends are the same algorithm: trajectories must track."""
    naive = compute_digest("naive", "float64")
    fused = compute_digest("fused", "float64")
    for series in naive:
        np.testing.assert_allclose(
            fused[series], naive[series], rtol=1e-4, atol=1e-4,
            err_msg=f"fused/naive float64 divergence in {series}",
        )


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    digests = {
        _key(backend, dtype): compute_digest(backend, dtype)
        for backend, dtype in sorted(CONFIGS)
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
