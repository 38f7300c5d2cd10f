"""Reference LSTM scan: the per-step graph the fused op is tested against.

:func:`reference_lstm_sequence` unrolls one
:func:`~repro.nn.functional.lstm_cell` graph node per timestep. It has the
signature of :func:`repro.nn.functional.lstm_sequence`, so a test can
substitute it for ``repro.nn.recurrent.lstm_sequence`` and run any model
on the reference path. Only tests and benchmarks import this module.
"""

from __future__ import annotations

from repro.nn.functional import lstm_cell, stack
from repro.nn.tensor import Tensor

__all__ = ["reference_lstm_sequence"]


def reference_lstm_sequence(inputs: Tensor, w_ih: Tensor, w_hh: Tensor,
                            bias: Tensor, h0: Tensor, c0: Tensor) -> Tensor:
    """One LSTM layer over ``(T, B, D)`` as ``T`` per-step graph nodes."""
    h, c = h0, c0
    outputs: list[Tensor] = []
    for t in range(inputs.shape[0]):
        h, c = lstm_cell(inputs[t] @ w_ih + h @ w_hh + bias, c)
        outputs.append(h)
    return stack(outputs, axis=0)
