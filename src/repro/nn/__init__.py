"""A from-scratch numpy autograd engine and neural-network toolkit.

The paper trains its trajectory cGAN in PyTorch; this environment has no
deep-learning framework, so the substrate is built here: a reverse-mode
autodiff :class:`~repro.nn.tensor.Tensor`, differentiable ops
(`functional`), layers including LSTM and bidirectional LSTM (`layers`,
`recurrent`), optimizers (`optim`), initializers (`init`) and state
(de)serialization (`serialization`). Everything is plain numpy and is
validated against numerical gradients in the test suite.

Recurrent layers run each sequence through one fused BPTT op
(:func:`~repro.nn.functional.lstm_sequence`); the per-step scan it is
tested against lives in :mod:`repro.nn.reference`, which only tests and
benchmarks import. The leaf/parameter dtype is env-configurable through
:mod:`repro.config` (``RF_PROTECT_NN_DTYPE=float32|float64``, see
:func:`~repro.nn.tensor.dtype_scope`). Per-op wall-time instrumentation
lives in :mod:`repro.nn.metrics`.
"""

from repro.nn import functional
from repro.nn.layers import Dropout, Embedding, Linear, Module, ReLU, Sequential, Sigmoid, Tanh
from repro.nn.metrics import nn_metrics
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.recurrent import BiLSTM, LSTM, LSTMCell
from repro.nn.serialization import load_state, save_state
from repro.nn.tensor import (
    Tensor,
    default_dtype,
    dtype_scope,
    resolve_dtype,
    set_default_dtype,
)

__all__ = [
    "Adam",
    "BiLSTM",
    "Dropout",
    "Embedding",
    "LSTM",
    "LSTMCell",
    "Linear",
    "Module",
    "Optimizer",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "Tensor",
    "default_dtype",
    "dtype_scope",
    "functional",
    "load_state",
    "nn_metrics",
    "resolve_dtype",
    "save_state",
    "set_default_dtype",
]
