"""Good fixture for RFP003: env reads go through the typed registry."""

import os

from repro.config import get_nn_dtype


def dtype() -> str:
    return get_nn_dtype()


def unrelated_env() -> str:
    # Non-RF_PROTECT names are out of scope for the registry rule.
    return os.environ.get("HOME", "/root")
