"""Numerical toolbox for quantum superchannels with diagonal-unitary,
diagonal-orthogonal, dephasing and Pauli covariance structure."""

__version__ = "0.1.0"

from .linalg import (
    DEFAULT_TOL,
    MultipartiteOperator,
    is_hermitian,
    is_psd,
    kron,
    partial_trace,
    partial_transpose,
    permute_subsystems,
)
from .channels import ChoiChannel, compose_channels, validate_channel
from .superchannels import (
    SuperChoi,
    apply_to_channel,
    compose_superchannels,
    representing_apply,
    sandwich_superchannel,
    tp_preserving_check,
    validate_superchannel,
)

__all__ = [
    "DEFAULT_TOL",
    "MultipartiteOperator",
    "ChoiChannel",
    "SuperChoi",
    "is_hermitian",
    "is_psd",
    "kron",
    "partial_trace",
    "partial_transpose",
    "permute_subsystems",
    "compose_channels",
    "validate_channel",
    "apply_to_channel",
    "compose_superchannels",
    "representing_apply",
    "sandwich_superchannel",
    "tp_preserving_check",
    "validate_superchannel",
]
