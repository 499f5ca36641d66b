"""Numpy-backed autograd engine: the reproduction's PyTorch substitute.

Public surface:

- :class:`Tensor`, :class:`no_grad` — core tensor with reverse-mode autodiff.
- :mod:`repro.tensor.functional` — ``log_softmax``, ``dropout``, losses and
  the segment ops implementing message passing.
- :mod:`repro.tensor.init` — Glorot/Kaiming initializers.
- :mod:`repro.tensor.kernels` — non-differentiable numpy kernels (scatter,
  segment reductions, fused gather→reduce, fused linear) shared with the
  graph substrate.
- :class:`AggregationPlan` — precomputed per-batch segment-reduction
  metadata reused across layers and passes.
- :class:`Workspace` + ``workspace_scope`` — the per-step buffer pool.
"""

from . import functional, init, kernels
from .plan import AggregationPlan
from .tensor import Tensor, is_grad_enabled, no_grad
from .workspace import Workspace, current_workspace, workspace_scope

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "init",
    "kernels",
    "AggregationPlan",
    "Workspace",
    "workspace_scope",
    "current_workspace",
]
