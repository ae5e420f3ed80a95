"""Validate phase: update primitives, SAPT, batching (Chapter 5)."""

from .batch import RunBatcher, spec_for_run
from .errors import UpdateError
from .primitives import UpdateRequest, UpdateTree
from .sapt import AccessPath, Sapt

__all__ = ["AccessPath", "RunBatcher", "Sapt", "UpdateError",
           "UpdateRequest", "UpdateTree", "spec_for_run"]
