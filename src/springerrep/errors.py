"""Shared exception for failed internal verifications."""

from __future__ import annotations

from typing import Any


class VerificationError(Exception):
    """A cross-check that should hold mathematically came out false.

    Carries a ``witness`` dictionary locating the failure; raised by the
    oracle comparisons, the Coxeter checks, and the span certificates.
    """

    def __init__(self, message: str, witness: dict[str, Any] | None = None):
        super().__init__(message)
        self.witness = witness or {}
