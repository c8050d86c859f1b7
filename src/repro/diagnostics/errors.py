"""Structured error hierarchy for the whole compilation stack.

Every failure the stack can produce on purpose derives from
:class:`CompilationError` and carries a stable error code (see
:data:`repro.diagnostics.engine.ERROR_CODES`) plus, where available, a
:class:`repro.diagnostics.engine.Diagnostic` with pass/function/instruction
attribution.  Callers that want a degradation path catch
``CompilationError``; anything else escaping the stack is a genuine bug —
the fuzz invariant in :mod:`repro.testing.fault_injection` enforces exactly
that split.

Subclasses double-inherit from the builtin exception they historically
replaced (``ValueError`` for configuration mistakes, ``RuntimeError`` for
pass failures) so existing ``except`` clauses keep working.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "CompilationError",
    "PipelineConfigError",
    "InputRejectionError",
    "PassExecutionError",
    "PassVerificationError",
    "FlowError",
    "ReplayError",
    "CacheError",
    "CacheFormatError",
    "ServiceError",
    "DaemonError",
    "ProtocolError",
    "LintError",
]


class CompilationError(Exception):
    """Base of every structured failure raised by the repro stack."""

    code = "REPRO-E000"

    def __init__(self, message: str, *, diagnostic=None):
        super().__init__(message)
        self.message = message
        self.diagnostic = diagnostic  # Optional[Diagnostic]


class PipelineConfigError(CompilationError, ValueError):
    """The pipeline was configured with invalid options (unknown pass
    names, bad ``on_error`` modes, ...)."""

    code = "REPRO-CFG-001"


class InputRejectionError(CompilationError):
    """The input module failed validation before the pipeline ran."""

    code = "REPRO-INPUT-001"


class PassExecutionError(CompilationError, RuntimeError):
    """A transform pass raised mid-mutation.

    When a pass guard was active, the module has been rolled back to its
    pre-pass state and ``reproducer_path`` names the crash reproducer.
    """

    code = "REPRO-PASS-001"

    def __init__(
        self,
        message: str,
        *,
        pass_name: Optional[str] = None,
        diagnostic=None,
        reproducer_path: Optional[str] = None,
    ):
        super().__init__(message, diagnostic=diagnostic)
        self.pass_name = pass_name
        self.reproducer_path = reproducer_path


class PassVerificationError(PassExecutionError):
    """The post-pass verifier rejected the module a pass produced."""

    code = "REPRO-PASS-002"


class FlowError(CompilationError):
    """An end-to-end flow stage failed for a non-structured reason."""

    code = "REPRO-FLOW-001"

    def __init__(
        self,
        message: str,
        *,
        flow: Optional[str] = None,
        stage: Optional[str] = None,
        diagnostic=None,
    ):
        super().__init__(message, diagnostic=diagnostic)
        self.flow = flow
        self.stage = stage


class ReplayError(CompilationError):
    """A crash reproducer could not be loaded or replayed."""

    code = "REPRO-REPLAY-001"


class CacheError(CompilationError):
    """A compilation-cache entry could not be read back.

    The cache degrades to a recompile on this, so the error only escapes
    when a caller asks the cache layer for a mandatory load
    (``CompilationCache.load(..., required=True)``).
    """

    code = "REPRO-CACHE-001"

    def __init__(self, message: str, *, path: Optional[str] = None, diagnostic=None):
        super().__init__(message, diagnostic=diagnostic)
        self.path = path


class CacheFormatError(CacheError):
    """A cache entry was written under another entry-format version: a
    stale entry, not a damaged one (both degrade to a recompile)."""

    code = "REPRO-CACHE-002"


class ServiceError(CompilationError):
    """A compilation-service worker failed for a non-structured reason."""

    code = "REPRO-SVC-001"

    def __init__(self, message: str, *, kernel: Optional[str] = None, diagnostic=None):
        super().__init__(message, diagnostic=diagnostic)
        self.kernel = kernel


class DaemonError(ServiceError):
    """The compile daemon refused a request under back-pressure.

    Raised client-side when a batch is rejected because the daemon's
    bounded queue (``--max-queue``) is full; the request was *not*
    compiled and may be retried once in-flight work drains.
    """

    code = "REPRO-SVC-004"


class ProtocolError(ServiceError):
    """A daemon wire message violated the NDJSON protocol schema.

    Covers undecodable lines, missing/unknown ``op`` fields, protocol
    version skew, and payload-digest mismatches on either side of the
    socket.
    """

    code = "REPRO-SVC-005"


class LintError(CompilationError):
    """The post-adaptor lint gate found error-severity violations of the
    HLS-readable-IR contract.

    ``lint_report`` carries the full :class:`repro.lint.LintReport`; the
    individual findings keep their own stable ``REPRO-LINT-*`` codes.
    """

    code = "REPRO-LINT-000"

    def __init__(self, message: str, *, lint_report=None, diagnostic=None):
        super().__init__(message, diagnostic=diagnostic)
        self.lint_report = lint_report
