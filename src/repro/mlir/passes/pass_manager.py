"""Pass manager for mini-MLIR modules (mirrors the IR-side manager).

Carries the same hardening as :class:`repro.ir.transforms.PassManager`:
per-pass stats recorded as they complete, structured
:class:`repro.diagnostics.PassExecutionError` /
:class:`repro.diagnostics.PassVerificationError` failures, and an optional
:class:`repro.diagnostics.PassGuard` for snapshot/rollback plus crash
reproducers (kind ``"mlir"``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...diagnostics.engine import Diagnostic, Severity
from ...diagnostics.errors import PassExecutionError, PassVerificationError
from ...diagnostics.guard import PassGuard
from ...observability import get_statistics, get_tracer
from ..dialects.builtin import ModuleOp

__all__ = ["MLIRPass", "MLIRPassManager", "MLIRPassStatistics"]


@dataclass
class MLIRPassStatistics:
    name: str
    rewrites: int = 0
    seconds: float = 0.0
    details: Dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, amount: int = 1) -> None:
        self.rewrites += amount
        self.details[key] = self.details.get(key, 0) + amount


class MLIRPass:
    name = "<mlir-pass>"

    def run(self, module: ModuleOp, stats: MLIRPassStatistics) -> None:
        raise NotImplementedError


class MLIRPassManager:
    def __init__(self, verify_each: bool = True, guard: Optional[PassGuard] = None):
        self.passes: List[MLIRPass] = []
        self.verify_each = verify_each
        self.guard = guard
        self.history: List[MLIRPassStatistics] = []

    def add(self, pass_: MLIRPass) -> "MLIRPassManager":
        self.passes.append(pass_)
        return self

    def _fail(
        self,
        error_cls,
        module: ModuleOp,
        snapshot,
        pipeline_tail: List[str],
        message: str,
        cause: Exception,
    ) -> None:
        diagnostic = Diagnostic(
            severity=Severity.ERROR,
            code=error_cls.code,
            message=message,
            pass_name=pipeline_tail[0],
        )
        path = None
        if self.guard is not None and snapshot is not None:
            path = self.guard.failure(
                module, snapshot, pipeline_tail, self.verify_each, diagnostic
            )
        raise error_cls(
            message,
            pass_name=pipeline_tail[0],
            diagnostic=diagnostic,
            reproducer_path=path,
        ) from cause

    def run(self, module: ModuleOp) -> List[MLIRPassStatistics]:
        from ..verifier import verify_module

        tracer = get_tracer()
        registry = get_statistics()
        names = [p.name for p in self.passes]
        run_stats: List[MLIRPassStatistics] = []
        # Deferral (no guard): rewrites accumulate and one verify runs at
        # each *boundary* — the end of the pipeline, or the pass right
        # before ``scf-to-cf`` (whose cf-level output the structured
        # verifier cannot model, so it is the last verifiable point).
        defer = self.guard is None and self.verify_each
        pending = False
        for i, pass_ in enumerate(self.passes):
            snapshot = self.guard.snapshot(module) if self.guard is not None else None
            stats = MLIRPassStatistics(pass_.name)
            with tracer.span(pass_.name, category="pass") as span:
                start = time.perf_counter()
                try:
                    pass_.run(module, stats)
                except Exception as exc:
                    stats.seconds = time.perf_counter() - start
                    self._fail(
                        PassExecutionError,
                        module,
                        snapshot,
                        names[i:],
                        f"MLIR pass {pass_.name!r} raised "
                        f"{type(exc).__name__}: {exc}",
                        exc,
                    )
                stats.seconds = time.perf_counter() - start
                span.set(rewrites=stats.rewrites, **stats.details)
                run_stats.append(stats)
                self.history.append(stats)
                if registry.enabled:
                    registry.record_details(pass_.name, stats.details)
                    registry.bump(pass_.name, "rewrites", stats.rewrites)
                if defer:
                    # A pass that reported no rewrites left the module as
                    # it was — the previous verification holds.  (MLIR
                    # passes report every mutation through ``stats.bump``;
                    # that convention is what makes deferral sound.)
                    pending = pending or stats.rewrites > 0
                next_name = names[i + 1] if i + 1 < len(names) else None
                at_boundary = next_name is None or next_name == "scf-to-cf"
                if (
                    self.verify_each
                    and pass_.name not in ("scf-to-cf",)
                    and (not defer or (pending and at_boundary))
                ):
                    # cf-level IR uses block successors the structured verifier
                    # does not model; ConvertToLLVM's verifier covers it.
                    pending = False
                    with tracer.span("verify", category="verify"):
                        try:
                            verify_module(module)
                        except Exception as exc:
                            self._fail(
                                PassVerificationError,
                                module,
                                snapshot,
                                names[i:],
                                f"MLIR verification failed after "
                                f"{pass_.name!r}: {exc}",
                                exc,
                            )
        return run_stats
