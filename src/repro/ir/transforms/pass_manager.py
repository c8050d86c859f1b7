"""Pass manager with per-pass rewrite statistics and crash hardening.

Statistics matter beyond debugging here: the adaptor's headline metric
(Fig. 3 of the reconstructed evaluation) is "rewrites applied per pass per
kernel", collected through the same mechanism.  Stats are recorded into
``history`` as each pass completes, so a mid-pipeline failure keeps the
record of everything that already ran.

Failures are structured: a pass that raises becomes a
:class:`repro.diagnostics.PassExecutionError`, a post-pass verifier
rejection becomes a :class:`repro.diagnostics.PassVerificationError`, and
when a :class:`repro.diagnostics.PassGuard` is attached the module is
rolled back to its pre-pass snapshot and a crash reproducer lands on disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ...diagnostics.engine import Diagnostic, Severity
from ...diagnostics.errors import PassExecutionError, PassVerificationError
from ...diagnostics.guard import PassGuard
from ...observability import get_statistics, get_tracer
from ..module import Function, Module

__all__ = [
    "FunctionPass",
    "ModulePass",
    "PassManager",
    "PassStatistics",
    "count_instructions",
]


def count_instructions(module: Module) -> int:
    """Instruction count over every defined function (IR-churn metric)."""
    return sum(
        len(block.instructions)
        for fn in module.defined_functions()
        for block in fn.blocks
    )


@dataclass
class PassStatistics:
    """Aggregated result of one pass over one module.

    ``touched`` names the functions the pass actually modified.  Function
    passes populate it automatically (rewrite-count and version-counter
    deltas per function); module passes that rewrite in place should call
    :meth:`touch` so incremental re-verification can stay narrow — a pass
    reporting rewrites without naming any touched function forces a
    conservative full-module verify.
    """

    name: str
    rewrites: int = 0
    seconds: float = 0.0
    details: Dict[str, int] = field(default_factory=dict)
    touched: Set[str] = field(default_factory=set)

    def bump(self, key: str, amount: int = 1) -> None:
        self.rewrites += amount
        self.details[key] = self.details.get(key, 0) + amount

    def touch(self, function_name: str) -> None:
        self.touched.add(function_name)


class ModulePass:
    """Base class: override :meth:`run_on_module`, report via ``stats``.

    ``declares_touched`` is an opt-in promise that the pass reports *every*
    function it mutates through ``stats.touch`` (or mutation APIs that bump
    ``Function.version``).  Only then may the manager narrow post-pass
    re-verification to the reported functions; without the promise a module
    pass always gets a full-module verify.  Plain function passes are
    trusted implicitly — their contract is to mutate only the function they
    are handed.
    """

    name = "<module-pass>"
    declares_touched = False

    def run_on_module(self, module: Module, stats: PassStatistics) -> None:
        raise NotImplementedError


class FunctionPass(ModulePass):
    """Base class for per-function passes; skips declarations."""

    name = "<function-pass>"

    def run_on_module(self, module: Module, stats: PassStatistics) -> None:
        for fn in module.defined_functions():
            before_rewrites = stats.rewrites
            before_version = fn.version
            self.run_on_function(fn, stats)
            if stats.rewrites != before_rewrites or fn.version != before_version:
                stats.touched.add(fn.name)

    def run_on_function(self, fn: Function, stats: PassStatistics) -> None:
        raise NotImplementedError


class PassManager:
    def __init__(self, verify_each: bool = True, guard: Optional[PassGuard] = None):
        self.passes: List[ModulePass] = []
        self.verify_each = verify_each
        self.guard = guard
        self.history: List[PassStatistics] = []

    def add(self, pass_: ModulePass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def _fail(
        self,
        error_cls,
        module: Module,
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

    def _plan(self) -> List[List[ModulePass]]:
        """Group the pipeline for execution.

        Without a guard (rollback needs per-pass snapshots, so a guarded
        manager never fuses), maximal runs of consecutive *plain* function
        passes — ones that did not override
        :meth:`FunctionPass.run_on_module` — form fused groups that execute
        in a single walk over the module's functions.  Everything else runs
        as a singleton group, preserving pass order.
        """
        if self.guard is not None:
            return [[p] for p in self.passes]
        plan: List[List[ModulePass]] = []
        current: List[ModulePass] = []
        for pass_ in self.passes:
            fusible = (
                isinstance(pass_, FunctionPass)
                and type(pass_).run_on_module is FunctionPass.run_on_module
            )
            if fusible:
                current.append(pass_)
            else:
                if current:
                    plan.append(current)
                    current = []
                plan.append([pass_])
        if current:
            plan.append(current)
        return plan

    @staticmethod
    def _verify_targets(
        module: Module,
        stats_list: List[PassStatistics],
        versions_before: Dict[int, int],
    ) -> Optional[Set[str]]:
        """Which functions need re-verifying after ``stats_list``'s passes.

        Returns a set of function names (possibly empty — nothing changed,
        skip verification) or ``None`` for a conservative full-module
        verify: the pass reported rewrites but its dirty tracking named no
        function, so we cannot localise the damage.
        """
        touched: Set[str] = set()
        for stats in stats_list:
            touched |= stats.touched
        for fn in module.defined_functions():
            before = versions_before.get(id(fn))
            if before is None or fn.version != before:
                touched.add(fn.name)
        if not touched and any(stats.rewrites for stats in stats_list):
            return None
        return touched

    def _verify_after(
        self,
        verify_module,
        tracer,
        module: Module,
        snapshot,
        pipeline_tail: List[str],
        label: str,
        targets: Optional[Set[str]],
    ) -> None:
        if targets is not None and not targets:
            return  # nothing changed; previous verification still holds
        with tracer.span("verify", category="verify") as span:
            if targets is not None:
                span.set(functions=sorted(targets))
            try:
                verify_module(module, functions=targets)
            except Exception as exc:
                self._fail(
                    PassVerificationError,
                    module,
                    snapshot,
                    pipeline_tail,
                    f"IR verification failed after {label}: {exc}",
                    exc,
                )

    def run(self, module: Module) -> List[PassStatistics]:
        from ..verifier import is_recorded_clean, record_clean, verify_module

        tracer = get_tracer()
        registry = get_statistics()
        names = [p.name for p in self.passes]
        run_stats: List[PassStatistics] = []
        if registry.enabled and self.passes:
            registry.bump("module", "instructions-before", count_instructions(module))
        # Deferred verification (no guard): trusted passes bank their
        # touched-function sets in ``deferred`` and the whole run is
        # re-verified once at the end — the pipeline-boundary verification
        # discipline production compilers use.  Untrusted passes still
        # trigger an immediate full verify (which also discharges anything
        # banked so far), and a guarded manager verifies after every pass
        # because rollback needs to know *which* pass broke the module.
        defer = self.guard is None and self.verify_each
        deferred: List[PassStatistics] = []
        versions = (
            {id(fn): fn.version for fn in module.functions} if defer else None
        )
        # Whether the module is known whole-module clean at the point the
        # ``versions`` snapshot was taken (single-element list so the
        # untrusted-pass full-verify path can update it).
        clean_cell = [defer and is_recorded_clean(module)]
        index = 0
        for group in self._plan():
            if len(group) == 1:
                self._run_single(
                    module, group[0], names[index:], run_stats,
                    tracer, registry, verify_module,
                    defer, deferred, versions, clean_cell,
                )
            else:
                self._run_fused(
                    module, group, names[index:], run_stats,
                    tracer, registry, verify_module, deferred,
                )
            index += len(group)
        if defer and deferred:
            targets = self._verify_targets(module, deferred, versions)
            self._verify_after(
                verify_module, tracer, module, None,
                [deferred[-1].name], "pipeline (deferred verification)",
                targets,
            )
            if targets and clean_cell[0]:
                # Narrowed flush covered every function changed since a
                # recorded-clean state: the whole module is clean again.
                record_clean(module)
        return run_stats

    def _run_single(
        self,
        module: Module,
        pass_: ModulePass,
        tail: List[str],
        run_stats: List[PassStatistics],
        tracer,
        registry,
        verify_module,
        defer: bool = False,
        deferred: Optional[List[PassStatistics]] = None,
        run_versions: Optional[Dict[int, int]] = None,
        clean_cell: Optional[List[bool]] = None,
    ) -> None:
        snapshot = self.guard.snapshot(module) if self.guard is not None else None
        stats = PassStatistics(pass_.name)
        before = count_instructions(module) if registry.enabled else 0
        trusted = getattr(pass_, "declares_touched", False) or (
            isinstance(pass_, FunctionPass)
            and type(pass_).run_on_module is FunctionPass.run_on_module
        )
        incremental = trusted
        versions = (
            {id(fn): fn.version for fn in module.functions}
            if incremental and not defer
            else None
        )
        with tracer.span(pass_.name, category="pass") as span:
            start = time.perf_counter()
            try:
                pass_.run_on_module(module, stats)
            except Exception as exc:
                stats.seconds = time.perf_counter() - start
                self._fail(
                    PassExecutionError,
                    module,
                    snapshot,
                    tail,
                    f"pass {pass_.name!r} raised "
                    f"{type(exc).__name__}: {exc}",
                    exc,
                )
            stats.seconds = time.perf_counter() - start
            span.set(rewrites=stats.rewrites, **stats.details)
            # Record as the pass completes: a later failure must not lose
            # the stats of passes that already ran.
            run_stats.append(stats)
            self.history.append(stats)
            if registry.enabled:
                self._record_counters(registry, pass_.name, stats, before, module)
            if self.verify_each:
                if defer and trusted:
                    assert deferred is not None
                    deferred.append(stats)  # discharged at the run's flush
                    return
                targets = (
                    self._verify_targets(module, [stats], versions)
                    if incremental and not defer
                    else None
                )
                self._verify_after(
                    verify_module, tracer, module, snapshot, tail,
                    f"pass {pass_.name!r}", targets,
                )
                if defer:
                    # The untrusted pass forced a full verify, which also
                    # covered everything banked so far: restart deferral
                    # from the now-known-good state.
                    assert deferred is not None and run_versions is not None
                    deferred.clear()
                    run_versions.clear()
                    run_versions.update(
                        {id(fn): fn.version for fn in module.functions}
                    )
                    if clean_cell is not None:
                        clean_cell[0] = True

    def _run_fused(
        self,
        module: Module,
        group: List[ModulePass],
        tail: List[str],
        run_stats: List[PassStatistics],
        tracer,
        registry,
        verify_module,
        deferred: List[PassStatistics],
    ) -> None:
        """Run a fused group of function passes in one walk.

        Per-pass attribution is preserved: each pass still gets its own
        statistics object, its own category-``"pass"`` span (with wall time
        accumulated across functions) and its own churn-ledger entries, in
        pipeline order — exactly the shape a guarded, unfused run produces.
        The group's touched sets are banked in ``deferred`` and verified at
        the run's single flush.  Fused groups never run under a guard (see
        :meth:`_plan`), so there is no per-pass snapshot to maintain.
        """
        size = len(group)
        group_stats = [PassStatistics(p.name) for p in group]
        times = [0.0] * size
        deltas = [0] * size
        walk_start_rel = tracer._now() if tracer.enabled else 0.0
        for fn in module.defined_functions():
            for j, pass_ in enumerate(group):
                stats = group_stats[j]
                before_rewrites = stats.rewrites
                before_version = fn.version
                before_count = (
                    sum(len(b.instructions) for b in fn.blocks)
                    if registry.enabled
                    else 0
                )
                start = time.perf_counter()
                try:
                    pass_.run_on_function(fn, stats)
                except Exception as exc:
                    times[j] += time.perf_counter() - start
                    for k in range(j):
                        group_stats[k].seconds = times[k]
                        run_stats.append(group_stats[k])
                        self.history.append(group_stats[k])
                    stats.seconds = times[j]
                    self._fail(
                        PassExecutionError,
                        module,
                        None,
                        tail[j:],
                        f"pass {pass_.name!r} raised "
                        f"{type(exc).__name__}: {exc}",
                        exc,
                    )
                times[j] += time.perf_counter() - start
                if stats.rewrites != before_rewrites or fn.version != before_version:
                    stats.touched.add(fn.name)
                if registry.enabled:
                    deltas[j] += (
                        sum(len(b.instructions) for b in fn.blocks) - before_count
                    )
        # Emit per-pass spans/stats in pipeline order.  Span starts tile the
        # walk's wall-clock window so trace exports stay monotonic.
        base_offset = 0.0
        for j, pass_ in enumerate(group):
            stats = group_stats[j]
            stats.seconds = times[j]
            with tracer.span(pass_.name, category="pass") as span:
                pass
            if tracer.enabled:
                span.start = walk_start_rel + base_offset
                span.duration = times[j]
            base_offset += times[j]
            span.set(rewrites=stats.rewrites, **stats.details)
            run_stats.append(stats)
            self.history.append(stats)
            if registry.enabled:
                registry.record_details(pass_.name, stats.details)
                registry.bump(pass_.name, "rewrites", stats.rewrites)
                delta = deltas[j]
                if delta < 0:
                    registry.bump(pass_.name, "instructions-deleted", -delta)
                    registry.bump("module", "instructions-deleted", -delta)
                elif delta > 0:
                    registry.bump(pass_.name, "instructions-created", delta)
        if self.verify_each:
            deferred.extend(group_stats)

    @staticmethod
    def _record_counters(registry, name: str, stats: PassStatistics,
                         before: int, module: Module) -> None:
        """Fold one pass's rewrite details into the ambient registry.

        Only actual work is recorded — a no-op pass leaves no counters —
        plus module-level instruction churn so deletions are assertable.
        """
        registry.record_details(name, stats.details)
        registry.bump(name, "rewrites", stats.rewrites)
        after = count_instructions(module)
        if after < before:
            registry.bump(name, "instructions-deleted", before - after)
            registry.bump("module", "instructions-deleted", before - after)
        elif after > before:
            registry.bump(name, "instructions-created", after - before)

    def total_rewrites(self) -> int:
        return sum(s.rewrites for s in self.history)
