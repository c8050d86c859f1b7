"""Fused-pipeline attribution tests.

An unguarded pass manager runs maximal runs of plain function passes in a
*single walk* over the module (one pass-ordering barrier instead of N
module traversals) and verifies once at the end.  A guarded manager never
fuses, because rollback and blame need per-pass snapshots and per-pass
verification, so it is the N-walk reference.  Fusion is an execution
strategy, not a semantic change, so everything observable must match the
guarded run: the transformed IR, the category-``"pass"`` span sequence,
per-pass rewrite statistics and touched sets, and the instruction-churn
ledger.  These tests pin that on every MINI suite kernel.

The fault-injection tests prove the guard attributes an injected
crash/corruption to the *logical* pass and rolls the module back to that
pass's pre-state.
"""

from __future__ import annotations

import pickle

import pytest

from repro.diagnostics.errors import PassExecutionError, PassVerificationError
from repro.diagnostics.guard import PassGuard
from repro.ir.printer import print_module
from repro.ir.transforms import standard_cleanup_pipeline
from repro.ir.transforms.pass_manager import FunctionPass
from repro.observability import (
    StatisticsRegistry,
    Tracer,
    use_statistics,
    use_tracer,
)
from repro.testing.fault_injection import FaultInjected, FaultyPass
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

KERNELS = sorted(SUITE_SIZES["MINI"])


def _cleanup_input(kernel: str) -> bytes:
    """The module the cleanup pipeline normally ingests, as pickle bytes
    so each run starts from a bit-identical private copy."""
    from repro.mlir.passes import convert_to_llvm, lowering_pipeline

    spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
    lowering_pipeline().run(spec.module)
    module = convert_to_llvm(spec.module)
    return pickle.dumps(module)


def _run_cleanup(blob: bytes, guard=None):
    module = pickle.loads(blob)
    tracer = Tracer()
    registry = StatisticsRegistry()
    with use_tracer(tracer), use_statistics(registry):
        pm = standard_cleanup_pipeline()
        pm.guard = guard
        stats = pm.run(module)
    return module, stats, tracer, registry


def _attribution(stats):
    return [
        (s.name, s.rewrites, dict(s.details), sorted(s.touched)) for s in stats
    ]


@pytest.mark.parametrize("kernel", KERNELS)
def test_fused_walk_matches_nwalk_attribution(kernel):
    blob = _cleanup_input(kernel)
    mod_off, stats_off, tracer_off, reg_off = _run_cleanup(
        blob, guard=PassGuard(kind="ir")
    )
    mod_on, stats_on, tracer_on, reg_on = _run_cleanup(blob)

    assert print_module(mod_on) == print_module(mod_off), (
        f"{kernel}: fusion changed the transformed IR"
    )
    assert _attribution(stats_on) == _attribution(stats_off), (
        f"{kernel}: fusion changed per-pass statistics"
    )
    # The span *tree* differs (fusion defers verification), but the
    # category-"pass" sequence — the trace consumers key on — must not.
    spans_off = [s.name for s in tracer_off.by_category("pass")]
    spans_on = [s.name for s in tracer_on.by_category("pass")]
    assert spans_on == spans_off, f"{kernel}: fusion changed the span sequence"
    # The churn ledger only ever records pass work (never verification),
    # so the registries must agree counter for counter.
    assert reg_on.as_dict() == reg_off.as_dict(), (
        f"{kernel}: fusion changed the instruction-churn ledger"
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_fused_pass_spans_tile_monotonically(kernel):
    """Fused per-pass spans are synthesized after the walk; they must
    still read as a monotonic, non-overlapping timeline for trace export."""
    blob = _cleanup_input(kernel)
    _, _, tracer, _ = _run_cleanup(blob)
    spans = tracer.by_category("pass")
    assert spans
    for prev, cur in zip(spans, spans[1:]):
        assert cur.start >= prev.start + prev.duration - 1e-9, (
            f"{kernel}: span {cur.name!r} overlaps {prev.name!r}"
        )


def test_cleanup_pipeline_fuses_into_one_walk():
    pm = standard_cleanup_pipeline()
    assert all(
        isinstance(p, FunctionPass)
        and type(p).run_on_module is FunctionPass.run_on_module
        for p in pm.passes
    )
    plan = pm._plan()
    assert [len(group) for group in plan] == [len(pm.passes)]


def test_guard_disables_fusion():
    pm = standard_cleanup_pipeline()
    pm.guard = PassGuard(kind="ir")
    plan = pm._plan()
    assert [len(group) for group in plan] == [1] * len(pm.passes)


def _faulted_pipeline(target: str, mode: str, guard):
    pm = standard_cleanup_pipeline()
    pm.guard = guard
    pm.passes = [
        FaultyPass(p, mode=mode) if p.name == target else p
        for p in pm.passes
    ]
    return pm


def test_injected_crash_rolls_back_to_pre_pass_state(tmp_path):
    """Fault mode "raise" dirties the module then raises mid-pass; the
    guard must blame the logical pass and restore its pre-pass snapshot."""
    blob = _cleanup_input("gemm")
    module = pickle.loads(blob)
    guard = PassGuard(kind="ir", reproducer_dir=str(tmp_path))
    pm = _faulted_pipeline("instcombine", "raise", guard)
    flag_before = module.opaque_pointers
    with pytest.raises(PassExecutionError) as excinfo:
        pm.run(module)
    assert excinfo.value.pass_name == "instcombine"
    assert isinstance(excinfo.value.__cause__, FaultInjected)
    assert excinfo.value.reproducer_path is not None
    # The mid-mutation dirt (flipped opaque-pointer flag) was rolled back.
    assert module.opaque_pointers == flag_before
    # Passes that completed before the fault kept their stats.
    assert [s.name for s in pm.history] == ["mem2reg", "sccp"]


def test_injected_corruption_is_blamed_on_the_faulted_pass(tmp_path):
    """With a guard the manager verifies after *every* pass, so a
    corrupting pass is caught immediately — not at the pipeline flush."""
    module = pickle.loads(_cleanup_input("gemm"))
    guard = PassGuard(kind="ir", reproducer_dir=str(tmp_path))
    pm = _faulted_pipeline("sccp", "corrupt-operand", guard)
    with pytest.raises(PassVerificationError) as excinfo:
        pm.run(module)
    assert excinfo.value.pass_name == "sccp"
    # Rollback restored the verifier-clean pre-pass module.
    from repro.ir.verifier import verify_module

    verify_module(module)


def test_unguarded_fast_mode_still_detects_corruption():
    """Without a guard, detection is never lost: the wrapper is an
    untrusted module pass, so deferral resolves to an immediate full
    verify that still blames it by name."""
    module = pickle.loads(_cleanup_input("gemm"))
    pm = _faulted_pipeline("sccp", "corrupt-operand", None)
    with pytest.raises(PassVerificationError) as excinfo:
        pm.run(module)
    assert excinfo.value.pass_name == "sccp"
