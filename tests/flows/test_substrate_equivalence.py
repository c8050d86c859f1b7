"""Substrate-equivalence sweep: the elision work must be invisible in outputs.

The default (unguarded) substrate — called *fast mode* in these test names
— skips redundant work: pass fusion, incremental and deferred
re-verification, version-keyed analysis caches, verified-clean tokens.
A pass manager with a :class:`~repro.diagnostics.guard.PassGuard` does none
of the fusion or deferral: it runs one walk per pass and verifies after
every pass that changed the module.  That guarded path is the reference.
This sweep compiles every MINI suite kernel through the whole adaptor flow
both ways — every IR and MLIR pass manager guarded, or none — and pins the
contract byte-for-byte:

* printed adaptor IR is identical,
* lint reports are identical (same rules run, same findings),
* per-pass rewrite statistics are identical (Fig. 3 inputs),
* synthesis estimates are identical,
* the reference output matches the committed golden snapshots.

A divergence here means an elision changed semantics.
"""

from __future__ import annotations

import os

import pytest

from repro.diagnostics.guard import PassGuard
from repro.flows import OptimizationConfig, run_adaptor_flow
from repro.ir.printer import print_module
from repro.ir.transforms.pass_manager import PassManager
from repro.mlir.passes.pass_manager import MLIRPassManager
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "golden", "goldens"
)

KERNELS = sorted(SUITE_SIZES["MINI"])


def _guard_every_run(cls, kind: str):
    """A ``run`` that attaches a guard to any unguarded manager first."""
    run = cls.run

    def guarded_run(self, module):
        if self.guard is None:
            self.guard = PassGuard(kind=kind)
        return run(self, module)

    return guarded_run


def _compile(kernel: str, guarded: bool):
    spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
    OptimizationConfig.optimized(ii=1).apply(spec)
    if not guarded:
        return run_adaptor_flow(spec, lint="report")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PassManager, "run", _guard_every_run(PassManager, "ir"))
        mp.setattr(
            MLIRPassManager, "run", _guard_every_run(MLIRPassManager, "mlir")
        )
        return run_adaptor_flow(spec, lint="report")


def _lint_fingerprint(report):
    assert report is not None
    return (
        report.module_name,
        report.rules_run,
        tuple(sorted(report.disabled)),
        tuple(
            (f.code, f.rule, f.severity, f.message, f.function, f.location)
            for f in report.findings
        ),
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_fast_mode_is_bit_identical(kernel):
    baseline = _compile(kernel, guarded=True)
    fast = _compile(kernel, guarded=False)

    assert print_module(fast.ir_module) == print_module(baseline.ir_module), (
        f"{kernel}: the unguarded substrate changed the printed adaptor IR"
    )
    assert _lint_fingerprint(fast.lint_report) == _lint_fingerprint(
        baseline.lint_report
    ), f"{kernel}: the unguarded substrate changed the lint report"
    # Per-pass rewrite statistics feed Fig. 3; fusion must not change them.
    assert [
        (s.name, s.rewrites, s.details) for s in fast.adaptor_report.passes
    ] == [
        (s.name, s.rewrites, s.details) for s in baseline.adaptor_report.passes
    ], f"{kernel}: the unguarded substrate changed per-pass statistics"
    assert fast.synth_report == baseline.synth_report, (
        f"{kernel}: the unguarded substrate changed the synthesis estimate"
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_fast_mode_matches_committed_goldens(kernel):
    path = os.path.join(GOLDEN_DIR, f"{kernel}.ll")
    if not os.path.exists(path):
        pytest.skip(f"no golden snapshot for {kernel}")
    result = _compile(kernel, guarded=True)
    with open(path) as fh:
        golden = fh.read()
    assert print_module(result.ir_module) == golden, (
        f"{kernel}: the guarded reference diverged from the golden snapshot"
    )
