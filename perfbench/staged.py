"""The staged drive: one flow comparison, layer by layer, with spans.

:func:`staged_compare` calls each layer's public function itself, in the
order ``repro.flows.compare_flows`` and its two flow functions call them,
and records a span around every call.  The program's own tracer stays
off.  :func:`reproduction_problem` checks that the staged drive produced
exactly what ``compare_flows`` produces for the same request: the same
SynthReports, the same printed IR and the same lint verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.adaptor import HLSAdaptor
from repro.backends import create_backend
from repro.flows import retention_metrics, verify_flow_equivalence
from repro.hlscpp import compile_hls_cpp, generate_hls_cpp
from repro.ir.printer import print_module
from repro.ir.transforms import standard_cleanup_pipeline
from repro.lint import run_lint
from repro.mlir.passes import convert_to_llvm, lowering_pipeline
from repro.observability import StatisticsRegistry, use_statistics
from repro.service import resolve_config
from repro.workloads import build_kernel

from common import SpanRecorder

#: Per-request counts the staged drive collects; each must repeat exactly.
COUNTS = (
    "mlir.llvm_insts",
    "ir.insts_after_cleanup",
    "adaptor.rewrites",
    "lint.findings",
    "hlscpp.cpp_bytes",
    "interp.steps",
)


@dataclass
class StagedResult:
    adaptor_synth: object
    cpp_synth: object
    adaptor_ir: object
    cpp_ir: object
    lint: dict
    equivalent: Optional[bool]
    counts: dict


def _instructions(module) -> int:
    return sum(len(b.instructions) for f in module.defined_functions() for b in f.blocks)


class _TimedFrontend:
    """Stands in for a backend's HLSFrontend so its ``check`` gets a span
    of its own, nested in the synthesis span."""

    def __init__(self, frontend, rec: SpanRecorder, request: str):
        self._frontend, self._rec, self._request = frontend, rec, request

    def check(self, module):
        with self._rec.span("hls.frontend", self._request):
            return self._frontend.check(module)


def _synth_engine(backend: str, device: str, rec: SpanRecorder, request: str):
    engine = create_backend(backend, device=device, strict_frontend=True)
    # The static backend wraps an HLSEngine; the frontend lives there.
    holder = getattr(engine, "_engine", engine)
    holder.frontend = _TimedFrontend(holder.frontend, rec, request)
    return engine


def staged_compare(
    rec: SpanRecorder,
    request: str,
    kernel: str,
    sizes: dict,
    config_name: str,
    backend: str,
    check_equivalence: bool,
    seed: int,
    device: str = "xc7z020",
) -> StagedResult:
    counts = dict.fromkeys(COUNTS, 0)
    synth_span = f"backends.{backend}.synth"
    config = resolve_config(config_name)
    with rec.span("request", request):
        # Adaptor flow: MLIR -> LLVM IR -> cleanup -> adaptor -> lint -> HLS.
        with rec.span("workloads.build", request):
            spec_a = build_kernel(kernel, **sizes)
            config.apply(spec_a)
        with rec.span("mlir.lower", request):
            lowering_pipeline().run(spec_a.module)
            ir_a = convert_to_llvm(spec_a.module)
        raw_a = counts["mlir.llvm_insts"] = _instructions(ir_a)
        with rec.span("ir.cleanup.adaptor", request):
            standard_cleanup_pipeline().run(ir_a)
        counts["ir.insts_after_cleanup"] = _instructions(ir_a)
        with rec.span("adaptor.run", request):
            report = HLSAdaptor(lint="off").run(ir_a)
        counts["adaptor.rewrites"] = report.total_rewrites
        with rec.span("lint", request):
            lint = run_lint(ir_a, backend=backend)
        counts["lint.findings"] = len(lint.findings)
        with rec.span(synth_span, request):
            synth_a = _synth_engine(backend, device, rec, request).synthesize(ir_a)

        # HLS-C++ flow: MLIR -> C++ -> C frontend -> cleanup -> HLS.
        with rec.span("workloads.build", request):
            spec_c = build_kernel(kernel, **sizes)
            config.apply(spec_c)
        with rec.span("hlscpp.codegen", request):
            source = generate_hls_cpp(spec_c.module)
        counts["hlscpp.cpp_bytes"] = len(source.encode("utf-8"))
        with rec.span("hlscpp.cfrontend", request):
            ir_c = compile_hls_cpp(source)
        raw_c = _instructions(ir_c)
        with rec.span("ir.cleanup.cpp", request):
            standard_cleanup_pipeline().run(ir_c)
        counts["ir.insts_after_cleanup"] += _instructions(ir_c)
        with rec.span(synth_span, request):
            synth_c = _synth_engine(backend, device, rec, request).synthesize(ir_c)

        # What compare_flows does besides calling the stages.
        with rec.span("compare.self", request):
            retention_metrics(ir_a, raw_a)
            retention_metrics(ir_c, raw_c)
            lint_dict = lint.to_dict()

        equivalent = None
        if check_equivalence:
            with rec.span("workloads.build", request):
                spec_o = build_kernel(kernel, **sizes)
            registry = StatisticsRegistry()
            with rec.span("interp", request), use_statistics(registry):
                equivalent, _ = verify_flow_equivalence(spec_o, ir_a, ir_c, seed=seed)
            counts["interp.steps"] = registry.as_dict().get("interpreter", {}).get("steps", 0)
    return StagedResult(synth_a, synth_c, ir_a, ir_c, lint_dict, equivalent, counts)


def reproduction_problem(staged: StagedResult, comparison) -> Optional[str]:
    """Why the staged drive differs from ``compare_flows``, or None."""
    if staged.adaptor_synth != comparison.adaptor.synth_report:
        return "adaptor-flow SynthReport differs"
    if staged.cpp_synth != comparison.cpp.synth_report:
        return "C++-flow SynthReport differs"
    if print_module(staged.adaptor_ir) != print_module(comparison.adaptor.ir_module):
        return "adaptor-flow printed IR differs"
    if print_module(staged.cpp_ir) != print_module(comparison.cpp.ir_module):
        return "C++-flow printed IR differs"
    if staged.lint != comparison.lint:
        return "lint verdict differs"
    if staged.equivalent != comparison.functionally_equivalent:
        return "equivalence verdict differs"
    return None
