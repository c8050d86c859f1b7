"""``compile-mini`` and ``check-small``: in-process ``compare_flows`` loops.

One client, no cache.  A pass is the workload's fixed request list, in
an order drawn from the seed; a request is one ``compare_flows`` call.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.flows import compare_flows, verify_flow_equivalence
from repro.service import resolve_config
from repro.workloads import SUITE_SIZES, build_kernel

from common import (
    Run,
    SpanRecorder,
    median,
    peak_rss_mb,
    put_design_metrics,
    SpeedGauge,
    put_latency_metrics,
    put_trace_overhead,
    pass_count,
)
from staged import COUNTS, reproduction_problem, staged_compare

#: Span name -> per-layer metric: summed self time per pass, in ms.
LAYER_SPANS = {
    "workloads.build": "workloads.build_ms",
    "mlir.lower": "mlir.lower_ms",
    "ir.cleanup.adaptor": "ir.cleanup_ms.adaptor",
    "ir.cleanup.cpp": "ir.cleanup_ms.cpp",
    "adaptor.run": "adaptor.run_ms",
    "lint": "lint.ms",
    "hlscpp.codegen": "hlscpp.codegen_ms",
    "hlscpp.cfrontend": "hlscpp.cfrontend_ms",
    "hls.frontend": "hls.frontend_ms",
    "backends.static.synth": "backends.static.synth_ms",
    "backends.dataflow.synth": "backends.dataflow.synth_ms",
    "interp": "interp.ms",
    "compare.self": "compare.self_ms",
}

COUNT_UNITS = {
    "mlir.llvm_insts": "count",
    "ir.insts_after_cleanup": "count",
    "adaptor.rewrites": "count",
    "lint.findings": "count",
    "hlscpp.cpp_bytes": "bytes",
    "interp.steps": "count",
}


def signature(comparison) -> tuple:
    """What two compiles of one request must agree on: the backend plus
    both flows' latency and resources."""
    return (
        comparison.backend,
        comparison.adaptor.synth_report.latency,
        tuple(sorted(comparison.adaptor.resources.items())),
        comparison.cpp.synth_report.latency,
        tuple(sorted(comparison.cpp.resources.items())),
    )


def design(comparison) -> tuple:
    """``(latency, lut, dsp, latency_ratio)`` of the adaptor flow."""
    resources = comparison.adaptor.resources
    return (
        comparison.adaptor.latency,
        resources["lut"],
        resources["dsp"],
        comparison.latency_ratio,
    )


def put_staged_metrics(
    run: Run,
    rec: SpanRecorder,
    windows: Sequence[Sequence[Tuple[int, int, float]]],
    counts: Sequence[Dict[str, int]],
) -> None:
    """Per-layer metrics of staged passes: the median over passes of each
    layer's summed self time, and counts that must repeat exactly.
    ``windows[i]`` holds staged pass ``i``'s ``(first span, end span,
    scale factor)`` per request; ``counts[i]`` its summed counts."""
    own = rec.self_times()
    per_pass = []
    for pass_windows in windows:
        totals: Dict[str, float] = {}
        for first, last, factor in pass_windows:
            for record, seconds in zip(rec.spans[first:last], own[first:last]):
                totals[record[0]] = totals.get(record[0], 0.0) + seconds * factor
        per_pass.append(totals)
    for span, metric in LAYER_SPANS.items():
        run.put(metric, median([p.get(span, 0.0) * 1e3 for p in per_pass]), "ms")
    for name in COUNTS:
        values = [c[name] for c in counts]
        run.repeat_gate(name, values)
        run.put(name, values[0], COUNT_UNITS[name])
    interp_s = median([p.get("interp", 0.0) for p in per_pass])
    run.put(
        "interp.steps_per_s",
        counts[0]["interp.steps"] / interp_s if interp_s else 0.0,
        "steps/s",
    )


@dataclass(frozen=True)
class Request:
    kernel: str
    config: str
    backend: str

    @property
    def label(self) -> str:
        return f"{self.kernel}/{self.config}/{self.backend}"


@dataclass
class PassResult:
    #: Unscaled pass time (sum of request latencies) and per-request
    #: latencies, unscaled and in reference-machine seconds.
    seconds: float
    latencies: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)
    #: Per request: its signature (None when it raised) and what is wrong.
    signatures: List[Optional[tuple]] = field(default_factory=list)
    problems: Dict[int, str] = field(default_factory=dict)
    #: The comparisons themselves; timed runs keep only the last pass's.
    comparisons: List[Optional[object]] = field(default_factory=list)


class CompileWorkload:
    name = ""
    size_class = ""
    configs: Tuple[str, ...] = ()
    backends: Tuple[str, ...] = ()
    check_equivalence = False
    #: Seconds one pass takes on the reference machine, and the fewest
    #: passes a timed run makes (see common.pass_count).
    nominal_pass_s = 1.0
    min_passes = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.requests = [
            Request(kernel, config, backend)
            for kernel in SUITE_SIZES[self.size_class]
            for config in self.configs
            for backend in self.backends
        ]
        random.Random(seed).shuffle(self.requests)

    def sizes(self, request: Request) -> Dict[str, int]:
        return SUITE_SIZES[self.size_class][request.kernel]

    def setup(self) -> None:
        """Pay the lazy set-up the first compile would otherwise pay, with
        the same small request whatever the seed."""
        for backend in self.backends:
            self._compare(Request("atax", self.configs[0], backend))

    def _compare(self, request: Request):
        return compare_flows(
            request.kernel,
            self.sizes(request),
            resolve_config(request.config),
            check_equivalence=self.check_equivalence,
            seed=self.seed,
            backend=request.backend,
        )

    def one_pass(self, gauge: SpeedGauge) -> PassResult:
        gc.collect()
        result = PassResult(seconds=0.0)
        gauge.tick()
        for index, request in enumerate(self.requests):
            began = time.perf_counter()
            try:
                comparison = self._compare(request)
            except Exception as exc:  # counted as a failed request
                comparison = None
                result.problems[index] = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - began
            gauge.tick()
            result.latencies.append(latency)
            result.scaled.append(latency * gauge.factor())
            result.comparisons.append(comparison)
        result.seconds = sum(result.latencies)
        for index, comparison in enumerate(result.comparisons):
            result.signatures.append(comparison and signature(comparison))
            problem = comparison and self.request_problem(comparison)
            if problem:
                result.problems[index] = problem
        return result

    # -- correctness ------------------------------------------------------
    def request_problem(self, comparison) -> Optional[str]:
        """Why one returned comparison is wrong on its own, or None."""
        return None

    def reference_problems(self, result: PassResult) -> Dict[int, str]:
        """Per request index: why its design is wrong, judged once,
        outside the timed region, on the last pass."""
        return {}

    def check(self, run: Run, passes: Sequence[PassResult], tag: str) -> None:
        """Count every request of every pass; a pass whose designs differ
        from the last pass's is a determinism failure."""
        reference = self.reference_problems(passes[-1])
        for number, result in enumerate(passes):
            run.gate(
                result.signatures == passes[-1].signatures,
                f"determinism failure: {tag} pass {number} produced other "
                f"designs than the last pass",
            )
            for index, request in enumerate(self.requests):
                problem = result.problems.get(index) or reference.get(index)
                run.request(f"{tag}{number}/{request.label}", problem)

    # -- runs -------------------------------------------------------------
    def timed(self, run: Run, seconds: float) -> None:
        passes: List[PassResult] = []
        gauge = SpeedGauge()
        for _ in range(pass_count(seconds, self.nominal_pass_s, self.min_passes)):
            if passes:
                passes[-1].comparisons = []  # keep only the newest modules
            passes.append(self.one_pass(gauge))
        run.put("peak_rss_mb", peak_rss_mb(), "MB")
        put_latency_metrics(
            run,
            [sum(p.scaled) for p in passes],
            [t for p in passes for t in p.scaled],
            [p.seconds for p in passes],
        )
        designs = [design(c) for c in passes[-1].comparisons if c is not None]
        if designs:
            put_design_metrics(run, designs)
        self.check(run, passes, "pass")

    def staged_pass(
        self, rec: SpanRecorder, gauge: SpeedGauge, tag: str
    ) -> Tuple[float, List[Tuple[int, int, float]], list]:
        """One traced pass through the staged drive.  Returns its scaled
        time, one ``(first span, end span, scale factor)`` window per
        request, and the staged results."""
        gc.collect()
        gauge.tick()
        scaled, windows, staged = 0.0, [], []
        for request in self.requests:
            first, began = len(rec.spans), time.perf_counter()
            staged.append(
                staged_compare(
                    rec, f"{tag}/{request.label}", request.kernel,
                    self.sizes(request), request.config, request.backend,
                    self.check_equivalence, self.seed,
                )
            )
            latency = time.perf_counter() - began
            gauge.tick()
            scaled += latency * gauge.factor()
            windows.append((first, len(rec.spans), gauge.factor()))
        return scaled, windows, staged

    def traced(self, run: Run, rec: SpanRecorder, rounds: int = 2) -> None:
        """Alternate untraced passes (``compare_flows``) with traced staged
        passes over the same requests.  The staged drive must reproduce
        ``compare_flows`` exactly; the difference in pass time is the
        tracing overhead."""
        plain_passes, traced_s, windows, counts = [], [], [], []
        gauge = SpeedGauge()
        for number in range(rounds):
            plain = self.one_pass(gauge)
            plain_passes.append(plain)
            seconds, pass_windows, staged = self.staged_pass(rec, gauge, f"t{number}")
            traced_s.append(seconds)
            windows.append(pass_windows)
            counts.append(
                {name: sum(s.counts[name] for s in staged) for name in COUNTS}
            )
            for request, result, comparison in zip(
                self.requests, staged, plain.comparisons
            ):
                if comparison is None:
                    continue  # counted by check() below
                problem = reproduction_problem(result, comparison)
                run.gate(
                    problem is None,
                    f"staged drive does not reproduce compare_flows for "
                    f"{request.label}: {problem}",
                )
        put_staged_metrics(run, rec, windows, counts)
        put_trace_overhead(run, [sum(p.scaled) for p in plain_passes], traced_s)
        self.check(run, plain_passes, "untraced")


class CompileMini(CompileWorkload):
    """The 15 MINI kernels x {baseline, optimized} x {static, dataflow},
    no equivalence check: the compiler layers do nearly all the work."""

    name = "compile-mini"
    size_class = "MINI"
    configs = ("baseline", "optimized")
    backends = ("static", "dataflow")
    check_equivalence = False
    nominal_pass_s = 1.5
    min_passes = 4

    def reference_problems(self, result: PassResult) -> Dict[int, str]:
        """Both flows' final modules against the NumPy reference, and no
        lint errors (warnings are allowed: dataflow emits
        REPRO-LINT-011/012 by design)."""
        problems = {}
        for index, (request, comparison) in enumerate(
            zip(self.requests, result.comparisons)
        ):
            if comparison is None:
                continue
            spec = build_kernel(request.kernel, **self.sizes(request))
            ok, error = verify_flow_equivalence(
                spec, comparison.adaptor.ir_module, comparison.cpp.ir_module,
                seed=self.seed,
            )
            lint_errors = (comparison.lint or {}).get("errors", 0)
            if not ok:
                problems[index] = (
                    f"not equivalent to the NumPy reference (max error {error})"
                )
            elif lint_errors:
                problems[index] = f"{lint_errors} lint error(s)"
        return problems


class CheckSmall(CompileWorkload):
    """The 15 SMALL kernels, optimized, static, with the equivalence
    check: the IR interpreter does nearly all the work."""

    name = "check-small"
    size_class = "SMALL"
    configs = ("optimized",)
    backends = ("static",)
    check_equivalence = True
    nominal_pass_s = 6.0
    # Its requests are few and long, so it needs more passes than its
    # run length gives for steady per-request percentiles: the median
    # request falls among three kernels of similar size.
    min_passes = 6

    def request_problem(self, comparison) -> Optional[str]:
        if comparison.functionally_equivalent is not True:
            return f"functionally_equivalent is {comparison.functionally_equivalent}"
        return None
