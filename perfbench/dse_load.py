"""``dse-halving``: budgeted design-space exploration of trmm's wide space.

A pass is one ``repro.dse.explore`` call (successive halving, 32 compiles)
through a ``CompilationService(jobs=1)`` over a fresh cache directory, so
every compile takes the cache's miss-and-store path.  A request is one
compile inside the exploration.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.dse import explore
from repro.service import CompilationService, cache_key
from repro.testing import frontier_fingerprint
from repro.workloads import SUITE_SIZES

from common import (
    WORK,
    Run,
    SpanRecorder,
    SpeedGauge,
    fresh_dir,
    median,
    pass_count,
    peak_rss_mb,
    put_design_metrics,
    put_latency_metrics,
    put_trace_overhead,
)
from compile_loads import design, put_staged_metrics, signature
from staged import COUNTS, reproduction_problem, staged_compare

KERNEL = "trmm"
SIZE_CLASS = "MINI"
SPACE = "wide"
STRATEGY = "halving"
BUDGET = 32
PASS_CACHE = "dse-pass"


class RecordingService(CompilationService):
    """A CompilationService that times every ``compile_one`` (one DSE
    request), ticks the speed gauge after it, and keeps what it returned.
    With a recorder it also records spans around batches, compiles, cache
    stores and the ticks themselves."""

    def __init__(self, cache_dir: str, gauge: SpeedGauge,
                 rec: Optional[SpanRecorder] = None, tag: str = ""):
        super().__init__(cache_dir=cache_dir, jobs=1)
        self.gauge, self.rec, self.tag = gauge, rec, tag
        self.latencies: List[float] = []
        self.scaled: List[float] = []
        self.calls: List[tuple] = []  # (config, kwargs, comparison)
        self.store_seconds: List[float] = []
        self.store_paths: List[str] = []
        if rec is not None:
            store = self.cache.store

            def timed_store(key, value, meta=None):
                began = time.perf_counter()
                with rec.span("cache.store", self._request()):
                    path = store(key, value, meta)
                self.store_seconds.append(time.perf_counter() - began)
                self.store_paths.append(path)
                return path

            self.cache.store = timed_store

    def _request(self) -> str:
        return f"{self.tag}/c{len(self.latencies)}"

    def compile_batch(self, requests, **kwargs):
        if self.rec is None:
            return super().compile_batch(requests, **kwargs)
        with self.rec.span("dse.batch", self.tag):
            return super().compile_batch(requests, **kwargs)

    def compile_one(self, kernel, config, **kwargs):
        request = self._request()
        began = time.perf_counter()
        if self.rec is None:
            comparison = super().compile_one(kernel, config, **kwargs)
        else:
            with self.rec.span("service.compile", request):
                comparison = super().compile_one(kernel, config, **kwargs)
        latency = time.perf_counter() - began
        if self.rec is None:
            self.gauge.tick()
        else:
            with self.rec.span("speed.tick", request):
                self.gauge.tick()
        self.latencies.append(latency)
        self.scaled.append(latency * self.gauge.factor())
        self.calls.append((config, kwargs, comparison))
        return comparison


@dataclass
class PassResult:
    #: Unscaled explore time (ticks excluded), and the same in
    #: reference-machine seconds: each compile scaled by its own factor,
    #: the search's own time by the pass's median factor.
    seconds: float
    service: RecordingService
    scaled_seconds: float = 0.0
    frontier: list = field(default_factory=list)
    visited: int = 0
    rounds: int = 0
    hits: int = 0
    misses: int = 0
    signatures: List[tuple] = field(default_factory=list)
    designs: List[tuple] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def factor(self) -> float:
        """Median scale factor of the pass's compiles."""
        service = self.service
        return median([s / t for s, t in zip(service.scaled, service.latencies)])


class DseHalving:
    name = "dse-halving"
    nominal_pass_s = 0.8
    min_passes = 7

    def __init__(self, seed: int):
        self.seed = seed

    def _explore(self, service: CompilationService, strategy: str = STRATEGY,
                 budget: Optional[int] = BUDGET):
        return explore(
            KERNEL, size_class=SIZE_CLASS, space=SPACE, strategy=strategy,
            budget=budget, service=service, seed=self.seed,
        )

    def setup(self) -> None:
        """Pay the lazy set-up the first compile would otherwise pay."""
        service = CompilationService(cache_dir=fresh_dir("dse-setup"), jobs=1)
        service.compile_one(KERNEL, "baseline", size_class=SIZE_CLASS,
                            check_equivalence=False, seed=self.seed)

    def one_pass(self, gauge: SpeedGauge, rec: Optional[SpanRecorder] = None,
                 tag: str = "") -> PassResult:
        cache_dir = fresh_dir(PASS_CACHE)
        gc.collect()
        gauge.tick()
        start, ticking = time.perf_counter(), gauge.spent
        service = RecordingService(cache_dir, gauge, rec, tag)
        error, report = None, None
        try:
            if rec is None:
                report = self._explore(service)
            else:
                with rec.span("dse.explore", tag):
                    report = self._explore(service)
        except Exception as exc:  # counted as a failed request
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start - (gauge.spent - ticking)
        result = PassResult(seconds=seconds, service=service, error=error)
        if service.latencies:
            search_self = seconds - sum(service.latencies)
            result.scaled_seconds = sum(service.scaled) + search_self * result.factor
        result.signatures = [signature(c) for _, _, c in service.calls]
        result.designs = [design(c) for _, _, c in service.calls]
        if report is not None:
            result.frontier = frontier_fingerprint(report)
            result.visited = report.visited
            result.rounds = len(report.rounds)
            result.hits, result.misses = report.cache_hits, report.cache_misses
        return result

    def check(self, run: Run, passes: List[PassResult], tag: str) -> None:
        """Every pass's frontier must equal the exhaustive frontier of the
        same space, computed here, outside the timed region."""
        # Over the last pass's cache, as repro.testing's oracle does: the
        # points both searches visit compile once.
        oracle = self._explore(
            CompilationService(cache_dir=os.path.join(WORK, PASS_CACHE), jobs=1),
            strategy="exhaustive", budget=None,
        )
        expected = frontier_fingerprint(oracle)
        last = passes[-1]
        for number, result in enumerate(passes):
            same = (result.frontier, result.visited, result.rounds, result.signatures)
            run.gate(
                same == (last.frontier, last.visited, last.rounds, last.signatures),
                f"determinism failure: {tag} pass {number} explored differently "
                f"than the last pass",
            )
            if result.error is not None:
                problem = f"explore raised {result.error}"
            elif result.frontier != expected:
                problem = "frontier differs from the exhaustive frontier"
            else:
                problem = None
            for index in range(max(len(result.service.latencies), 1)):
                run.request(f"{tag}{number}/c{index}", problem)

    def timed(self, run: Run, seconds: float) -> None:
        gauge = SpeedGauge()
        passes = [
            self.one_pass(gauge)
            for _ in range(pass_count(seconds, self.nominal_pass_s, self.min_passes))
        ]
        run.put("peak_rss_mb", peak_rss_mb(), "MB")
        put_latency_metrics(
            run,
            [p.scaled_seconds for p in passes],
            [t for p in passes for t in p.service.scaled],
            [p.seconds for p in passes],
        )
        if passes[-1].designs:
            put_design_metrics(run, passes[-1].designs)
        self.check(run, passes, "pass")

    def staged_points(self, run: Run, rec: SpanRecorder, gauge: SpeedGauge,
                      result: PassResult, tag: str):
        """Recompile the pass's visited points through the staged drive,
        with a fingerprint per point; each must reproduce the service's
        compile.  Returns per-point ``(first span, end span, factor)``
        windows and the summed counts."""
        sizes = SUITE_SIZES[SIZE_CLASS][KERNEL]
        windows, counts = [], dict.fromkeys(COUNTS, 0)
        gc.collect()
        gauge.tick()
        for index, (config, kwargs, comparison) in enumerate(result.service.calls):
            request, first = f"{tag}/c{index}", len(rec.spans)
            with rec.span("service.fingerprint", request):
                cache_key(
                    KERNEL, sizes, config, device=result.service.device,
                    check_equivalence=kwargs["check_equivalence"],
                    seed=kwargs["seed"], backend=kwargs["backend"],
                )
            staged = staged_compare(
                rec, request, KERNEL, sizes, config, kwargs["backend"],
                kwargs["check_equivalence"], kwargs["seed"],
            )
            gauge.tick()
            windows.append((first, len(rec.spans), gauge.factor()))
            for name in COUNTS:
                counts[name] += staged.counts[name]
            problem = reproduction_problem(staged, comparison)
            run.gate(
                problem is None,
                f"staged drive does not reproduce the service's compile of "
                f"{config.name}: {problem}",
            )
        return windows, counts

    def traced(self, run: Run, rec: SpanRecorder, rounds: int = 2) -> None:
        """Untraced explore passes alternate with traced ones (spans around
        the explore call, each service batch, compile and cache store).
        After each traced pass the staged drive recompiles the visited
        points layer by layer and must reproduce the service's results."""
        gauge, untraced, traced, windows, counts = SpeedGauge(), [], [], [], []
        batch_ms, fingerprint_ms, store_ms = [], [], []
        for number in range(rounds):
            untraced.append(self.one_pass(gauge))
            tag, first = f"t{number}", len(rec.spans)
            result = self.one_pass(gauge, rec, tag)
            traced.append(result)
            # The batch spans' own time excludes their compile and tick
            # children; each compile is scaled by its own factor.
            own = rec.self_times()
            batch_self = sum(
                own[i] for i in range(first, len(rec.spans))
                if rec.spans[i][0] == "dse.batch"
            )
            batch_ms.append(
                (sum(result.service.scaled) + batch_self * result.factor) * 1e3
            )
            store_ms += [t * result.factor * 1e3 for t in result.service.store_seconds]
            pass_windows, pass_counts = self.staged_points(run, rec, gauge, result, tag)
            windows.append(pass_windows)
            counts.append(pass_counts)
            # Each point's window starts with its fingerprint span.
            fingerprint_ms += [
                (rec.spans[start][2] - rec.spans[start][1]) * factor * 1e3
                for start, _, factor in pass_windows
            ]
        put_staged_metrics(run, rec, windows, counts)
        last = traced[-1]
        for name, values in (
            ("dse.compiles", [len(p.service.latencies) for p in traced]),
            ("dse.rounds", [p.rounds for p in traced]),
            ("cache.hits", [p.hits for p in traced]),
            ("cache.misses", [p.misses for p in traced]),
        ):
            run.repeat_gate(name, values)
            run.put(name, values[-1], "count")
        lookups = last.hits + last.misses
        run.put("cache.hit_ratio", last.hits / lookups if lookups else 0.0, "ratio")
        explore_ms = [p.scaled_seconds * 1e3 for p in traced]
        run.put("dse.explore_ms", median(explore_ms), "ms")
        run.put("dse.batch_ms", median(batch_ms), "ms")
        run.put(
            "dse.search_self_ms",
            median([e - b for e, b in zip(explore_ms, batch_ms)]),
            "ms",
        )
        run.put("service.fingerprint_ms", median(fingerprint_ms), "ms")
        run.put("cache.store_ms", median(store_ms) if store_ms else 0.0, "ms")
        run.put(
            "cache.entry_bytes",
            median([os.path.getsize(path) for path in last.service.store_paths])
            if last.service.store_paths else 0.0,
            "bytes",
        )
        put_trace_overhead(
            run,
            [p.scaled_seconds for p in untraced],
            [p.scaled_seconds for p in traced],
        )
        self.check(run, untraced + traced, "trace-pass")
