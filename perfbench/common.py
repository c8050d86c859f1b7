"""Shared pieces of the benchmark: statistics, spans, run bookkeeping.

Nothing here imports ``repro``; the workload modules do.  Everything the
benchmark writes goes under ``.perfbench-work/`` (scratch, removed at the
end of a run) and ``.perfbench-out/`` (span dumps) in the directory the
benchmark runs from.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")

#: Percentile ladder for the tail metric: a run reports the highest rung
#: with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

#: How many fresh interpreters a run starts to report ``setup_s`` (the
#: median).  One start varies by up to a third on a busy host; three left
#: the per-run median spreading by 20-40% across runs.
SETUP_REPEATS = 5


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: this checkout's ``src`` on the
    path, temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = WORK
    return env


def fresh_dir(name: str) -> str:
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- statistics -------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the value ``pct`` percent of samples do
    not exceed)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ``TAIL_BEYOND`` of
    ``samples`` beyond it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if samples * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            best = pct
    return best


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# -- spans ------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``(name, start, end, parent, request)``; ``parent`` is the
    index of the enclosing span on the same thread.  Spans of one request
    share its ``request`` id.  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request: str = ""):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, request]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations(self, name: str, first: int = 0, last: Optional[int] = None) -> List[float]:
        return [
            end - start for n, start, end, _, _ in self.spans[first:last] if n == name
        ]

    def dump(self, path: str) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        own = self.self_times()
        rows = [
            {
                "id": index,
                "name": name,
                "start_ms": (start - base) * 1e3,
                "end_ms": (end - base) * 1e3,
                "self_ms": own[index] * 1e3,
                "parent": parent,
                "request": request,
            }
            for index, (name, start, end, parent, request) in enumerate(self.spans)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")


# -- run bookkeeping --------------------------------------------------------
@dataclass
class Run:
    """What one benchmark run reports."""

    workload: str
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Wrong or failed requests, one line each (request id + reason).
    failures: List[str] = field(default_factory=list)
    #: Run-level gate violations (determinism, exact repeat, staged-drive
    #: reproduction); any entry makes the run incorrect.
    gate_failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def request(self, request_id: str, problem: Optional[str]) -> None:
        """Count one checked request; ``problem`` describes a failure."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.failures.append(f"{request_id}: {problem}")

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.gate_failures.append(message)

    def repeat_gate(self, name: str, values: Sequence) -> None:
        """Counts must repeat exactly; a difference is a determinism
        failure, never noise."""
        distinct = sorted(set(values), key=repr)
        self.gate(
            len(distinct) <= 1,
            f"determinism failure: {name} differs across passes: {distinct}",
        )

    @property
    def correct(self) -> bool:
        return not self.gate_failures


def put_latency_metrics(
    run: Run,
    pass_seconds: Sequence[float],
    request_seconds: Sequence[float],
    unscaled_pass_seconds: Sequence[float],
) -> None:
    """The timing metrics every workload reports the same way, from
    scaled pass and request times (see :class:`SpeedGauge`)."""
    tail = tail_percentile(len(request_seconds))
    run.put("pass_s", median(pass_seconds), "s")
    run.put("requests_per_s", len(request_seconds) / sum(pass_seconds), "1/s")
    run.put("request_ms_p50", median(request_seconds) * 1e3, "ms")
    run.put("request_ms_tail", percentile(request_seconds, tail) * 1e3, "ms")
    run.notes.append(
        f"request_ms_tail is p{tail:g} of {len(request_seconds)} samples "
        f"({len(pass_seconds)} passes)"
    )
    run.notes.append(
        f"unscaled pass_s {median(unscaled_pass_seconds):.6f} s "
        f"(times are in reference-machine seconds)"
    )


def put_trace_overhead(
    run: Run, untraced: Sequence[float], traced: Sequence[float]
) -> None:
    """Traced pass time, and its excess over the untraced pass time."""
    run.put("trace.pass_s", median(traced), "s")
    run.put("trace.overhead_s", median(traced) - median(untraced), "s")


def put_design_metrics(run: Run, designs: Sequence[tuple]) -> None:
    """Geomeans over the requests of one pass; ``designs`` holds
    ``(latency, lut, dsp, latency_ratio)`` per request."""
    run.put("design_latency_geomean", geomean([d[0] for d in designs]), "cycles")
    run.put("design_lut_geomean", geomean([d[1] for d in designs]), "LUT")
    run.put("design_dsp_geomean", geomean([d[2] for d in designs]), "DSP")
    run.put("flow_latency_ratio_geomean", geomean([d[3] for d in designs]), "ratio")


def pass_count(seconds: float, nominal_pass_s: float, min_passes: int) -> int:
    """How many passes a run makes: as many as take ``seconds`` at the
    workload's nominal pass time, and at least ``min_passes``.  The count
    is fixed rather than timed so that every run, on every commit, does
    the same work; the compiler's heap grows from pass to pass, so a
    timed count would make memory and GC time depend on speed."""
    return max(min_passes, round(seconds / nominal_pass_s))


# -- machine speed ----------------------------------------------------------
#: Seconds each half of a speed tick takes on the reference machine when
#: nothing else runs on it: the object-graph walk, then the pointer chase.
#: Reported times are in reference-machine seconds.
REFERENCE_TICK_S = (0.0006, 0.0017)


class _TickNode:
    __slots__ = ("key", "children", "next")

    def __init__(self, key: int):
        self.key = key
        self.children: List["_TickNode"] = []
        self.next: Optional["_TickNode"] = None


def _small_graph(size: int = 500) -> List[_TickNode]:
    nodes = [_TickNode(i) for i in range(size)]
    for node in nodes:
        nodes[(node.key * 7919) % size].children.append(node)
    return nodes


def _big_ring(size: int = 40000) -> _TickNode:
    """A ring over ``size`` nodes in a fixed shuffled order: walking it
    misses the CPU caches on most steps."""
    nodes = [_TickNode(i) for i in range(size)]
    order = list(range(size))
    random.Random(0).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
    return nodes[0]


#: Built by the first SpeedGauge, so that set-up probes do not pay for them.
_TICK_DATA: List[object] = []


def _graph_walk() -> int:
    """Interpreter-bound work: attribute access, list walks, dict updates
    and str() over a small prebuilt object graph."""
    table: Dict[int, int] = {}
    total = 0
    for _ in range(6):
        for node in _TICK_DATA[0]:
            for child in node.children:
                total += child.key
                slot = child.key & 255
                table[slot] = table.get(slot, 0) + len(str(child.key))
    return total


def _pointer_chase() -> int:
    """Memory-bound work: 12000 steps along the big ring."""
    node, total = _TICK_DATA[1], 0
    for _ in range(12000):
        total += node.key
        node = node.next
    return total


class SpeedGauge:
    """Tracks how fast the machine runs right now.

    The host is shared: the same code runs up to 2x slower for stretches
    of seconds to minutes while other tenants are busy.  A tick times two
    fixed pieces of pure-Python work that share no code with the program,
    one interpreter-bound and one memory-bound (a few ms in all; neither
    creates GC-tracked objects, so neither shifts a collection into the
    measured code).  Workloads tick between requests, or between short
    segments of concurrent requests.  A measured interval is scaled by
    the geometric mean, over the two kinds of work, of the reference time
    over the mean of the ticks before and after it.  That reports the
    interval in reference-machine seconds and cancels most of the drift;
    the unscaled figures are printed beside the metrics.
    """

    def __init__(self) -> None:
        if not _TICK_DATA:
            _TICK_DATA.extend((_small_graph(), _big_ring()))
        self.ticks: List[Tuple[float, float]] = []
        #: Seconds spent ticking so far.
        self.spent = 0.0

    def tick(self) -> None:
        start = time.perf_counter()
        _graph_walk()
        middle = time.perf_counter()
        _pointer_chase()
        end = time.perf_counter()
        self.ticks.append((middle - start, end - middle))
        self.spent += end - start

    def factor(self) -> float:
        """Scale factor of the interval between the last two ticks."""
        (walk0, chase0), (walk1, chase1) = self.ticks[-2:]
        walk_ref, chase_ref = REFERENCE_TICK_S
        return math.sqrt(
            walk_ref / ((walk0 + walk1) / 2) * chase_ref / ((chase0 + chase1) / 2)
        )


# -- set-up probes ----------------------------------------------------------
def probe_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> List[float]:
    """Wall time from starting a fresh interpreter to it being ready to
    send its first timed request, ``repeats`` times, in reference-machine
    seconds."""
    gauge = SpeedGauge()
    gauge.tick()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )
        try:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
        finally:
            child.stdout.close()
            code = child.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        gauge.tick()
        samples.append(ready * gauge.factor())
    return samples
