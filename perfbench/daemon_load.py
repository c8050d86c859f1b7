"""``daemon-warm``: two clients against a warm compile daemon.

The daemon runs in its own process, started as users start it
(``python -m repro serve --jobs 1``).  Set-up is: start the daemon, fire a
barrier-synced cold burst (both clients ask for the same kernel and
config at once, one on ``static`` and one on ``dataflow``), then fill the
cache with every request of the pool.  The timed part is a closed loop:
each of two clients sends single-request compile batches one after
another, following a schedule drawn from the seed.  A pass is that whole
schedule.

``CompileDaemon._fingerprint`` leaves the backend out of the coalescing
key, so two concurrent requests that differ only in backend share one
result.  The cold burst exposes that on purpose: each set-up's burst
yields exactly one wrong answer, counted in ``failed``.  In the warm loop
each client owns half of the kernel-config pairs (and asks for them on
both backends), so the two clients never ask for the same pair at once:
how many answers are wrong must not depend on thread timing.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.flows import compare_flows
from repro.service import (
    CompilationCache,
    CompilationService,
    CompileRequest,
    DaemonClient,
    cache_key,
    resolve_config,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_line,
    encode_line,
    report_from_wire,
    report_to_wire,
    validate_response,
)
from repro.workloads import SUITE_SIZES

from common import (
    ROOT,
    Run,
    SpanRecorder,
    child_env,
    fresh_dir,
    median,
    peak_rss_mb,
    put_design_metrics,
    pass_count,
    SpeedGauge,
    put_latency_metrics,
    put_trace_overhead,
)
from compile_loads import design, signature

SIZE_CLASS = "MINI"
BACKENDS = ("static", "dataflow")
PAIRS = [
    (kernel, config)
    for kernel in SUITE_SIZES[SIZE_CLASS]
    for config in ("baseline", "optimized")
]
POOL = [(kernel, config, backend) for kernel, config in PAIRS for backend in BACKENDS]
CLIENTS = 2
SCHEDULE_LENGTH = 200
#: Daemons a run sets up to report ``setup_s`` (the median).  Fewer than
#: the interpreter probes: a set-up takes ~2.5 s and spreads less.
SETUP_REPEATS = 3
#: Requests per pass segment.  The clients meet at a barrier between
#: segments, where the speed gauge ticks while nothing else runs.  A
#: multiple of CLIENTS, so schedule index ``i`` is always sent by client
#: ``i % CLIENTS``.
SEGMENT = 20


def make_request(kernel: str, config: str, backend: str, seed: int) -> CompileRequest:
    return CompileRequest(
        kernel=kernel, config=config, size_class=SIZE_CLASS,
        check_equivalence=False, seed=seed, backend=backend,
    )


class Daemon:
    """One ``python -m repro serve`` process and its clients."""

    def __init__(self, name: str):
        self.cache_dir = fresh_dir(f"{name}-cache")
        work = fresh_dir(name)
        address_file = os.path.join(work, "address")
        self.log = open(os.path.join(work, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--cache-dir", self.cache_dir,
             "serve", "--jobs", "1", "--address", "127.0.0.1:0",
             "--address-file", address_file],
            stdout=self.log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
        )
        try:
            self.address = self._wait_for_address(address_file)
            self.clients = [DaemonClient(self.address).connect() for _ in range(CLIENTS)]
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            raise
        self.shutdown_s: Optional[float] = None
        self.counters: dict = {}
        self._waiter: Optional[threading.Thread] = None

    def _wait_for_address(self, path: str) -> str:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return text.strip()
            time.sleep(0.002)
        raise RuntimeError("daemon did not report its address within 60s")

    def counts(self) -> Tuple[int, int, int]:
        """The daemon's ``(cache hits, cache misses, coalesced joins)``."""
        counters = self.clients[0].stats()["counters"]
        cache, service = counters.get("cache", {}), counters.get("service", {})
        return cache.get("hits", 0), cache.get("misses", 0), service.get("coalesced", 0)

    def shutdown(self) -> None:
        """Keep the daemon's counters, close the clients, send ``shutdown``
        and time the process exit in the background; :meth:`join` waits
        for it."""
        self.counters = self.clients[0].stats()["counters"]
        for client in self.clients:
            client.close()
        started = time.perf_counter()
        DaemonClient(self.address).shutdown()

        def wait() -> None:
            self.proc.wait(timeout=120)
            self.shutdown_s = time.perf_counter() - started

        self._waiter = threading.Thread(target=wait, daemon=True)
        self._waiter.start()

    def terminate(self) -> None:
        for client in self.clients:
            client.close()
        self.proc.terminate()

    def join(self) -> None:
        """Wait for the process to exit; kill it if it does not."""
        if self._waiter is not None:
            self._waiter.join(timeout=130)
        try:
            self.proc.wait(timeout=130)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("daemon did not exit within 130s of being stopped")
        finally:
            self.log.close()


@dataclass
class Answer:
    """One request as the client saw it."""

    request: Tuple[str, str, str]
    label: str
    seconds: float
    signature: Optional[tuple] = None
    design: Optional[tuple] = None
    error: Optional[str] = None


def ask(client: DaemonClient, request: Tuple[str, str, str], seed: int, label: str) -> Answer:
    began = time.perf_counter()
    try:
        report = client.compile_batch([make_request(*request, seed)])
    except Exception as exc:  # counted as a failed request
        return Answer(request, label, time.perf_counter() - began,
                      error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - began
    answer = Answer(request, label, seconds)
    if report.comparisons:
        answer.signature = signature(report.comparisons[0])
        answer.design = design(report.comparisons[0])
    else:
        failed = report.outcomes[0] if report.outcomes else None
        answer.error = f"no comparison: {failed.error if failed else 'empty report'}"
    return answer


@dataclass
class PassResult:
    #: Unscaled pass time and the same in reference-machine seconds; each
    #: answer with its latency scaled by its segment's factor.
    seconds: float
    scaled_seconds: float
    answers: List[Tuple[Answer, float]] = field(default_factory=list)

    @property
    def scaled(self) -> List[float]:
        return [answer.seconds * factor for answer, factor in self.answers]


class DaemonWarm:
    name = "daemon-warm"
    nominal_pass_s = 1.2
    min_passes = 5

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.burst = rng.choice(PAIRS)
        # Client ``slot`` owns every CLIENTS-th pair of a seeded shuffle,
        # on both backends; schedule index ``i`` draws from the pairs of
        # the client that sends it.
        shuffled = rng.sample(PAIRS, len(PAIRS))
        owned = [
            [(kernel, config, backend)
             for kernel, config in shuffled[slot::CLIENTS] for backend in BACKENDS]
            for slot in range(CLIENTS)
        ]
        self.schedule = [
            rng.choice(owned[index % CLIENTS]) for index in range(SCHEDULE_LENGTH)
        ]
        self.daemons: List[Daemon] = []
        self.setup_answers: List[Answer] = []
        #: The last set-up's fill answers: every request of the pool once.
        self.fill_answers: List[Answer] = []

    # -- set-up -----------------------------------------------------------
    def setup(self, gauge: SpeedGauge) -> Tuple[Daemon, float]:
        """Start a daemon, fire the cross-backend cold burst, fill the
        cache.  Returns the daemon, ready for its first timed request, and
        the set-up time in reference-machine seconds: the gauge ticks
        after the start, after the burst and after each fill request."""
        number = len(self.daemons)
        gauge.tick()
        began = time.perf_counter()
        daemon = Daemon(f"daemon{number}")
        self.daemons.append(daemon)
        scaled = self._lap(gauge, began)
        kernel, config = self.burst
        barrier = threading.Barrier(CLIENTS)
        burst: List[Optional[Answer]] = [None, None]

        def fire(slot: int, backend: str) -> None:
            barrier.wait()
            burst[slot] = ask(daemon.clients[slot], (kernel, config, backend),
                              self.seed, f"setup{number}/burst/{kernel}/{config}/{backend}")

        began = time.perf_counter()
        threads = [
            threading.Thread(target=fire, args=(slot, backend))
            for slot, backend in enumerate(BACKENDS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        scaled += self._lap(gauge, began)
        self.setup_answers.extend(burst)
        fill = []
        for request in POOL:
            began = time.perf_counter()
            fill.append(ask(daemon.clients[0], request, self.seed,
                            f"setup{number}/fill/{'/'.join(request)}"))
            scaled += self._lap(gauge, began)
        self.setup_answers.extend(fill)
        self.fill_answers = fill
        return daemon, scaled

    @staticmethod
    def _lap(gauge: SpeedGauge, began: float) -> float:
        """Scaled time since ``began``; ticks the gauge."""
        elapsed = time.perf_counter() - began
        gauge.tick()
        return elapsed * gauge.factor()

    def start(self) -> Tuple[Daemon, List[float]]:
        """Set up ``SETUP_REPEATS`` daemons; all but the last are shut
        down again (their exit is timed in the background).  Returns the
        last daemon and the set-up times."""
        gauge, setup_s = SpeedGauge(), []
        for number in range(SETUP_REPEATS):
            daemon, seconds = self.setup(gauge)
            setup_s.append(seconds)
            if number < SETUP_REPEATS - 1:
                daemon.shutdown()
        return daemon, setup_s

    def close(self) -> None:
        """Stop any daemon a failed run left behind."""
        for daemon in self.daemons:
            if daemon.proc.poll() is None:
                daemon.proc.kill()
                daemon.proc.wait()

    # -- passes -----------------------------------------------------------
    def one_pass(self, daemon: Daemon, gauge: SpeedGauge,
                 rec: Optional[SpanRecorder] = None, tag: str = "pass") -> PassResult:
        """Both clients work through the schedule, segment by segment."""
        gc.collect()
        answers: Dict[int, Answer] = {}
        barrier = threading.Barrier(CLIENTS + 1)
        starts = range(0, len(self.schedule), SEGMENT)

        def client_loop(slot: int) -> None:
            client = daemon.clients[slot]
            for start in starts:
                barrier.wait()
                for index in range(start + slot, min(start + SEGMENT, len(self.schedule)), CLIENTS):
                    request = self.schedule[index]
                    label = f"{tag}/{index}/{'/'.join(request)}"
                    if rec is None:
                        answers[index] = ask(client, request, self.seed, label)
                    else:
                        with rec.span("daemon.request", label):
                            answers[index] = ask(client, request, self.seed, label)
                barrier.wait()

        threads = [threading.Thread(target=client_loop, args=(s,)) for s in range(CLIENTS)]
        for thread in threads:
            thread.start()
        result, factors = PassResult(0.0, 0.0), []
        gauge.tick()
        for start in starts:
            barrier.wait()
            began = time.perf_counter()
            barrier.wait()
            elapsed = time.perf_counter() - began
            gauge.tick()
            result.seconds += elapsed
            result.scaled_seconds += elapsed * gauge.factor()
            factors += [gauge.factor()] * (min(start + SEGMENT, len(self.schedule)) - start)
        for thread in threads:
            thread.join()
        result.answers = [(answers[index], f) for index, f in enumerate(factors)]
        return result

    # -- correctness --------------------------------------------------------
    def check(self, run: Run, passes: List[PassResult]) -> None:
        """Every answer must carry the backend, latency and resources of an
        in-process compile of the same request (computed here, outside the
        timed region)."""
        reference: Dict[Tuple[str, str, str], tuple] = {}
        for kernel, config, backend in POOL:
            reference[(kernel, config, backend)] = signature(
                compare_flows(
                    kernel, SUITE_SIZES[SIZE_CLASS][kernel], resolve_config(config),
                    check_equivalence=False, seed=self.seed, backend=backend,
                )
            )
        answers = self.setup_answers + [a for p in passes for a, _ in p.answers]
        for answer in answers:
            expected = reference[answer.request]
            if answer.error:
                problem = answer.error
            elif answer.signature != expected:
                problem = (
                    f"wrong result: got backend={answer.signature[0]} "
                    f"latency={answer.signature[1]}, expected backend={expected[0]} "
                    f"latency={expected[1]}"
                )
            else:
                problem = None
            run.request(answer.label, problem)

    def finish(self, run: Run, passes: List[PassResult], graceful: bool) -> None:
        """Stop the last daemon (with the ``shutdown`` op when
        ``graceful``, else by signal: the timed run does not measure
        shutdown), check all answers meanwhile, and wait for every daemon
        to exit."""
        if graceful:
            self.daemons[-1].shutdown()
        else:
            self.daemons[-1].terminate()
        self.check(run, passes)
        for daemon in self.daemons:
            daemon.join()

    # -- runs -------------------------------------------------------------
    def timed(self, run: Run, seconds: float) -> None:
        daemon, setup_s = self.start()
        run.put("setup_s", median(setup_s), "s")
        run.notes.append(f"setup_s is the median of {SETUP_REPEATS} daemon set-ups")
        gauge = SpeedGauge()
        passes = [
            self.one_pass(daemon, gauge, tag=f"pass{number}")
            for number in range(pass_count(seconds, self.nominal_pass_s, self.min_passes))
        ]
        run.put("peak_rss_mb", peak_rss_mb(daemon.proc.pid), "MB")
        put_latency_metrics(
            run,
            [p.scaled_seconds for p in passes],
            [t for p in passes for t in p.scaled],
            [p.seconds for p in passes],
        )
        # Over the pool, each request once, so the figures do not depend on
        # the seed's schedule.
        designs = [a.design for a in self.fill_answers if a.design is not None]
        if designs:
            put_design_metrics(run, designs)
        self.finish(run, passes, graceful=False)

    def traced(self, run: Run, rec: SpanRecorder, rounds: int = 2) -> None:
        """Untraced passes alternate with traced ones (a span per client
        request).  Then, in this process, the same requests go through the
        layers a daemon hit runs: fingerprint, a service hit on the
        daemon's cache, response encode and decode.  What the client sees
        beyond those is the daemon's own overhead."""
        daemon, _ = self.start()
        untraced, traced, deltas, gauge = [], [], [], SpeedGauge()
        for number in range(rounds):
            untraced.append(self.one_pass(daemon, gauge, tag=f"untraced{number}"))
            before = daemon.counts()
            traced.append(self.one_pass(daemon, gauge, rec, tag=f"t{number}"))
            deltas.append([b - a for a, b in zip(before, daemon.counts())])
        hit_s, encode_s, decode_s, fingerprint_s, response_bytes = self.in_process(
            daemon, rec, gauge
        )
        client_p50 = median([t for p in traced for t in p.scaled])
        # The clients never share a kernel-config pair, so a pass joins
        # nothing in flight: every count repeats exactly.
        run.repeat_gate("cache.hits", [d[0] for d in deltas])
        run.repeat_gate("cache.misses", [d[1] for d in deltas])
        run.repeat_gate("daemon.coalesced", [d[2] for d in deltas])
        hits, misses, _ = deltas[-1]
        run.put("cache.hits", hits, "count")
        run.put("cache.misses", misses, "count")
        run.put("cache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
        run.put("cache.entry_bytes", median(entry_sizes(daemon.cache_dir)), "bytes")
        run.put("service.fingerprint_ms", median(fingerprint_s) * 1e3, "ms")
        run.put("service.hit_ms", median(hit_s) * 1e3, "ms")
        run.put("protocol.encode_ms", median(encode_s) * 1e3, "ms")
        run.put("protocol.decode_ms", median(decode_s) * 1e3, "ms")
        for request in set(self.schedule):
            run.repeat_gate(
                f"protocol.response_bytes of {'/'.join(request)}",
                [size for r, size in zip(self.schedule, response_bytes) if r == request],
            )
        run.put("protocol.response_bytes", median(response_bytes), "bytes")
        run.put(
            "daemon.overhead_ms",
            (client_p50 - median(hit_s) - median(encode_s) - median(decode_s)) * 1e3,
            "ms",
        )
        put_trace_overhead(
            run,
            [p.scaled_seconds for p in untraced],
            [p.scaled_seconds for p in traced],
        )
        self.finish(run, untraced + traced, graceful=True)
        run.put(
            "daemon.coalesced",
            sum(d.counters.get("service", {}).get("coalesced", 0) for d in self.daemons),
            "count",
        )
        run.put("daemon.shutdown_s", median([d.shutdown_s for d in self.daemons]), "s")

    def in_process(self, daemon: Daemon, rec: SpanRecorder, gauge: SpeedGauge):
        """Time, per scheduled request, the layers a warm daemon hit runs:
        the cache fingerprint, an in-process service hit on the daemon's
        cache (memory tier warmed first, as in the daemon), and the
        response's wire encode and decode.  Returns per-layer lists of
        scaled seconds, then the response sizes."""
        service = CompilationService(cache_dir=daemon.cache_dir, jobs=1, mem_entries=256)
        for request in sorted(set(self.schedule)):
            service.compile_batch([make_request(*request, self.seed)])
        layers = ("service.hit", "protocol.encode", "protocol.decode", "service.fingerprint")
        scaled: Dict[str, List[float]] = {name: [] for name in layers}
        sizes: List[int] = []
        gc.collect()
        gauge.tick()
        for index, request in enumerate(self.schedule):
            label = f"inproc/{index}/{'/'.join(request)}"
            kernel, config, backend = request
            first = len(rec.spans)
            with rec.span("request", label):
                with rec.span("service.fingerprint", label):
                    cache_key(
                        kernel, SUITE_SIZES[SIZE_CLASS][kernel], resolve_config(config),
                        device=service.device, check_equivalence=False,
                        seed=self.seed, backend=backend,
                    )
                with rec.span("service.hit", label):
                    report = service.compile_batch([make_request(*request, self.seed)])
                with rec.span("protocol.encode", label):
                    frame = encode_line(response_envelope(report_to_wire(report)))
                with rec.span("protocol.decode", label):
                    report_from_wire(validate_response(decode_line(frame))["report"])
            gauge.tick()
            for name in layers:
                scaled[name] += [t * gauge.factor() for t in rec.durations(name, first)]
            sizes.append(len(encode_line(response_envelope(zero_timings(report_to_wire(report))))))
        return tuple(scaled[name] for name in layers) + (sizes,)


def response_envelope(report_wire: dict) -> dict:
    """A compile response as the daemon frames it."""
    return {"v": PROTOCOL_VERSION, "id": "c1", "op": "compile", "status": "ok",
            "report": report_wire}


def zero_timings(report_wire: dict) -> dict:
    """The wire report with its wall-clock fields zeroed, so its size
    depends only on what was compiled."""
    report_wire["seconds"] = 0.0
    for outcome in report_wire["outcomes"]:
        outcome["seconds"] = 0.0
    report_wire["cache_stats"]["hit_seconds"] = 0.0
    report_wire["cache_stats"]["store_seconds"] = 0.0
    return report_wire


def entry_sizes(cache_dir: str) -> List[int]:
    """Sizes of the cache's entry files."""
    return [
        os.path.getsize(os.path.join(folder, name))
        for folder, _, files in os.walk(cache_dir)
        for name in files
        if name.endswith(CompilationCache.ENTRY_SUFFIX)
    ]
