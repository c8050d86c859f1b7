#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile-mini --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: the program is imported from
``./src``.  ``--trace 0`` is the timed run and reports the end-to-end
metrics; ``--trace 1`` is the separate traced run and reports the
per-layer metrics, writing its spans to ``.perfbench-out/``.  Every
metric is printed by name with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "requests_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "design_latency_geomean": "cycles",
    "design_lut_geomean": "LUT",
    "design_dsp_geomean": "DSP",
    "flow_latency_ratio_geomean": "ratio",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  A workload reports 0
#: for a layer it does not run.
PER_LAYER = {
    "workloads.build_ms": "ms",
    "mlir.lower_ms": "ms",
    "mlir.llvm_insts": "count",
    "ir.cleanup_ms.adaptor": "ms",
    "ir.cleanup_ms.cpp": "ms",
    "ir.insts_after_cleanup": "count",
    "adaptor.run_ms": "ms",
    "adaptor.rewrites": "count",
    "lint.ms": "ms",
    "lint.findings": "count",
    "hlscpp.codegen_ms": "ms",
    "hlscpp.cfrontend_ms": "ms",
    "hlscpp.cpp_bytes": "bytes",
    "hls.frontend_ms": "ms",
    "backends.static.synth_ms": "ms",
    "backends.dataflow.synth_ms": "ms",
    "interp.ms": "ms",
    "interp.steps": "count",
    "interp.steps_per_s": "steps/s",
    "compare.self_ms": "ms",
    "service.fingerprint_ms": "ms",
    "service.hit_ms": "ms",
    "cache.store_ms": "ms",
    "cache.entry_bytes": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "protocol.encode_ms": "ms",
    "protocol.decode_ms": "ms",
    "protocol.response_bytes": "bytes",
    "daemon.overhead_ms": "ms",
    "daemon.coalesced": "count",
    "daemon.shutdown_s": "s",
    "dse.explore_ms": "ms",
    "dse.batch_ms": "ms",
    "dse.search_self_ms": "ms",
    "dse.compiles": "count",
    "dse.rounds": "count",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}

WORKLOADS = ("compile-mini", "check-small", "dse-halving", "daemon-warm")


def load_workload(name: str, seed: int):
    sys.path.insert(0, common.SRC)
    if name == "compile-mini":
        from compile_loads import CompileMini as cls
    elif name == "check-small":
        from compile_loads import CheckSmall as cls
    elif name == "dse-halving":
        from dse_load import DseHalving as cls
    else:
        from daemon_load import DaemonWarm as cls
    return cls(seed)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set the workload up, print 'ready' and exit (times set-up)",
    )
    return parser.parse_args(argv)


def report(run: common.Run, names: dict, trace: bool) -> str:
    """Human-readable lines, then the JSON result as the last line."""
    lines = [f"workload {run.workload} ({'traced' if trace else 'timed'} run)"]
    for name, unit in names.items():
        value, got_unit = run.metrics.get(name, (0.0, unit))
        if got_unit != unit:
            raise RuntimeError(f"metric {name} reported in {got_unit}, declared {unit}")
        lines.append(f"  {name:<28} {value:>16.6f} {unit}")
    rate = run.failed / run.attempted if run.attempted else 0.0
    lines.append(
        f"  {'error_rate':<28} {rate:>16.6f} ratio "
        f"({run.failed} of {run.attempted} requests)"
    )
    lines += [f"  note: {note}" for note in run.notes]
    if run.failures:
        lines.append(f"failed requests ({len(run.failures)}):")
        lines += [f"  {failure}" for failure in run.failures[:50]]
        if len(run.failures) > 50:
            lines.append(f"  ... and {len(run.failures) - 50} more")
    for gate in run.gate_failures:
        lines.append(f"GATE FAILED: {gate}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": run.metrics.get(name, (0.0, unit))[0], "unit": unit}
            for name, unit in names.items()
        },
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"no program to benchmark: {common.SRC}/repro is missing", file=sys.stderr)
        return 2
    os.makedirs(common.WORK, exist_ok=True)
    tempfile.tempdir = common.WORK
    workload = load_workload(args.workload, args.seed)
    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        return 0

    run = common.Run(args.workload)
    try:
        if args.workload != "daemon-warm" and not args.trace:
            # daemon-warm times its own daemon set-ups.
            run.put("setup_s", common.median(common.probe_setup(args.workload, args.seed)), "s")
            run.notes.append(f"setup_s is the median of {common.SETUP_REPEATS} set-ups")
        if args.workload != "daemon-warm":
            workload.setup()
        if args.trace:
            rec = common.SpanRecorder()
            workload.traced(run, rec)
            path = os.path.join(common.OUT, f"spans-{args.workload}-seed{args.seed}.json")
            rec.dump(path)
            run.notes.append(f"{len(rec.spans)} spans written to {os.path.relpath(path)}")
        else:
            workload.timed(run, args.seconds)
    finally:
        if hasattr(workload, "close"):
            workload.close()
        shutil.rmtree(common.WORK, ignore_errors=True)
    print(report(run, PER_LAYER if args.trace else END_TO_END, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
