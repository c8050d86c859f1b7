"""``python -m repro dse`` — explore a kernel's directive space.

Writes the JSON :class:`~repro.dse.report.DSEReport` (default
``dse-<kernel>-<size>.json``) and prints the human frontier table.  A
second run over the same space is served from the compilation cache —
the header's ``N cache hit(s)`` line is the receipt.

Exit status: ``0`` on success (frontier non-empty), ``1`` when the
frontier came back empty, ``2`` for usage/configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

from ..service.resilience import FAILURE_MODES
from ..service.service import default_jobs
from ..workloads.space import NAMED_SPACES
from .search import SEARCH_STRATEGIES

__all__ = ["add_arguments", "run"]


def parse_budget(text: str) -> Dict[str, float]:
    """``lut=2000,dsp=16,lut_pct=50`` → axis-to-cap dict.

    A bare number (``--budget 32``) is shorthand for the search compile
    budget, i.e. ``compiles=32``; the two spellings mix freely
    (``--budget compiles=32,lut=2000``).  :func:`repro.dse.split_budget`
    peels the ``compiles`` pseudo-axis back off downstream.
    """
    budget: Dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            try:
                budget["compiles"] = float(int(chunk))
                continue
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"budget term {chunk!r} is neither axis=value nor "
                    f"an integer compile budget"
                ) from None
        axis, _, value = chunk.partition("=")
        try:
            budget[axis.strip()] = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"budget value {value!r} for {axis!r} is not a number"
            ) from None
    return budget


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments of the unified CLI's ``dse`` subcommand."""
    parser.add_argument("kernel", help="suite kernel to explore (e.g. gemm)")
    parser.add_argument(
        "--size", default="MINI", choices=["MINI", "SMALL"],
        help="problem size class (default MINI: sweeps want fast points)",
    )
    parser.add_argument(
        "--jobs", type=int, default=default_jobs(),
        help="worker processes (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--space", default=None, choices=sorted(NAMED_SPACES),
        help="named directive space (default: the kernel's registered space)",
    )
    parser.add_argument(
        "--device", default="xc7z020", help="device budget for utilisation/pruning"
    )
    parser.add_argument(
        "--strategy", default="exhaustive", choices=sorted(SEARCH_STRATEGIES),
        help="search strategy: exhaustive compiles every surviving "
        "point; ranked/halving spend a compile budget where the cost "
        "model (and measured feedback) place the frontier "
        "(default: exhaustive)",
    )
    parser.add_argument(
        "--budget", type=parse_budget, default=None, metavar="N|AXIS=CAP,...",
        help="a bare integer is the search compile budget "
        "(e.g. '--budget 32' with --strategy ranked/halving); "
        "axis=cap terms select the best point under a resource budget, "
        "e.g. 'lut=2000,dsp=16' or 'lut_pct=50'; both mix via "
        "'compiles=32,lut=2000'",
    )
    parser.add_argument(
        "--check-equivalence", action="store_true",
        help="also run the interpreter-based functional check per point",
    )
    parser.add_argument("--seed", type=int, default=17, help="equivalence-input seed")
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="JSON report path (default dse-<kernel>-<size>.json; '-' for none)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="run traced and write a Chrome trace-event JSON file here",
    )
    parser.add_argument(
        "--failure-policy", default=None, dest="failure_policy",
        choices=list(FAILURE_MODES),
        help="how failing design points are handled: fail-fast aborts "
        "the sweep, continue/retry record them in the report's 'failed' "
        "list and keep exploring (default: fail-fast)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock deadline (enforced with --jobs > 1)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="executions per point (default: 2 under retry, else 1)",
    )
    parser.add_argument(
        "--daemon", default=None, metavar="ADDR",
        help="route the sweep's batches through a running compile daemon "
        "at ADDR (host:port or unix:/path.sock)",
    )
    parser.add_argument(
        "--backend", default=None, metavar="ID[,ID...]",
        help="synthesis backend(s) to explore as a design-space axis "
        "(repro.backends ids, e.g. 'static', 'dataflow', or "
        "'static,dataflow' to sweep both; default: static)",
    )


def run(args: argparse.Namespace) -> int:
    from ..dse.explorer import explore, split_budget
    from ..service.cli import policy_from_args
    from ..service.service import CompilationService

    cache_dir = getattr(args, "cache_dir", None)
    service = CompilationService(
        cache_dir=cache_dir,
        jobs=args.jobs,
        device=args.device,
        daemon=getattr(args, "daemon", None),
    )
    policy = policy_from_args(args)

    def _explore():
        return explore(
            args.kernel,
            size_class=args.size,
            space=args.space,
            service=service,
            check_equivalence=args.check_equivalence,
            seed=args.seed,
            budget=args.budget,
            strategy=args.strategy,
            policy=policy,
            backends=getattr(args, "backend", None),
        )

    if args.trace_out:
        from ..observability import (
            StatisticsRegistry,
            Tracer,
            dump_chrome_trace,
            use_statistics,
            use_tracer,
        )

        tracer = Tracer(name="dse")
        registry = StatisticsRegistry()
        with use_tracer(tracer), use_statistics(registry):
            report = _explore()
        dump_chrome_trace(args.trace_out, forest=tracer.roots)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    else:
        report = _explore()

    out_path = args.out
    if out_path is None:
        out_path = f"dse-{args.kernel}-{args.size}.json"
    if out_path != "-":
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"report written to {out_path}", file=sys.stderr)

    print(report.summary())
    _, resource_budget = split_budget(args.budget)
    if resource_budget is not None:
        best = report.best_config(resource_budget)
        caps = ",".join(f"{k}={v:g}" for k, v in sorted(resource_budget.items()))
        if best is None:
            print(f"best under budget [{caps}]: no explored point fits")
        else:
            print(
                f"best under budget [{caps}]: {best.name} "
                f"(latency {best.latency}, lut {best.lut}, ff {best.ff}, "
                f"dsp {best.dsp}, bram {best.bram_18k})"
            )
    return 0 if report.frontier else 1
