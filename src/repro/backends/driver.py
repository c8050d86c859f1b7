"""``backends.driver`` — the region-composition driver both backends share.

A synthesis estimate is a walk over the top function's loop tree.  This
module owns that walk, and every part of it on which the backends agree:

* the frontend check, top-function lookup and the report skeleton;
* loop-tree recursion, ``L{n}_<header>`` naming and unroll normalisation;
* the sequential loop, ``eff_trip * IL + 2`` (iteration latency plus
  enter/exit);
* region composition: blocks and collapsed child loops form a DAG whose
  longest path is the region latency.  Unrolling an outer loop replicates
  its child loops, as far as array banking lets the copies run in
  parallel;
* function and per-loop control area, and the loop table in source order.

A backend (a :class:`SynthesisDriver` subclass) supplies only its policy:

* :meth:`~SynthesisDriver.block_cost` — latency and area of one
  straight-line block;
* :meth:`~SynthesisDriver.overlapped_loop` — latency and area of an
  innermost single-block loop whose iterations overlap, or ``None`` to
  run it as a sequential loop;
* :attr:`~SynthesisDriver.function_control` and
  :attr:`~SynthesisDriver.loop_control` — the control-area constants.

Variable trip counts (triangular nests) propagate as (min, max) ranges;
directive-driven unrolling replicates the body DFG by the factor and
divides the trip count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..hls.affine_summary import summarize_index
from ..hls.binding import AreaEstimate, merge_area
from ..hls.cdfg import BlockDFG, CarriedDep, build_block_dfg, carried_dependences
from ..hls.device import Device
from ..hls.frontend import HLSFrontend
from ..hls.memory import MemoryModel
from ..hls.operators import OperatorLibrary
from ..hls.report import LoopReport, SynthReport
from ..ir.analysis.cfg import reverse_postorder
from ..ir.analysis.loops import Loop, LoopInfo
from ..ir.instructions import Phi
from ..ir.metadata import LoopDirectives, decode_loop_directives
from ..ir.module import BasicBlock, Function, Module
from ..ir.values import ConstantInt
from .base import HLSBackend

__all__ = [
    "Overlap",
    "SynthesisDriver",
    "find_top_function",
    "loop_directives_for",
    "trip_range",
    "region_graph",
]


# -- shared loop/region analyses ---------------------------------------------
# Every backend reads directives, trip ranges and region structure through
# these: the numbers may differ per backend, the interpretation of the IR
# may not.


def find_top_function(module: Module, top: Optional[str] = None) -> Function:
    """The synthesis top: explicit name > ``hls_top`` attribute > the only
    defined function; anything else is ambiguous."""
    if top is not None:
        fn = module.get_function(top)
        if fn is None or fn.is_declaration:
            raise ValueError(f"no defined function @{top}")
        return fn
    tops = [f for f in module.defined_functions() if "hls_top" in f.attributes]
    if len(tops) == 1:
        return tops[0]
    defined = module.defined_functions()
    if len(defined) == 1:
        return defined[0]
    raise ValueError(
        "ambiguous top function: tag one with the hls_top attribute or "
        "pass top=..."
    )


def loop_directives_for(loop: Loop) -> LoopDirectives:
    """Decode the loop's HLS-dialect directives off its latch metadata.

    Modern-spelling directives are invisible to the old fork, so they are
    invisible to every backend too — backends differ in which decoded
    directives they *honour*, never in what they can see."""
    for latch in loop.latches():
        term = latch.terminator
        if term is None:
            continue
        node = term.metadata.get("llvm.loop")
        if node is None:
            continue
        directives, dialects = decode_loop_directives(node)
        if "hls" in dialects:
            return directives
    return LoopDirectives()


def _enclosing_iv_range(
    value, loop: Loop
) -> Optional[Tuple[int, int]]:
    """Range of an enclosing loop's IV (for triangular bounds)."""
    if not isinstance(value, Phi):
        return None
    enclosing = loop.parent
    while enclosing is not None:
        counted = enclosing.counted_form()
        if counted is not None and counted.indvar is value:
            if isinstance(counted.start, ConstantInt) and isinstance(
                counted.bound, ConstantInt
            ):
                lo = counted.start.value
                hi = counted.bound.value
                if counted.predicate in ("slt", "ult"):
                    hi -= 1
                return (lo, max(lo, hi))
            return None
        enclosing = enclosing.parent
    return None


def trip_range(loop: Loop, loop_info: LoopInfo) -> Tuple[int, int]:
    """(min, max) trip count; triangular bounds resolve through the
    affine summary over enclosing counted loops."""
    counted = loop.counted_form()
    if counted is None:
        return (1, 64)  # irregular loop: Vitis reports '?'; we bound it
    exact = counted.trip_count()
    if exact is not None:
        return (exact, exact)
    lo = counted.start.value if isinstance(counted.start, ConstantInt) else None
    summary = summarize_index(counted.bound)
    bound_min = bound_max = summary.const
    resolvable = True
    for key, coeff in summary.coeffs.items():
        leaf = summary.leaves[key]
        rng = _enclosing_iv_range(leaf, loop)
        if rng is None:
            resolvable = False
            break
        low, high = rng
        lo_term, hi_term = sorted((coeff * low, coeff * high))
        bound_min += lo_term
        bound_max += hi_term
    if not resolvable or lo is None:
        return (1, 64)
    step = max(counted.step, 1)
    pred = counted.predicate
    inclusive = pred in ("sle", "ule")
    span_min = bound_min - lo + (1 if inclusive else 0)
    span_max = bound_max - lo + (1 if inclusive else 0)
    trip_min = max(0, -(-span_min // step)) if span_min > 0 else 0
    trip_max = max(trip_min, -(-span_max // step)) if span_max > 0 else trip_min
    return (trip_min, trip_max)


def region_graph(
    blocks: List[BasicBlock], child_loops: List[Loop]
) -> Tuple[Dict[int, object], Dict[int, List[int]]]:
    """Units (blocks + collapsed child loops) and the DAG between them.

    Keys are ``id(block)`` / ``id(child.header)``; edges follow CFG
    successors with back edges into the same unit dropped."""
    child_of: Dict[int, Loop] = {}
    for child in child_loops:
        for block in child.blocks:
            child_of[id(block)] = child

    units: Dict[int, object] = {}
    for block in blocks:
        units[id(block)] = block
    for child in child_loops:
        units[id(child.header)] = child

    def unit_key(block: BasicBlock) -> Optional[int]:
        child = child_of.get(id(block))
        if child is not None:
            return id(child.header)
        return id(block) if id(block) in units else None

    succs: Dict[int, List[int]] = {key: [] for key in units}
    for key, unit in units.items():
        targets = unit.exit_blocks() if isinstance(unit, Loop) else unit.successors
        for target in targets:
            tkey = unit_key(target)
            if tkey is not None and tkey != key and tkey not in succs[key]:
                succs[key].append(tkey)
    return units, succs


def _longest_path(
    units: Dict[int, object], succs: Dict[int, List[int]], weights: Dict[int, int]
) -> int:
    """Heaviest root-to-sink path through the region DAG (memoised DFS)."""
    memo: Dict[int, int] = {}

    def longest(key: int) -> int:
        if key in memo:
            return memo[key]
        memo[key] = weights[key]  # guard against (unexpected) cycles
        best = 0
        for nxt in succs[key]:
            best = max(best, longest(nxt))
        memo[key] = weights[key] + best
        return memo[key]

    has_pred: set = set()
    for targets in succs.values():
        has_pred.update(targets)
    roots = [key for key in units if key not in has_pred] or list(units)
    return max((longest(root) for root in roots), default=1)


def _unroll_serialization(loop: Loop, memory: MemoryModel, unroll: int) -> int:
    """How many of ``unroll`` child-loop copies must time-share.

    The limiting buffer is the one with the fewest banks among the arrays
    the child touches; cyclic partitioning at factor *f* supplies *f*
    concurrent bank groups, so ceil(unroll / f) copies serialise.  A child
    that touches no arrays replicates freely.
    """
    banks: Optional[int] = None
    for block in loop.blocks:
        for inst in block.instructions:
            site = memory.site_for(inst)
            if site is None:
                continue
            banks = (
                site.buffer.banks if banks is None else min(banks, site.buffer.banks)
            )
    if banks is None:
        return 1
    return max(1, -(-unroll // max(1, banks)))


def _replicated_area(area: AreaEstimate, copies: int) -> AreaEstimate:
    """Area of ``copies`` extra parallel instances of a bound region.

    Compute resources replicate; BRAM does not (the copies read the same
    banked buffers — banking itself is charged by the memory model).
    """
    return AreaEstimate(
        lut=area.lut * copies,
        ff=area.ff * copies,
        dsp=area.dsp * copies,
        bram_18k=0,
        fu_instances={cls: n * (copies + 1) for cls, n in area.fu_instances.items()},
    )


# -- the driver ----------------------------------------------------------------


@dataclass
class Overlap:
    """An overlapped loop as a backend's policy measured it."""

    iteration_latency: int
    ii: int
    latency_min: int
    latency_max: int
    area: AreaEstimate
    res_mii: int
    rec_mii: int


@dataclass
class _LoopResult:
    latency_min: int
    latency_max: int
    report: LoopReport
    area: AreaEstimate


class _Walk:
    """Per-``synthesize`` state: the function's analyses and the loop
    results gathered so far (keyed by ``id(loop.header)``)."""

    def __init__(self, fn: Function):
        self.memory = MemoryModel(fn)
        self.loop_info = LoopInfo(fn)
        self.results: Dict[int, _LoopResult] = {}
        self.areas: List[AreaEstimate] = []
        self.ignored_pipelines = 0


class SynthesisDriver(HLSBackend):
    """:meth:`synthesize` for any backend that supplies the three policies.

    Subclasses implement :meth:`block_cost` and :meth:`overlapped_loop`
    and set the :attr:`function_control` / :attr:`loop_control`
    ``(lut, ff)`` pairs.
    """

    #: Function-level control area, ``(lut, ff)``.
    function_control: Tuple[int, int]
    #: Control area charged once per loop, ``(lut, ff)``.
    loop_control: Tuple[int, int]

    def __init__(
        self,
        device: Union[str, Device] = "xc7z020",
        library: Optional[OperatorLibrary] = None,
        strict_frontend: bool = True,
    ):
        super().__init__(
            device=device, library=library, strict_frontend=strict_frontend
        )
        self.frontend = HLSFrontend(strict=strict_frontend)

    # -- policy hooks -------------------------------------------------------
    def block_cost(self, dfg: BlockDFG) -> Tuple[int, AreaEstimate]:
        """Latency and area of one non-empty straight-line block."""
        raise NotImplementedError

    def overlapped_loop(
        self,
        loop: Loop,
        body: BasicBlock,
        directives: LoopDirectives,
        unroll: int,
        trips: Tuple[int, int],
        memory: MemoryModel,
    ) -> Optional[Overlap]:
        """An innermost single-block loop with overlapping iterations.

        ``trips`` is the (min, max) trip count after unrolling.  Return
        ``None`` to have the driver compose the loop sequentially."""
        raise NotImplementedError

    def body_dfg(
        self, loop: Loop, body: BasicBlock, memory: MemoryModel, unroll: int
    ) -> Tuple[BlockDFG, List[CarriedDep]]:
        """The unrolled body DFG and its loop-carried dependences."""
        dfg = build_block_dfg(body, self.library, memory, unroll=unroll)
        counted = loop.counted_form()
        iv = counted.indvar if counted else None
        return dfg, carried_dependences(dfg, iv, loop)

    # -- the walk -----------------------------------------------------------
    def synthesize(self, module: Module, top: Optional[str] = None) -> SynthReport:
        diag = self.frontend.check(module)
        fn = find_top_function(module, top)
        report = SynthReport(
            function=fn.name,
            flow=module.source_flow or "unknown",
            device=self.device,
            backend=self.id,
            frontend_warnings=list(diag.warnings),
            dropped_directives=diag.dropped_directives,
        )
        walk = _Walk(fn)
        loop_info = walk.loop_info
        for loop in loop_info.top_level:
            self._walk_loop(walk, loop, 1)

        lat_min, lat_max, top_area = self._compose_region(
            walk,
            [b for b in reverse_postorder(fn) if loop_info.loop_for(b) is None],
            loop_info.top_level,
        )
        walk.areas.append(top_area)

        report.latency_min = lat_min
        report.latency_max = lat_max
        loops = loop_info.all_loops()
        total_area = merge_area(*walk.areas)
        total_area.lut += self.function_control[0] + self.loop_control[0] * len(loops)
        total_area.ff += self.function_control[1] + self.loop_control[1] * len(loops)
        total_area.bram_18k += walk.memory.total_bram18()
        report.resources = total_area.as_dict()
        report.fu_instances = total_area.fu_instances
        if walk.ignored_pipelines:
            report.frontend_warnings.append(
                f"{walk.ignored_pipelines} static-scheduling directive(s) "
                f"(pipeline/II) ignored: dataflow II is emergent"
            )
        # Loop table in source order (by header position).
        order = {id(b): i for i, b in enumerate(fn.blocks)}
        report.loops = [
            walk.results[id(l.header)].report
            for l in sorted(loops, key=lambda l: order[id(l.header)])
        ]
        return report

    def _walk_loop(self, walk: _Walk, loop: Loop, depth: int) -> None:
        for child in loop.children:
            self._walk_loop(walk, child, depth + 1)
        result = self._schedule_loop(walk, loop, depth)
        walk.results[id(loop.header)] = result
        walk.areas.append(result.area)

    def _schedule_loop(self, walk: _Walk, loop: Loop, depth: int) -> _LoopResult:
        name = f"L{len(walk.results) + 1}_{loop.header.name}"
        directives = loop_directives_for(loop)
        if directives.pipeline and "pipeline" not in self.capabilities.directives:
            walk.ignored_pipelines += 1
        trip_min, trip_max = trip_range(loop, walk.loop_info)

        own_blocks = [
            b
            for b in loop.blocks
            if walk.loop_info.loop_for(b) is loop and b is not loop.header
        ]

        unroll = 1
        if directives.unroll_full and trip_min == trip_max:
            unroll = max(trip_max, 1)
        elif directives.unroll:
            unroll = max(1, directives.unroll)
        unroll = min(unroll, max(trip_max, 1))
        eff_trip_min = -(-trip_min // unroll)
        eff_trip_max = -(-trip_max // unroll)

        overlap = None
        if not loop.children and len(own_blocks) == 1:
            overlap = self.overlapped_loop(
                loop, own_blocks[0], directives, unroll,
                (eff_trip_min, eff_trip_max), walk.memory,
            )
        if overlap is not None:
            loop_report = LoopReport(
                name=name,
                depth=depth,
                trip_count_min=eff_trip_min,
                trip_count_max=eff_trip_max,
                iteration_latency=overlap.iteration_latency,
                ii=overlap.ii,
                latency_min=overlap.latency_min,
                latency_max=overlap.latency_max,
                pipelined=True,
                unroll_factor=unroll,
                res_mii=overlap.res_mii,
                rec_mii=overlap.rec_mii,
            )
            return _LoopResult(
                overlap.latency_min, overlap.latency_max, loop_report, overlap.area
            )

        # Sequential loop: iterations run back to back over the body region.
        il_min, il_max, area = self._compose_region(
            walk, own_blocks, loop.children, unroll=unroll
        )
        il_min = max(il_min, 1)
        il_max = max(il_max, 1)
        lat_min = eff_trip_min * il_min + 2
        lat_max = eff_trip_max * il_max + 2
        loop_report = LoopReport(
            name=name,
            depth=depth,
            trip_count_min=eff_trip_min,
            trip_count_max=eff_trip_max,
            iteration_latency=il_max,
            ii=None,
            latency_min=lat_min,
            latency_max=lat_max,
            pipelined=False,
            unroll_factor=unroll,
        )
        return _LoopResult(lat_min, lat_max, loop_report, area)

    def _compose_region(
        self,
        walk: _Walk,
        blocks: List[BasicBlock],
        child_loops: List[Loop],
        unroll: int = 1,
    ) -> Tuple[int, int, AreaEstimate]:
        """Longest path (min & max variants) through blocks + collapsed
        child loops, plus merged area."""
        units, succs = region_graph(blocks, child_loops)

        weights_min: Dict[int, int] = {}
        weights_max: Dict[int, int] = {}
        areas: List[AreaEstimate] = []
        for key, unit in units.items():
            if isinstance(unit, Loop):
                result = walk.results[id(unit.header)]
                serial = 1
                if unroll > 1:
                    # Unrolling an outer loop replicates each child loop.
                    # Copies run in parallel only as far as array banking
                    # allows: each concurrent copy needs its own bank group,
                    # so ceil(unroll / banks) copies time-share one instance.
                    serial = _unroll_serialization(unit, walk.memory, unroll)
                    parallel = -(-unroll // serial)
                    if parallel > 1:
                        areas.append(_replicated_area(result.area, parallel - 1))
                weights_min[key] = result.latency_min * serial
                weights_max[key] = result.latency_max * serial
            else:
                dfg = build_block_dfg(unit, self.library, walk.memory, unroll=unroll)
                if dfg.nodes:
                    latency, area = self.block_cost(dfg)
                    weights_min[key] = weights_max[key] = latency
                    areas.append(area)
                else:
                    weights_min[key] = weights_max[key] = 1

        lat_min = _longest_path(units, succs, weights_min)
        lat_max = _longest_path(units, succs, weights_max)
        merged = merge_area(*areas) if areas else AreaEstimate()
        return lat_min, lat_max, merged
