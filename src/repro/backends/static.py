"""``backends.static`` — the Vitis-style statically scheduled engine.

The policy this backend hands the :mod:`~repro.backends.driver`:

* a straight-line block costs its list-scheduled length, and its area is
  what the binder needs to share functional units across that schedule;
* an innermost loop overlaps its iterations only under a ``pipeline``
  directive: iterative modulo scheduling at the requested II gives
  ``IL + (trip - 1) * II + 1`` cycles, plus pipeline-control area.  A
  loop without the directive runs sequentially;
* a central FSM costs 200 LUT / 300 FF per function and 50 LUT / 70 FF
  per loop.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..hls.binding import AreaEstimate, bind_block
from ..hls.cdfg import BlockDFG
from ..hls.memory import MemoryModel
from ..hls.modulo import modulo_schedule
from ..hls.schedule import list_schedule
from ..ir.analysis.loops import Loop
from ..ir.metadata import LoopDirectives
from ..ir.module import BasicBlock
from .base import BackendCapabilities, register_backend
from .driver import Overlap, SynthesisDriver

__all__ = ["StaticBackend"]

# Pipelining is not free: the controller (valid-bit shift registers, the
# II counter, flush logic) costs LUTs, and every overlapped stage keeps its
# cross-stage values in registers.  Charged per pipelined loop; stage count
# is ceil(IL / II), the steady-state overlap depth.
_PIPELINE_CONTROL_LUT = 40
_PIPELINE_STAGE_FF = 48


@register_backend
class StaticBackend(SynthesisDriver):
    """Static scheduling: ASAP/list scheduling plus iterative modulo
    scheduling for pipelined loops, FU sharing through the binder."""

    id = "static"
    capabilities = BackendCapabilities(
        scheduling="static",
        directives=("pipeline", "ii", "unroll", "partition"),
        respects_ii=True,
        shares_functional_units=True,
    )
    function_control = (200, 300)
    loop_control = (50, 70)

    def block_cost(self, dfg: BlockDFG) -> Tuple[int, AreaEstimate]:
        schedule = list_schedule(dfg)
        return schedule.length, bind_block(dfg, schedule.starts, self.library)

    def overlapped_loop(
        self,
        loop: Loop,
        body: BasicBlock,
        directives: LoopDirectives,
        unroll: int,
        trips: Tuple[int, int],
        memory: MemoryModel,
    ) -> Optional[Overlap]:
        if not directives.pipeline:
            return None
        dfg, carried = self.body_dfg(loop, body, memory, unroll)
        ms = modulo_schedule(dfg, carried, target_ii=directives.ii)
        il = max(ms.length, 1)
        ii = ms.ii
        lat_min, lat_max = (
            il + max(trip - 1, 0) * ii + 1 if trip else 1 for trip in trips
        )
        area = bind_block(dfg, ms.starts, self.library, ii=ii)
        stages = max(1, -(-il // max(ii, 1)))
        area.lut += _PIPELINE_CONTROL_LUT
        area.ff += _PIPELINE_STAGE_FF * stages
        return Overlap(il, ii, lat_min, lat_max, area, ms.res_mii, ms.rec_mii)
