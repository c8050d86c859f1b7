"""Work-counter goldens: the IR substrate's elided work, counted exactly.

The substrate skips redundant work: function passes fuse into one walk,
trusted passes defer verification to one flush, a module the previous
stage just verified is not re-verified, and CFG orders and dominator
trees are cached per ``Function.version``.  None of that changes any
output (``tests/flows/test_substrate_equivalence.py`` pins the outputs
against the guarded, unfused reference), so only the amount of work
shows it.  This golden counts that work for every MINI kernel through the
adaptor flow under ``optimized(ii=1)``:

* ``ir_function_verifies``: per-function IR verifications;
* ``mlir_verifies``: MLIR ``verify_module`` calls;
* ``dominator_trees``: ``DominatorTree`` constructions;
* ``postorders``: CFG postorder computations;
* ``function_walks``: ``Module.defined_functions()`` walks.

The counts are deterministic, so they are pinned at zero tolerance: a
lost fusion, deferral or cache hit moves at least one of them on any
machine.  The counters are test-side wrappers; ``src/`` carries none.
An intentional change regenerates them with::

    pytest tests/golden/test_work_counters.py --update-goldens
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Dict

import repro.ir.analysis.cfg as cfg
import repro.ir.verifier as ir_verifier
import repro.mlir.verifier as mlir_verifier
from repro.flows import OptimizationConfig, run_adaptor_flow
from repro.ir.analysis.dominators import DominatorTree
from repro.ir.module import Module
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "counters", "mini.json")
KERNELS = sorted(SUITE_SIZES["MINI"])

#: counter name -> (owner, attribute) whose calls it counts.
COUNTED = {
    "ir_function_verifies": (ir_verifier, "_function_errors"),
    "mlir_verifies": (mlir_verifier, "verify_module"),
    "dominator_trees": (DominatorTree, "__init__"),
    "postorders": (cfg, "_compute_postorder"),
    "function_walks": (Module, "defined_functions"),
}


def _count_calls(monkeypatch, counts: Counter) -> None:
    for key, (owner, attr) in COUNTED.items():
        original = getattr(owner, attr)

        def counted(*args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)


def work_counters(monkeypatch) -> Dict[str, Dict[str, int]]:
    counts: Counter = Counter()
    _count_calls(monkeypatch, counts)
    cases = {}
    for kernel in KERNELS:
        spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
        OptimizationConfig.optimized(ii=1).apply(spec)
        counts.clear()
        run_adaptor_flow(spec)
        cases[kernel] = {key: counts[key] for key in COUNTED}
    return cases


def test_work_counters_golden(monkeypatch, update_goldens):
    got = work_counters(monkeypatch)
    if update_goldens:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        lines = [
            f"{json.dumps(kernel)}: {json.dumps(got[kernel], sort_keys=True)}"
            for kernel in sorted(got)
        ]
        with open(GOLDEN_PATH, "w") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        return
    with open(GOLDEN_PATH) as fh:
        want = json.load(fh)
    assert sorted(got) == sorted(want)
    mismatched = {k: (want[k], got[k]) for k in want if got[k] != want[k]}
    assert not mismatched, f"work counters moved (want, got): {mismatched}"
