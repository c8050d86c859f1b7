"""Synthesis-report goldens: every :class:`SynthReport` field, pinned.

Each case compiles one kernel through both flows (:func:`compare_flows`,
no equivalence check) under one optimisation config and one synthesis
backend, and records everything the report carries: latencies, resources,
``fu_instances``, the loop table (``res_mii``/``rec_mii`` included),
``frontend_warnings`` and ``dropped_directives``.  A change to scheduling,
binding or region composition that moves any number shows up here as a
per-case diff.  An intentional change regenerates them with::

    pytest tests/golden/test_synth_goldens.py --update-goldens -m ''

Case groups (keys are ``<kernel>/<config>/<flow>/<backend>``):

* ``mini``: the 15 MINI kernels under ``baseline`` and ``optimized``;
* ``tiny``: every TINY-space point of gemm, atax and doitgen, which covers
  outer-loop unrolling (child-loop serialisation and replicated area);
* ``default`` (slow): every point of each kernel's own default space.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, Iterable, List

import pytest

from repro.backends import backend_ids
from repro.dse.cost_model import KernelProfile
from repro.dse.space import DesignSpace
from repro.flows import OptimizationConfig, compare_flows
from repro.workloads import build_kernel
from repro.workloads.space import TINY_SPACE, config_space_for
from repro.workloads.suite import SUITE_SIZES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "synth")
KERNELS = list(SUITE_SIZES["MINI"])
TINY_KERNELS = ("gemm", "atax", "doitgen")


def report_dict(report) -> dict:
    """Every field of a SynthReport, JSON-ready (the device by name)."""
    fields = dataclasses.asdict(report)
    fields["device"] = report.device.name
    return fields


def _cases(kernel: str, configs: Iterable[OptimizationConfig]) -> Dict[str, dict]:
    sizes = SUITE_SIZES["MINI"][kernel]
    cases = {}
    for config in configs:
        for backend in backend_ids():
            comparison = compare_flows(
                kernel, sizes, config, check_equivalence=False, backend=backend
            )
            for flow, result in (("adaptor", comparison.adaptor), ("cpp", comparison.cpp)):
                key = f"{kernel}/{config.name}/{flow}/{backend}"
                cases[key] = report_dict(result.synth_report)
    return cases


def _space_points(kernel: str, space) -> List[OptimizationConfig]:
    spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
    depth = KernelProfile.from_spec(spec).depth
    return DesignSpace.build(space, nest_depth=depth).candidates


def _mini_cases() -> Dict[str, dict]:
    configs = (OptimizationConfig.baseline(), OptimizationConfig.optimized(ii=1))
    cases = {}
    for kernel in KERNELS:
        cases.update(_cases(kernel, configs))
    return cases


def _space_cases(kernels: Iterable[str], space_for) -> Dict[str, dict]:
    cases = {}
    for kernel in kernels:
        cases.update(_cases(kernel, _space_points(kernel, space_for(kernel))))
    return cases


GROUPS = {
    "mini": _mini_cases,
    "tiny": lambda: _space_cases(TINY_KERNELS, lambda kernel: TINY_SPACE),
    "default": lambda: _space_cases(KERNELS, config_space_for),
}
SLOW_GROUPS = {"default"}


def _golden_path(group: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{group}.json")


def _write(path: str, cases: Dict[str, dict]) -> None:
    """One case per line, so a golden diff reads case by case."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    lines = [
        f"{json.dumps(key)}: {json.dumps(cases[key], sort_keys=True)}"
        for key in sorted(cases)
    ]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def load_golden(group: str) -> Dict[str, dict]:
    with open(_golden_path(group)) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "group",
    [
        pytest.param(g, marks=pytest.mark.slow) if g in SLOW_GROUPS else g
        for g in GROUPS
    ],
)
def test_synth_golden(group, update_goldens):
    got = GROUPS[group]()
    if update_goldens:
        _write(_golden_path(group), got)
        return
    want = load_golden(group)
    assert sorted(got) == sorted(want)
    mismatched = [case for case in want if got[case] != want[case]]
    assert not mismatched, {case: (want[case], got[case]) for case in mismatched}


def test_goldens_cover_both_backends_and_unrolled_points():
    """The pinned set is not vacuous: both backends, both flows, pipelined
    loops with modulo bounds, and outer-loop unrolled points."""
    mini, tiny = load_golden("mini"), load_golden("tiny")
    assert len(mini) == len(KERNELS) * 2 * 2 * len(backend_ids())
    assert {key.rsplit("/", 1)[1] for key in mini} == set(backend_ids())
    assert any(loop["rec_mii"] > 1 for case in mini.values() for loop in case["loops"])
    assert any("u1x2" in key for key in tiny)
    assert any(
        loop["unroll_factor"] > 1 for case in tiny.values() for loop in case["loops"]
    )
