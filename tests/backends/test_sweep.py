"""Backend-neutrality sweep over the adapted suite.

Claims that must stay true for every registered backend:

* every backend accepts every adapted MINI kernel — the adaptor's output
  is the *contract* frontend dialect, not something tuned to one engine;
* ``backends.static`` reports stay bit-identical to what the raw
  pre-registry engine reported: the synthesis goldens in
  ``tests/golden/synth`` were written by that engine;
* ``synthesize`` runs its frontend check through the backend's
  ``frontend`` attribute, exactly once, so a caller can wrap it (the
  traced benchmark times ``hls.frontend`` that way).
"""

from __future__ import annotations

import pytest

from repro.adaptor import HLSAdaptor
from repro.backends import backend_ids, create_backend
from repro.ir.transforms import standard_cleanup_pipeline
from repro.mlir.passes import convert_to_llvm, lowering_pipeline
from repro.service.service import resolve_config
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

from ..golden.test_synth_goldens import load_golden, report_dict

KERNELS = sorted(SUITE_SIZES["MINI"])


@pytest.fixture(scope="module")
def adapted():
    """kernel -> adapted LLVM IR module (optimised config), built once."""
    modules = {}
    for kernel in KERNELS:
        spec = build_kernel(kernel, **SUITE_SIZES["MINI"][kernel])
        resolve_config("optimized").apply(spec)
        lowering_pipeline().run(spec.module)
        module = convert_to_llvm(spec.module)
        standard_cleanup_pipeline().run(module)
        HLSAdaptor(lint="off").run(module)
        modules[kernel] = module
    return modules


@pytest.mark.tier1
@pytest.mark.parametrize("kernel", KERNELS)
def test_every_backend_accepts_every_kernel(adapted, kernel):
    for backend_id in backend_ids():
        report = create_backend(backend_id).synthesize(adapted[kernel])
        assert report.backend == backend_id, (kernel, backend_id)
        assert report.latency_max > 0, (kernel, backend_id)
        assert report.resources["lut"] > 0, (kernel, backend_id)
        assert report.loops, (kernel, backend_id)


@pytest.mark.tier1
@pytest.mark.parametrize("kernel", KERNELS)
def test_static_backend_bit_identical_to_raw_engine(adapted, kernel):
    report = create_backend("static").synthesize(adapted[kernel])
    # Every field — latencies, resources, fu_instances, loop table,
    # warnings — against the raw engine's recorded report.
    raw = load_golden("mini")[f"{kernel}/optimized/adaptor/static"]
    assert report_dict(report) == raw, kernel


class _RecordingFrontend:
    def __init__(self, frontend):
        self.frontend = frontend
        self.checked = []

    def check(self, module):
        self.checked.append(module)
        return self.frontend.check(module)


@pytest.mark.parametrize("backend_id", backend_ids())
def test_synthesize_checks_through_the_frontend_attribute(adapted, backend_id):
    backend = create_backend(backend_id)
    recorder = _RecordingFrontend(backend.frontend)
    backend.frontend = recorder
    report = backend.synthesize(adapted["gemm"])
    assert recorder.checked == [adapted["gemm"]]
    assert report == create_backend(backend_id).synthesize(adapted["gemm"])


def test_dataflow_reports_emergent_ii(adapted):
    report = create_backend("dataflow").synthesize(adapted["gemm"])
    inner = [l for l in report.loops if l.ii is not None]
    assert inner, "dataflow gemm must report at least one overlapped loop"
    for loop in inner:
        assert loop.pipelined  # iteration overlap is the default
        assert loop.ii >= 1
    # gemm's reduction carries a dependence: the emergent II exceeds 1
    # even though no pipeline directive constrained it.
    assert any(l.ii > 1 for l in inner)


def test_dataflow_flags_ignored_static_directives(adapted):
    report = create_backend("dataflow").synthesize(adapted["gemm"])
    assert any("ignored" in w for w in report.frontend_warnings)
