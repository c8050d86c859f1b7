"""JSON compile records: a FlowComparison's round trip through its record."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.flows import FlowComparison, compare_flows, run_adaptor_flow
from repro.flows.adaptor_flow import AdaptorFlowResult
from repro.flows.config import OptimizationConfig
from repro.flows.record import (
    ModuleText,
    RecordError,
    canonical_json,
    from_record,
    to_record,
)
from repro.ir import print_module
from repro.observability import Tracer, use_tracer
from repro.workloads import build_kernel
from repro.workloads.suite import SUITE_SIZES

GEMM = SUITE_SIZES["MINI"]["gemm"]


@pytest.fixture(scope="module")
def comparison():
    """A comparison with every optional part filled in: the equivalence
    verdict, the lint verdict and a span tree."""
    with use_tracer(Tracer(name="record")):
        result = compare_flows("gemm", GEMM, OptimizationConfig.optimized(ii=1))
    result.cache_status = "miss"
    result.lookup_seconds = 0.000123456789
    assert result.trace is not None and result.lint is not None
    return result


def roundtrip(value):
    return from_record(type(value), json.loads(canonical_json(to_record(value))))


class TestRoundTrip:
    def test_every_record_field_survives(self, comparison):
        back = roundtrip(comparison)
        for field in dataclasses.fields(FlowComparison):
            assert getattr(back, field.name) == getattr(comparison, field.name), field.name
        assert back == comparison

    def test_reencoding_reproduces_the_record(self, comparison):
        text = canonical_json(comparison.to_record())
        back = FlowComparison.from_record(json.loads(text))
        assert canonical_json(back.to_record()) == text

    def test_reports_keep_their_types(self, comparison):
        back = roundtrip(comparison)
        report = back.adaptor.adaptor_report
        assert isinstance(report.disabled, tuple)
        assert all(isinstance(p.touched, set) for p in report.passes)
        assert report.lint == comparison.adaptor.adaptor_report.lint
        assert back.adaptor.synth_report.device == comparison.adaptor.synth_report.device

    def test_ir_is_text_until_asked_for(self, comparison):
        back = roundtrip(comparison)
        assert repr(back.adaptor.ir) == "<ModuleText text>"
        assert back.adaptor.ir_text == print_module(comparison.adaptor.ir_module)
        module = back.cpp.ir_module
        assert back.cpp.ir_module is module  # parsed once
        assert print_module(module) == comparison.cpp.ir_text

    def test_decoded_values_share_nothing_with_the_record(self, comparison):
        record = json.loads(canonical_json(comparison.to_record()))
        first = FlowComparison.from_record(record)
        first.lint["codes"].append("REPRO-LINT-001")
        first.adaptor.synth_report.resources["lut"] = -1
        second = FlowComparison.from_record(record)
        assert second.lint == comparison.lint
        assert second.adaptor.synth_report.resources == comparison.adaptor.resources

    def test_lookup_seconds_is_fixed_width(self, comparison):
        sizes = set()
        for seconds in (0.0, 1e-4, 0.000123456789, 0.0019999, 2.5):
            record = dataclasses.replace(comparison, lookup_seconds=seconds).to_record()
            assert FlowComparison.from_record(record).lookup_seconds == seconds
            sizes.add(len(canonical_json(record)))
        assert len(sizes) == 1

    def test_modern_snapshot_travels_as_text(self):
        spec = build_kernel("gemm", **GEMM)
        result = run_adaptor_flow(spec, keep_modern_snapshot=True)
        back = roundtrip(result)
        assert isinstance(back, AdaptorFlowResult)
        assert back.modern_ir_module.opaque_pointers
        assert print_module(back.modern_ir_module) == print_module(result.modern_ir_module)


class TestMalformedRecords:
    def record(self, comparison):
        return json.loads(canonical_json(comparison.to_record()))

    def test_missing_field(self, comparison):
        record = self.record(comparison)
        del record["cpp"]["synth_report"]["loops"]
        with pytest.raises(RecordError, match="missing fields \\['loops'\\]"):
            FlowComparison.from_record(record)

    def test_unknown_field(self, comparison):
        record = self.record(comparison)
        record["adaptor"]["adaptor_report"]["extra"] = 1
        with pytest.raises(RecordError, match="unknown fields \\['extra'\\]"):
            FlowComparison.from_record(record)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("max_abs_error",), "0.0"),
            (("adaptor", "raw_instruction_count"), True),
            (("adaptor", "synth_report", "resources"), {"lut": "many"}),
            (("adaptor", "adaptor_report", "passes"), [7]),
            (("cpp", "synth_report", "device", "clock_ns"), None),
            (("trace",), [1, 2]),
        ],
    )
    def test_wrong_type_names_the_field(self, comparison, path, value):
        record = self.record(comparison)
        target = record
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(RecordError):
            FlowComparison.from_record(record)

    def test_not_an_object(self):
        with pytest.raises(RecordError):
            FlowComparison.from_record(["kernel", "gemm"])


def test_module_text_needs_one_form():
    with pytest.raises(ValueError):
        ModuleText()
