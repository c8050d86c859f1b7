"""Golden tests for the daemon's NDJSON wire protocol.

The fixtures under ``tests/service/wire/`` are the protocol's contract:
every message shape a client or daemon can emit, validated by the same
schema checker both ends run.  Changing the wire format without bumping
``PROTOCOL_VERSION`` (and regenerating the fixtures) breaks these tests
— which is the point.

``response_ok.json`` and ``response_partial.json`` carry real compile
records; after a record format change, regenerate them from fresh
compiles with::

    pytest tests/service/test_protocol.py --update-goldens
"""

import base64
import copy
import hashlib
import json
import os
import pickle
import socket
import threading

import pytest

from repro.diagnostics.errors import ProtocolError
from repro.flows.config import OptimizationConfig
from repro.ir import print_module
from repro.service.client import DaemonClient
from repro.service.service import CompilationService, resolve_config
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_comparison,
    decode_line,
    encode_comparison,
    encode_line,
    error_response,
    outcome_from_wire,
    outcome_to_wire,
    policy_from_wire,
    policy_to_wire,
    report_from_wire,
    report_to_wire,
    request_from_wire,
    request_to_wire,
    validate_request,
    validate_response,
)
from repro.service.resilience import FailurePolicy, RequestOutcome
from repro.service.service import CompileRequest

WIRE_DIR = os.path.join(os.path.dirname(__file__), "wire")


def load_fixture(name):
    with open(os.path.join(WIRE_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    """One real comparison (gemm, MINI, baseline), as a daemon serves it."""
    service = CompilationService(cache_dir=str(tmp_path_factory.mktemp("cache")))
    return service.compile_one(
        "gemm", "baseline", size_class="MINI", check_equivalence=False
    )


class TestGoldenFixtures:
    """Every committed fixture passes the schema validator."""

    def test_compile_request_fixture_validates(self):
        validate_request(load_fixture("compile_request.json"))

    @pytest.mark.parametrize(
        "name",
        [
            "response_ok.json",
            "response_partial.json",
            "response_rejected.json",
            "response_error.json",
        ],
    )
    def test_compile_response_fixtures_validate(self, name):
        validate_response(load_fixture(name))

    @pytest.mark.parametrize("name", ["ping.json", "stats.json", "shutdown.json"])
    def test_control_op_fixtures_validate(self, name):
        pair = load_fixture(name)
        validate_request(pair["request"])
        validate_response(pair["response"])

    def test_fixtures_survive_framing_roundtrip(self):
        message = load_fixture("compile_request.json")
        assert decode_line(encode_line(message)) == message

    def test_request_fixture_reconstructs_compile_requests(self):
        message = load_fixture("compile_request.json")
        first = request_from_wire(message["requests"][0])
        assert first.kernel == "gemm"
        assert first.config == "baseline"
        assert first.sizes == {"ni": 16, "nj": 18, "nk": 20}
        assert first.seed == 17
        second = request_from_wire(message["requests"][1])
        assert isinstance(second.config, OptimizationConfig)
        assert second.config.name == "dse-point-7"
        assert second.config.unroll_levels == {0: 2, 1: 4}

    def test_partial_fixture_carries_timed_out_outcome(self):
        report = load_fixture("response_partial.json")["report"]
        outcome = outcome_from_wire(report["outcomes"][1])
        assert outcome.status == "timed-out"
        assert outcome.error_code == "REPRO-SVC-002"
        assert outcome.comparison_index is None

    def test_rejected_fixture_names_backpressure_code(self):
        message = load_fixture("response_rejected.json")
        assert message["error"]["code"] == "REPRO-SVC-004"

    def test_error_fixture_names_protocol_code(self):
        message = load_fixture("response_error.json")
        assert message["error"]["code"] == "REPRO-SVC-005"


class TestFraming:
    def test_encode_is_one_compact_newline_terminated_line(self):
        frame = encode_line({"v": 1, "id": "x", "op": "ping"})
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1
        assert b" " not in frame

    def test_encode_is_deterministic(self):
        a = encode_line({"b": 1, "a": 2})
        b = encode_line({"a": 2, "b": 1})
        assert a == b

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json at all\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]\n")

    def test_decode_rejects_oversize_frame(self):
        from repro.service import protocol

        huge = b"x" * (protocol._MAX_LINE_BYTES + 1)
        with pytest.raises(ProtocolError):
            decode_line(huge)


class TestEnvelopeValidation:
    def good(self):
        return copy.deepcopy(load_fixture("compile_request.json"))

    def test_wrong_protocol_version_rejected(self):
        message = self.good()
        message["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError):
            validate_request(message)

    def test_missing_id_rejected(self):
        message = self.good()
        del message["id"]
        with pytest.raises(ProtocolError):
            validate_request(message)

    def test_unknown_op_rejected(self):
        message = self.good()
        message["op"] = "transmogrify"
        with pytest.raises(ProtocolError):
            validate_request(message)

    def test_empty_request_list_rejected(self):
        message = self.good()
        message["requests"] = []
        with pytest.raises(ProtocolError):
            validate_request(message)

    def test_request_missing_kernel_rejected(self):
        message = self.good()
        del message["requests"][0]["kernel"]
        with pytest.raises(ProtocolError):
            validate_request(message)

    def test_request_bad_seed_type_rejected(self):
        message = self.good()
        message["requests"][0]["seed"] = "seventeen"
        with pytest.raises(ProtocolError):
            validate_request(message)

    def test_unknown_policy_mode_rejected(self):
        message = self.good()
        message["policy"]["mode"] = "yolo"
        with pytest.raises(ProtocolError):
            validate_request(message)

    def test_unknown_compile_status_rejected(self):
        message = copy.deepcopy(load_fixture("response_ok.json"))
        message["status"] = "sorta-ok"
        with pytest.raises(ProtocolError):
            validate_response(message)

    def test_unknown_outcome_status_rejected(self):
        message = copy.deepcopy(load_fixture("response_ok.json"))
        message["report"]["outcomes"][0]["status"] = "shrug"
        with pytest.raises(ProtocolError):
            validate_response(message)

    def test_error_response_without_error_body_rejected(self):
        message = copy.deepcopy(load_fixture("response_rejected.json"))
        del message["error"]
        with pytest.raises(ProtocolError):
            validate_response(message)

    def test_error_response_helper_validates(self):
        validate_response(
            error_response("c9", "compile", "rejected", "REPRO-SVC-004", "full")
        )


class TestRoundTrips:
    def test_named_config_request_roundtrip(self):
        request = CompileRequest(
            kernel="gemm",
            config="optimized",
            sizes={"ni": 16, "nj": 18, "nk": 20},
            size_class="MINI",
            check_equivalence=False,
            seed=17,
        )
        back = request_from_wire(request_to_wire(request))
        assert back == request

    def test_config_object_request_roundtrip(self):
        config = resolve_config("optimized")
        request = CompileRequest(
            kernel="atax", config=config, size_class="MINI", seed=23
        )
        back = request_from_wire(request_to_wire(request))
        assert isinstance(back.config, OptimizationConfig)
        assert back.config.signature() == config.signature()
        assert back.config.name == config.name

    def test_policy_roundtrip(self):
        policy = FailurePolicy(
            mode="retry", max_attempts=3, timeout=45.0, circuit_threshold=5
        )
        assert policy_from_wire(policy_to_wire(policy)) == policy

    def test_policy_none_roundtrip(self):
        assert policy_from_wire(None) is None

    def test_outcome_roundtrip(self):
        outcome = RequestOutcome(
            index=4,
            kernel="bicg",
            config="optimized",
            status="timed-out",
            attempts=2,
            seconds=60.0,
            error="deadline",
            error_code="REPRO-SVC-002",
            comparison_index=None,
        )
        assert outcome_from_wire(outcome_to_wire(outcome)) == outcome

    def test_comparison_roundtrip_is_bit_identical(self, comparison):
        wire = encode_comparison(comparison)
        assert wire["sha256"] == hashlib.sha256(
            wire["record"].encode("ascii")
        ).hexdigest()
        back = decode_comparison(wire)
        assert back == comparison
        assert encode_comparison(back) == wire

    def test_comparison_digest_mismatch_rejected(self, comparison):
        wire = encode_comparison(comparison)
        wire["sha256"] = "0" * 64
        with pytest.raises(ProtocolError):
            decode_comparison(wire)

    def test_comparison_bad_base64_rejected(self):
        """A protocol-1 comparison (base64 payload) is not a record."""
        with pytest.raises(ProtocolError):
            decode_comparison({"pickle": "!!!not base64!!!", "sha256": "0" * 64})

    def test_comparison_unpicklable_payload_rejected(self):
        """Nor is a protocol-1 comparison whose payload is junk."""
        raw = b"this is not a pickle"
        wire = {
            "pickle": base64.b64encode(raw).decode("ascii"),
            "sha256": hashlib.sha256(raw).hexdigest(),
        }
        with pytest.raises(ProtocolError):
            decode_comparison(wire)


# -- real records in the golden fixtures ------------------------------------
def _ok_fixture(cache_dir):
    """A two-request response from real compiles: gemm under a named
    config, atax under an anonymous DSE point with the equivalence check."""
    request_wire = load_fixture("compile_request.json")["requests"][1]
    requests = [
        CompileRequest(
            kernel="gemm", config="baseline", size_class="MINI",
            check_equivalence=False, seed=17,
        ),
        request_from_wire(request_wire),
    ]
    report = CompilationService(cache_dir=cache_dir).compile_batch(requests)
    return _response("c1", "ok", report_to_wire(report))


def _partial_fixture(cache_dir):
    """One real comparison beside a timed-out request.  The timeout is
    written in: producing one takes the whole 30 s deadline twice."""
    request = CompileRequest(
        kernel="gemm", config="optimized", size_class="MINI",
        check_equivalence=False, seed=17,
    )
    report = CompilationService(cache_dir=cache_dir).compile_batch([request])
    wire = report_to_wire(report)
    wire.update(jobs=2, policy="retry", degraded=True, seconds=61.2)
    wire["outcomes"].append(
        outcome_to_wire(
            RequestOutcome(
                index=1,
                kernel="bicg",
                config="optimized",
                status="timed-out",
                attempts=2,
                seconds=60.0,
                error="request exceeded the 30.0s deadline twice",
                error_code="REPRO-SVC-002",
            )
        )
    )
    return _response("c2", "partial", wire)


def _response(request_id, status, report_wire):
    # The fixture should not carry the machine's temporary directory.
    report_wire["cache_root"] = "/tmp/repro-cache"
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "op": "compile",
        "status": status,
        "report": report_wire,
    }


RECORD_FIXTURES = {
    "response_ok.json": _ok_fixture,
    "response_partial.json": _partial_fixture,
}


@pytest.mark.parametrize("name", sorted(RECORD_FIXTURES))
def test_response_fixture_carries_real_records(name, tmp_path, update_goldens):
    if update_goldens:
        message = RECORD_FIXTURES[name](str(tmp_path / "cache"))
        with open(os.path.join(WIRE_DIR, name), "w", encoding="utf-8") as fh:
            json.dump(message, fh, indent=2)
            fh.write("\n")
    message = load_fixture(name)
    report = report_from_wire(validate_response(message)["report"])
    assert report.comparisons
    for comparison, wire in zip(report.comparisons, message["report"]["comparisons"]):
        # Decoding and re-encoding a record reproduces it byte for byte.
        assert encode_comparison(comparison) == wire
        for flow in (comparison.adaptor, comparison.cpp):
            assert print_module(flow.ir_module) == flow.ir_text


# -- hostile input ----------------------------------------------------------
_GADGET_RAN = threading.Event()


def _run_gadget():
    _GADGET_RAN.set()


class _Gadget:
    def __reduce__(self):
        return (_run_gadget, ())


def _gadget_payload():
    """Pickle bytes that set :data:`_GADGET_RAN` when unpickled."""
    payload = pickle.dumps(_Gadget(), protocol=pickle.HIGHEST_PROTOCOL)
    assert not _GADGET_RAN.is_set()
    return payload


def _ok_with_comparison(comparison_wire):
    message = copy.deepcopy(load_fixture("response_ok.json"))
    message["report"]["comparisons"] = [comparison_wire]
    message["report"]["outcomes"] = message["report"]["outcomes"][:1]
    return message


class TestHostileInput:
    """A peer cannot make a client run code, nor slip a malformed record
    past the schema check."""

    @pytest.fixture(autouse=True)
    def gadget_unset(self):
        _GADGET_RAN.clear()
        yield
        assert not _GADGET_RAN.is_set(), "a wire payload was unpickled"

    def test_protocol_1_pickle_comparison_is_rejected_unrun(self):
        raw = _gadget_payload()
        message = _ok_with_comparison({
            "pickle": base64.b64encode(raw).decode("ascii"),
            "sha256": hashlib.sha256(raw).hexdigest(),
        })
        with pytest.raises(ProtocolError) as info:
            validate_response(message)
        assert info.value.code == "REPRO-SVC-005"

    def test_pickle_in_the_record_slot_is_rejected_unrun(self):
        text = base64.b64encode(_gadget_payload()).decode("ascii")
        message = _ok_with_comparison({
            "record": text,
            "sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
        })
        with pytest.raises(ProtocolError) as info:
            validate_response(message)
        assert info.value.code == "REPRO-SVC-005"

    def test_client_refuses_a_pickle_response_from_its_peer(self):
        """End to end: a fake daemon answers with a gadget; the client
        raises and runs nothing."""
        raw = _gadget_payload()
        frame = encode_line(_ok_with_comparison({
            "pickle": base64.b64encode(raw).decode("ascii"),
            "sha256": hashlib.sha256(raw).hexdigest(),
        }))
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.settimeout(30)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                reader.readline()
                conn.sendall(frame)

        server = threading.Thread(target=serve)
        server.start()
        host, port = listener.getsockname()
        try:
            with DaemonClient(f"{host}:{port}") as client:
                with pytest.raises(ProtocolError) as info:
                    client.compile_batch([CompileRequest(kernel="gemm")])
            assert info.value.code == "REPRO-SVC-005"
        finally:
            server.join(timeout=30)
            listener.close()
        assert not server.is_alive()

    @pytest.mark.parametrize(
        "path, value",
        [
            (("kernel",), 7),
            (("adaptor", "synth_report", "latency_max"), "9120"),
            (("adaptor", "synth_report", "loops"), {}),
            (("adaptor", "adaptor_report", "passes", 0, "rewrites"), True),
            (("adaptor", "adaptor_report", "diagnostics"), [{"severity": "LOUD"}]),
            (("cpp", "ir"), None),
            (("functionally_equivalent",), "yes"),
            (("lookup_seconds",), 0.5),
            (("cpp_metrics", "instructions"), 1.5),
        ],
    )
    def test_every_record_field_is_schema_checked(self, path, value):
        record = json.loads(load_fixture("response_ok.json")["report"]["comparisons"][0]["record"])
        target = record
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        message = _ok_with_comparison({
            "record": text,
            "sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
        })
        with pytest.raises(ProtocolError, match="record"):
            validate_response(message)

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_missing_or_unknown_record_fields_rejected(self, change):
        record = json.loads(load_fixture("response_ok.json")["report"]["comparisons"][0]["record"])
        if change == "drop":
            del record["adaptor"]["synth_report"]["device"]
        else:
            record["adaptor"]["payload"] = "extra"
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        message = _ok_with_comparison({
            "record": text,
            "sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
        })
        with pytest.raises(ProtocolError):
            validate_response(message)
