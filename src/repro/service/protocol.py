"""NDJSON wire protocol for the compile daemon.

One JSON object per line, UTF-8, ``\\n``-terminated, both directions.
Every message carries the protocol version (``"v"``), a client-chosen
correlation ``"id"`` echoed back verbatim, and an ``"op"``:

=========  =======================================================
op         meaning
=========  =======================================================
compile    run a batch of compile requests; the response carries a
           full :class:`~repro.service.SuiteReport` rendering
ping       liveness + version/pid probe
stats      the daemon's observability counters and cache stats
shutdown   stop accepting connections and exit the serve loop
=========  =======================================================

Compile responses report ``status``:

* ``ok`` — every request produced a comparison;
* ``partial`` — a ``continue``/``retry`` policy isolated failures or
  timeouts into their outcomes; the report holds the survivors;
* ``rejected`` — back-pressure: the daemon's bounded queue was full and
  *nothing* was compiled (``error.code`` = ``REPRO-SVC-004``);
* ``error`` — the batch failed wholesale (fail-fast abort, protocol
  violation ``REPRO-SVC-005``, internal error).

:class:`FlowComparison` objects cross the wire as their JSON compile
records (:mod:`repro.flows.record`), the same record the cache stores:
each comparison is ``{"record": <the record's canonical JSON text>,
"sha256": <digest of that text>}``.  Nothing on the wire is ever
executed: a malformed or hostile comparison fails the schema check with
``REPRO-SVC-005`` and runs nothing.  A record carries every reported
number, verdict, timing and provenance stamp plus each flow's printed
IR, so a client can compare daemon and in-process results field for
field; a flow's ``ir_module`` is parsed from that text only when the
client asks for it.

Configs travel as their registry name (``"baseline"``) or as the
:meth:`OptimizationConfig.to_dict` rendering for anonymous DSE points;
:func:`request_from_wire` reconstructs either.

Schema validation lives here (:func:`validate_request` /
:func:`validate_response`) and is enforced by *both* ends plus the
golden fixtures under ``tests/service/wire/`` — wire drift breaks tests,
not clients.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from typing import Any, Dict, List, Optional, Union

from ..diagnostics.errors import ProtocolError
from ..flows.compare import FlowComparison
from ..flows.config import OptimizationConfig
from ..flows.record import RecordError, canonical_json
from .cache import CacheStats
from .resilience import FAILURE_MODES, OUTCOME_STATUSES, FailurePolicy, RequestOutcome

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "COMPILE_STATUSES",
    "encode_line",
    "decode_line",
    "validate_request",
    "validate_response",
    "request_to_wire",
    "request_from_wire",
    "policy_to_wire",
    "policy_from_wire",
    "encode_comparison",
    "decode_comparison",
    "outcome_to_wire",
    "outcome_from_wire",
    "report_to_wire",
    "report_from_wire",
    "error_response",
]

#: Bump on any incompatible change to the message schemas below; the
#: daemon refuses mismatched versions with ``REPRO-SVC-005``.
#: 2: comparisons travel as JSON compile records; version 1 sent
#: base64-encoded serialized Python objects.
PROTOCOL_VERSION = 2

REQUEST_OPS = ("compile", "ping", "stats", "shutdown")

COMPILE_STATUSES = ("ok", "partial", "rejected", "error")

_MAX_LINE_BYTES = 64 << 20  # one response can carry a whole suite


# -- framing ----------------------------------------------------------------
def encode_line(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline."""
    return json.dumps(message, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    ) + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one frame; anything but a JSON object is ``REPRO-SVC-005``."""
    if len(line) > _MAX_LINE_BYTES:
        raise ProtocolError(
            f"wire frame of {len(line)} bytes exceeds the "
            f"{_MAX_LINE_BYTES}-byte limit"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable wire frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"wire frame must be a JSON object, got {type(message).__name__}"
        )
    return message


# -- envelope validation ----------------------------------------------------
def _require(message: Dict[str, Any], field: str, types, what: str) -> Any:
    if field not in message:
        raise ProtocolError(f"{what} missing required field {field!r}")
    value = message[field]
    if not isinstance(value, types):
        names = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        raise ProtocolError(
            f"{what} field {field!r} must be {names}, "
            f"got {type(value).__name__}"
        )
    return value


def _check_envelope(message: Dict[str, Any], what: str) -> None:
    version = _require(message, "v", int, what)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{what} speaks protocol version {version}, "
            f"this end speaks {PROTOCOL_VERSION}"
        )
    _require(message, "id", str, what)
    op = _require(message, "op", str, what)
    if op not in REQUEST_OPS:
        raise ProtocolError(f"{what} has unknown op {op!r}; valid: {REQUEST_OPS}")


def validate_request(message: Dict[str, Any]) -> Dict[str, Any]:
    """Schema-check a client→daemon message; returns it for chaining."""
    _check_envelope(message, "request")
    if message["op"] == "compile":
        requests = _require(message, "requests", list, "compile request")
        if not requests:
            raise ProtocolError("compile request carries no requests")
        for i, wire in enumerate(requests):
            if not isinstance(wire, dict):
                raise ProtocolError(f"compile request #{i} is not an object")
            _require(wire, "kernel", str, f"compile request #{i}")
            _require(wire, "config", (str, dict), f"compile request #{i}")
            _require(wire, "seed", int, f"compile request #{i}")
            _require(
                wire, "check_equivalence", bool, f"compile request #{i}"
            )
            sizes = wire.get("sizes")
            if sizes is not None and not isinstance(sizes, dict):
                raise ProtocolError(f"compile request #{i} sizes must be an object")
            backend = wire.get("backend")
            if backend is not None and not isinstance(backend, str):
                raise ProtocolError(
                    f"compile request #{i} backend must be a string"
                )
        policy = message.get("policy")
        if policy is not None:
            _validate_policy(policy)
    return message


def _validate_policy(policy: Dict[str, Any]) -> None:
    if not isinstance(policy, dict):
        raise ProtocolError("policy must be an object")
    mode = policy.get("mode", "fail-fast")
    if mode not in FAILURE_MODES:
        raise ProtocolError(f"policy has unknown mode {mode!r}; valid: {FAILURE_MODES}")


def validate_response(message: Dict[str, Any]) -> Dict[str, Any]:
    """Schema-check a daemon→client message; returns it for chaining."""
    _check_envelope(message, "response")
    status = _require(message, "status", str, "response")
    if message["op"] == "compile":
        if status not in COMPILE_STATUSES:
            raise ProtocolError(
                f"compile response has unknown status {status!r}; "
                f"valid: {COMPILE_STATUSES}"
            )
        if status in ("ok", "partial"):
            report = _require(message, "report", dict, "compile response")
            message["report"] = _validate_report(report)
        else:
            error = _require(message, "error", dict, "compile response")
            _require(error, "code", str, "response error")
            _require(error, "message", str, "response error")
    elif status not in ("ok", "error"):
        raise ProtocolError(
            f"{message['op']} response has unknown status {status!r}"
        )
    return message


class _CheckedReport(dict):
    """A report rendering :func:`validate_response` has checked, holding
    the comparisons it decoded doing so: :func:`report_from_wire` takes
    them instead of decoding every record a second time.  They are
    handed out once; a second :func:`report_from_wire` decodes afresh."""

    def __init__(self, wire: Dict[str, Any], comparisons: List[FlowComparison]):
        super().__init__(wire)
        self.decoded: Optional[List[FlowComparison]] = comparisons

    def take_decoded(self) -> Optional[List[FlowComparison]]:
        decoded, self.decoded = self.decoded, None
        return decoded


def _validate_report(report: Dict[str, Any]) -> _CheckedReport:
    comparisons = _require(report, "comparisons", list, "report")
    decoded = []
    for i, comp in enumerate(comparisons):
        if not isinstance(comp, dict):
            raise ProtocolError(f"report comparison #{i} is not an object")
        decoded.append(decode_comparison(comp, f"report comparison #{i}"))
    outcomes = _require(report, "outcomes", list, "report")
    for i, outcome in enumerate(outcomes):
        if not isinstance(outcome, dict):
            raise ProtocolError(f"report outcome #{i} is not an object")
        status = _require(outcome, "status", str, f"report outcome #{i}")
        if status not in OUTCOME_STATUSES:
            raise ProtocolError(
                f"report outcome #{i} has unknown status {status!r}; "
                f"valid: {OUTCOME_STATUSES}"
            )
    _require(report, "cache_stats", dict, "report")
    return _CheckedReport(report, decoded)


# -- compile requests -------------------------------------------------------
def request_to_wire(request) -> Dict[str, Any]:
    """A :class:`CompileRequest` as its JSON wire rendering."""
    config = request.config
    if isinstance(config, OptimizationConfig):
        config_wire: Union[str, Dict[str, Any]] = config.to_dict()
    else:
        config_wire = config
    wire = {
        "kernel": request.kernel,
        "config": config_wire,
        "sizes": dict(request.sizes) if request.sizes is not None else None,
        "size_class": request.size_class,
        "check_equivalence": request.check_equivalence,
        "seed": request.seed,
    }
    # Optional on the wire: omitted = the daemon's default backend, so
    # pre-registry clients and checked-in fixtures stay valid.
    if getattr(request, "backend", None) is not None:
        wire["backend"] = request.backend
    return wire


def request_from_wire(wire: Dict[str, Any]):
    """The :class:`CompileRequest` a wire rendering describes."""
    from .service import CompileRequest  # circular at module load

    config = wire["config"]
    if isinstance(config, dict):
        config = OptimizationConfig.from_dict(config)
    return CompileRequest(
        kernel=wire["kernel"],
        config=config,
        sizes=dict(wire["sizes"]) if wire.get("sizes") is not None else None,
        size_class=wire.get("size_class", "SMALL"),
        check_equivalence=wire.get("check_equivalence", True),
        seed=wire.get("seed", 17),
        backend=wire.get("backend"),
    )


# -- failure policies -------------------------------------------------------
def policy_to_wire(policy: FailurePolicy) -> Dict[str, Any]:
    return {
        "mode": policy.mode,
        "max_attempts": policy.max_attempts,
        "timeout": policy.timeout,
        "backoff_base": policy.backoff_base,
        "backoff_factor": policy.backoff_factor,
        "circuit_threshold": policy.circuit_threshold,
    }


def policy_from_wire(wire: Optional[Dict[str, Any]]) -> Optional[FailurePolicy]:
    if wire is None:
        return None
    return FailurePolicy(
        mode=wire.get("mode", "fail-fast"),
        max_attempts=wire.get("max_attempts"),
        timeout=wire.get("timeout"),
        backoff_base=wire.get("backoff_base", 0.05),
        backoff_factor=wire.get("backoff_factor", 2.0),
        circuit_threshold=wire.get("circuit_threshold", 2),
    )


# -- comparisons ------------------------------------------------------------
def encode_comparison(comparison: FlowComparison) -> Dict[str, str]:
    """A FlowComparison as the canonical JSON text of its compile record
    plus that text's sha256.  The record rides as one string, so the
    digest covers exactly the bytes that crossed the wire."""
    text = canonical_json(comparison.to_record())
    return {
        "record": text,
        "sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
    }


def decode_comparison(wire: Any, what: str = "comparison") -> FlowComparison:
    """The FlowComparison an :func:`encode_comparison` dict carries, after
    checking its shape, its digest and every record field."""
    if not isinstance(wire, dict) or wire.keys() != {"record", "sha256"}:
        raise ProtocolError(
            f"{what} must be an object with exactly 'record' and 'sha256'"
        )
    text = _require(wire, "record", str, what)
    claimed = _require(wire, "sha256", str, what)
    try:
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        record = json.loads(text)
    except ValueError as exc:  # non-ASCII text, or not JSON
        raise ProtocolError(f"{what} record is not canonical JSON: {exc}") from None
    if digest != claimed:
        raise ProtocolError(
            f"{what} digest mismatch: header says {claimed!r}, "
            f"record hashes to {digest!r}"
        )
    try:
        return FlowComparison.from_record(record)
    except RecordError as exc:
        raise ProtocolError(f"{what} is not a compile record: {exc}") from None




# -- outcomes / reports -----------------------------------------------------
def outcome_to_wire(outcome: RequestOutcome) -> Dict[str, Any]:
    return asdict(outcome)


def outcome_from_wire(wire: Dict[str, Any]) -> RequestOutcome:
    return _from_wire(RequestOutcome, wire)


def _from_wire(cls, wire: Dict[str, Any]):
    """A dataclass from its :func:`dataclasses.asdict` wire rendering;
    fields the wire omits take their defaults."""
    return cls(**{f.name: wire[f.name] for f in fields(cls) if f.name in wire})


def report_to_wire(report) -> Dict[str, Any]:
    """A :class:`SuiteReport` as its JSON wire rendering."""
    return {
        "config": report.config,
        "size_class": report.size_class,
        "jobs": report.jobs,
        "seconds": report.seconds,
        "policy": report.policy,
        "degraded": report.degraded,
        "cache_root": report.cache_root,
        "cache_stats": asdict(report.cache_stats),
        "comparisons": [encode_comparison(c) for c in report.comparisons],
        "outcomes": [outcome_to_wire(o) for o in report.outcomes],
    }


def report_from_wire(wire: Dict[str, Any]):
    """The :class:`SuiteReport` a wire rendering describes."""
    from .service import SuiteReport  # circular at module load

    comparisons = wire.take_decoded() if isinstance(wire, _CheckedReport) else None
    if comparisons is None:
        comparisons = [decode_comparison(c) for c in wire.get("comparisons", [])]
    return SuiteReport(
        config=wire.get("config", "-"),
        size_class=wire.get("size_class", "-"),
        jobs=wire.get("jobs", 1),
        comparisons=comparisons,
        seconds=wire.get("seconds", 0.0),
        cache_stats=_from_wire(CacheStats, wire.get("cache_stats", {})),
        cache_root=wire.get("cache_root", ""),
        outcomes=[outcome_from_wire(o) for o in wire.get("outcomes", [])],
        policy=wire.get("policy", "fail-fast"),
        degraded=wire.get("degraded", False),
    )


def error_response(
    request_id: str, op: str, status: str, code: str, message: str
) -> Dict[str, Any]:
    """A rejected/error response envelope (back-pressure, protocol...)."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "op": op,
        "status": status,
        "error": {"code": code, "message": message},
    }
