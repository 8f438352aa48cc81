"""Unit tests for the minimal HTTP layer and the API schema."""

import asyncio
import json

import pytest

from repro.serve import http as http_mod
from repro.serve.protocol import JobRequest, ProtocolError
from repro.tlssim.config import MACHINE_FIELDS, override_error


def _parse(raw: bytes):
    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await http_mod.read_request(reader)

    return asyncio.run(_run())


def test_read_request_parses_line_headers_and_body():
    body = json.dumps({"workload": "go"}).encode()
    raw = (
        b"POST /v1/jobs?debug=1 HTTP/1.1\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    request = _parse(raw)
    assert request.method == "POST"
    assert request.path == "/v1/jobs"
    assert request.query == {"debug": "1"}
    assert request.headers["content-type"] == "application/json"
    assert request.json() == {"workload": "go"}
    assert request.keep_alive


def test_read_request_eof_returns_none():
    assert _parse(b"") is None


@pytest.mark.parametrize(
    "raw",
    [
        b"NOT-HTTP\r\n\r\n",                       # malformed request line
        b"GET / SPDY/3\r\n\r\n",                   # bad version
        b"GET / HTTP/1.1\r\nbroken header\r\n\r\n",  # header w/o colon
        b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n",  # bad length
        b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    ],
)
def test_read_request_rejects_malformed(raw):
    with pytest.raises(http_mod.BadRequest):
        _parse(raw)


def test_read_request_rejects_oversized_body():
    raw = (
        b"POST / HTTP/1.1\r\n"
        + f"Content-Length: {http_mod.MAX_BODY_BYTES + 1}\r\n\r\n".encode()
    )
    with pytest.raises(http_mod.BadRequest):
        _parse(raw)


def test_response_encoding_round_trips():
    response = http_mod.HTTPResponse.json({"ok": True}, status=202)
    encoded = response.encode(keep_alive=False)
    head, _, body = encoded.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 202 Accepted")
    assert b"Connection: close" in head
    assert json.loads(body) == {"ok": True}
    assert f"Content-Length: {len(body)}".encode() in head


def test_route_match_captures_segments():
    assert http_mod.route_match("/v1/jobs/j42", "/v1/jobs/{id}") == ("j42",)
    assert http_mod.route_match(
        "/v1/jobs/j42/result", "/v1/jobs/{id}/result"
    ) == ("j42",)
    assert http_mod.route_match("/v1/jobs", "/v1/jobs/{id}") is None
    assert http_mod.route_match("/v1/jobs/j42/other", "/v1/jobs/{id}") is None


# ---------------------------------------------------------------------------
# JobRequest validation
# ---------------------------------------------------------------------------


def test_job_request_round_trip_and_normalization():
    request = JobRequest.from_dict(
        {"workload": "go", "bar": "u", "threshold": 0.1, "events": True}
    )
    assert request == JobRequest(
        workload="go", bar="U", threshold=0.1, events=True
    )
    assert JobRequest.from_dict(request.to_dict()) == request
    assert request.key == ("go", 0.1)


@pytest.mark.parametrize(
    "payload",
    [
        [],                                        # not an object
        {},                                        # missing workload
        {"workload": "no-such-workload"},
        {"workload": "go", "bar": "Z"},
        {"workload": "go", "threshold": 0.0},
        {"workload": "go", "threshold": "high"},
        {"workload": "go", "threshold": True},
        {"workload": "go", "events": "yes"},
        {"workload": "go", "extra": 1},            # unknown field
        {"workload": "go", "backend": "vector"},   # retired field
    ],
)
def test_job_request_rejects_invalid(payload):
    with pytest.raises(ProtocolError):
        JobRequest.from_dict(payload)


# ---------------------------------------------------------------------------
# per-job machine / predictor overrides
# ---------------------------------------------------------------------------


def test_job_request_machine_override_round_trip():
    request = JobRequest.from_dict({
        "workload": "go", "bar": "P",
        "machine": {"num_cores": 8, "signal_buffer_entries": 4},
        "predictor": "stride",
    })
    assert dict(request.machine) == {
        "num_cores": 8, "signal_buffer_entries": 4,
    }
    assert request.predictor == "stride"
    assert JobRequest.from_dict(request.to_dict()) == request
    overrides = request.config_overrides()
    assert overrides["num_cores"] == 8
    assert overrides["predictor"] == "stride"


def test_job_request_machine_integral_floats_normalize():
    """JSON clients send 8.0; core counts must come back as int."""
    request = JobRequest.from_dict(
        {"workload": "go", "machine": {"num_cores": 8.0}}
    )
    value = dict(request.machine)["num_cores"]
    assert value == 8 and isinstance(value, int)


def test_job_request_default_has_no_overrides():
    request = JobRequest.from_dict({"workload": "go"})
    assert request.machine == () and request.predictor is None
    assert request.config_overrides() == {}
    assert "machine" not in request.to_dict()


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"workload": "go", "machine": [1, 2]},
         "'machine' must be a JSON object"),
        ({"workload": "go", "machine": {"nope": 1}},
         override_error("nope", 1, MACHINE_FIELDS)),
        ({"workload": "go", "machine": {"num_cores": "four"}},
         override_error("num_cores", "four")),
        ({"workload": "go", "machine": {"num_cores": 0}},
         override_error("num_cores", 0)),
        ({"workload": "go", "machine": {"num_cores": 2.5}},
         "num_cores must be an integer (got 2.5)"),
        ({"workload": "go", "machine": {"signal_buffer_entries": 0}},
         override_error("signal_buffer_entries", 0)),
        ({"workload": "go", "predictor": "nope"},
         override_error("predictor", "nope")),
    ],
    ids=["not-an-object", "unknown-field", "not-a-number", "num-cores",
         "fractional-cores", "signal-buffer", "predictor"],
)
def test_job_request_rejects_bad_overrides(payload, message):
    with pytest.raises(ProtocolError) as caught:
        JobRequest.from_dict(payload)
    assert message and str(caught.value) == message


def test_served_override_matches_direct_simulation():
    """An override job through the pool equals an in-process run."""
    from repro.experiments.runner import bundle_for
    from repro.serve.pool import execute_request
    from repro.tlssim.config import SimConfig

    request = JobRequest(
        workload="go", bar="P",
        machine=(("num_cores", 2),), predictor="stride",
    )
    outcome = execute_request(request)
    assert outcome["ok"], outcome.get("error")
    direct = bundle_for("go", 0.05).simulate(
        "P", base=SimConfig(num_cores=2, predictor="stride")
    )
    assert outcome["result"] == direct.to_state()
