"""One request model behind both front doors.

``fpart partition`` and ``fpart serve`` read the same input — netlist,
device, filling ratio δ and config overrides — through
:class:`repro.core.request.PartitionRequest`.  These tests hold the two
doors to the same verdict on bad input (exit 65/66 in the CLI, HTTP
400/404 from the service, with nothing journalled or dispatched), and
check that journal replay never gets stricter than the daemon that
wrote the journal.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.circuits import generate_circuit
from repro.cli import main
from repro.core import (
    DEFAULT_CONFIG,
    PartitionRequest,
    RequestError,
    device_by_name,
)
from repro.hypergraph.io import write_hgr
from repro.serve import PartitionService, ServiceConfig


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "door.hgr"
    write_hgr(generate_circuit("door", num_cells=100, num_ios=20, seed=5), path)
    return path


@pytest.fixture
def service(tmp_path):
    svc = PartitionService(
        ServiceConfig(state_dir=str(tmp_path / "state"), jobs=1)
    ).start()
    yield svc
    svc.close()


def journalled_events(service):
    path = service.state_dir / "journal.jsonl"
    if not path.exists():
        return []
    return [json.loads(line)["event"] for line in path.read_text().splitlines()]


def assert_nothing_admitted(service):
    assert service.stats()["tasks_submitted"] == 0
    assert "submitted" not in journalled_events(service)
    assert service.jobs() == []


# (name, spec fields, partition flags, CLI exit, HTTP status); a None
# netlist stands for a path that does not exist.
BAD_REQUESTS = [
    ("unknown device", {"device": "XC9999"}, ["--device", "XC9999"], 65, 400),
    ("delta zero", {"delta": 0.0}, ["--delta", "0"], 65, 400),
    ("delta above one", {"delta": 1.5}, ["--delta", "1.5"], 65, 400),
    ("missing netlist", {"netlist": None}, [], 66, 404),
]


def test_cli_and_serve_reject_the_same_requests(
    service, netlist_file, tmp_path, capsys
):
    missing = str(tmp_path / "absent.hgr")
    for name, fields, flags, exit_code, http_status in BAD_REQUESTS:
        spec = {"netlist": str(netlist_file), **fields}
        if spec["netlist"] is None:
            spec["netlist"] = missing
        code = main(["partition", spec["netlist"], *flags])
        assert code == exit_code, f"{name}: CLI exit {code}"
        response = service.submit(spec)
        assert response["status"] == http_status, f"{name}: {response}"
    assert_nothing_admitted(service)
    capsys.readouterr()


# Requests an earlier daemon accepted with a 201 and then failed (or
# ran) in the worker; the last is a misspelt top-level key.
SERVE_ONLY_BAD = {
    "device not in catalog": {"device": "XC9999"},
    "delta as string": {"delta": "0.5"},
    "int field as string": {"config": {"max_iterations": "3"}},
    "unknown test hook": {"config": {"test_foo": 1}},
    "seed as string": {"config": {"seed": "abc"}},
    "delta as bool": {"delta": True},
    "unknown spec key": {"devcie": "XC3020"},
}


@pytest.mark.parametrize(
    "fields", list(SERVE_ONLY_BAD.values()), ids=list(SERVE_ONLY_BAD)
)
def test_serve_rejects_at_submission(service, netlist_file, fields):
    response = service.submit({"netlist": str(netlist_file), **fields})
    assert response["status"] == 400, response
    key = next(iter(fields.get("config", fields)))
    assert key in response["error"]
    assert_nothing_admitted(service)


def test_journalled_spec_that_fails_new_checks_fails_its_job(
    tmp_path, netlist_file
):
    """An older daemon accepted ``max_iterations: "3"``; replay must boot."""
    state = tmp_path / "state"
    state.mkdir()
    now = time.time()

    def submitted(seq, job_id, spec):
        job = {
            "job_id": job_id,
            "spec": {
                "netlist": str(netlist_file),
                "device": "XC3042",
                "delta": None,
                "tenant": "default",
                "priority": 0,
                "label": "",
                **spec,
            },
            "digest": f"{seq:016d}",
            "state": "queued",
            "attempts": 0,
            "max_attempts": 3,
            "next_attempt_at": 0.0,
            "result": None,
            "error": None,
            "created": now + seq,
            "updated": now + seq,
            "trace_id": "",
            "open_spans": {},
        }
        return {
            "schema": 1, "seq": seq, "ts": now + seq,
            "event": "submitted", "job": job,
        }

    records = [
        submitted(1, "oldbadspec01", {"config": {"max_iterations": "3"}}),
        submitted(2, "goodspec0002", {"config": {}}),
    ]
    (state / "journal.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    )

    svc = PartitionService(ServiceConfig(state_dir=str(state), jobs=1))
    try:
        bad = svc.job("oldbadspec01")["job"]
        assert bad["state"] == "failed"
        assert bad["error"].startswith("JobError: ")
        assert "max_iterations" in bad["error"]
        svc.start()
        deadline = time.monotonic() + 60
        while svc.job("goodspec0002")["job"]["state"] != "done":
            assert time.monotonic() < deadline, "good job did not finish"
            time.sleep(0.05)
        assert svc.stats()["tasks_submitted"] == 1
    finally:
        svc.close()
    # The failure is journalled: the next generation agrees without
    # re-checking anything.
    again = PartitionService(ServiceConfig(state_dir=str(state), jobs=1))
    try:
        assert again.job("oldbadspec01")["job"]["state"] == "failed"
        assert again.job("goodspec0002")["job"]["state"] == "done"
    finally:
        again.close()


class TestPartitionRequest:
    def test_null_delta_is_the_catalog_ratio(self):
        request = PartitionRequest("c.hgr", "xc3020")
        assert request.resolve_device() == device_by_name("XC3020")
        assert request.resolve_config() is DEFAULT_CONFIG

    def test_explicit_delta_replaces_the_catalog_ratio(self):
        device = PartitionRequest("c.hgr", "XC3042", 1).resolve_device()
        assert device.name == "XC3042" and device.delta == 1

    def test_config_values_are_type_checked(self):
        config = PartitionRequest(
            "c.hgr", config={"deadline_seconds": 5, "max_iterations": None}
        ).resolve_config()
        assert config.deadline_seconds == 5.0
        assert isinstance(config.deadline_seconds, float)
        for bad in (
            {"max_iterations": 3.0},
            {"max_iterations": True},
            {"sigma1": False},
            {"strict": 1},
            {"gain_mode": 1},
            {"seed": None},
        ):
            with pytest.raises(RequestError, match=next(iter(bad))):
                PartitionRequest("c.hgr", config=bad).validate()

    def test_config_validation_is_a_request_error(self):
        with pytest.raises(RequestError, match="builder_jobs"):
            PartitionRequest("c.hgr", config={"builder_jobs": 0}).validate()

    def test_netlist_is_required(self):
        with pytest.raises(RequestError, match="netlist"):
            PartitionRequest("").validate()

    def test_resolve_loads_the_netlist(self, netlist_file):
        hg, device, config = PartitionRequest(str(netlist_file)).resolve()
        assert hg.num_cells == 100
        assert device == device_by_name("XC3042")
        assert config is DEFAULT_CONFIG

    def test_missing_netlist_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PartitionRequest(str(tmp_path / "absent.hgr")).resolve()
