"""Kill/restart recovery of the real ``fpart serve`` daemon.

These tests exercise the daemon as users run it: a subprocess started
through the CLI, discovered via ``<state-dir>/serve.json``, and killed
without ceremony.  They assert the ISSUE's acceptance criteria end to
end:

* a SIGKILL'd daemon restarted on the same state dir recovers the
  in-flight job from its write-ahead journal and finishes it with an
  assignment **bit-identical** to an uninterrupted in-process run of
  the same request (FPART is deterministic, checkpoint resume is
  bit-identical, therefore recovery must be too);
* resubmitting the finished request to the restarted daemon is served
  from the journal-recovered table with **zero recomputation**;
* SIGTERM drains gracefully: exit code 0, the running job re-queued,
  and the next daemon generation completes it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.circuits import generate_circuit
from repro.core import DEFAULT_CONFIG, FpartPartitioner, device_by_name
from repro.hypergraph.io import write_hgr
from repro.serve import ServeClient

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def netlist_file(tmp_path):
    hg = generate_circuit("recov", num_cells=100, num_ios=20, seed=11)
    path = tmp_path / "recov.hgr"
    write_hgr(hg, path)
    return path


def start_daemon(state_dir, *extra, timeout=20.0):
    """Launch ``fpart serve`` and wait for its discovery file."""
    endpoint_file = Path(state_dir) / "serve.json"
    before = endpoint_file.stat().st_mtime if endpoint_file.exists() else None
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--state-dir",
            str(state_dir),
            "--port",
            "0",
            "--jobs",
            "1",
            "--test-hooks",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"daemon died on startup: "
                f"{process.stderr.read().decode(errors='replace')}"
            )
        if endpoint_file.exists():
            stat = endpoint_file.stat()
            if before is None or stat.st_mtime != before:
                try:
                    endpoint = json.loads(endpoint_file.read_text())
                except ValueError:
                    time.sleep(0.05)
                    continue
                if endpoint.get("pid") == process.pid:
                    client = ServeClient(
                        endpoint["host"], endpoint["port"], timeout=10.0
                    )
                    try:
                        if client.healthz().get("ok"):
                            return process, client
                    except Exception:
                        pass
        time.sleep(0.05)
    process.kill()
    raise AssertionError("daemon did not become healthy in time")


def stop_daemon(process):
    if process.poll() is None:
        process.kill()
    process.wait(timeout=10)
    process.stdout.close()
    process.stderr.close()


def direct_assignment(netlist_file, delta=0.1):
    """The reference run: same request, no daemon in the way."""
    from repro.hypergraph.io import read_hgr

    hg = read_hgr(netlist_file)
    device = device_by_name("XC3042").with_delta(delta)
    result = FpartPartitioner(
        hg, device, DEFAULT_CONFIG, keep_trace=False
    ).run()
    assert result.status == "feasible"
    return list(result.assignment)


class TestKillRestartRecovery:
    def test_sigkill_midjob_recovers_bit_identical(
        self, tmp_path, netlist_file
    ):
        state = tmp_path / "state"
        process, client = start_daemon(state)
        try:
            # The sleep hook holds the job in `running` so the SIGKILL
            # provably lands mid-job (journal says running, no terminal
            # event) rather than racing a fast completion.
            response = client.submit(
                {
                    "netlist": str(netlist_file),
                    "delta": 0.1,
                    "config": {"test_sleep_seconds": 3.0},
                }
            )
            assert response["status"] == 201
            job_id = response["job"]["job_id"]
            # A second, distinct request (different delta → different
            # digest) sits behind it in the queue of the 1-worker
            # daemon: the SIGKILL lands with one job *running* and one
            # *queued*, the acceptance criterion's exact shape.
            queued = client.submit(
                {"netlist": str(netlist_file), "delta": 0.15}
            )
            assert queued["status"] == 201
            queued_id = queued["job"]["job_id"]
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if client.job(job_id)["job"]["state"] == "running":
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("job never reached running")
            assert client.job(queued_id)["job"]["state"] == "queued"
        finally:
            # SIGKILL: no drain, no journal flush beyond what append
            # already fsynced.
            stop_daemon(process)

        process, client = start_daemon(state)
        try:
            # The restarted daemon must know both jobs (journal replay)
            # and finish them without a resubmit.  The recovered
            # attempt re-enters through the same spec, so the sleep
            # hook runs again — give it room.
            job = client.job(job_id)["job"]
            assert job is not None, "running job lost across SIGKILL"
            assert client.job(queued_id)["job"] is not None, (
                "queued job lost across SIGKILL"
            )
            final = client.wait(job_id, timeout=90)
            assert final["state"] == "done"
            result = client.result(job_id)["result"]
            assert result["assignment"] == direct_assignment(netlist_file)
            final = client.wait(queued_id, timeout=90)
            assert final["state"] == "done"
            result = client.result(queued_id)["result"]
            assert result["assignment"] == direct_assignment(
                netlist_file, delta=0.15
            )
            # Only the *running* job needed a recovery re-queue; the
            # queued one replays in place (its completion above is the
            # proof it survived).
            stats = client.stats()["stats"]
            assert stats["recovered"] == 1
        finally:
            stop_daemon(process)

    def test_resubmit_after_restart_is_cached(self, tmp_path, netlist_file):
        state = tmp_path / "state"
        process, client = start_daemon(state)
        try:
            response = client.submit({"netlist": str(netlist_file)})
            job_id = response["job"]["job_id"]
            client.wait(job_id, timeout=90)
        finally:
            stop_daemon(process)

        process, client = start_daemon(state)
        try:
            again = client.submit({"netlist": str(netlist_file)})
            assert again["status"] == 200
            assert again["dedup"] == "cached"
            assert again["job"]["job_id"] == job_id
            # Zero recomputation in this daemon generation.
            assert client.stats()["stats"]["tasks_submitted"] == 0
        finally:
            stop_daemon(process)

    def test_sigterm_drains_and_next_generation_finishes(
        self, tmp_path, netlist_file
    ):
        state = tmp_path / "state"
        process, client = start_daemon(state, "--drain-seconds", "0.3")
        try:
            response = client.submit(
                {
                    "netlist": str(netlist_file),
                    "delta": 0.1,
                    "config": {"test_sleep_seconds": 3.0},
                }
            )
            job_id = response["job"]["job_id"]
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if client.job(job_id)["job"]["state"] == "running":
                    break
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            assert process.returncode == 0
            stderr = process.stderr.read().decode(errors="replace")
            assert "re-queued" in stderr
        finally:
            stop_daemon(process)

        process, client = start_daemon(state)
        try:
            final = client.wait(job_id, timeout=90)
            assert final["state"] == "done"
            assert (
                client.result(job_id)["result"]["assignment"]
                == direct_assignment(netlist_file)
            )
        finally:
            stop_daemon(process)


def child_pids(pid):
    """Live child processes of ``pid``, read from ``/proc``."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid and fields[0] not in ("Z", "X"):
            children.append(int(entry.name))
    return children


def running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def wait_gone(pids, timeout):
    deadline = time.monotonic() + timeout
    while any(running(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def kill_all(pids):
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def running_workers(process, client, job_id):
    """Wait for ``job_id`` to run; returns the daemon's pool children."""
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline:
        workers = child_pids(process.pid)
        if client.job(job_id)["job"]["state"] == "running" and workers:
            return workers
        time.sleep(0.05)
    raise AssertionError("job never reached running")


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)
class TestWorkerLifetime:
    """Pool workers never outlive the daemon or a timed-out attempt."""

    def test_sigkilled_daemon_leaves_no_worker(self, tmp_path, netlist_file):
        process, client = start_daemon(tmp_path / "state")
        workers = []
        try:
            job_id = client.submit({"netlist": str(netlist_file)})["job"][
                "job_id"
            ]
            assert client.wait(job_id, timeout=90)["state"] == "done"
            workers = child_pids(process.pid)
            assert workers, "the finished job's worker should idle"
        finally:
            stop_daemon(process)
        try:
            # Nobody writes to the worker's pipe any more: it must see
            # EOF and exit on its own.
            assert wait_gone(workers, timeout=5.0), (
                f"workers {workers} outlived the SIGKILLed daemon"
            )
        finally:
            kill_all(workers)

    def _timed_out_job(self, tmp_path, netlist_file):
        process, client = start_daemon(
            tmp_path / "state",
            "--job-timeout", "1",
            "--max-attempts", "1",
            "--drain-seconds", "1",
        )
        response = client.submit(
            {
                "netlist": str(netlist_file),
                "config": {"test_sleep_seconds": 20.0},
            }
        )
        job_id = response["job"]["job_id"]
        workers = running_workers(process, client, job_id)
        final = client.wait(job_id, timeout=30)
        return process, workers, final

    def test_timed_out_worker_is_gone_when_job_ends(
        self, tmp_path, netlist_file
    ):
        process, workers, final = self._timed_out_job(tmp_path, netlist_file)
        try:
            assert final["state"] == "failed"
            assert "timeout" in final["error"]
            alive = [pid for pid in workers if running(pid)]
            assert not alive, f"timed-out worker {alive} still running"
        finally:
            stop_daemon(process)
            kill_all(workers)

    def test_sigterm_after_timeout_exits_within_drain(
        self, tmp_path, netlist_file
    ):
        process, workers, final = self._timed_out_job(tmp_path, netlist_file)
        try:
            assert final["state"] == "failed"
            process.send_signal(signal.SIGTERM)
            # --drain-seconds 1, plus a margin for the HTTP shutdown.
            process.wait(timeout=1 + 10)
            assert process.returncode == 0
        finally:
            stop_daemon(process)
            kill_all(workers)
