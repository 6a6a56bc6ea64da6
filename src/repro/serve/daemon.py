"""The partitioning service: job table + scheduler over a WorkerPool.

:class:`PartitionService` is the daemon's brain, deliberately separate
from its HTTP skin (``server.py``) so the whole lifecycle — submit,
schedule, retry, crash, recover, drain — is testable in-process without
a socket.

Durability contract
-------------------
Every externally visible decision is journalled *before* the in-memory
state changes (write-ahead, see ``journal.py``).  On construction the
service replays the journal into the job table, then *recovers*: any
job last journalled as ``admitted`` or ``running`` provably did not
finish (its terminal event would have been journalled first), so it is
folded back to ``queued``.  Because every job attempt checkpoints every
iteration and checkpoint resume is bit-identical (DESIGN.md §5), a
recovered job finishes with exactly the assignment an uninterrupted run
would have produced — the property the kill/restart CI job asserts.

Idempotency
-----------
Submissions are keyed by a digest over (netlist content, resolved
device and filling ratio, budget-masked config digest).  A duplicate of
an in-flight job attaches to it; a duplicate of a finished job is
served from the table without touching the pool.
``stats()["tasks_submitted"]`` counts actual pool submissions, which is
how the tests *prove* zero recomputation.

Threading
---------
Three kinds of threads touch the service: HTTP handler threads
(submit/cancel/inspect), the single scheduler thread, and the signal
path (drain request).  All shared state — job table, journal, counters
— is mutated under one re-entrant lock.  The :class:`WorkerPool` is
**not** thread-safe, so pool calls happen exclusively on the scheduler
thread; HTTP-side cancel only flips table state, and the scheduler
reconciles (kills the worker, ignores the stale outcome) on its next
sweep.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..core.checkpoint import CheckpointManager, config_digest
from ..core.exceptions import CheckpointError
from ..core.request import PartitionRequest
from ..obs.export import to_openmetrics
from ..obs.metrics import MetricsRegistry, NULL_METRICS
from ..obs.spans import NULL_SPANS, SpanLog, new_trace_id
from ..parallel.backoff import BackoffPolicy
from ..parallel.pool import ParallelTask, TaskOutcome, WorkerPool
from .jobs import Job, JobError, JobSpec, JobTable, TERMINAL_STATES
from .journal import Journal
from .queue import AdmissionController, AdmissionDecision, TenantPolicy
from .worker import run_partition_job

__all__ = ["ServiceConfig", "PartitionService", "submission_digest"]

#: Fixed bucket layouts (milliseconds) of the service latency
#: histograms exposed on ``GET /metrics``.  Millisecond integers keep
#: the O(1) :class:`~repro.obs.metrics.Histogram` record path; the
#: ranges are sized for interactive service traffic — anything slower
#: lands in the overflow bucket, which the cumulative ``+Inf`` bucket
#: still counts.
SERVE_HISTOGRAMS = {
    "serve.queue_wait_ms": (0, 8000, 250),
    "serve.attempt_wall_ms": (0, 32000, 1000),
    "serve.submit_to_terminal_ms": (0, 64000, 2000),
    "serve.retry_delay_ms": (0, 8000, 250),
}

#: Retry pacing for crashed/timed-out job attempts.  Seconds-scale (not
#: the pool's millisecond respawn scale): a crashing job should not hog
#: a worker slot back-to-back.
DEFAULT_RETRY_BACKOFF = BackoffPolicy(
    base_seconds=0.5, multiplier=2.0, max_seconds=30.0, jitter_ratio=0.25
)


#: Job fields a journal ``state`` or ``snapshot`` record carries.
_REPLAYED = (
    "attempts", "next_attempt_at", "result", "error", "trace_id", "open_spans",
)


def submission_digest(request: PartitionRequest) -> str:
    """Idempotency key of one submission.

    Hashes the netlist *content* (two paths to the same file dedupe;
    an edited netlist does not), the *resolved* device — catalog name
    and effective filling ratio, so ``delta: null`` and the catalog δ
    are one job — and the budget-masked config digest, so two
    submissions differing only in budget knobs still dedupe onto one
    computation, matching the checkpoint compatibility rule.
    """
    file_sha = hashlib.sha256(Path(request.netlist).read_bytes()).hexdigest()
    device = request.resolve_device()
    cfg_sha = config_digest(request.resolve_config())
    blob = f"{file_sha}|{device.name}|{float(device.delta)}|{cfg_sha}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance."""

    state_dir: str
    jobs: int = 2
    """Worker processes (concurrent running jobs)."""
    queue_capacity: int = 32
    max_attempts: int = 3
    job_timeout_seconds: Optional[float] = None
    """Hard per-attempt wall-clock cap enforced by the pool."""
    drain_seconds: float = 10.0
    """Grace period for running jobs when draining."""
    retry_backoff: BackoffPolicy = DEFAULT_RETRY_BACKOFF
    tenant_policies: Dict[str, TenantPolicy] = field(default_factory=dict)
    default_tenant_policy: TenantPolicy = field(default_factory=TenantPolicy)
    allow_test_hooks: bool = False
    """Honor the hidden ``test_sleep_seconds`` spec field (tests/CI)."""
    obs_enabled: bool = True
    """Service-level observability: span log + live metrics registry.

    Off swaps in :data:`~repro.obs.metrics.NULL_METRICS` and
    :data:`~repro.obs.spans.NULL_SPANS` (``/metrics`` then serves an
    empty-but-valid document) — the knob the ``serve_obs_overhead``
    bench compares against."""
    prof_slow_ms: Optional[float] = None
    """Profile-on-slow threshold in milliseconds (``None`` = off).

    When set, every attempt runs under the sampling profiler (a
    read-only observer — assignments are bit-identical) and attempts
    whose wall exceeds the threshold leave their folded stacks in
    ``<state-dir>/profiles/<job>.folded``, stamped with the job's
    trace_id and served at ``GET /jobs/<id>/profile``."""


class PartitionService:
    """Crash-safe partitioning job service (no HTTP — see server.py)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.runs_dir = self.state_dir / "runs"
        self.profiles_dir = self.state_dir / "profiles"
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

        self._lock = threading.RLock()
        self._journal = Journal(self.state_dir / "journal.jsonl")
        self._table = JobTable()
        self._draining = False
        self._closed = False
        self._wake = threading.Event()
        self._scheduler: Optional[threading.Thread] = None
        #: Test seam: when set, the scheduler parks without admitting —
        #: used to hold the queue saturated deterministically.
        self._paused = False
        self._admission = AdmissionController(
            capacity=config.queue_capacity,
            default_policy=config.default_tenant_policy,
            policies=dict(config.tenant_policies),
        )
        self._pool: Optional[WorkerPool] = None
        self._index_to_job: Dict[int, str] = {}
        self._next_index = 0
        self._stats = {
            "submissions": 0,
            "deduped": 0,
            "rejected": 0,
            "tasks_submitted": 0,
            "retries": 0,
            "recovered": 0,
            "completed": 0,
        }
        if config.obs_enabled:
            self.metrics: MetricsRegistry = MetricsRegistry()
            self.spans: SpanLog = SpanLog(self.state_dir / "spans.jsonl")
        else:
            self.metrics = NULL_METRICS
            self.spans = NULL_SPANS
        self._recover()

    def _observe_ms(self, name: str, seconds: float) -> None:
        """Record a latency into its fixed-bucket service histogram."""
        lo, hi, width = SERVE_HISTOGRAMS[name]
        self.metrics.histogram(name, lo=lo, hi=hi, width=width).record(
            int(seconds * 1000)
        )

    # -- recovery --------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal, then re-queue everything non-terminal.

        Replay also rebuilds the service counters that describe the
        journal's own history — every replayed retry re-queue bumps
        ``serve.retries`` and every recovery/drain re-queue bumps
        ``serve.requeues`` — so a scrape of ``/metrics`` right after a
        SIGKILL→restart reflects the journal, not a blank registry.
        """
        retry_counter = self.metrics.counter("serve.retries")
        requeue_counter = self.metrics.counter("serve.requeues")
        for record in self._journal.replay():
            event = record["event"]
            if event in ("submitted", "snapshot"):
                job = Job.from_dict(record["job"])
                if job.job_id not in self._table:
                    self._table.add(job)
                else:
                    fields = {k: getattr(job, k) for k in _REPLAYED}
                    self._table.apply_raw(job.job_id, job.state, **fields)
            elif event == "state":
                job_id = record["job_id"]
                if record["state"] == "queued":
                    # A retry re-queue journals its backoff deadline; a
                    # drain re-queue has none.
                    if "next_attempt_at" in record:
                        retry_counter.inc()
                    else:
                        requeue_counter.inc()
                if job_id in self._table:
                    fields = {k: record[k] for k in _REPLAYED if k in record}
                    self._table.apply_raw(job_id, record["state"], **fields)
            elif event == "recovered":
                requeue_counter.inc()
            # Other events ("drain", ...) are audit-only.
        for job in self._table.by_state("queued", "admitted", "running"):
            try:
                job.spec.validate()
            except JobError as error:
                # Admission checks only get stricter: a spec an older
                # daemon accepted fails its job here, never the boot.
                message = f"{type(error).__name__}: {error}"
                self._journal.append(
                    "state", job_id=job.job_id, state="failed", error=message
                )
                self._table.apply_raw(job.job_id, "failed", error=message)
                self._close_job_spans_locked(job, "failed")
        requeued = 0
        for job in self._table.by_state("admitted", "running"):
            # Journalled as started but no terminal event: the previous
            # process died with it in flight.  Its checkpoint (if any)
            # carries the completed iterations; re-queue to resume.
            # The attempt span that process left open is closed here
            # with ``crashed`` — replay is the only writer that still
            # knows its id (journalled with the ``admitted`` event).
            self._end_span_locked(job, "attempt", "crashed", recovered=True)
            self._start_queued_span_locked(job, reason="recovered")
            self._table.apply_raw(job.job_id, "queued")
            self._journal.append(
                "recovered", job_id=job.job_id, state="queued"
            )
            requeue_counter.inc()
            requeued += 1
        self._stats["recovered"] = requeued

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "PartitionService":
        """Spin up the pool and the scheduler thread."""
        with self._lock:
            if self._scheduler is not None:
                raise RuntimeError("service already started")
            self._pool = WorkerPool(
                self.config.jobs,
                timeout_seconds=self.config.job_timeout_seconds,
                max_respawns=None,
                metrics=self.metrics,
            )
            self._scheduler = threading.Thread(
                target=self._scheduler_loop,
                name="fpart-serve-scheduler",
                daemon=True,
            )
            self._scheduler.start()
        return self

    def close(self) -> None:
        """Immediate shutdown (no grace); prefer :meth:`drain`."""
        with self._lock:
            self._closed = True
        self._wake.set()
        if self._scheduler is not None:
            self._scheduler.join(timeout=10.0)
            self._scheduler = None
        self._journal.close()
        self.spans.close()

    def drain(self, timeout: Optional[float] = None) -> Dict:
        """Graceful shutdown: stop admitting, give runners a grace
        period, re-queue the rest (journalled), compact the journal.

        Returns a summary dict for logging.  Safe to call from a signal
        handler path (sets flags; the blocking wait happens here, not in
        the handler).
        """
        grace = self.config.drain_seconds if timeout is None else timeout
        with self._lock:
            self._draining = True
            self._journal.append("drain", grace_seconds=grace)
        self._wake.set()
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            with self._lock:
                if not self._table.by_state("running", "admitted"):
                    break
            time.sleep(0.05)
        with self._lock:
            self._closed = True
        self._wake.set()
        if self._scheduler is not None:
            self._scheduler.join(timeout=max(grace, 5.0))
            self._scheduler = None
        with self._lock:
            # Anything still non-terminal goes back to queued for the
            # next daemon generation; checkpoints make the handoff
            # lossless.
            requeued = []
            for job in self._table.by_state("running", "admitted"):
                self._end_span_locked(
                    job, "attempt", "requeued", reason="drain"
                )
                self._start_queued_span_locked(job, reason="drain")
                self._table.set_state(job.job_id, "queued")
                self._journal.append(
                    "state", job_id=job.job_id, state="queued"
                )
                self.metrics.counter("serve.requeues").inc()
                requeued.append(job.job_id)
            self._compact_locked()
            self._journal.close()
            self.spans.close()
        counts = self.counts()
        return {"requeued": requeued, "counts": counts}

    def _compact_locked(self) -> None:
        self._journal.compact(
            {"job": job.to_dict()} for job in self._table.jobs()
        )

    # -- submission ------------------------------------------------------

    def submit(
        self, payload: Dict, force: bool = False, trace_id: str = ""
    ) -> Dict:
        """Handle one submission; returns an HTTP-shaped response dict.

        Response keys: ``status`` (HTTP code), plus either a job view
        (201 created / 200 attached-or-cached, with ``dedup`` saying
        which) or an error (+ ``retry_after`` on 429).

        ``trace_id`` is the request's correlation id (the HTTP layer
        mints one or accepts ``X-Trace-Id``); an accepted job adopts it
        for life — journal records, worker trace, run store entry and
        the job's span tree all carry it.
        """
        trace_id = trace_id or new_trace_id()
        try:
            spec = JobSpec.from_dict(payload)
            digest = submission_digest(spec)
        except FileNotFoundError as error:
            return self._reject(404, str(error))
        except (ValueError, OSError) as error:
            # A failed admission check (JobError), or a netlist path
            # that exists but cannot be read as a file.
            return self._reject(400, str(error))

        with self._lock:
            self._stats["submissions"] += 1
            self.metrics.counter("serve.submissions").inc()
            if not force:
                twin = self._table.find_digest(digest)
                # A failed or cancelled twin has no result to serve and
                # no work to attach to — resubmission starts fresh.
                if twin is not None and twin.state not in (
                    "failed", "cancelled",
                ):
                    # Attach to the in-flight twin or serve the cached
                    # terminal result; either way the pool sees nothing.
                    self._stats["deduped"] += 1
                    self.metrics.counter("serve.dedup_hits").inc()
                    return {
                        "status": 200,
                        "dedup": (
                            "cached" if twin.terminal else "in_flight"
                        ),
                        "job": twin.to_dict(),
                    }
            admission_span = self.spans.start(
                "admission", trace_id, "", tenant=spec.tenant
            )
            decision = self._admission.decide(
                spec.tenant,
                queue_depth=len(self._table.by_state("queued", "admitted")),
                active_by_tenant=self._table.active_by_tenant(),
                draining=self._draining,
            )
            if not decision.accepted:
                self._stats["rejected"] += 1
                self.spans.end(
                    admission_span, trace_id, "rejected",
                    code=decision.http_status, reason=decision.reason,
                )
                response = self._reject(decision.http_status, decision.reason)
                if decision.retry_after is not None:
                    response["retry_after"] = decision.retry_after
                return response
            clamped = self._admission.clamp_config(spec.tenant, spec.config)
            if clamped != spec.config:
                spec = JobSpec.from_dict({**spec.to_dict(), "config": clamped})
            job = Job(
                job_id=uuid.uuid4().hex[:12],
                spec=spec,
                digest=digest,
                max_attempts=self.config.max_attempts,
                trace_id=trace_id,
            )
            self.spans.end(
                admission_span, trace_id, "accepted", job_id=job.job_id
            )
            # The job's root span plus its first queued wait; their ids
            # ride ``open_spans`` into the journalled job dict so any
            # daemon generation can close them.
            root = self.spans.start(
                "job", trace_id, "",
                job_id=job.job_id, tenant=spec.tenant, digest=digest,
            )
            job.open_spans["job"] = root
            self._start_queued_span_locked(job)
            # Write-ahead: journal first, then mutate the table.
            self._journal.append("submitted", job=job.to_dict())
            self._table.add(job)
        self._wake.set()
        return {"status": 201, "dedup": None, "job": job.to_dict()}

    def _reject(self, status: int, error: str) -> Dict:
        self.metrics.counter(
            "serve.rejected", labels={"code": str(status)}
        ).inc()
        return {"status": status, "error": error}

    def cancel(self, job_id: str) -> Dict:
        with self._lock:
            try:
                job = self._table.get(job_id)
            except JobError as error:
                return {"status": 404, "error": str(error)}
            if job.terminal:
                return {"status": 409, "error": f"job is {job.state}"}
            self._finish_locked(job, "cancelled")
        self._wake.set()
        return {"status": 200, "job": job.to_dict()}

    def _finish_locked(self, job: Job, state: str, **updates) -> None:
        """Journal, then apply, a terminal state; close the job's spans."""
        self._journal.append(
            "state", job_id=job.job_id, state=state, **updates
        )
        self._table.set_state(job.job_id, state, **updates)
        self._close_job_spans_locked(job, state)

    def _end_span_locked(
        self, job: Job, role: str, status: str, **fields
    ) -> bool:
        """Close the job's open ``role`` span, if any; True if it was."""
        span_id = job.open_spans.pop(role, "")
        if span_id:
            self.spans.end(
                span_id, job.trace_id, status, job_id=job.job_id, **fields
            )
        return bool(span_id)

    def _start_queued_span_locked(self, job: Job, **fields) -> None:
        """Open the job's next ``queued`` wait under its root span."""
        if job.trace_id and "job" in job.open_spans:
            job.open_spans["queued"] = self.spans.start(
                "queued", job.trace_id, job.open_spans["job"],
                job_id=job.job_id, **fields,
            )

    def _close_job_spans_locked(self, job: Job, status: str) -> None:
        """Close every open span of a job hitting a terminal state."""
        self._end_span_locked(job, "queued", status)
        self._end_span_locked(job, "attempt", status)
        if self._end_span_locked(job, "job", status):
            self._observe_ms(
                "serve.submit_to_terminal_ms", time.time() - job.created
            )

    # -- inspection ------------------------------------------------------

    def job(self, job_id: str) -> Dict:
        with self._lock:
            try:
                return {"status": 200, "job": self._table.get(job_id).to_dict()}
            except JobError as error:
                return {"status": 404, "error": str(error)}

    def jobs(self) -> List[Dict]:
        with self._lock:
            return [job.to_dict() for job in self._table.jobs()]

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def result(self, job_id: str) -> Dict:
        """Full result payload (assignment included) from result.json."""
        with self._lock:
            try:
                job = self._table.get(job_id)
            except JobError as error:
                return {"status": 404, "error": str(error)}
            state = job.state
        path = self.job_dir(job_id) / "result.json"
        if not path.exists():
            return {
                "status": 409,
                "error": f"job is {state}; no result on disk yet",
            }
        with open(path, "r", encoding="utf-8") as stream:
            return {"status": 200, "result": json.load(stream)}

    def job_profile(self, job_id: str) -> Dict:
        """The profile-on-slow capture of a job, as folded stacks.

        200 carries the folded text plus the correlation metadata from
        the capture's comment header (trace_id included); 404 when the
        job is unknown or no attempt crossed the slow threshold.  The
        capture is read from disk on every request — it survives daemon
        restarts exactly like results do.
        """
        with self._lock:
            if job_id not in self._table:
                return {"status": 404, "error": f"unknown job: {job_id}"}
        path = self.profiles_dir / f"{job_id}.folded"
        if not path.exists():
            threshold = self.config.prof_slow_ms
            return {
                "status": 404,
                "error": (
                    "no profile captured for this job"
                    + (
                        f" (slow threshold {threshold:g} ms)"
                        if threshold is not None
                        else " (profile-on-slow is off; start the daemon "
                        "with --prof-slow-ms)"
                    )
                ),
            }
        folded = path.read_text(encoding="utf-8")
        meta: Dict[str, str] = {}
        for line in folded.splitlines():
            if not line.startswith("# "):
                break
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        return {
            "status": 200,
            "job_id": job_id,
            "trace_id": meta.get("trace_id", ""),
            "run_id": meta.get("run_id", ""),
            "attempt": meta.get("attempt", ""),
            "wall_seconds": meta.get("wall_seconds", ""),
            "samples": meta.get("samples", ""),
            "folded": folded,
        }

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return self._table.counts()

    def stats(self) -> Dict:
        with self._lock:
            stats = dict(self._stats)
            stats["counts"] = self._table.counts()
            stats["draining"] = self._draining
            return stats

    def openmetrics(self) -> str:
        """The live ``GET /metrics`` document (OpenMetrics text).

        Point-in-time gauges (queue depth, active jobs, per-tenant
        quota usage, draining flag) are refreshed from the job table at
        render time — they describe *now*, unlike the counters and
        histograms which accumulate as events happen.  With
        observability disabled the registry is the null one and the
        document is just its ``# EOF`` terminator — still valid, so
        scrapers never see a 404 flip on a config change.
        """
        with self._lock:
            if self.metrics.enabled:
                counts = self._table.counts()
                self.metrics.gauge("serve.queue_depth").set(
                    counts["queued"] + counts["admitted"]
                )
                self.metrics.gauge("serve.active_jobs").set(
                    counts["running"]
                )
                self.metrics.gauge("serve.draining").set(
                    1.0 if self._draining else 0.0
                )
                # Zero every previously seen tenant first: a tenant
                # whose jobs all finished must read 0, not its stale
                # last value.
                for key, gauge in self.metrics._gauges.items():
                    if key.startswith("serve.tenant_active_jobs{"):
                        gauge.set(0.0)
                for tenant, active in sorted(
                    self._table.active_by_tenant().items()
                ):
                    self.metrics.gauge(
                        "serve.tenant_active_jobs",
                        labels={"tenant": tenant},
                    ).set(active)
            snapshot = self.metrics.snapshot()
        return to_openmetrics(snapshot)

    def healthz(self) -> Dict:
        """Liveness: the process is up and its lock is not wedged."""
        with self._lock:
            return {"status": 200, "ok": True, "draining": self._draining}

    def readyz(self) -> Dict:
        """Readiness: accepting work (not draining, scheduler alive)."""
        with self._lock:
            scheduler_alive = (
                self._scheduler is not None and self._scheduler.is_alive()
            )
            ready = scheduler_alive and not self._draining and not self._closed
            return {
                "status": 200 if ready else 503,
                "ready": ready,
                "draining": self._draining,
            }

    # -- test seams ------------------------------------------------------

    def pause_scheduler(self) -> None:
        """Stop admitting queued jobs (jobs pile up; HTTP stays live)."""
        with self._lock:
            self._paused = True

    def resume_scheduler(self) -> None:
        with self._lock:
            self._paused = False
        self._wake.set()

    # -- scheduler (single thread owns the pool) -------------------------

    def _scheduler_loop(self) -> None:
        pool = self._pool
        assert pool is not None
        try:
            while True:
                with self._lock:
                    if self._closed:
                        break
                    self._admit_due_locked(pool)
                    running_ids = set(self._index_to_job.values())
                outcomes = pool.poll(timeout=0.1)
                for outcome in outcomes:
                    self._handle_outcome(outcome)
                self._reconcile_cancellations(pool)
                if not outcomes:
                    # Nothing completed: sleep until woken or the next
                    # retry becomes due.
                    if not running_ids and not self._wake.is_set():
                        self._wake.wait(timeout=0.2)
                    self._wake.clear()
        finally:
            pool.close()

    def _admit_due_locked(self, pool: WorkerPool) -> None:
        """Move due queued jobs into the pool (lock held)."""
        if self._paused or self._draining:
            return
        now = time.time()
        free = self.config.jobs - len(self._index_to_job)
        if free <= 0:
            return
        for job in self._table.by_state("queued"):
            if free <= 0:
                break
            if job.next_attempt_at > now:
                continue
            index = self._next_index
            self._next_index += 1
            attempt = job.attempts + 1
            spec = job.spec
            # Spans: the queued wait ends here, the attempt begins; its
            # id crosses the process boundary as a plain kwarg so the
            # worker's ``partition-run`` span parents under it.
            wait = max(now - job.updated, 0.0)
            if self._end_span_locked(
                job, "queued", "admitted", wait_ms=round(wait * 1000, 1)
            ):
                self._observe_ms("serve.queue_wait_ms", wait)
            attempt_span = ""
            if job.trace_id:
                attempt_span = self.spans.start(
                    f"attempt[{attempt}]",
                    job.trace_id,
                    job.open_spans.get("job", ""),
                    job_id=job.job_id,
                )
                job.open_spans["attempt"] = attempt_span
            task = ParallelTask(
                index=index,
                fn=run_partition_job,
                kwargs={
                    "job_id": job.job_id,
                    "attempt": attempt,
                    "request": spec,
                    "job_dir": str(self.job_dir(job.job_id)),
                    "runs_dir": str(self.runs_dir),
                    "tenant": spec.tenant,
                    # Hook names are the worker's parameter names.
                    **(spec.hooks if self.config.allow_test_hooks else {}),
                    "trace_id": job.trace_id,
                    "parent_span_id": attempt_span,
                    "prof_slow_ms": self.config.prof_slow_ms,
                    "profiles_dir": str(self.profiles_dir),
                },
                label=f"job {job.job_id} attempt {attempt}",
            )
            # Write-ahead, then table, then pool.  ``admitted`` marks
            # the job as owned by the scheduler; ``running`` that the
            # pool holds it (the distinction matters only to observers
            # — recovery folds both back to ``queued``).  The open span
            # ids ride the event so a post-SIGKILL replay can close the
            # attempt span as ``crashed``.
            self._journal.append(
                "state", job_id=job.job_id, state="admitted",
                attempts=attempt, open_spans=dict(job.open_spans),
            )
            self._table.set_state(job.job_id, "admitted", attempts=attempt)
            pool.submit(task)
            self._journal.append("state", job_id=job.job_id, state="running")
            self._table.set_state(job.job_id, "running")
            self._index_to_job[index] = job.job_id
            self._stats["tasks_submitted"] += 1
            free -= 1

    def _reconcile_cancellations(self, pool: WorkerPool) -> None:
        """Kill workers whose jobs were cancelled HTTP-side."""
        with self._lock:
            doomed = [
                index
                for index, job_id in self._index_to_job.items()
                if job_id in self._table
                and self._table.get(job_id).state == "cancelled"
            ]
        for index in doomed:
            pool.kill(index)

    def _handle_outcome(self, outcome: TaskOutcome) -> None:
        with self._lock:
            job_id = self._index_to_job.pop(outcome.index, None)
            if job_id is None:
                return
            job = self._table.get(job_id)
            if job.state == "cancelled":
                # The kill we requested (or a stale completion racing a
                # cancel): the terminal state already stands.
                return
            # The attempt span closes with the pool's verdict whatever
            # it is — a worker that died mid-span cannot close it, so
            # the daemon does (status ``crashed``/``timeout``).
            self._end_span_locked(
                job, "attempt", outcome.status,
                wall_ms=round(outcome.wall_seconds * 1000, 1),
            )
            self._observe_ms("serve.attempt_wall_ms", outcome.wall_seconds)
            if outcome.status == "ok":
                summary = outcome.value
                state = (
                    "done" if summary.get("status") == "feasible" else "degraded"
                )
                self._finish_locked(job, state, result=summary)
                self._stats["completed"] += 1
                self.metrics.counter("serve.completed").inc()
                if summary.get("profile_captured"):
                    self.metrics.counter("serve.profiles_captured").inc()
                return
            if outcome.status == "error":
                # The job itself raised: deterministic, retry would fail
                # the same way.
                self._finish_locked(job, "failed", error=outcome.error)
                return
            # crashed / timeout / not_run: the environment failed, not
            # the job.  Retry with backoff until attempts run out, then
            # degrade to the checkpoint's best-so-far if one exists.
            if job.attempts < job.max_attempts:
                delay = self.config.retry_backoff.delay(
                    job.attempts - 1, key=job_id
                )
                next_at = time.time() + delay
                self._start_queued_span_locked(
                    job,
                    reason=outcome.status,
                    retry_delay_ms=round(delay * 1000, 1),
                )
                self._journal.append(
                    "state",
                    job_id=job_id,
                    state="queued",
                    next_attempt_at=next_at,
                    error=outcome.error,
                    open_spans=dict(job.open_spans),
                )
                self._table.set_state(
                    job_id, "queued", next_attempt_at=next_at,
                    error=outcome.error,
                )
                self._stats["retries"] += 1
                self.metrics.counter("serve.retries").inc()
                self._observe_ms("serve.retry_delay_ms", delay)
            else:
                summary = self._best_so_far(job_id)
                if summary is not None:
                    state = "degraded"
                    error = (
                        f"{outcome.status} after {job.attempts} attempts; "
                        f"serving checkpoint best-so-far"
                    )
                else:
                    state = "failed"
                    error = (
                        f"{outcome.status} after {job.attempts} attempts "
                        f"with no checkpoint to degrade to"
                    )
                self._finish_locked(job, state, result=summary, error=error)
        self._wake.set()

    def _best_so_far(self, job_id: str) -> Optional[Dict]:
        """Best-so-far summary from the job's checkpoint, if loadable."""
        path = self.job_dir(job_id) / "checkpoint.json"
        manager = CheckpointManager(path, every=1)
        if not manager.exists():
            return None
        try:
            state = manager.load()
        except CheckpointError:
            return None
        if not state.best_assignment:
            return None
        return {
            "status": "budget_exhausted",
            "num_devices": state.best_num_blocks,
            "iterations": state.iteration,
            "from_checkpoint": True,
        }
