"""Job model for the partitioning service: specs, states, the table.

A *job* is one partitioning request owned by the daemon across process
restarts.  Its lifecycle is a small validated state machine::

    queued ──> admitted ──> running ──> done
      │           │            ├─────> degraded
      │           │            ├─────> failed
      │           │            └─────> cancelled
      │           ├──> queued  (recovery / retry re-queue)
      │           └──> cancelled
      └──> cancelled
    running ──> queued         (crash retry, daemon recovery)

``done``/``degraded``/``failed``/``cancelled`` are terminal.  The
re-queue edges exist because the write-ahead journal records intent
*before* execution: after a SIGKILL, any job journaled as ``admitted``
or ``running`` provably never finished and is folded back to ``queued``
so the scheduler resumes it from its checkpoint.

State transitions in the live daemon go through
:meth:`JobTable.set_state`, which rejects edges outside ``TRANSITIONS``
— an invalid transition is a daemon bug, not an operational condition.
Journal replay instead uses :meth:`JobTable.apply_raw`, which trusts
the journal (it was valid when written; strictness at replay would turn
a version skew into a boot failure).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "JobError",
    "JobSpec",
    "Job",
    "JobTable",
]

JOB_STATES = (
    "queued",
    "admitted",
    "running",
    "done",
    "degraded",
    "failed",
    "cancelled",
)

TERMINAL_STATES = frozenset({"done", "degraded", "failed", "cancelled"})

TRANSITIONS = {
    "queued": frozenset({"admitted", "cancelled"}),
    "admitted": frozenset({"running", "queued", "cancelled"}),
    "running": frozenset(
        {"done", "degraded", "failed", "cancelled", "queued"}
    ),
    "done": frozenset(),
    "degraded": frozenset(),
    "failed": frozenset(),
    "cancelled": frozenset(),
}


class JobError(ValueError):
    """Invalid job spec or state transition."""


@dataclass(frozen=True)
class JobSpec:
    """What the client asked for — everything needed to run the job.

    ``config`` holds FpartConfig field overrides by name (only the
    fields the client set); the worker applies them over
    ``DEFAULT_CONFIG`` so the service and CLI share one default story.
    ``delta`` likewise defaults to ``None``: the device's catalog
    filling ratio, exactly what ``fpart partition`` uses without
    ``--delta``.
    """

    netlist: str
    device: str = "XC3042"
    delta: Optional[float] = None
    config: Dict = field(default_factory=dict)
    tenant: str = "default"
    priority: int = 0
    label: str = ""

    def validate(self) -> None:
        if not self.netlist:
            raise JobError("job spec requires a netlist path")
        # The worker's Device demands 0 < delta <= 1; reject here so a
        # bad filling ratio is a 400 at admission, not a failed job.
        if self.delta is not None and not (0.0 < float(self.delta) <= 1.0):
            raise JobError(f"delta must be in (0, 1], got {self.delta}")
        if not isinstance(self.config, dict):
            raise JobError("config overrides must be a mapping")
        if not self.tenant:
            raise JobError("tenant must be non-empty")

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}
        spec = cls(**{k: v for k, v in dict(data).items() if k in known})
        spec.validate()
        return spec


@dataclass
class Job:
    """One job's full daemon-side record (journalled as a snapshot)."""

    job_id: str
    spec: JobSpec
    digest: str
    state: str = "queued"
    attempts: int = 0
    max_attempts: int = 3
    #: Wall-clock (``time.time``) earliest start of the next attempt —
    #: wall time so retry backoff survives a daemon restart.
    next_attempt_at: float = 0.0
    result: Optional[Dict] = None
    error: Optional[str] = None
    created: float = field(default_factory=time.time)
    updated: float = field(default_factory=time.time)
    #: Service correlation id (see ``repro.obs.spans``): one id joins
    #: the access log, this journal record, the run trace and the run
    #: store entry.  Empty when the job predates span tracing.
    trace_id: str = ""
    #: Span ids of the job's currently open spans keyed by role
    #: (``"job"``/``"queued"``/``"attempt"``).  Journalled with the
    #: job so recovery can close an orphaned attempt span as
    #: ``crashed`` after a SIGKILL.
    open_spans: Dict[str, str] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "digest": self.digest,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "next_attempt_at": self.next_attempt_at,
            "result": self.result,
            "error": self.error,
            "created": self.created,
            "updated": self.updated,
            "trace_id": self.trace_id,
            "open_spans": dict(self.open_spans),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Job":
        data = dict(data)
        spec = JobSpec.from_dict(data.pop("spec"))
        known = {f for f in cls.__dataclass_fields__}
        return cls(
            spec=spec,
            **{k: v for k, v in data.items() if k in known and k != "spec"},
        )


class JobTable:
    """In-memory job registry; the journal is its durable shadow.

    The table itself does no locking — the service mutates it under its
    own lock, and replay happens before any thread starts.
    """

    def __init__(self) -> None:
        self._jobs: Dict[str, Job] = {}
        self._by_digest: Dict[str, List[str]] = {}

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def add(self, job: Job) -> None:
        if job.job_id in self._jobs:
            raise JobError(f"duplicate job id {job.job_id!r}")
        if job.state not in JOB_STATES:
            raise JobError(f"unknown job state {job.state!r}")
        self._jobs[job.job_id] = job
        self._by_digest.setdefault(job.digest, []).append(job.job_id)

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise JobError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        """All jobs, oldest submission first."""
        return sorted(self._jobs.values(), key=lambda j: (j.created, j.job_id))

    def by_state(self, *states: str) -> List[Job]:
        wanted = set(states)
        return [j for j in self.jobs() if j.state in wanted]

    def find_digest(self, digest: str) -> Optional[Job]:
        """Most recent job with this digest, preferring live over dead.

        Idempotent submission attaches to an in-flight twin when one
        exists, else returns the latest terminal twin for cache serving.
        """
        ids = self._by_digest.get(digest, ())
        live: Optional[Job] = None
        dead: Optional[Job] = None
        for job_id in ids:
            job = self._jobs[job_id]
            if job.state in TERMINAL_STATES:
                if dead is None or job.created >= dead.created:
                    dead = job
            else:
                if live is None or job.created >= live.created:
                    live = job
        return live if live is not None else dead

    # -- transitions -----------------------------------------------------

    def set_state(self, job_id: str, state: str, **updates) -> Job:
        """Validated transition for the live daemon."""
        job = self.get(job_id)
        if state not in JOB_STATES:
            raise JobError(f"unknown job state {state!r}")
        if state != job.state and state not in TRANSITIONS[job.state]:
            raise JobError(
                f"job {job_id}: illegal transition {job.state} -> {state}"
            )
        return self.apply_raw(job_id, state, **updates)

    def apply_raw(self, job_id: str, state: str, **updates) -> Job:
        """Unvalidated apply — journal replay trusts its own history."""
        job = self.get(job_id)
        job.state = state
        job.updated = time.time()
        for key, value in updates.items():
            if not hasattr(job, key):
                raise JobError(f"job has no field {key!r}")
            setattr(job, key, value)
        return job

    # -- aggregate views -------------------------------------------------

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts

    def active_by_tenant(self) -> Dict[str, int]:
        """Non-terminal job counts per tenant (admission quota input)."""
        active: Dict[str, int] = {}
        for job in self._jobs.values():
            if job.state not in TERMINAL_STATES:
                tenant = job.spec.tenant
                active[tenant] = active.get(tenant, 0) + 1
        return active
