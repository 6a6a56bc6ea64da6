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
from typing import Dict, List, Optional

from ..core.request import PartitionRequest, RequestError

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "TEST_HOOKS",
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


#: Fault-injection hooks a spec may carry in ``config`` (DESIGN.md §10);
#: the daemon forwards them only when it runs with test hooks enabled.
TEST_HOOKS = ("test_sleep_seconds", "test_crash_attempts")


@dataclass(frozen=True)
class JobSpec(PartitionRequest):
    """What the client asked for: a request, plus who asked and why.

    The request is checked and resolved exactly as ``fpart partition``
    resolves its flags.  :attr:`overrides` is ``config`` without the
    :data:`TEST_HOOKS`, so hooks never reach the run or the digest.
    """

    tenant: str = "default"
    priority: int = 0
    label: str = ""

    @property
    def overrides(self) -> Dict:
        return {k: v for k, v in self.config.items() if k not in TEST_HOOKS}

    @property
    def hooks(self) -> Dict:
        return {k: v for k, v in self.config.items() if k in TEST_HOOKS}

    def validate(self) -> None:
        try:
            super().validate()
        except RequestError as error:
            raise JobError(str(error)) from None
        for name, value in self.hooks.items():
            if type(value) not in (int, float):
                raise JobError(f"{name} must be a number, got {value!r}")
        if type(self.tenant) is not str or not self.tenant:
            raise JobError("tenant must be a non-empty string")

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict, strict: bool = True) -> "JobSpec":
        """Parse a spec: ``strict`` for admission, ``False`` for replay.

        Admission rejects unknown keys and validates.  Replay keeps the
        known fields and checks nothing, so a spec an older daemon
        accepted cannot stop boot (``_recover`` fails its job instead).
        """
        if not isinstance(data, dict):
            raise JobError("job spec must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if strict and unknown:
            raise JobError(f"unknown job spec keys: {', '.join(unknown)}")
        fields = {k: v for k, v in data.items() if k in known}
        spec = cls(**{"netlist": "", **fields})
        if strict:
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
            **vars(self),
            "spec": self.spec.to_dict(),
            "open_spans": dict(self.open_spans),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Job":
        data = dict(data)
        spec = JobSpec.from_dict(data.pop("spec"), strict=False)
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
