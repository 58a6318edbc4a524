"""Unified multi-task session API: pretrain once, serve every workload.

``repro.api`` is the recommended public surface of this reproduction.
One :class:`SudowoodoSession` owns one contrastively pre-trained encoder
and its embedding store; any number of registered tasks — entity
``match``-ing, ``block``-ing, error ``clean``-ing, ``column_match`` and
``column_cluster`` discovery, plus the integration-pipeline tier of
``join_discovery``, ``dedupe``, and ``streaming_er`` — attach to it,
share those representations, and follow one ``fit`` / ``predict`` /
``evaluate`` / ``report`` lifecycle.  ``session.serve()`` exports any
fitted task as a thread-safe, shardable streaming service.

>>> from repro.api import SudowoodoSession
>>> session = SudowoodoSession(config)
>>> session.pretrain(corpus)                       # the expensive step, once
>>> result = session.task("match").fit(dataset, label_budget=80).report()
>>> repairs = session.task("clean").fit(dirty_table).predict()
>>> service = session.serve("match")  # doctest: +SKIP

The task classes are the only implementation of their workloads; the
pre-session drivers are gone (``docs/api.md`` maps each removed name to
its session spelling).
"""

from ..core.config import SudowoodoConfig
from .registry import (
    Task,
    TaskNotFittedError,
    available_tasks,
    create_task,
    register_task,
)
from .results import (
    BlockResult,
    CleanResult,
    ColumnClusterResult,
    ColumnMatchResult,
    DedupeResult,
    JoinCandidate,
    JoinDiscoveryResult,
    MatchResult,
    StreamingERResult,
    TaskReport,
)
from .session import SudowoodoSession
from .tasks import (
    BlockTask,
    CleanTask,
    ColumnClusterTask,
    ColumnMatchTask,
    MatchTask,
    SessionTask,
)

# Importing the discovery package registers the join_discovery / dedupe /
# streaming_er tasks.  It lives at the end of the module because the
# discovery tasks import SessionTask and the result types defined above.
from .. import discovery as _discovery  # noqa: E402,F401  (registration)

__all__ = [
    "BlockResult",
    "BlockTask",
    "CleanResult",
    "CleanTask",
    "ColumnClusterResult",
    "ColumnClusterTask",
    "ColumnMatchResult",
    "ColumnMatchTask",
    "DedupeResult",
    "JoinCandidate",
    "JoinDiscoveryResult",
    "MatchResult",
    "MatchTask",
    "SessionTask",
    "StreamingERResult",
    "SudowoodoConfig",
    "SudowoodoSession",
    "Task",
    "TaskNotFittedError",
    "TaskReport",
    "available_tasks",
    "create_task",
    "register_task",
]
