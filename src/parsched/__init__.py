"""Online makespan minimization with parallel schedules.

A library and CLI for simulating lane families that each build one
schedule online, keeping the best schedule at the end: the
known-optimum families (census guessing and configuration guessing),
the guess-adjusting reduction that removes the known-optimum
assumption, an exact offline oracle, and adaptive adversaries that
force the known lower bounds.
"""

from .core import Job, JobSequence, LaneRunner, Schedule, select_best
from .rational import ceil_log, format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "Job",
    "JobSequence",
    "LaneRunner",
    "Schedule",
    "select_best",
    "ceil_log",
    "format_rational",
    "parse_rational",
    "__version__",
]
