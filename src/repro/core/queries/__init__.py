"""Query formulations (paper §3): each module turns one spatial query into
an RT-suitable ray-casting problem and runs it on the simulated RT cores.
"""

from repro.core.queries.contains import run_contains_query
from repro.core.queries.intersects import run_intersects_query

__all__ = ["run_contains_query", "run_intersects_query"]
