# Positive fixture for RTS004: every constructor that hides a lock from
# the runtime order check. Parsed by the analyzer, never imported or
# executed. (Lock order itself — descent, re-acquisition, cycles — is
# asserted at runtime by OrderedLock; see tests/analysis/test_lockorder.py.)
import threading

from repro.lockorder import make_lock

raw = threading.Lock()                      # RTS004: raw constructor


class RawService:
    # The serving layer as first written: a raw lock and a Condition
    # over it, both invisible to the rank table.
    def __init__(self):
        self._lock = threading.Lock()       # RTS004: raw constructor
        self._cond = threading.Condition(self._lock)  # RTS004: unranked wrap


class Signals:
    def __init__(self):
        self._stop = threading.Event()      # RTS004: Event hides a lock
        self._anon = threading.Condition(self._stop)  # RTS004: unranked wrap
        self._bare = threading.Condition()  # RTS004: bare Condition


class Elsewhere:
    def __init__(self):
        self._lock = make_lock("serve.cache")


class Borrower:
    def __init__(self, other: Elsewhere):
        # Ranked in another class: this class cannot show it.
        self._cond = threading.Condition(other._lock)  # RTS004: unranked wrap
