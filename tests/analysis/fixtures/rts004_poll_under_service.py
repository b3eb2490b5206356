# Positive fixture for RTS004: the scheduler polls the compactor while
# holding the service lock. poll() takes churn.compactor (rank 5) under
# serve.service (rank 10), then compact() re-takes serve.service.
# Parsed by the analyzer, never imported or executed.
import threading

from repro.lockorder import make_lock


class SpatialQueryService:
    def __init__(self):
        self._lock = make_lock("serve.service")     # rank 10
        self._cond = threading.Condition(self._lock)
        self._pending = []
        self.compactor = BackgroundCompactor(self)

    def start(self):
        threading.Thread(
            target=self._run, name="repro-serve-scheduler", daemon=True
        ).start()

    def compact(self):
        with self._lock:
            pass

    def _collect_batch(self):
        with self._cond:
            batch, self._pending = self._pending, []
            self.compactor.poll()           # RTS004: descends, re-acquires, cycle
            return batch

    def _run(self):
        while self._collect_batch():
            pass


class BackgroundCompactor:
    def __init__(self, service: "SpatialQueryService"):
        self._lock = make_lock("churn.compactor")   # rank 5
        self.service = service

    def poll(self):
        with self._lock:
            self.service.compact()
