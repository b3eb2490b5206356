# Negative fixture for RTS004: locks acquired in ascending rank order.
import threading

from repro.lockorder import make_lock


class Metrics:
    def __init__(self):
        self._lock = make_lock("obs.metrics")    # rank 40

    def bump(self):
        with self._lock:
            pass


class Tracer:
    def __init__(self):
        self._lock = make_lock("obs.tracer")     # rank 45

    @property
    def depth(self):
        with self._lock:
            return 0


class Service:
    def __init__(self):
        self._lock = make_lock("serve.service")  # rank 10
        self._cond = threading.Condition(self._lock)   # wraps a ranked lock
        self.metrics = Metrics()
        self.tracer = Tracer()

    def serve(self):
        with self._lock:
            self.metrics.bump()     # 10 -> 40: ascending, fine

    def trace_depth(self):
        with self._lock:
            return self.tracer.depth    # property getter: 10 -> 45, fine

    def wake(self):
        with self._cond:            # alias of self._lock; no self-edge
            self._cond.notify_all()
