# Negative fixture for RTS004: every lock comes from make_lock, and every
# Condition wraps one.
import threading

from repro.lockorder import make_lock

_registry_lock = make_lock("parallel.pools")
_registry_cond = threading.Condition(make_lock("fixture.cond", rank=99))


class Service:
    def __init__(self):
        self._lock = make_lock("serve.service")  # rank 10
        self._cond = threading.Condition(self._lock)   # wraps a ranked lock
        self._thread = threading.Thread(target=self.wake, daemon=True)

    def wake(self):
        with self._cond:
            self._cond.notify_all()
