# Positive fixture for RTS004: every lock-hygiene failure mode.
# Parsed by the analyzer, never imported or executed.
import threading

from repro.lockorder import make_lock

raw = threading.Lock()                      # RTS004: raw constructor


class Backwards:
    def __init__(self):
        self._hi = make_lock("parallel.pools")   # rank 60
        self._lo = make_lock("serve.snapshot")   # rank 20

    def bad(self):
        with self._hi:
            with self._lo:                  # RTS004: rank-descending edge
                pass


class Reentrant:
    def __init__(self):
        self._lock = make_lock("serve.cache")

    def outer(self):
        with self._lock:
            self.inner()                    # RTS004: self-deadlock via call

    def inner(self):
        with self._lock:
            pass


class Cycle:
    # Unranked locks (names outside RANKS): only cycle detection sees them.
    def __init__(self):
        self._a = make_lock("fixture.a", rank=1)
        self._b = make_lock("fixture.b", rank=1)

    def ab(self):
        with self._a:
            with self._b:
                pass

    def ba(self):
        with self._b:
            with self._a:                   # RTS004: cycle a -> b -> a
                pass


class Signals:
    def __init__(self):
        self._stop = threading.Event()      # RTS004: Event hides a lock
        self._anon = threading.Condition(self._stop)  # RTS004: unranked wrap


shader_lock = make_lock("obs.tracer")


def locking_shader(ray):
    with shader_lock:                       # RTS004: lock in device code
        return ray


programs = ShaderPrograms(intersection=locking_shader)  # noqa: F821


class Low:
    def __init__(self):
        self._lock = make_lock("serve.snapshot")  # rank 20

    def grab(self):
        with self._lock:
            pass


class TypedParam:
    def __init__(self):
        self._lock = make_lock("obs.metrics")     # rank 40

    def push(self, low: Low):
        with self._lock:
            low.grab()                      # RTS004: descends via typed param
