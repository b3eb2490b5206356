"""Eraser-style runtime lockset sanitizer (``REPRO_TSAN=1``).

The repo's one guard-consistency check (after Savage et al., *Eraser*,
1997): it *watches the actual execution*. Selected attributes of every
class that owns a :func:`repro.lockorder.make_lock` lock (service queue
state, snapshot history, cache counters, churn EWMAs, compactor
bookkeeping, the metrics registry's dicts, the tracer's span roots) are
wrapped in a :class:`Shared` descriptor that records, for every read and
write, the accessing thread and the set of ranked locks it holds at that
moment (:func:`repro.lockorder.held_lock_ids` — lock *identity*, not
rank name, because two instances of one subsystem protect nothing about
each other). A race is only seen if a test drives the field from two
threads, so an accessor that clients call while the scheduler writes
needs a test that calls it from a second thread.

Per field the classic Eraser state machine runs:

- **Exclusive** — only one thread has touched the field (covers the
  construction pattern: ``__init__`` writes freely before sharing);
- **Shared** — a second thread read it; the candidate lockset ``C(v)``
  initializes to that access's held set and every later access
  intersects into it — but read-only sharing never reports;
- **Shared-Modified** — some thread wrote after sharing; from here an
  empty ``C(v)`` means no single lock was held across every access:
  a candidate race, reported once per ``(class, field)``.

Enabling: set ``REPRO_TSAN=1`` *before* importing ``repro`` — the
:func:`instrument` decorator checks the flag at class-creation time and
is a zero-cost no-op otherwise, and :func:`repro.lockorder.make_lock`
checks it at lock-construction time to switch on the held-lock
bookkeeping. The stress suites run under it in CI; findings surface via
:func:`races` (asserted empty at teardown by the tsan test fixtures).

Fields that are *intentionally* unsynchronized single-reference
publishes (``EpochSnapshots._current``) are instrumented as ``atomic``:
their accesses feed the state machine (so test introspection sees the
sharing) but never report.
"""

from __future__ import annotations

import threading

from repro.lockorder import held_lock_ids, tsan_enabled

__all__ = [
    "Race", "Shared", "instrument", "races", "reset", "field_state",
    "tsan_enabled",
]

#: Sanitizer-internal registry guard. Deliberately a raw lock: it is a
#: leaf acquired *inside* arbitrary ranked critical sections, and making
#: it an OrderedLock would both recurse into the bookkeeping it guards
#: and pollute the held-set it is trying to observe.
_LOCK = threading.Lock()
_RACES: list["Race"] = []
_REPORTED: set[tuple[str, str]] = set()

_EXCLUSIVE = "exclusive"
_SHARED = "shared"
_SHARED_MODIFIED = "shared-modified"


class Race:
    """One candidate race: a Shared-Modified field whose candidate
    lockset refined to empty."""

    __slots__ = ("cls", "field", "kind", "thread", "message")

    def __init__(self, cls: str, field: str, kind: str, thread: str):
        self.cls = cls
        self.field = field
        self.kind = kind
        self.thread = thread
        self.message = (
            f"data race candidate on {cls}.{field}: {kind} from thread "
            f"{thread!r} leaves no lock held across every access "
            "(Eraser lockset refined to empty in Shared-Modified state)"
        )

    def __repr__(self) -> str:
        return f"Race({self.message})"


class _FieldState:
    """Eraser per-field state: stage, owning thread, candidate lockset."""

    __slots__ = ("stage", "owner", "lockset", "threads")

    def __init__(self, owner: int):
        self.stage = _EXCLUSIVE
        self.owner = owner
        self.lockset: frozenset = frozenset()
        self.threads: set[int] = {owner}


def races() -> list[Race]:
    """Candidate races recorded since the last :func:`reset`."""
    with _LOCK:
        return list(_RACES)


def reset() -> None:
    """Clear recorded races and report-once memory (test isolation)."""
    with _LOCK:
        _RACES.clear()
        _REPORTED.clear()


def field_state(obj, name: str) -> dict | None:
    """Introspection for tests: the Eraser stage and candidate lockset
    of ``obj.<name>``, or None before the first tracked access."""
    state = obj.__dict__.get(f"{name}#tsan")
    if state is None:
        return None
    with _LOCK:
        return {
            "stage": state.stage,
            "lockset": set(state.lockset),
            "threads": set(state.threads),
        }


def _record(obj, name: str, is_write: bool, atomic: bool) -> None:
    tid = threading.get_ident()
    held = held_lock_ids()
    state_key = f"{name}#tsan"
    kind = "write" if is_write else "read"
    with _LOCK:
        state = obj.__dict__.get(state_key)
        if state is None:
            obj.__dict__[state_key] = _FieldState(tid)
            return
        if state.stage == _EXCLUSIVE:
            if tid == state.owner:
                return
            # Second thread: the field is now genuinely shared.
            state.threads.add(tid)
            state.lockset = held
            state.stage = _SHARED_MODIFIED if is_write else _SHARED
        else:
            state.threads.add(tid)
            state.lockset &= held
            if is_write:
                state.stage = _SHARED_MODIFIED
        if state.stage == _SHARED_MODIFIED and not state.lockset and not atomic:
            cls = type(obj).__name__
            if (cls, name) not in _REPORTED:
                _REPORTED.add((cls, name))
                _RACES.append(
                    Race(cls, name, kind, threading.current_thread().name)
                )


class Shared:
    """Data descriptor tracking one attribute's cross-thread accesses.

    The value lives in the instance ``__dict__`` under the attribute's
    own name (data descriptors shadow it, so pickling/``deepcopy``/
    ``vars()`` all see normal state); per-field Eraser state rides along
    under ``"<name>#tsan"``. ``container=True`` treats *every* access as
    a write — reads of a ``deque``/``dict`` field almost always feed an
    in-place mutation the attribute protocol cannot see, so the
    conservative classification is the truthful one. ``atomic=True``
    tracks but never reports (intentional single-reference publish).
    """

    def __init__(self, name: str, *, container: bool = False,
                 atomic: bool = False):
        self.name = name
        self.container = container
        self.atomic = atomic

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        _record(obj, self.name, self.container, self.atomic)
        try:
            return obj.__dict__[self.name]
        except KeyError:
            raise AttributeError(
                f"{type(obj).__name__!s} object has no attribute "
                f"{self.name!r}"
            ) from None

    def __set__(self, obj, value):
        _record(obj, self.name, True, self.atomic)
        obj.__dict__[self.name] = value

    def __delete__(self, obj):
        _record(obj, self.name, True, self.atomic)
        del obj.__dict__[self.name]


def instrument(*fields: str, containers: tuple = (), atomic: tuple = ()):
    """Class decorator installing :class:`Shared` descriptors.

    ``fields`` are plain attributes (writes are attribute stores);
    ``containers`` are mutable-collection attributes whose reads count
    as writes; ``atomic`` attributes are tracked but exempt from
    reporting. A no-op (the class is returned untouched) unless
    ``REPRO_TSAN=1`` was set when the class was created — production
    imports pay nothing.
    """

    def decorate(cls):
        if not tsan_enabled():
            return cls
        for f in fields:
            setattr(cls, f, Shared(f))
        for f in containers:
            setattr(cls, f, Shared(f, container=True))
        for f in atomic:
            setattr(cls, f, Shared(f, atomic=True))
        return cls

    return decorate
