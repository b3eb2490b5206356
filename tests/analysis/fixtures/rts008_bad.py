# Positive fixture for RTS008: published buffers flowing to in-place writes.
# Parsed by the analyzer, never imported or executed.
import numpy as np


def clamp(service):
    snap = service.snapshot()
    mins, maxs = snap._mins, snap._maxs
    mins[0] = 0.0                       # RTS008: subscript store on source
    return mins, maxs


def thaw(service):
    state = service.snapshot()._mins
    state.flags.writeable = True        # RTS008: un-freezing a shared buffer
    return state


def overwrite(snapshots, fresh):
    mins = snapshots.current._mins
    np.copyto(mins, fresh)              # RTS008: np in-place family


def _zero(buf):
    buf.fill(0)


def reset(service):
    mins, _ = service.snapshot()._mins, None
    _zero(mins)                         # RTS008: helper mutates its argument


def grow(snapshots):
    snap = snapshots.current
    snap.insert([1], None)              # RTS008: mutating a snapshot index
