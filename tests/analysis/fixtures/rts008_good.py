# Negative fixture for RTS008: published state copied (or frozen) before use.
# Parsed by the analyzer, never imported or executed.
import numpy as np


def widen(service):
    snap = service.snapshot()
    mins, maxs = snap._mins, snap._maxs
    lo = np.array(mins)                 # private copy: taint is killed
    lo[0] = -1.0
    return lo, maxs


def freeze(snapshots):
    snap = snapshots.current
    mins, maxs = snap._mins, snap._maxs
    mins.setflags(write=False)          # freezing a published buffer is fine
    maxs.flags.writeable = False
    return mins, maxs


def evolve(snapshots):
    fork = snapshots.current.fork()     # fork() produces private data
    fork.insert([1], None)
    return fork
