"""The RTS rule set."""

from repro.analysis.checkers.rts002_dtype_discipline import DtypeDiscipline
from repro.analysis.checkers.rts003_canonical_order import CanonicalOrder
from repro.analysis.checkers.rts004_lock_hygiene import LockHygiene
from repro.analysis.checkers.rts005_resource_pairing import ResourcePairing
from repro.analysis.checkers.rts006_determinism import BenchDeterminism

ALL_CHECKERS = (
    DtypeDiscipline,
    CanonicalOrder,
    LockHygiene,
    ResourcePairing,
    BenchDeterminism,
)


def default_checkers():
    """Fresh instances of every rule (checkers carry per-run state)."""
    return [cls() for cls in ALL_CHECKERS]


__all__ = [
    "ALL_CHECKERS",
    "default_checkers",
    "DtypeDiscipline",
    "CanonicalOrder",
    "LockHygiene",
    "ResourcePairing",
    "BenchDeterminism",
]
