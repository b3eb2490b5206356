"""``repro.churn`` — LSM-style high-churn write path for the RTS index.

The paper's update story (§4.2, Figure 10c) is a tension: refits are
cheap but degrade BVH quality until queries slow ~2.4x; rebuilds restore
quality but stop the world. :class:`ChurnIndex` automates that tradeoff
the way LSM trees do for ordered storage:

- **writes** land in small *delta* GASes (inserts) and a *tombstone set*
  (deletes/updates of main-resident rectangles) — the main structure is
  never refit, so its quality never degrades in place;
- **reads** fan out over main+delta through the ordinary two-level IAS
  traversal, with tombstone filtering in the exact IS-shader predicates
  and a stable public-id remap at emission, so responses are
  bit-identical to a monolithic index over the same live set;
- a **compactor** folds the delta back into one fresh main build when a
  structural trigger fires: churn debt (live delta slots plus
  tombstones) over the delta-size ratio, or cumulative delta-refit
  wear. Both read the structure alone, so the compaction schedule is a
  function of the mutation sequence, whatever reads ran in between.

:class:`BackgroundCompactor` runs that trigger loop against a
:class:`~repro.serve.SpatialQueryService` (enabled with
``ServiceConfig(churn=...)``): each compaction publishes atomically as a
new epoch snapshot while readers keep replaying their pinned epoch.

See docs/DESIGN.md §13 and docs/API.md ("Churn") for the full contract.
"""

from repro.churn.compactor import BackgroundCompactor
from repro.churn.index import ChurnConfig, ChurnIndex

__all__ = ["ChurnIndex", "ChurnConfig", "BackgroundCompactor"]
