"""Stand-ins for the paper's real-world datasets (Table 2).

The paper evaluates on six polygon datasets from ArcGIS Hub and
OpenStreetMap (12.2K to 11.5M polygons), indexed by their bounding
rectangles. Those corpora are unavailable offline, so each dataset is
replaced by a *seeded synthetic stand-in* whose properties the figures
actually depend on are matched:

- the size ordering of Table 2 (scaled by a global factor, default 1/100,
  recorded in EXPERIMENTS.md);
- heavy spatial skew: geographic features cluster around populated areas,
  modelled as a Zipf-weighted Gaussian mixture;
- extent profiles: county/census boundaries are large and tile-like,
  lakes and parks are small with a lognormal long tail.

Every stand-in is deterministic in (name, scale, seed).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.geometry.boxes import Boxes


@dataclass(frozen=True)
class DatasetSpec:
    """Shape parameters of one real-world stand-in."""

    name: str
    #: Full-scale polygon count from Table 2.
    n_full: int
    #: Gaussian-mixture cluster count (spatial skew granularity).
    clusters: int
    #: Cluster standard deviation as a fraction of the domain.
    cluster_sigma: float
    #: Zipf exponent of cluster weights (higher = more skew).
    zipf_s: float
    #: Median rectangle extent as a fraction of the domain.
    median_extent: float
    #: Lognormal sigma of extents (long-tail width).
    extent_sigma: float
    description: str = ""


#: Table 2 of the paper, as stand-in specifications.
REAL_WORLD: dict[str, DatasetSpec] = {
    "USCounty": DatasetSpec(
        "USCounty", 12_200, 12, 0.12, 0.6, 0.02, 0.5,
        "Boundaries of the U.S. Counties — few, large, tile-like",
    ),
    "USCensus": DatasetSpec(
        "USCensus", 248_900, 40, 0.08, 0.9, 0.004, 0.7,
        "U.S. Census block groups — population-skewed medium boxes",
    ),
    "USWater": DatasetSpec(
        "USWater", 463_600, 60, 0.07, 1.0, 0.002, 0.9,
        "Boundaries of U.S. water resources",
    ),
    "EUParks": DatasetSpec(
        "EUParks", 1_900_000, 90, 0.05, 1.1, 0.001, 1.0,
        "Parks and green areas in Europe",
    ),
    "OSMLakes": DatasetSpec(
        "OSMLakes", 8_300_000, 150, 0.04, 1.2, 0.0006, 1.1,
        "Boundaries of water areas worldwide",
    ),
    "OSMParks": DatasetSpec(
        "OSMParks", 11_500_000, 180, 0.04, 1.2, 0.0005, 1.1,
        "Parks and green areas worldwide",
    ),
}

#: Order the paper's figures plot datasets in.
DATASET_ORDER = tuple(REAL_WORLD)

#: Default scale factor: stand-ins carry 1/100 of the full-scale counts
#: so every figure regenerates in minutes on a laptop.
DEFAULT_SCALE = 0.01


def load_real_world(name: str, scale: float = DEFAULT_SCALE, seed: int = 7) -> Boxes:
    """Generate the stand-in for one Table 2 dataset.

    ``scale`` multiplies the full-scale polygon count (minimum 120 so the
    smallest dataset stays meaningful). The domain is the unit square.
    """
    if name not in REAL_WORLD:
        raise KeyError(f"unknown dataset {name!r}; known: {list(REAL_WORLD)}")
    spec = REAL_WORLD[name]
    n = max(120, int(spec.n_full * scale))
    # crc32, not hash(): str hashes are salted per process, which made
    # every dataset (and the results built on it) differ run to run.
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))

    # Zipf-weighted Gaussian mixture of cluster centers.
    centers = rng.random((spec.clusters, 2))
    weights = (np.arange(1, spec.clusters + 1, dtype=np.float64)) ** (-spec.zipf_s)
    weights /= weights.sum()
    assignment = rng.choice(spec.clusters, size=n, p=weights)
    pts = centers[assignment] + rng.normal(0.0, spec.cluster_sigma, size=(n, 2))
    pts = np.clip(pts, 0.0, 1.0)

    # Lognormal extents around the median, clipped to the domain.
    extents = spec.median_extent * rng.lognormal(0.0, spec.extent_sigma, size=(n, 2))
    extents = np.clip(extents, 1e-6, 0.2)
    return Boxes(pts - 0.5 * extents, pts + 0.5 * extents)
