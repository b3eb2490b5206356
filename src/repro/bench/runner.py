"""Result containers, pretty printing, the experiment registry, and
machine-readable metrics export.

Every experiment run can leave a JSON/CSV artifact
(:func:`export_metrics_json` / :func:`export_metrics_csv`): the figure
tables flattened to ``figure/row/column/value`` records plus the run
configuration. CI uploads the JSON so each build's numbers are
diffable. These figures are not gated; the exact gate over the
deterministic counters and simulated times is :mod:`repro.bench.gate`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.config import BenchConfig


@dataclass
class FigureResult:
    """A table of simulated times (or other metrics) for one figure.

    ``rows`` maps row label (dataset, query count, k, ...) to a dict of
    column label -> value. ``unit`` names the metric (usually "ms").
    ``expectation`` states what shape the paper reports, so the printed
    output is self-checking for a human reader.
    """

    figure: str
    title: str
    columns: list[str]
    rows: dict[str, dict[str, float]] = field(default_factory=dict)
    unit: str = "ms"
    expectation: str = ""
    notes: list[str] = field(default_factory=list)

    def add_row(self, label: str, values: dict[str, float]) -> None:
        self.rows[label] = values

    def value(self, row: str, col: str) -> float:
        return self.rows[row][col]

    def speedup(self, row: str, baseline: str, system: str) -> float:
        """How many times faster ``system`` is than ``baseline``."""
        return self.rows[row][baseline] / self.rows[row][system]

    def best_baseline(self, row: str, exclude: str) -> float:
        """The fastest non-``exclude`` column of a row."""
        return min(v for k, v in self.rows[row].items() if k != exclude)

    def to_dict(self) -> dict:
        """JSON-ready view of the table (used by the metrics artifact)."""
        return {
            "figure": self.figure,
            "title": self.title,
            "unit": self.unit,
            "columns": list(self.columns),
            "rows": {label: dict(values) for label, values in self.rows.items()},
            "expectation": self.expectation,
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        label_w = max([len(r) for r in self.rows] + [len("dataset")]) + 2
        col_w = max([len(c) for c in self.columns] + [12]) + 2
        lines = [
            f"== {self.figure}: {self.title} (unit: {self.unit}) ==",
        ]
        if self.expectation:
            lines.append(f"paper shape: {self.expectation}")
        header = " " * label_w + "".join(f"{c:>{col_w}}" for c in self.columns)
        lines.append(header)
        for label, values in self.rows.items():
            cells = []
            for c in self.columns:
                v = values.get(c)
                cells.append(f"{'-':>{col_w}}" if v is None else f"{v:>{col_w}.4g}")
            lines.append(f"{label:<{label_w}}" + "".join(cells))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


#: Registry: experiment id -> callable(config) -> FigureResult (or a list
#: of FigureResults for multi-panel figures).
EXPERIMENTS: dict[str, Callable] = {}


def register(figure_id: str):
    """Decorator registering an experiment under its figure id."""

    def deco(fn):
        EXPERIMENTS[figure_id] = fn
        return fn

    return deco


def run_experiment(figure_id: str, config: BenchConfig | None = None):
    """Run one registered experiment on the proportionally scaled machine
    (see :mod:`repro.perfmodel.machine`): datasets are shrunk by
    ``config.scale`` and the simulated hardware with them, so full-scale
    ratios and crossovers are preserved."""
    # Importing the experiments package populates the registry.
    import repro.bench.experiments  # noqa: F401

    from repro.perfmodel.machine import scaled_machine

    if figure_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {figure_id!r}; known: {sorted(EXPERIMENTS)}")
    config = config or BenchConfig()
    with scaled_machine(config.scale):
        return EXPERIMENTS[figure_id](config)


# -- metrics artifacts --------------------------------------------------------


def _as_figure_list(result) -> list[FigureResult]:
    """Experiments return one FigureResult or a list (multi-panel)."""
    return list(result) if isinstance(result, (list, tuple)) else [result]


def collect_metrics(
    results: dict[str, "FigureResult | list[FigureResult]"],
    config: BenchConfig | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble the machine-readable metrics document for one bench run.

    ``results`` maps experiment id to what :func:`run_experiment`
    returned. ``extra`` merges arbitrary top-level entries (the CLI adds
    per-experiment wall seconds here).
    """
    doc: dict = {
        "schema": "repro.bench.metrics/v1",
        "config": {
            "scale": config.scale if config else None,
            "seed": config.seed if config else None,
            "parallel": config.parallel if config else None,
            "n_workers": config.n_workers if config else None,
        },
        "figures": {
            fid: [f.to_dict() for f in _as_figure_list(res)]
            for fid, res in results.items()
        },
    }
    if extra:
        doc.update(extra)
    return doc


def export_metrics_json(doc: dict, path) -> None:
    """Write the metrics document as indented JSON."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_metrics_csv(doc: dict, path) -> None:
    """Flatten the figure tables to ``experiment,figure,row,column,value``
    rows (one line per table cell)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "figure", "unit", "row", "column", "value"])
        for fid in sorted(doc.get("figures", {})):
            for fig in doc["figures"][fid]:
                for row_label, values in fig["rows"].items():
                    for col in fig["columns"]:
                        if col in values:
                            writer.writerow(
                                [fid, fig["figure"], fig["unit"], row_label, col, values[col]]
                            )
