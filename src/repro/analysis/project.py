"""Repo discovery: which files to scan and what package they live in.

Scope decisions are package-based: a checker that only applies to the
``core``/``rtcore``/``serve`` hot paths declares those dotted prefixes,
and this module maps each scanned file to its dotted package (or
``None`` for out-of-tree files such as test fixtures — which are always
in scope for every rule, so positive fixtures exercise each checker).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable


def repo_root() -> Path:
    """The repository root (the directory holding ``pyproject.toml``)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    # Installed without the repo around: fall back to src/repro's parent.
    return here.parents[3]


def default_paths(root: Path | None = None) -> list[Path]:
    return [(root or repo_root()) / "src" / "repro"]


@dataclass(frozen=True)
class SourceFile:
    path: Path
    #: Path reported in findings: repo-relative posix when under the
    #: repo root, else the path as given.
    rel: str
    #: Dotted package ("repro.serve.service") when under a ``src/``
    #: root, else None (out-of-tree file; every rule applies).
    package: str | None


def _classify(path: Path, root: Path) -> SourceFile:
    resolved = path.resolve()
    try:
        rel = resolved.relative_to(root).as_posix()
    except ValueError:
        rel = path.as_posix()
    package = None
    parts = resolved.parts
    if "src" in parts:
        after = parts[parts.index("src") + 1 :]
        if after and after[0] == "repro":
            package = ".".join(after).removesuffix(".py")
            if package.endswith(".__init__"):
                package = package.removesuffix(".__init__")
    return SourceFile(resolved, rel, package)


def discover(paths: Iterable[Path], root: Path | None = None) -> list[SourceFile]:
    """Every ``.py`` file under ``paths``, sorted, classified."""
    root = (root or repo_root()).resolve()
    out: list[SourceFile] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files = sorted(q for q in p.rglob("*.py") if "__pycache__" not in q.parts)
        else:
            files = [p]
        out.extend(_classify(f, root) for f in files)
    return out
