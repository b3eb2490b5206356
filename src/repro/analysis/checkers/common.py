"""Shared AST helpers for the RTS checkers."""

from __future__ import annotations

import ast

#: Names of the numpy module as imported across the repo.
NUMPY_ALIASES = ("np", "numpy")

#: ShaderPrograms keyword slots holding device callbacks.
SHADER_SLOTS = ("intersection", "any_hit", "closest_hit", "miss")


def attr_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` -> ["a", "b", "c"]; None when any link isn't Name/Attribute."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def is_float64(node: ast.AST) -> bool:
    """Does this expression name the float64 dtype?"""
    chain = attr_chain(node)
    if chain is not None:
        return chain[-1] == "float64" and (
            len(chain) == 1 or chain[-2] in NUMPY_ALIASES
        )
    return isinstance(node, ast.Constant) and node.value == "float64"


def shader_callback_names(tree: ast.AST) -> set[str]:
    """Names of functions registered as device callbacks in this file.

    Two registration sites count: arguments to ``ShaderPrograms(...)``
    (the rtcore pipeline's IS/AnyHit/ClosestHit/Miss slots), and the
    work function handed to an executor dispatch — the first positional
    argument of any ``<obj>.map(...)`` / ``<obj>.run(...)`` method call
    (shard closures run on pool threads, where a lock is just as unsafe).
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = attr_chain(node.func)
        if chain and chain[-1] == "ShaderPrograms":
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    names.add(arg.id)
            for kw in node.keywords:
                if kw.arg in SHADER_SLOTS and isinstance(kw.value, ast.Name):
                    names.add(kw.value.id)
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("map", "run")
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            names.add(node.args[0].id)
    return names

