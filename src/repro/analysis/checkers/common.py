"""Shared AST helpers for the RTS checkers."""

from __future__ import annotations

import ast

#: Names of the numpy module as imported across the repo.
NUMPY_ALIASES = ("np", "numpy")


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
