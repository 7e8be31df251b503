"""Shared AST helpers for the repro.lint checkers."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.engine import Finding, SourceModule
from repro.lint.ipa import dotted_name


def call_name(node: ast.Call) -> Optional[str]:
    """The dotted name a call targets (``time.time``, ``self.flush``)."""
    return dotted_name(node.func)


def in_scope(module: SourceModule, prefixes: Tuple[str, ...]) -> bool:
    return any(
        module.module == p or module.module.startswith(p + ".")
        for p in prefixes
    )


def finding(
    module: SourceModule,
    rule: str,
    node: ast.AST,
    message: str,
    severity: str = "error",
) -> Finding:
    return Finding(
        rule=rule,
        severity=severity,
        path=module.display_path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


def iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[ast.ClassDef], ast.AST]]:
    """Yield ``(enclosing_class, function)`` for every def in the module
    (class is None for module-level functions; nested defs inherit the
    class of their outermost enclosing function)."""

    def walk(node: ast.AST, cls: Optional[ast.ClassDef]) -> Iterator:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, child
                yield from walk(child, cls)
            else:
                yield from walk(child, cls)

    yield from walk(tree, None)


def imports_module(tree: ast.Module, name: str) -> bool:
    """Whether the module does ``import <name>`` (top-level or nested)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == name and alias.asname in (None, name):
                    return True
    return False


__all__ = [
    "call_name",
    "dotted_name",
    "finding",
    "imports_module",
    "in_scope",
    "iter_functions",
]
