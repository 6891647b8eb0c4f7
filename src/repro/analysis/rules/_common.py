"""Shared AST helpers for novalint rules."""

from __future__ import annotations

import ast
from collections.abc import Iterator

__all__ = [
    "dotted_name",
    "receiver_of",
    "walk_code",
    "ImportMap",
]


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` chains of Names/Attributes; None otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def receiver_of(call: ast.Call) -> ast.expr | None:
    """The object a method call is invoked on, if it is a method call."""
    if isinstance(call.func, ast.Attribute):
        return call.func.value
    return None


def walk_code(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested def/class scopes.

    Yields ``root`` itself, then statements/expressions of its own
    scope.  Rules that reason about one function body (NV007) use this
    to avoid attributing a nested helper's stores to the method.
    """
    yield root
    stack = [
        child
        for child in ast.iter_child_nodes(root)
        if not isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        )
    ]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(
                child,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                    ast.Lambda,
                ),
            )
        )


class ImportMap:
    """What this module calls the modules a rule cares about.

    Tracks plain imports (``import numpy as np`` -> ``np`` maps to
    ``numpy``) and from-imports (``from time import time`` -> ``time``
    maps to ``time.time``).  Star imports are ignored — none of the
    checked code uses them, and guessing would invite false positives.
    """

    def __init__(self, tree: ast.Module) -> None:
        #: local alias -> imported module dotted path
        self.modules: dict[str, str] = {}
        #: local name -> full dotted origin of a from-imported symbol
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a`` in the namespace
                        top = alias.name.split(".")[0]
                        self.modules[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve_call(self, call: ast.Call) -> str | None:
        """Fully-qualified dotted path of a call target, when knowable.

        ``np.random.rand(...)`` -> ``numpy.random.rand`` (given
        ``import numpy as np``); ``default_rng(...)`` ->
        ``numpy.random.default_rng`` (given the from-import); otherwise
        ``None``.
        """
        chain = dotted_name(call.func)
        if chain is None:
            return None
        head, _, rest = chain.partition(".")
        if not rest:
            return self.names.get(head)
        if head in self.modules:
            return f"{self.modules[head]}.{rest}"
        if head in self.names:
            return f"{self.names[head]}.{rest}"
        return None
