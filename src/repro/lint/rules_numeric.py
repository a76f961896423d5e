"""Numeric-purity rules: ``hotpath-exact`` and ``exact-no-float``.

Two sides of the same Lemma 4.1/4.2 equivalence contract (docs/
STATIC_ANALYSIS.md): the backend-generic engine hot path must never touch
exact-rational types (all ``Fraction`` work belongs behind the backend
interface — the PR-2 refactor), and the exact modules must never touch
binary floating point (one float literal in a residual computation breaks
bit-identity between the Fraction and scaled-int backends).
"""

from __future__ import annotations

import ast

from .base import FileContext, ImportTracker, Rule, register

__all__ = ["HotpathExact", "ExactNoFloat"]

#: modules whose mere import poisons the engine hot path
_EXACT_MODULES = frozenset({"fractions", "decimal"})

#: type names whose use poisons the engine hot path
_EXACT_NAMES = frozenset({"Fraction", "Decimal"})

#: ``math`` members that are integer-exact and therefore allowed in
#: exact-arithmetic modules (the backends use ``lcm``/``gcd`` for the
#: denominator rescale)
_INT_SAFE_MATH = frozenset(
    {"lcm", "gcd", "isqrt", "comb", "perm", "factorial"}
)


class _HotpathVisitor(ImportTracker):
    def handle_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] in _EXACT_MODULES:
                self.ctx.add(
                    self.rule, node,
                    f"import of {alias.name!r} in the engine hot path "
                    f"(exact-rational arithmetic belongs in a numeric "
                    f"backend)",
                )

    def handle_import_from(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".")[0]
        if module in _EXACT_MODULES:
            names = ", ".join(a.name for a in node.names)
            self.ctx.add(
                self.rule, node,
                f"from-import of {names} from {node.module!r} in the "
                f"engine hot path (exact-rational arithmetic belongs in "
                f"a numeric backend)",
            )
            return
        for alias in node.names:
            if alias.name in _EXACT_NAMES:
                self.ctx.add(
                    self.rule, node,
                    f"import of {alias.name!r} (via {node.module!r}) in "
                    f"the engine hot path",
                )

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in _EXACT_NAMES:
            self.ctx.add(
                self.rule, node,
                f"reference to {node.id!r} in the engine hot path "
                f"(exact-rational arithmetic belongs in a numeric "
                f"backend)",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _EXACT_NAMES:
            self.ctx.add(
                self.rule, node,
                f"attribute access .{node.attr} in the engine hot path",
            )
        self.generic_visit(node)


@register
class HotpathExact(Rule):
    """No ``Fraction``/``fractions``/``decimal`` reachable from the
    backend-generic engine hot path (replaces the old Makefile grep)."""

    name = "hotpath-exact"
    description = (
        "engine hot path (engine/loop|state|policies) must not import or "
        "reference Fraction/fractions/decimal — exact-rational work "
        "belongs in a numeric backend"
    )
    scope = (
        "repro/engine/loop.py",
        "repro/engine/state.py",
        "repro/engine/policies.py",
    )

    def check(self, ctx: FileContext) -> None:
        _HotpathVisitor(ctx, self.name).visit(ctx.tree)


class _NoFloatVisitor(ImportTracker):
    def handle_import_from(self, node: ast.ImportFrom) -> None:
        if (node.module or "") != "math":
            return
        for alias in node.names:
            if alias.name not in _INT_SAFE_MATH:
                self.ctx.add(
                    self.rule, node,
                    f"from-import of floating math.{alias.name} in an "
                    f"exact-arithmetic module",
                )

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, float):
            self.ctx.add(
                self.rule, node,
                f"float literal {node.value!r} in an exact-arithmetic "
                f"module (breaks Fraction/int backend bit-identity)",
            )
        elif isinstance(node.value, complex):
            self.ctx.add(
                self.rule, node,
                f"complex literal {node.value!r} in an exact-arithmetic "
                f"module",
            )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "float":
            self.ctx.add(
                self.rule, node,
                "float() conversion in an exact-arithmetic module "
                "(breaks Fraction/int backend bit-identity)",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            module = self.modules.get(node.value.id)
            if module == "math" and node.attr not in _INT_SAFE_MATH:
                self.ctx.add(
                    self.rule, node,
                    f"floating-point math.{node.attr} in an "
                    f"exact-arithmetic module (only "
                    f"{'/'.join(sorted(_INT_SAFE_MATH))} are "
                    f"integer-exact)",
                )
        self.generic_visit(node)


@register
class ExactNoFloat(Rule):
    """No binary floating point in the exact-arithmetic modules."""

    name = "exact-no-float"
    description = (
        "exact modules (core/, engine/backends/, engine/trace.py, "
        "engine/api.py, exact/, tasks/exact.py, faults/, the binpacking "
        "reduction/packing/item/sliding modules, io.py) must not use "
        "float literals, float() conversions or floating math.* functions"
    )
    scope = (
        "repro/core/",
        "repro/engine/backends/",
        "repro/engine/trace.py",
        "repro/engine/api.py",
        "repro/exact/",
        "repro/tasks/exact.py",
        "repro/faults/",
        "repro/binpacking/reduction.py",
        "repro/binpacking/packing.py",
        "repro/binpacking/item.py",
        "repro/binpacking/sliding.py",
        "repro/io.py",
    )

    def check(self, ctx: FileContext) -> None:
        _NoFloatVisitor(ctx, self.name).visit(ctx.tree)
