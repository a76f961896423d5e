"""``repro.lint`` — AST-based invariant checkers for the reproduction.

Five project-specific rules enforce, at review time, the invariants the
paper's exact-rational analysis and the fabric's determinism guarantees
demand (docs/STATIC_ANALYSIS.md has the full catalogue and rationale):

* ``hotpath-exact``    — no Fraction/fractions/decimal in the engine hot
  path (``engine/loop|state|policies``); replaces ``make lint-hotpath``'s
  grep, and unlike it sees aliased imports and ignores comments;
* ``exact-no-float``   — no float literals, ``float()`` calls or floating
  ``math.*`` in the exact-arithmetic modules;
* ``derived-identity`` — no clock/pid/uuid/address/unseeded-randomness
  reads in the byte-identity modules (``obs/spans``, ``sweep/spec``,
  ``sweep/store``);
* ``worker-safe``      — worker callables (``parallel_map``, a
  ``WorkerPool``'s ``map``, sweep ``run_point``) must be module-level
  functions;
* ``observer-threaded``— public ``solve_*``/``schedule_*`` entry points
  must accept and forward ``observer=``.

Run via ``repro-sched lint [paths] [--rule NAME] [--json]`` or
``make lint``; suppress a deliberate violation with ``# lint: ok-<rule>``
on the offending line (``# lint: ok-<rule> file`` for a whole file),
followed by a justification.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .base import (
    RULES,
    Rule,
    SYNTAX_RULE,
    collect_files,
    default_paths,
    lint_files,
)
from .findings import Finding

# importing the rule modules populates the registry
from . import rules_numeric  # noqa: E402,F401
from . import rules_identity  # noqa: E402,F401
from . import rules_structure  # noqa: E402,F401

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "SYNTAX_RULE",
    "LintReport",
    "collect_files",
    "default_paths",
    "run_lint",
]


class LintReport:
    """Outcome of one lint run: findings plus scan metadata."""

    def __init__(
        self,
        findings: List[Finding],
        n_files: int,
        rules: List[str],
    ) -> None:
        self.findings = findings
        self.n_files = n_files
        self.rules = rules

    @property
    def ok(self) -> bool:
        return not self.findings

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        if self.findings:
            lines.append(
                f"lint: {len(self.findings)} finding(s) in "
                f"{self.n_files} file(s)"
            )
        else:
            lines.append(
                f"lint: OK ({self.n_files} files, "
                f"{len(self.rules)} rules)"
            )
        return "\n".join(lines)

    def to_jsonable(self) -> Dict:
        return {
            "ok": self.ok,
            "files": self.n_files,
            "rules": list(self.rules),
            "findings": [f.to_jsonable() for f in self.findings],
        }


def select_rules(names: Optional[Sequence[str]] = None) -> List[Rule]:
    """Resolve *names* against the registry (all rules when ``None``).

    Unknown names raise :class:`ValueError` — the CLI's standard
    one-line-error-and-exit-2 path.
    """
    if not names:
        return [RULES[name] for name in sorted(RULES)]
    rules = []
    for name in names:
        if name not in RULES:
            raise ValueError(
                f"unknown lint rule {name!r}; have {sorted(RULES)}"
            )
        rules.append(RULES[name])
    return rules


def run_lint(
    paths: Optional[Sequence] = None,
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint *paths* (default: ``src/repro`` + ``tests``) with *rules*
    (default: all registered rules); deterministic :class:`LintReport`."""
    selected = select_rules(rules)
    files = collect_files(paths)
    findings = lint_files(files, selected)
    return LintReport(findings, len(files), [r.name for r in selected])
