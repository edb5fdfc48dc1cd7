"""``repro.lint`` — static consistency-semantics linter over traces.

A pluggable static-analysis framework that decides, from an ordered
operation history alone (no PFS replay), which consistency hazards an
application carries: the fast path to the paper's Table 4 question
"which applications are unsafe under commit/session/eventual
semantics?", following the formal-model result of arXiv:2402.14105 and
the trace-level substrate argument of the Recorder line of work
(arXiv:2501.04654).

Layout:

* :mod:`~repro.lint.diagnostics` — severities, diagnostics, reports;
* :mod:`~repro.lint.registry` — the rule base class and discovery
  registry (``@register_rule``, mirroring :mod:`repro.apps.registry`);
* :mod:`~repro.lint.context` — the run report the rules share (access
  tables, conflict sets, happens-before order) plus the POSIX records;
* :mod:`~repro.lint.rules` — the built-in rule catalogue L001–L011;
* :mod:`~repro.lint.reporters` — text and stable-JSON rendering;
* :mod:`~repro.lint.runner` — ``lint_trace`` / ``lint_variant`` /
  ``lint_all`` / ``lint_columnar`` drivers.

CLI: ``python -m repro.study lint <app|--all> [--format json]``.
"""

from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.registry import (
    LintRule,
    all_rules,
    get_rule,
    register_rule,
    resolve_rules,
)
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import (
    lint_all,
    lint_columnar,
    lint_trace,
    lint_variant,
)

__all__ = [
    "Diagnostic",
    "LintContext",
    "LintReport",
    "LintRule",
    "Severity",
    "all_rules",
    "get_rule",
    "lint_all",
    "lint_columnar",
    "lint_trace",
    "lint_variant",
    "register_rule",
    "render_json",
    "render_text",
    "resolve_rules",
]
