"""Drive rule passes over traces: the linter's engine.

``lint_trace`` is the core entry point (trace in, report out);
``lint_variant``/``lint_all`` wrap it for registry applications, tracing
the app first.  The runner never touches :mod:`repro.pfs` — the whole
point of the linter is deciding semantics safety from the ordered
operation history alone (arXiv:2402.14105's formal-model result).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.apps.registry import RunVariant, all_variants
from repro.lint.context import LintContext
from repro.lint.diagnostics import LintReport
from repro.lint.registry import LintRule, resolve_rules
from repro.tracer.trace import Trace


def lint_trace(trace: Trace, rules: Sequence[LintRule | str] | None = None,
               *, label: str | None = None) -> LintReport:
    """Run rule passes over one trace and collect the diagnostics."""
    resolved: list[LintRule] = []
    for rule in (rules if rules is not None else [None]):
        if rule is None:
            resolved = resolve_rules(None)
            break
        if isinstance(rule, str):
            resolved.extend(resolve_rules([rule]))
        else:
            resolved.append(rule)
    ctx = LintContext(trace)
    report = LintReport(
        label=label if label is not None else ctx.name,
        nranks=trace.nranks,
        rules_run=tuple(r.name for r in resolved))
    for rule in resolved:
        report.diagnostics.extend(rule.check(ctx))
    return report.sorted()


def lint_columnar(source, rules: Sequence[LintRule | str] | None = None,
                  *, label: str | None = None) -> LintReport:
    """Lint a columnar trace or an on-disk ``.rtrc`` file.

    ``source`` is a :class:`~repro.tracer.columnar.ColumnarTrace` or a
    path to a ``.rtrc`` file.  The columnar form is rebuilt into record
    objects (lossless by construction, pinned by the round-trip
    property tests) and fed through :func:`lint_trace`, so the rule
    catalogue sees exactly the trace the file was written from.
    """
    from repro.tracer.columnar import ColumnarTrace, read_rtrc

    if not isinstance(source, ColumnarTrace):
        source = read_rtrc(source)
    return lint_trace(source.to_trace(), rules, label=label)


def lint_variant(variant: RunVariant, *, nranks: int = 8, seed: int = 7,
                 rules: Sequence[LintRule | str] | None = None,
                 **overrides: Any) -> LintReport:
    """Trace one registry configuration, then lint the trace."""
    trace = variant.run(nranks=nranks, seed=seed, **overrides)
    return lint_trace(trace, rules, label=variant.label)


def lint_all(*, nranks: int = 8, seed: int = 7,
             variants: Iterable[RunVariant] | None = None,
             rules: Sequence[LintRule | str] | None = None,
             ) -> list[LintReport]:
    """Lint every registered configuration (the Table 4 campaign)."""
    pool = list(variants) if variants is not None else all_variants()
    return [lint_variant(v, nranks=nranks, seed=seed, rules=rules)
            for v in pool]
