"""Soundness harness: static predictions vs the dynamic §5.2 detector.

The contract the static checker ships under is *zero false negatives*:
for every study configuration and every semantics model, each conflict
the dynamic pipeline (:mod:`repro.core.conflicts` over a simulated
trace) reports at ``(path, kind, scope)`` granularity must be matched
by a static prediction.  Predictions may name literal paths or
``fnmatch`` patterns (coarse plans predict ``*``).

False positives are permitted — that is what "over-approximate" means —
and are scored: *precision* is the fraction of predicted entries that
match at least one dynamically observed conflict key (1.0 when nothing
is predicted).  Exact plans are expected near 1.0; coarse plans on
clean apps are honestly low.
"""

from __future__ import annotations

from fnmatch import fnmatchcase

from repro.core.report import RunReport, analyze
from repro.core.semantics import Semantics
from repro.staticcheck.engine import StaticPrediction, evaluate
from repro.staticcheck.ir import SEMANTICS_NAMES

#: semantics-name -> dynamic-detector enum
SEMANTICS_OF = {
    "strong": Semantics.STRONG,
    "commit": Semantics.COMMIT,
    "session": Semantics.SESSION,
    "eventual": Semantics.EVENTUAL,
    "object": Semantics.OBJECT,
}


def dynamic_conflict_keys(report: RunReport,
                          semantics: Semantics) -> set[tuple[str, str, str]]:
    """The dynamic detector's verdict as ``(path, kind, scope)`` keys."""
    found = report.conflicts(semantics, max_per_file=None)
    return {(c.path, c.kind.value, c.scope.value) for c in found}


def compare_semantics(prediction: StaticPrediction, name: str,
                      observed: set[tuple[str, str, str]]) -> dict:
    """Match one semantics model's predictions against dynamic keys."""
    predicted = prediction.by_semantics.get(name, ())
    matched_keys: set[tuple[str, str, str]] = set()
    matched_preds = 0
    for p in predicted:
        hits = {k for k in observed
                if k[1] == p.kind and k[2] == p.scope
                and fnmatchcase(k[0], p.path)}
        if hits:
            matched_preds += 1
            matched_keys |= hits
    missed = sorted(observed - matched_keys)
    precision = (matched_preds / len(predicted)) if predicted else 1.0
    return {
        "predicted": len(predicted),
        "observed": len(observed),
        "matched": matched_preds,
        "missed": [f"{path} {kind}-{scope}" for path, kind, scope in missed],
        "precision": round(precision, 4),
    }


def staticcheck_variant(variant, *, nranks: int = 8, seed: int = 7) -> dict:
    """One configuration's static-vs-dynamic soundness cell.

    Builds the variant's symbolic plan, evaluates it statically, runs
    the variant dynamically once, and compares per semantics model.
    Returns a plain JSON document (the cacheable matrix unit), with
    ``ok`` true iff the static side missed nothing.
    """
    cfg = variant.config(nranks=nranks, seed=seed)
    plan = variant.io_plan(cfg)
    prediction = evaluate(plan)
    report = analyze(variant.run(nranks=nranks, seed=seed))
    per_sem: dict[str, dict] = {}
    total_predicted = total_matched = 0
    sound = True
    for name in SEMANTICS_NAMES:
        observed = dynamic_conflict_keys(report, SEMANTICS_OF[name])
        cell = compare_semantics(prediction, name, observed)
        per_sem[name] = cell
        total_predicted += cell["predicted"]
        total_matched += cell["matched"]
        if cell["missed"]:
            sound = False
    precision = ((total_matched / total_predicted)
                 if total_predicted else 1.0)
    return {
        "label": variant.label,
        "nranks": nranks,
        "seed": seed,
        "exact": prediction.exact,
        "groups": prediction.groups,
        "pairs_checked": prediction.pairs_checked,
        "semantics": per_sem,
        "sound": sound,
        "precision": round(precision, 4),
        "ok": sound,
    }


__all__ = [
    "SEMANTICS_OF",
    "compare_semantics",
    "dynamic_conflict_keys",
    "staticcheck_variant",
]
