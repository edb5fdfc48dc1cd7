"""Metrics export: JSON-lines documents and the text dashboard.

Two faces for one registry:

* :func:`to_jsonl` — one canonical-JSON object per line (metrics first,
  sorted by name, then self-trace spans/events in time order).  This is
  what ``--metrics out.json`` writes and what CI uploads as an
  artifact; line-oriented so ``grep pfs.`` and ``jq`` both work on it.
* :func:`render_dashboard` — the human view: counter/gauge tables per
  layer, a timer table, and a bar chart of the busiest counters, built
  from :mod:`repro.util.tables` and :mod:`repro.util.asciiplot`.
"""

from __future__ import annotations

import json

from repro.obs.registry import MetricsRegistry
from repro.util.asciiplot import barchart
from repro.util.formatting import human_time
from repro.util.tables import AsciiTable


def to_jsonl(registry: MetricsRegistry) -> str:
    """The registry (and any self-trace) as a JSON-lines document."""
    lines = [json.dumps({"metric": name, **doc}, sort_keys=True)
             for name, doc in registry.snapshot().items()]
    if registry.tracer is not None:
        lines += [json.dumps(doc, sort_keys=True)
                  for doc in registry.tracer.records()]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_jsonl(text: str) -> tuple[MetricsRegistry, list[dict]]:
    """Rebuild a registry (+ raw trace records) from :func:`to_jsonl`."""
    registry = MetricsRegistry()
    snapshot: dict[str, dict] = {}
    trace_records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise ValueError(f"line {lineno} is not a JSON object")
        if "metric" in doc:
            name = doc.pop("metric")
            if not isinstance(name, str):
                raise ValueError(
                    f"line {lineno}: metric name {name!r} is not a string")
            snapshot[name] = doc
        else:
            trace_records.append(doc)
    registry.merge(snapshot)
    if trace_records:
        from repro.obs.tracer import SelfTracer

        registry.tracer = SelfTracer()
        registry.tracer.merge(trace_records)
    return registry, trace_records


def _format_value(name: str, value: float) -> str:
    if "bytes" in name:
        from repro.util.formatting import human_bytes

        return human_bytes(int(value))
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value):,}"


def render_dashboard(registry: MetricsRegistry, *,
                     top: int = 12) -> str:
    """Counter/gauge/timer tables plus a busiest-counters bar chart."""
    snapshot = registry.snapshot()
    if not snapshot:
        return "(no metrics recorded)"
    sections: list[str] = []

    counters = {n: d for n, d in snapshot.items()
                if d["type"] == "counter"}
    gauges = {n: d for n, d in snapshot.items() if d["type"] == "gauge"}
    timers = {n: d for n, d in snapshot.items()
              if d["type"] in ("timer", "histogram")}

    if counters or gauges:
        table = AsciiTable(["metric", "kind", "value"],
                           title="Counters and gauges")
        for name, doc in sorted({**counters, **gauges}.items()):
            table.add_row(name, doc["type"],
                          _format_value(name, doc["value"]))
        sections.append(table.render())

    if timers:
        table = AsciiTable(
            ["timer", "count", "total", "mean", "max"],
            title="Timers and histograms")
        for name, doc in sorted(timers.items()):
            count = doc["count"]
            mean = doc["total"] / count if count else 0.0
            table.add_row(name, count, human_time(doc["total"]),
                          human_time(mean), human_time(doc["max"]))
        sections.append(table.render())

    busiest = sorted(((n, d["value"]) for n, d in counters.items()
                      if d["value"] > 0 and "bytes" not in n),
                     key=lambda item: (-item[1], item[0]))[:top]
    if busiest:
        sections.append(barchart(busiest,
                                 title=f"Busiest counters (top {top})"))

    if registry.tracer is not None and (registry.tracer.spans
                                        or registry.tracer.events):
        tracer = registry.tracer
        table = AsciiTable(["span/event", "t", "seconds", "attrs"],
                           title="Self-trace (slowest spans first)")
        spans = sorted(tracer.spans, key=lambda s: -s.seconds)[:top]
        for span in spans:
            attrs = " ".join(f"{k}={v}"
                             for k, v in sorted(span.attrs.items()))
            table.add_row(span.name, f"{span.start:.3f}",
                          f"{span.seconds:.4f}", attrs)
        for event in tracer.events[:top]:
            attrs = " ".join(f"{k}={v}"
                             for k, v in sorted(event.attrs.items()))
            table.add_row(event.name, f"{event.t:.3f}", "-", attrs)
        sections.append(table.render())

    return "\n\n".join(sections)
