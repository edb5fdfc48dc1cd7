"""Builders for the paper's Figures 1–3 (as data series + text charts)."""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from repro.core.metadata import LayerGroup
from repro.core.semantics import Semantics  # noqa: F401 (API symmetry)
from repro.study.runner import RunResult, StudyResults
from repro.tracer.events import Layer
from repro.util.asciiplot import ScatterPlot, legend
from repro.util.tables import AsciiTable, render_matrix

# -- Figure 1: fine-grained access-pattern mix ---------------------------------


@dataclass
class Figure1Row:
    label: str
    view: str          # "global" or "local"
    consecutive: float
    monotonic: float
    random: float


def figure1_rows(results: StudyResults) -> list[Figure1Row]:
    rows = []
    for run in results:
        for view, mix in (("global", run.report.global_mix),
                          ("local", run.report.local_mix)):
            total = max(1, mix.total)
            rows.append(Figure1Row(
                label=run.label, view=view,
                consecutive=mix.consecutive / total,
                monotonic=mix.monotonic / total,
                random=mix.random / total))
    return rows


def _bar(fraction: float, width: int = 24) -> str:
    n = round(fraction * width)
    return "#" * n + "." * (width - n)


def figure1_text(results: StudyResults) -> str:
    out = []
    for view, title in (("global", "Figure 1(a): global access pattern "
                                   "(PFS perspective)"),
                        ("local", "Figure 1(b): local access pattern "
                                  "(per-process perspective)")):
        table = AsciiTable(["configuration", "consecutive", "monotonic",
                            "random", "consecutive share"], title=title)
        for row in figure1_rows(results):
            if row.view != view:
                continue
            table.add_row(row.label, f"{row.consecutive:6.1%}",
                          f"{row.monotonic:6.1%}", f"{row.random:6.1%}",
                          _bar(row.consecutive))
        out.append(table.render())
    return "\n\n".join(out)


# -- Figure 2: FLASH detailed write patterns --------------------------------------


@dataclass
class Figure2Series:
    """Write accesses of one FLASH output file: Figure 2's dot clouds."""

    panel: str
    path: str
    # parallel arrays, one entry per write
    ranks: list[int]
    offsets: list[int]
    times: list[float]
    sizes: list[int]

    @property
    def writer_count(self) -> int:
        return len(set(self.ranks))

    @property
    def data_writer_count(self) -> int:
        """Writers of large (non-metadata) accesses."""
        if not self.sizes:
            return 0
        big = max(self.sizes)
        return len({r for r, s in zip(self.ranks, self.sizes)
                    if s * 8 >= big})

    @property
    def head_writer_count(self) -> int:
        """Writers touching the metadata region at the head of the file."""
        return len({r for r, o in zip(self.ranks, self.offsets)
                    if o < 4096})


def figure2_series(fbs_run: RunResult,
                   nofbs_run: RunResult) -> list[Figure2Series]:
    """The six panels of Figure 2 (checkpoint/plot × fbs/nofbs)."""
    panels = []
    for run, mode in ((fbs_run, "fbs"), (nofbs_run, "nofbs")):
        tables = run.report.tables  # keyed and ordered by path
        for family, name in (("/flash/ckpt", "checkpoint"),
                             ("/flash/plot", "plot")):
            # first output file of the family
            path = next((p for p in tables if p.startswith(family)), None)
            if path is None:
                continue
            table = tables[path]
            writes = table.is_write
            panels.append(Figure2Series(
                panel=f"{name}-{mode}", path=path,
                ranks=table.rank[writes].tolist(),
                offsets=table.offset[writes].tolist(),
                times=table.tstart[writes].tolist(),
                sizes=(table.stop - table.offset)[writes].tolist()))
    return panels


def figure2_text(fbs_run: RunResult, nofbs_run: RunResult) -> str:
    table = AsciiTable(
        ["panel", "file", "writes", "total writers", "data writers",
         "head (metadata) writers"],
        title="Figure 2: FLASH write patterns (collective 'fbs' vs "
              "independent 'nofbs')")
    for s in figure2_series(fbs_run, nofbs_run):
        table.add_row(s.panel, s.path, len(s.ranks), s.writer_count,
                      s.data_writer_count, s.head_writer_count)
    return table.render()


def figure2_ascii(fbs_run: RunResult, nofbs_run: RunResult,
                  *, width: int = 72, height: int = 18) -> str:
    """Terminal rendering of the Figure 2 dot clouds (offset vs time,
    glyph per rank class: aggregator/data writer vs metadata writer)."""
    out = []
    for s in figure2_series(fbs_run, nofbs_run):
        biggest = max(s.sizes) if s.sizes else 1
        cats = [0 if n * 8 >= biggest else 1 for n in s.sizes]
        plot = ScatterPlot(width=width, height=height,
                           title=f"Figure 2 [{s.panel}] {s.path}",
                           xlabel="time (s)", ylabel="file offset")
        out.append(plot.render(s.times, s.offsets, cats))
        out.append(legend({0: "data write", 1: "metadata write"}))
        out.append("")
    return "\n".join(out)


def figure2_csv(fbs_run: RunResult, nofbs_run: RunResult,
                directory: str | Path) -> list[Path]:
    """Dump the dot clouds as CSV (offset vs time, colored by rank)."""
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for s in figure2_series(fbs_run, nofbs_run):
        path = outdir / f"figure2_{s.panel}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "offset", "rank", "size"])
            for t, o, r, n in zip(s.times, s.offsets, s.ranks, s.sizes):
                writer.writerow([f"{t:.9f}", o, r, n])
        written.append(path)
    return written


# -- Figure 3: metadata operations by layer ----------------------------------------


_GROUP_MARK = {LayerGroup.MPI: "M", LayerGroup.HDF5: "H",
               LayerGroup.APPLICATION: "A"}


def figure3_matrix(results: StudyResults
                   ) -> dict[tuple[str, str], str]:
    """(op, run label) -> issuer marks ("M"/"H"/"A" combinations)."""
    cells: dict[tuple[str, str], str] = {}
    for run in results:
        usage = run.report.metadata
        for op, groups in usage.ops.items():
            marks = "".join(sorted(_GROUP_MARK[g] for g in groups))
            cells[(op, run.label)] = marks
    return cells


def figure3_text(results: StudyResults) -> str:
    cells = figure3_matrix(results)
    ops = sorted({op for op, _ in cells})
    labels = [run.label for run in results]
    title = ("Figure 3: metadata operations by configuration "
             "(M = issued by MPI-IO, H = by HDF5, A = by the application "
             "or another I/O library)")
    return render_matrix(ops, labels, cells, title=title)


def seek_usage_text(results: StudyResults) -> str:
    """Companion view: lseek/fseek usage per run (not in Figure 3's set
    but part of the offset-reconstruction story)."""
    table = AsciiTable(["configuration", "lseek", "fseek"],
                       title="Seek usage per configuration")
    for run in results:
        counts = run.trace.function_counts(Layer.POSIX)
        table.add_row(run.label, counts.get("lseek", 0),
                      counts.get("fseek", 0))
    return table.render()
