"""Tests for the study runner, table builders, figure builders, and CLI."""

import pytest

from repro.core.semantics import Semantics
from repro.study.cli import main as cli_main
from repro.study.figures import (
    figure1_rows,
    figure1_text,
    figure2_csv,
    figure2_series,
    figure2_text,
    figure3_matrix,
    figure3_text,
)
from repro.study.runner import run_study
from repro.study.tables import (
    TABLE3_COLS,
    TABLE3_ROWS,
    conflict_matrix_text,
    table1_text,
    table2_text,
    table3_cells,
    table3_text,
    table4_rows,
    table4_text,
    table5_text,
)


class TestStaticTables:
    def test_table1(self):
        text = table1_text()
        assert "Strong Consistency" in text
        assert "UnifyFS" in text and "PLFS" in text

    def test_table2(self):
        text = table2_text()
        assert "Intel 19.1.0" in text and "MVAPICH 2.2" in text
        assert "GCC 7.3.0" in text

    def test_table5(self):
        text = table5_text()
        assert "Sedov explosion" in text
        assert "CIFAR-10" in text
        assert text.count("|") > 50


class TestComputedTables:
    def test_table3_matches_paper_cells(self, study8):
        cells = table3_cells(study8)
        expect = {
            ("N-N", "consecutive"): {"ENZO-HDF5", "pF3D-IO-POSIX",
                                     "HACC-IO-MPI-IO", "HACC-IO-POSIX",
                                     "NWChem-POSIX"},
            ("N-M", "strided"): {"MACSio-Silo"},
            ("N-1", "consecutive"): {"LBANN-POSIX", "VASP-POSIX"},
            ("N-1", "strided"): {"Chombo-HDF5", "FLASH-HDF5 nofbs",
                                 "ParaDiS-HDF5", "ParaDiS-POSIX",
                                 "MILC-QCD-POSIX Parallel"},
            ("M-M", "consecutive"): {"GAMESS-POSIX", "LAMMPS-ADIOS"},
            ("M-1", "strided"): {"LAMMPS-MPI-IO"},
            ("M-1", "strided cyclic"): {"FLASH-HDF5 fbs", "VPIC-IO-HDF5"},
            ("1-1", "consecutive"): {"GTC-POSIX", "Nek5000-POSIX",
                                     "QMCPACK-HDF5", "VASP-POSIX",
                                     "MILC-QCD-POSIX Serial",
                                     "LAMMPS-HDF5", "LAMMPS-NetCDF",
                                     "LAMMPS-POSIX"},
        }
        for key, members in expect.items():
            got = set(cells.get(key, []))
            # VASP appears in both N-1 and 1-1 in the paper; our primary
            # classification puts it in exactly one cell
            members = members - ({"VASP-POSIX"}
                                 if key == ("1-1", "consecutive") else
                                 set())
            assert members <= got, (key, members - got)

    def test_table3_text_structure(self, study8):
        text = table3_text(study8)
        for row in TABLE3_ROWS:
            assert f"| {row} " in text
        for col in TABLE3_COLS:
            assert col in text

    def test_table4_rows(self, study8):
        rows = {r["label"]: r for r in table4_rows(study8)}
        flash = rows["FLASH-HDF5 fbs"]
        assert flash["session"]["WAW-D"] and flash["session"]["WAW-S"]
        assert not any(flash["commit"].values())
        enzo = rows["ENZO-HDF5"]
        assert enzo["session"]["RAW-S"] and enzo["commit"]["RAW-S"]

    def test_table4_text(self, study8):
        text = table4_text(study8)
        assert "WAW S" in text and "commit sem." in text
        assert text.count("x") >= 10

    def test_conflict_matrix(self, study8):
        text = conflict_matrix_text(study8, Semantics.SESSION)
        assert "FLASH" in text


class TestFigures:
    def test_figure1_rows_complete(self, study8):
        rows = figure1_rows(study8)
        assert len(rows) == 2 * len(study8)
        for row in rows:
            assert row.consecutive + row.monotonic + row.random == \
                pytest.approx(1.0)

    def test_figure1_text(self, study8):
        text = figure1_text(study8)
        assert "Figure 1(a)" in text and "Figure 1(b)" in text

    def test_figure2_panels(self, study8):
        fbs = study8.find("FLASH-HDF5 fbs")
        nofbs = study8.find("FLASH-HDF5 nofbs")
        panels = {s.panel: s for s in figure2_series(fbs, nofbs)}
        assert set(panels) == {"checkpoint-fbs", "plot-fbs",
                               "checkpoint-nofbs", "plot-nofbs"}
        # collective: only the aggregators write checkpoint data
        assert panels["checkpoint-fbs"].data_writer_count == 6
        # independent: every rank writes checkpoint data
        assert panels["checkpoint-nofbs"].data_writer_count == \
            study8.nranks
        # plot data written by rank 0 only (fbs mode)
        assert panels["plot-fbs"].data_writer_count <= 3
        # metadata writers at the head of the file in both modes
        assert panels["checkpoint-fbs"].head_writer_count >= 3

    def test_figure2_text_and_csv(self, study8, tmp_path):
        fbs = study8.find("FLASH-HDF5 fbs")
        nofbs = study8.find("FLASH-HDF5 nofbs")
        assert "checkpoint-fbs" in figure2_text(fbs, nofbs)
        paths = figure2_csv(fbs, nofbs, tmp_path)
        assert len(paths) == 4
        header = paths[0].read_text().splitlines()[0]
        assert header == "time,offset,rank,size"

    def test_figure3_matrix(self, study8):
        cells = figure3_matrix(study8)
        assert cells[("ftruncate", "ParaDiS-HDF5")] == "H"
        assert ("ftruncate", "ParaDiS-POSIX") not in cells
        text = figure3_text(study8)
        assert "mkdir" in text


class TestRunner:
    def test_subset_run(self):
        from repro.apps.registry import find_variant
        results = run_study(nranks=4, variants=[
            find_variant("GTC", "POSIX")])
        assert len(results) == 1
        assert results.runs[0].label == "GTC-POSIX"
        with pytest.raises(KeyError):
            results.find("nope")


class TestCLI:
    def test_cli_end_to_end(self, tmp_path, capsys):
        rc = cli_main(["--nranks", "4", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 4" in out
        assert "Figure 3" in out
        assert "Running the 28 configurations at 4 ranks" in out
        reports = list(tmp_path.glob("*.report.txt"))
        traces = list(tmp_path.glob("*.trace.jsonl"))
        csvs = list(tmp_path.glob("figure2_*.csv"))
        assert len(reports) == 28 and len(traces) == 28
        assert len(csvs) == 4
