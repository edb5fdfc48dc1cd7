"""The uniform exit-code contract of ``python -m repro.study``.

Every subcommand exits 0 on success, 1 when the analysis itself finds a
real problem (lint errors, chaos soundness breaks, damaged ``.rtrc``
files), and 2 for usage errors — no other codes.  CI relies
on the distinction: a 1 is a finding worth a red build with artifacts,
a 2 is a broken invocation.
"""

import json

import pytest

from repro.study.cli import (
    EXIT_FINDINGS,
    EXIT_OK,
    EXIT_USAGE,
    main as cli_main,
)


def _exit_code(argv: list[str]) -> int:
    """The exit code, whether returned or raised by argparse."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


class TestContractConstants:
    def test_values_are_pinned(self):
        assert (EXIT_OK, EXIT_FINDINGS, EXIT_USAGE) == (0, 1, 2)


class TestSuccessExits:
    def test_fingerprint(self, capsys):
        assert cli_main(["fingerprint"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert len(out) == 64
        int(out, 16)

    def test_lint_clean_app(self, capsys):
        assert cli_main(["lint", "GTC", "--nranks", "4"]) == EXIT_OK

    def test_chaos_single_app(self, capsys):
        rc = cli_main(["chaos", "--app", "FLASH/HDF5", "--nranks", "2",
                       "--no-cache"])
        assert rc == EXIT_OK


class TestFindingExits:
    def test_lint_app_with_errors(self, capsys):
        rc = cli_main(["lint", "FLASH", "--nranks", "4"])
        assert rc == EXIT_FINDINGS

    def test_unsound_cached_chaos_cell_exits_1(self, capsys, tmp_path):
        # seed the cache with a fabricated chaos column whose one cell
        # holds a corruption no predicted conflict or fault explains:
        # the CLI must surface it as a finding (exit 1), cell named
        from repro.apps.registry import find_spec
        from repro.pfs.chaos import (
            CHAOS_SEMANTICS,
            CHAOS_STRIPE_SIZE,
            ChaosCell,
        )
        from repro.study.cache import ResultCache, cache_key
        from repro.study.parallel import variant_cell

        variant = find_spec("GTC").variants[0]
        spec = variant_cell(
            variant, 2, 7, plans=("fault-free",),
            semantics=tuple(s.name.lower() for s in CHAOS_SEMANTICS),
            stripe=CHAOS_STRIPE_SIZE)
        cell = ChaosCell(label=variant.label, plan="fault-free",
                         semantics="session",
                         unattributed=["/gtc/restart.0"])
        ResultCache(root=tmp_path).put(
            cache_key("chaos-variant", **spec.key_fields),
            {"label": variant.label, "cells": [cell.to_dict()]})
        rc = cli_main(["chaos", "--app", "GTC", "--nranks", "2",
                       "--plans", "fault-free",
                       "--cache-dir", str(tmp_path)])
        assert rc == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "UNATTRIBUTED" in out
        assert out.strip().endswith(
            f"1 cells, 1 unsound — {variant.label}/fault-free/session")


class TestUsageExits:
    @pytest.mark.parametrize("argv", [
        ["--app", "NoSuchApp"],
        ["--app", "LAMMPS/Zarr"],
        ["lint"],
        ["lint", "NoSuchApp"],
        ["lint", "GTC", "--all"],
        ["chaos"],
        ["chaos", "--app", "NoSuchApp"],
        ["chaos", "--app", "FLASH/HDF5", "--plans", "nope"],
        ["metrics"],
        ["metrics", "/no/such/metrics.json"],
        ["cache"],
        ["cache", "vacuum"],
        ["cache", "prune"],
        ["cache", "prune", "--max-age-days", "-1"],
        ["cache", "prune", "--max-bytes", "-1"],
        # rejected at parse time, not by the simulator mid-run
        *([*cmd, flag, value]
          for flag, value in (("--nranks", "0"), ("--seed", "-1"))
          for cmd in (["all", "--no-cache"],
                      ["lint", "GTC"],
                      ["chaos", "--app", "GTC", "--no-cache"],
                      ["roundtrip", "GTC"],
                      ["metrics", "--collect"],
                      ["--app", "GTC"])),
        *([*cmd, "--jobs", "-1"]
          for cmd in (["all", "--no-cache"],
                      ["chaos", "--app", "GTC", "--no-cache"],
                      ["metrics", "--collect"],
                      ["--app", "GTC"])),
        # a report --out that is a directory
        ["lint", "GTC", "--nranks", "2", "--out", "."],
        ["chaos", "--app", "GTC", "--nranks", "2", "--no-cache",
         "--out", "."],
        # the retired crossvalidate subcommand falls through to the
        # default-mode parser, whatever follows it
        ["crossvalidate"],
        ["crossvalidate", "NoSuchApp"],
        *(["crossvalidate", "GTC", "--no-cache", flag, value]
          for flag, value in (("--nranks", "0"), ("--seed", "-1"),
                              ("--jobs", "-1"))),
        ["crossvalidate", "GTC", "--nranks", "2", "--no-cache",
         "--out", "."],
    ], ids=lambda argv: " ".join(argv))
    def test_usage_errors_exit_2(self, capsys, argv):
        assert _exit_code(argv) == EXIT_USAGE
        assert capsys.readouterr().err.strip()

    @pytest.mark.parametrize("argv", [
        ["--app", "GTC", "--nranks", "2"],
        ["--nranks", "2"],
    ], ids=lambda argv: " ".join(argv))
    def test_default_mode_out_naming_a_file(self, capsys, tmp_path,
                                            argv):
        """The default mode's ``--out`` is a directory: a file there is
        a usage error, reported before anything is simulated."""
        f = tmp_path / "taken"
        f.write_text("")
        assert _exit_code([*argv, "--out", str(f)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().startswith(f"cannot write {f}")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["partition", "FLASH"],
        ["all", "--partitions", "2"],
        ["serve", "--port", "0"],
        ["request", "healthz", "--port", "1"],
        ["loadtest", "--port", "1"],
        ["staticcheck", "GTC"],
        ["crossvalidate", "FLASH"],
    ], ids=lambda argv: " ".join(argv))
    def test_retired_subcommands_and_flags(self, capsys, argv):
        """The partitioned engine, the analysis service, the static plan
        checker and the lint cross-validation matrix are gone: their
        words fall through to the default-mode parser."""
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_metrics_file_and_collect_conflict(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text("")
        rc = cli_main(["metrics", str(f), "--collect"])
        assert rc == EXIT_USAGE
        assert "exactly one" in capsys.readouterr().err

    def test_metrics_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        for content in ("this is not json lines\n", "[1, 2]\n", '"x"\n',
                        '{"metric": 5, "type": "counter", "value": 1}\n'):
            f.write_text(content)
            assert cli_main(["metrics", str(f)]) == EXIT_USAGE
            err = capsys.readouterr().err.strip()
            assert "JSON-lines" in err and len(err.splitlines()) == 1


class TestRoundtripCheck:
    """``study roundtrip --check FILE``: damaged ``.rtrc`` files are
    findings (1), missing files are usage errors (2), never a
    traceback."""

    @pytest.fixture()
    def rtrc(self, tmp_path):
        from repro.tracer.events import Layer, TraceRecord
        from repro.tracer.trace import Trace

        trace = Trace(nranks=1, records=[TraceRecord(
            rid=0, rank=0, layer=Layer.POSIX, issuer=Layer.POSIX,
            func="pwrite", tstart=0.0, tend=0.1, path="/x", fd=3,
            offset=0, count=8, result=8)])
        path = tmp_path / "t.rtrc"
        trace.columnar.save(path)
        return path

    def test_valid_file_exits_0(self, capsys, rtrc):
        assert cli_main(["roundtrip", "--check", str(rtrc)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        rc = cli_main(["roundtrip", "--check",
                       str(tmp_path / "nope.rtrc")])
        assert rc == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err

    def test_truncated_file_exits_1(self, capsys, rtrc):
        rtrc.write_bytes(rtrc.read_bytes()[:20])
        assert cli_main(["roundtrip", "--check", str(rtrc)]) \
            == EXIT_FINDINGS
        assert "FAIL" in capsys.readouterr().out

    def test_bad_crc_exits_1(self, capsys, rtrc):
        raw = bytearray(rtrc.read_bytes())
        raw[-1] ^= 0xFF              # flip a checksum bit
        rtrc.write_bytes(bytes(raw))
        assert cli_main(["roundtrip", "--check", str(rtrc)]) \
            == EXIT_FINDINGS
        assert "checksum" in capsys.readouterr().out

    def test_not_even_rtrc_exits_1(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.rtrc"
        bogus.write_bytes(b"definitely not a trace container")
        assert cli_main(["roundtrip", "--check", str(bogus)]) \
            == EXIT_FINDINGS

    def test_mixed_good_and_bad_exits_1(self, capsys, rtrc, tmp_path):
        bad = tmp_path / "bad.rtrc"
        bad.write_bytes(rtrc.read_bytes()[:20])
        assert cli_main(["roundtrip", "--check", str(rtrc),
                         "--check", str(bad)]) == EXIT_FINDINGS

    def test_out_of_table_ids_fail_one_line_per_file(self, capsys, rtrc,
                                                     tmp_path):
        import dataclasses

        from repro.tracer.columnar import write_rtrc
        from repro.tracer.synth import synthetic_columnar_trace

        ct = synthetic_columnar_trace(100, seed=7)
        bad = []
        for column, value in (("func_id", 999), ("path_id", 77),
                              ("layer_id", 42)):
            col = ct.columns[column].copy()
            col[3] = value
            path = tmp_path / f"{column}.rtrc"
            write_rtrc(dataclasses.replace(
                ct, columns={**ct.columns, column: col}), path)
            bad.append(path)
        args = ["roundtrip"]
        for path in (bad[0], rtrc, *bad[1:]):
            args += ["--check", str(path)]
        assert cli_main(args) == EXIT_FINDINGS
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == \
            ["FAIL", "ok", "FAIL", "FAIL"]
        assert "func_id 999" in lines[0] and "layer_id 42" in lines[3]

    def test_data_row_without_byte_count_fails(self, capsys, tmp_path):
        import dataclasses

        from repro.tracer.columnar import I64_NONE, write_rtrc
        from repro.tracer.synth import synthetic_columnar_trace

        ct = synthetic_columnar_trace(200, seed=7)
        count = ct.columns["count"].copy()
        row = int(next(i for i in range(ct.nrecords)
                       if ct.funcs[ct.func_id[i]] == "pwrite"))
        count[row] = I64_NONE
        path = tmp_path / "nocount.rtrc"
        write_rtrc(dataclasses.replace(
            ct, columns={**ct.columns, "count": count}), path)
        assert cli_main(["roundtrip", "--check", str(path)]) \
            == EXIT_FINDINGS
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].split()[1] == "FAIL"
        assert f"data record {row} (pwrite) lacks a byte count" in lines[0]

    def test_check_with_selection_is_usage_error(self, capsys, rtrc):
        rc = cli_main(["roundtrip", "--all", "--check", str(rtrc)])
        assert rc == EXIT_USAGE


class TestMetricsFlag:
    """The ``--metrics FILE`` side-channel and ``metrics`` subcommand."""

    def test_all_with_metrics_writes_jsonl(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        rc = cli_main(["all", "--nranks", "2", "--format", "json",
                       "--no-cache", "--metrics", str(out)])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        json.loads(captured.out)          # stdout stays pure JSON
        docs = [json.loads(line)
                for line in out.read_text().splitlines()]
        names = {d["metric"] for d in docs if "metric" in d}
        layers = {n.split(".")[0] for n in names}
        assert {"sim", "pfs", "posix", "study"} <= layers
        kinds = {d["type"] for d in docs if "metric" in d}
        assert {"counter", "gauge", "timer"} <= kinds

    def test_metrics_subcommand_renders_dashboard(self, capsys,
                                                  tmp_path):
        out = tmp_path / "metrics.json"
        assert cli_main(["all", "--nranks", "2", "--format", "json",
                         "--metrics", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert cli_main(["metrics", str(out)]) == EXIT_OK
        dashboard = capsys.readouterr().out
        assert "Counters and gauges" in dashboard
        assert "pfs.writes" in dashboard

    def test_chaos_with_metrics(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        rc = cli_main(["chaos", "--app", "FLASH/HDF5", "--nranks", "2",
                       "--metrics", str(out)])
        assert rc == EXIT_OK
        names = {json.loads(line).get("metric")
                 for line in out.read_text().splitlines()}
        assert any(n and n.startswith("pfs.") for n in names)

    def test_usage_error_leaves_no_metrics_file(self, capsys,
                                                tmp_path):
        out = tmp_path / "metrics.json"
        rc = cli_main(["chaos", "--app", "NoSuchApp",
                       "--metrics", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()


class TestMetricsDeterminism:
    def test_report_json_byte_identical_with_metrics(self, capsys,
                                                     tmp_path):
        """--jobs 2 --metrics must not change a byte of the report."""
        base = ["all", "--nranks", "2", "--format", "json",
                "--no-cache"]
        assert cli_main(base) == EXIT_OK
        without = capsys.readouterr().out
        out = tmp_path / "metrics.json"
        assert cli_main(base + ["--jobs", "2",
                                "--metrics", str(out)]) == EXIT_OK
        with_metrics = capsys.readouterr().out
        assert with_metrics == without
        assert out.exists()


class TestCacheSubcommand:
    def test_stats_empty_store(self, capsys, tmp_path):
        rc = cli_main(["cache", "stats",
                       "--cache-dir", str(tmp_path / "empty")])
        assert rc == EXIT_OK
        assert "entries: 0" in capsys.readouterr().out

    def test_stats_json(self, capsys, tmp_path):
        rc = cli_main(["cache", "stats", "--format", "json",
                       "--cache-dir", str(tmp_path / "empty")])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == 0

    def test_prune_cycle(self, capsys, tmp_path):
        from repro.study.cache import ResultCache, cache_key

        root = tmp_path / "store"
        cache = ResultCache(root=root)
        for i in range(3):
            cache.put(cache_key("cli-prune", index=i), {"index": i})
        assert cli_main(["cache", "stats",
                         "--cache-dir", str(root)]) == EXIT_OK
        assert "entries: 3" in capsys.readouterr().out

        rc = cli_main(["cache", "prune", "--cache-dir", str(root),
                       "--max-bytes", "0", "--dry-run"])
        assert rc == EXIT_OK
        assert "would remove 3" in capsys.readouterr().out

        rc = cli_main(["cache", "prune", "--cache-dir", str(root),
                       "--max-bytes", "0", "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["removed"] == 3
        assert cli_main(["cache", "stats",
                         "--cache-dir", str(root)]) == EXIT_OK
        assert "entries: 0" in capsys.readouterr().out


class TestStdoutPurity:
    def test_all_json_stdout_is_pure_json(self, capsys, tmp_path):
        rc = cli_main(["all", "--nranks", "2", "--jobs", "2",
                       "--format", "json",
                       "--cache-dir", str(tmp_path)])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stats must not pollute stdout
        assert doc["nranks"] == 2
        assert len(doc["cells"]) >= 25
        assert "cells" in captured.err  # the stats line, on stderr

    def test_warm_cache_serves_all_cells(self, capsys, tmp_path):
        argv = ["all", "--nranks", "2", "--format", "json",
                "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == EXIT_OK
        first = capsys.readouterr()
        assert cli_main(argv) == EXIT_OK
        second = capsys.readouterr()
        assert second.out == first.out
        assert "(0 cached" in first.err
        assert "0 computed)" in second.err
