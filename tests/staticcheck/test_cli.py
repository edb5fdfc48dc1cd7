"""The ``study staticcheck`` subcommand's exit codes and report shape."""

import json

import pytest

from repro.study.cache import ResultCache, cache_key
from repro.study.cli import (
    EXIT_FINDINGS,
    EXIT_OK,
    EXIT_USAGE,
    main as cli_main,
)


class TestCliExitCodes:
    def test_single_app_sound(self, capsys):
        rc = cli_main(["staticcheck", "GTC", "--nranks", "2",
                       "--no-cache"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "GTC-POSIX" in out and "sound" in out

    @pytest.mark.parametrize("argv", [
        ["staticcheck"],
        ["staticcheck", "NoSuchApp"],
        ["staticcheck", "GTC", "--all"],
        ["staticcheck", "LAMMPS/Zarr"],
    ], ids=lambda argv: " ".join(argv))
    def test_usage_errors_exit_2(self, capsys, argv):
        assert cli_main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.strip()

    def test_json_format_shape(self, capsys):
        rc = cli_main(["staticcheck", "LAMMPS/ADIOS", "--nranks", "2",
                       "--no-cache", "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        (cell,) = doc["cells"]
        assert cell["label"] == "LAMMPS-ADIOS"
        assert cell["exact"] is True
        assert set(cell["semantics"]) == {"strong", "commit",
                                          "session", "eventual",
                                          "object"}

    def test_unsound_cell_exits_1(self, capsys, tmp_path):
        # seed the cache with a fabricated unsound cell: the CLI must
        # surface it as a finding (exit 1) with the missed keys listed
        from repro.apps.registry import APPLICATIONS, find_spec

        variant = find_spec("GTC").variants[0]
        cache = ResultCache(root=tmp_path)
        key = cache_key("staticcheck-cell", label=variant.label,
                        options=dict(sorted(variant.options.items())),
                        nranks=2, seed=7)
        cache.put(key, {
            "label": variant.label, "nranks": 2, "seed": 7,
            "exact": True, "groups": 1, "pairs_checked": 1,
            "semantics": {"session": {
                "predicted": 0, "observed": 1, "matched": 0,
                "missed": ["/gtc/x WAW-D"], "precision": 1.0}},
            "sound": False, "precision": 1.0, "ok": False})
        rc = cli_main(["staticcheck", "GTC", "--nranks", "2",
                       "--cache-dir", str(tmp_path)])
        assert rc == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "MISSED CONFLICTS" in out
        assert "/gtc/x WAW-D" in out

    def test_out_file_written(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = cli_main(["staticcheck", "Nek5000", "--nranks", "2",
                       "--no-cache", "--format", "json",
                       "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["ok"] is True
