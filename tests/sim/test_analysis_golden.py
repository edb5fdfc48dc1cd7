"""Golden analysis output: the study and lint JSON documents are pinned.

``test_trace_golden.py`` pins the traces; these digests pin what the
analysis makes of them.  They are the sha256 of the stdout of
``study all --format json --no-cache`` and of ``lint --all --format
json``, both at 8 ranks and seed 7, recorded before the analysis
stages were rebuilt on one trace-wide access table, so a rewrite of
any stage that changes a count, a verdict, a pattern or the order of
a diagnostic fails here.

A change that is meant to alter the analysis updates these digests in
the same commit and says why.
"""

import hashlib

import pytest

from repro.study.cli import main as cli_main

#: argv -> (exit code, sha256 of the command's stdout); lint exits 1
#: because FLASH fbs has ERROR diagnostics
GOLDEN = {
    ("all", "--format", "json", "--no-cache", "--nranks", "8",
     "--seed", "7"): (
        0,
        "63f2bc68b76b08e5b367dde7095995a35a7407accc6db4dd9bbaa76214fe3607"),
    ("lint", "--all", "--format", "json", "--nranks", "8", "--seed", "7"): (
        1,
        "4b76c261d9f06eaba765b76984e4c973f695382ec857aa55f681aa7d17ae79ae"),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=lambda a: a[0])
def test_analysis_output_matches_golden(capsys, argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[argv]
