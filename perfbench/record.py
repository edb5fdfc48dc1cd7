"""Re-pin the per-unit output digests in perfbench/expected.json.

Run from the repository root::

    python3 perfbench/record.py

Runs one pass of every workload at the recorded seed and rewrites
expected.json.  It refuses to pin a unit that raises or breaks a paper
expectation.  Run it only after a deliberate change to the analysis
output, and review the diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import EXPECTED_PATH, RECORDED_SEED, WORKLOADS, digest

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    pinned: dict[str, dict[str, str]] = {}
    for name, cls in WORKLOADS.items():
        workload = cls(RECORDED_SEED, workdir)
        workload.prepare()
        result = workload.run_pass()
        problems = [f"{label}: {error}"
                    for label, error in result.errors.items()]
        for label, doc in result.docs.items():
            problems += [f"{label}: {text}"
                         for text in workload.check(label, doc)]
        if problems:
            print(f"{name}: not pinned\n  " + "\n  ".join(problems),
                  file=sys.stderr)
            return 1
        pinned[name] = {label: digest(doc)
                        for label, doc in result.docs.items()}
        print(f"{name}: pinned {len(pinned[name])} digests")
    EXPECTED_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
