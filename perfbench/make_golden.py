"""Regenerate perfbench/golden.json from the gkzkit in ./src.

    python3 perfbench/make_golden.py

For each corpus matrix it stores the digest of the beta-independent part of
the analyze report, the proper faces and quasi-degree components the
query checks use, and the j = 1 quasi-degree components of homogenize(A)
that n_beta is checked against.  Run it only when a change to the report
is intended; the benchmark compares every report against these digests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from gkzkit import intlinalg, report, toric  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for name, text in workloads.CORPUS.items():
        a = intlinalg.parse_matrix(text)
        rep = json.loads(report.report_json(report.run_report(a, (0,) * a.d)))
        indep, _ = workloads.split_report(rep)
        htilde = toric.quasi_degrees(intlinalg.homogenize(a), 1)
        golden[name] = {
            "matrix": text,
            "digest": workloads.digest(indep),
            "faces": [f["columns"] for f in indep["faces"]["proper"]],
            "qdeg": {
                j: [[c["offset"], c["face_columns"]] for c in comps]
                for j, comps in indep["quasi_degrees"].items()
            },
            "htilde_qdeg1": [
                [list(c.offset), list(c.face.sorted_columns())] for c in htilde.components
            ],
        }
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
