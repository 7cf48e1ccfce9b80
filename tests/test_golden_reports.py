"""Byte-for-byte guard on `gkz analyze` output for the benchmark corpus.

Each golden file under tests/golden/ is the full stdout of
`gkz analyze --matrix M --beta=b` for one corpus matrix at one fixed
non-resonant beta.  Reduced Groebner bases are unique, so a faster engine
must reproduce these files exactly.  Regenerate them only for an intended
report change, with `PYTHONPATH=src python tests/test_golden_reports.py`.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gkzkit.cli import main  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# name -> (matrix, beta); betas are non-resonant for their matrix.
CORPUS = {
    "staircase": ("3 2 0; 1 1 1", "5/2,-2/5"),
    "hat": ("1 1 1; 0 1 -1", "-9/5,3/5"),
    "two_five": ("2 5", "-5/7"),
    "three_five_seven": ("3 5 7", "7/5"),
    "rnc3": ("1 1 1 1; 0 1 2 3", "2/3,-3/5"),
    "rnc4": ("1 1 1 1 1; 0 1 2 3 4", "2/7,2/5"),
    "m3x5": ("1 1 1 1 1; 0 1 0 1 2; 0 0 1 1 0", "-1/3,-2/7,-4/5"),
    "nonspanning": ("2 2 2; 0 3 -3", "9/7,9/2"),
}


def analyze_stdout(matrix: str, beta: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["analyze", "--matrix", matrix, "--beta=" + beta])
    assert rc == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_analyze_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert analyze_stdout(*CORPUS[name]) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (matrix, beta) in CORPUS.items():
        (GOLDEN_DIR / f"{name}.json").write_text(analyze_stdout(matrix, beta))
