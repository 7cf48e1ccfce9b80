"""Byte-for-byte guards on `gkz` output.

Two tables.  CORPUS: each golden file under tests/golden/ is the full stdout
of `gkz analyze --matrix M --beta=b` for one corpus matrix at one fixed
non-resonant beta.  Reduced Groebner bases are unique, so a faster engine
must reproduce these files exactly.  CLI_EXAMPLES: every CLI example of the
README, one per subcommand (two for `diagram`, three for `verify-member`), a
wide Smith factorization that pins a large C and M, a restriction whose inner
toric ideal is not 0, and two more diagrams (DsRes and point components drawn
in an SVG; the shifted-cone and cone glyphs in ASCII), run with `--format json`
and `--format text`; the stdout of each is kept under tests/golden/cli/.
Regenerate both only for an intended output change, with
`PYTHONPATH=src python tests/test_golden_reports.py`.  Under `--order lex`
or `deglex` the same reports differ only where the order is shown: the
`order` echo, the toric ideal and the presentation.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gkzkit.cli import main  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CLI_GOLDEN_DIR = GOLDEN_DIR / "cli"

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

# name -> argv of the README example (without the global --format flag).
CLI_EXAMPLES = {
    "analyze": ["analyze", "--matrix", "3 2 0; 1 1 1", "--beta", "0,0"],
    "smith": ["smith", "--matrix", "2 2; 0 2"],
    # A 6x24 matrix, entries in [-99, 99] drawn by random.Random(34), row by row.
    "smith-wide": [
        "smith", "--matrix",
        "36 -8 50 -92 -41 -92 0 -6 -83 9 -21 -12 -75 50 31 -60 -75 -29 -11 57 -99 99 -60 93; "
        "35 -77 -84 -5 -34 90 42 81 -84 0 -57 51 63 -20 -25 -2 -19 -45 -47 16 38 -54 56 -66; "
        "47 84 1 40 9 -39 -36 76 -71 49 72 92 -80 14 -28 7 -70 49 -27 -49 -55 4 99 -12; "
        "16 -76 34 90 22 8 19 -7 -66 14 -29 -64 -40 -59 -24 -20 -82 -23 33 -73 50 35 -23 5; "
        "-41 5 -20 96 37 86 95 -9 91 57 17 -83 -81 88 -87 -13 5 -17 -55 98 -52 90 7 -12; "
        "24 -6 70 -28 -99 83 58 64 -33 32 37 -85 -58 -30 -69 29 -32 -78 71 41 18 96 -63 -35",
    ],
    "homogenize": ["homogenize", "--matrix", "3 2 0; 1 1 1"],
    "faces": ["faces", "--matrix", "3 2 0; 1 1 1"],
    "member": ["member", "--matrix", "3 2 0; 1 1 1", "--point", "5,2"],
    "saturated": ["saturated", "--matrix", "3 2 0; 1 1 1"],
    "toric-ideal": ["toric-ideal", "--matrix", "3 2 0; 1 1 1"],
    "qdeg": ["qdeg", "--matrix", "3 2 0; 1 1 1", "--j", "1"],
    "sres": ["sres", "--matrix", "3 2 0; 1 1 1", "--beta", "1,0"],
    "dsres": ["dsres", "--matrix", "1 1 1; 0 1 -1", "--beta=-1,0"],
    "delta": ["delta", "--matrix", "2 5"],
    "nbeta": ["nbeta", "--matrix", "2 5", "--beta", "0"],
    "dual-param": ["dual-param", "--matrix", "1 1 1; 0 1 -1", "--beta", "0,0"],
    "present": ["present", "--matrix", "1 1 1; 0 1 -1", "--beta", "0,0"],
    "restrict": ["restrict", "--matrix", "1 1; 0 1", "--beta", "7,5"],
    # The rational normal curve of degree 3 as the inner matrix: its toric ideal is not 0.
    "restrict-rnc3": ["restrict", "--matrix", "1 1 1 1 1; 0 1 1 1 1; 0 0 1 2 3", "--beta", "0,1,2"],
    "verify-member": [
        "verify-member", "--matrix", "1 1 1; 0 1 -1", "--beta", "0,0",
        "--target", "d0*((4*l1*l2 - l0^2)*d0 + l0) - 1", "--bound", "4",
    ],
    "verify-member-rational": [
        "verify-member", "--gens", "1/2*l0*d0 - 1/3; 3/4*d1",
        "--target", "d1*l0*d0", "--bound", "2",
    ],
    "verify-member-multidegree-b10": [
        "verify-member", "--matrix", "1 1 1 1; 0 3 2 0; 0 1 1 1", "--beta", "0,0,0", "--bound", "10",
        "--target", "-l1*d1^2*d2*d3 + l1*d2^4 + 3*l1*d1^3 + 2*l2*d1^2*d2 + l0*l3*d0 + l1*l3*d1"
        " + l1*d0*d1 + l2*l3*d2 + l2*d0*d2 + l3^2*d3 + l3*d0*d3 + 6*d1^2",
    ],
    "factor": ["factor", "--matrix", "2 2; 0 2"],
    "index-sets": ["index-sets", "--matrix", "2", "--kind", "I"],
    "psi": ["psi", "--m", "0,0", "--s", "0"],
    "diagram-ascii": [
        "diagram", "--matrix", "3 2 0; 1 1 1", "--box=-1,9,-1,5", "--style", "ascii",
    ],
    "diagram-svg": [
        "diagram", "--matrix", "3 2 0; 1 1 1", "--box=-3,9,-3,5",
        "--layers", "semigroup,saturation-gap,cone,sres",
    ],
    # DsRes lines, and a point component drawn through `_clip_line`'s direction-None branch.
    "diagram-quartic-lines": [
        "diagram", "--matrix", "1 1 1 1; 0 1 3 4", "--box=-3,6,-3,6",
        "--layers", "cone,qdeg,sres,dsres",
    ],
    # The shifted-cone glyph '#' and the cone glyph '+'.
    "diagram-quartic-shift": [
        "diagram", "--matrix", "1 1 1 1; 0 1 3 4", "--box=-3,6,-3,6",
        "--layers", "cone,delta-cone", "--style", "ascii",
    ],
}
FORMATS = ("json", "text")


def cli_stdout(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0
    return buf.getvalue()


def analyze_stdout(matrix: str, beta: str) -> str:
    return cli_stdout(["analyze", "--matrix", matrix, "--beta=" + beta])


def cli_golden_path(name: str, fmt: str) -> Path:
    return CLI_GOLDEN_DIR / f"{name}.{fmt}"


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_analyze_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert analyze_stdout(*CORPUS[name]) == expected


# The report sections computed in the term order of --order.
ORDERED_SECTIONS = {"order", "toric_ideal", "presentation"}


@pytest.mark.parametrize("order", ["lex", "deglex"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_analyze_reads_the_order_only_where_it_shows(name, order):
    matrix, beta = CORPUS[name]
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    report = json.loads(cli_stdout(["analyze", "--matrix", matrix, "--beta=" + beta, "--order", order]))
    assert report["order"] == order
    assert report.keys() == golden.keys()
    for key in golden.keys() - ORDERED_SECTIONS:
        assert report[key] == golden[key], key


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CLI_EXAMPLES))
def test_cli_example_matches_golden(name, fmt):
    expected = cli_golden_path(name, fmt).read_text()
    assert cli_stdout(["--format", fmt] + CLI_EXAMPLES[name]) == expected


def test_cli_examples_cover_every_subcommand():
    from gkzkit.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv in CLI_EXAMPLES.values()} == set(sub.choices)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (matrix, beta) in CORPUS.items():
        (GOLDEN_DIR / f"{name}.json").write_text(analyze_stdout(matrix, beta))
    CLI_GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CLI_EXAMPLES.items():
        for fmt in FORMATS:
            cli_golden_path(name, fmt).write_text(cli_stdout(["--format", fmt] + argv))
