import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import qdeg_oracle

from gkzkit import (
    DiagramSpec,
    MembershipCertificate,
    delta_A,
    dual_parameter,
    gkz_presentation,
    n_beta,
    parse_matrix,
    parse_weyl,
    psi_image,
    psi_lambda_derivative,
    quasi_degrees,
    render_diagram,
    restrict_presentation,
    run_report,
    saturation_contains,
    semigroup_contains,
    semigroup_witness,
    sres_witness,
)
from gkzkit.cli import main
from gkzkit.cones import cone_witness
from gkzkit.errors import DimensionUnsupported, ParseError
from gkzkit.resonance import dsres_witness
from gkzkit.report import _sres_segments, classification_table, classify_point, report_json


def test_report_deterministic(staircase):
    r1 = report_json(run_report(staircase, (F(0), F(0))))
    r2 = report_json(run_report(staircase, (F(0), F(0))))
    assert r1 == r2


def test_report_line_example(line):
    rep = run_report(line, (F(0),))
    assert rep["sres"] == {"member": False}
    assert rep["dual_parameter"] == ["-1"]
    assert rep["presentation"]["eulers"][0]["text"] == "l0*d0"
    assert rep["flags"]["saturated"] is True


def test_report_staircase_example(staircase):
    rep = run_report(staircase, (F(0), F(0)))
    assert rep["flags"]["saturated"] is False
    assert len(rep["toric_ideal"]["generators"]) == 1
    assert rep["quasi_degrees"]["1"] == [
        {"face_columns": [3], "offset": [4, 2]},
        {"face_columns": [3], "offset": [2, 1]},
        {"face_columns": [3], "offset": [0, 0]},
    ]
    assert rep["euler_decomposition"]["h"] == [0, 1]


def test_report_hat_example(hat):
    rep = run_report(hat, (F(0), F(0)))
    assert rep["flags"]["homogeneous"] == [1, 0]
    assert rep["euler_decomposition"] == {"monodromic": True, "h": [1, 0], "b": "0"}


def test_report_embeds_section_errors(numerical):
    rep = run_report(numerical, (F(1),))
    # beta = 1 is strongly resonant, so the dual-parameter section reports it
    assert rep["dual_parameter"]["error"]["code"] in (
        "not_homogeneous",
        "parameter_resonant",
    )
    assert rep["sres"]["member"] is True


def test_report_index_sets_present_for_nonspanning():
    rep = run_report(parse_matrix("2"), (F(0),))
    assert "I" in rep["index_sets"] and "Iprime" in rep["index_sets"]
    assert len(rep["index_sets"]["I"]["members"]) == 2


def test_diagram_rejects_high_dimension():
    with pytest.raises(DimensionUnsupported):
        render_diagram(parse_matrix("1 0 0; 0 1 0; 0 0 1"), DiagramSpec((-1, 1, -1, 1), ("semigroup",)))


def test_diagram_classification_is_sound(staircase):
    spec = DiagramSpec(
        box=(-1, 9, -1, 5),
        layers=("semigroup", "saturation-gap", "cone"),
        output_format="ascii",
    )
    table = classification_table(staircase, spec)
    for point, flags in table.items():
        assert flags["semigroup"] == semigroup_contains(staircase, point)
        gap = cone_witness(staircase, point) is not None and not semigroup_contains(
            staircase, point
        )
        assert flags["saturation-gap"] == gap


@pytest.mark.parametrize("text, box", [("3 2 0; 1 1 1", (-3, 6, -2, 3)), ("2 5", (-8, 12, 0, 0))])
def test_diagram_resonance_layers_match_library(text, box):
    a = parse_matrix(text)
    spec = DiagramSpec(box=box, layers=("qdeg", "dsres", "delta-cone"), output_format="ascii")
    table = classification_table(a, spec)
    qdeg, delta = quasi_degrees(a, 1), delta_A(a)
    for point, flags in table.items():
        assert flags == {
            "qdeg": qdeg_oracle.degree_set_contains(qdeg, point),
            "dsres": dsres_witness(a, tuple(F(x) for x in point)) is not None,
            "delta-cone": cone_witness(a, tuple(x - y for x, y in zip(point, delta))) is not None,
        }
    for layer in spec.layers:  # each layer marks some points of the box and not others
        assert {flags[layer] for flags in table.values()} == {False, True}


def test_diagram_identity_box_all_filled():
    a = parse_matrix("1 0; 0 1")
    spec = DiagramSpec(box=(0, 3, 0, 3), layers=("semigroup",), output_format="ascii")
    table = classification_table(a, spec)
    assert all(flags["semigroup"] for flags in table.values())


def test_diagram_line_sres_marks(line):
    spec = DiagramSpec(box=(-3, 3, 0, 0), layers=("sres",), output_format="ascii")
    table = classification_table(line, spec)
    marked = {p[0] for p, flags in table.items() if flags["sres"]}
    assert marked == {-1, -2, -3}


def test_diagram_svg_renders(staircase):
    spec = DiagramSpec(
        box=(-1, 9, -1, 5),
        layers=("semigroup", "saturation-gap", "cone", "sres"),
        output_format="svg",
    )
    doc = render_diagram(staircase, spec)
    assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")
    assert "circle" in doc and "line" in doc


def test_diagram_sres_lines_past_the_old_cap():
    # j = 2, offset (40, 1640) and face (3,) cross the box for m = 65..84,
    # beyond the cap 4 * (box size + 8) = 64 that once ended the march
    a = parse_matrix("1 1 1; 0 40 41")
    spec = DiagramSpec(box=(-2, 2, -2, 2), layers=("sres",))
    assert render_diagram(a, spec).count("<line") == 176
    assert [s["m"] for s in _sres_segments(a, spec) if s["m"] > 64] == list(range(65, 85))


def test_cli_smith_roundtrip(capsys):
    assert main(["smith", "--matrix", "2 2; 0 2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["e"] == [2, 2]


def test_cli_member_witness(capsys):
    assert main(["member", "--matrix", "3 2 0; 1 1 1", "--point", "5,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["member"] is True
    assert out["witness"] == [1, 1, 0]


def test_cli_toric_ideal(capsys):
    assert main(["toric-ideal", "--matrix", "3 2 0; 1 1 1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["generators"]) == 1
    assert out["generators"][0]["text"] == "d2^3 - d1^2*d3"


def test_cli_sres_witness(capsys):
    assert main(["sres", "--matrix", "3 2 0; 1 1 1", "--beta", "1,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["member"] is True and out["witness"]["j"] == 1


def test_cli_exit_codes(capsys, tmp_path):
    # parse error
    assert main(["sres", "--matrix", "nonsense"]) == 2
    capsys.readouterr()
    # precondition: not pointed
    assert main(["delta", "--matrix", "1 -1"]) == 3
    capsys.readouterr()
    # search exhaustion: certificate absent at tiny bound
    code = main(
        [
            "verify-member",
            "--matrix",
            "1 1 1; 0 1 -1",
            "--beta",
            "0,0",
            "--target",
            "1",
            "--bound",
            "1",
        ]
    )
    assert code == 4
    capsys.readouterr()


@pytest.mark.parametrize("command", ["sres", "dsres"])
def test_cli_beta_of_the_wrong_length_is_a_parse_error(capsys, command):
    # Both commands check beta before any precondition: this matrix's
    # columns do not span Z^2, which DsRes needs, but a one-entry beta is
    # a parse error first.
    assert main([command, "--matrix", "2 2 2; 0 3 -3", "--beta", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "parse_error"
    assert main([command, "--matrix", "2 2 2; 0 3 -3", "--beta", "1,0"]) == (0 if command == "sres" else 3)
    capsys.readouterr()


def test_cli_verify_member_success(capsys):
    code = main(
        [
            "verify-member",
            "--matrix",
            "1 1 1; 0 1 -1",
            "--beta",
            "0,0",
            "--target",
            "d0*((4*l1*l2 - l0^2)*d0 + l0) - 1",
            "--bound",
            "4",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["found"] is True


def test_cli_analyze_matches_library(capsys, staircase):
    assert main(["analyze", "--matrix", "3 2 0; 1 1 1", "--beta", "0,0"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == report_json(run_report(staircase, (F(0), F(0)))).strip()


def test_cli_qdeg(capsys):
    assert main(["qdeg", "--matrix", "2 5", "--j", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    offsets = sorted(tuple(c["offset"]) for c in out["components"])
    assert offsets == [(0,), (5,)]


def test_cli_qdeg_zero_column_exits_3():
    # A zero column used to send the filtration scan round weight 0 forever,
    # so the command runs in a child process under a timeout.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "gkzkit.cli", "qdeg", "--matrix", "1 0 2", "--j", "3"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3
    assert json.loads(proc.stderr)["error"]["code"] == "degenerate_column"


def test_cli_deep_member_exits_0():
    # 5000 column steps, deeper than the interpreter's recursion limit.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "gkzkit.cli", "member", "--matrix", "1", "--point", "5000"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"member": True, "witness": [5000]}


@pytest.mark.parametrize("j", ["0", "5"])
def test_cli_qdeg_column_index_out_of_range_exits_3(capsys, j):
    assert main(["qdeg", "--matrix", "1 1; 0 1", "--j", j]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "column_index_out_of_range"


def test_cli_restrict(capsys):
    assert main(["restrict", "--matrix", "1 1; 0 1", "--beta", "7,5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["generators"] == ["l1*d1 - 5", "l1*d1 + d0"]


def test_cli_index_sets(capsys):
    assert main(["index-sets", "--matrix", "2", "--kind", "I"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["members"]) == 2


# The options each command registers, with values that parse: the matrix
# options on all but psi, --beta only where a parameter is read, and the
# required options.  A test that adds one more option then meets no other
# parse error.
MATRIX = ["--matrix", "2 5"]
BETA = [*MATRIX, "--beta", "1/3"]
OWN_OPTIONS = {
    "analyze": BETA, "smith": MATRIX, "homogenize": MATRIX, "faces": MATRIX,
    "member": [*MATRIX, "--point", "1"], "saturated": MATRIX, "toric-ideal": MATRIX,
    "qdeg": [*MATRIX, "--j", "1"], "sres": BETA, "dsres": BETA, "delta": MATRIX,
    "nbeta": BETA, "dual-param": BETA, "present": BETA, "restrict": BETA,
    "verify-member": [*BETA, "--target", "l0"], "factor": MATRIX,
    "index-sets": MATRIX, "psi": ["--m", "0"], "diagram": [*MATRIX, "--box", "0 1"],
}

# Only verify-member reads --bound; every other command must reject it
# rather than ignore it.  index-sets and qdeg walk to a proved end, with no bound.
NO_BOUND = sorted(set(OWN_OPTIONS) - {"verify-member"})


@pytest.mark.parametrize("command", NO_BOUND)
def test_cli_bound_rejected_where_unused(capsys, command):
    argv = [command, *OWN_OPTIONS[command], "--bound", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound 1" in capsys.readouterr().err


def test_cli_bound_read_where_registered(capsys):
    # d0 * d1 needs the cofactor d1 of degree 1 on the generator d0.
    argv = ["verify-member", "--gens", "d0", "--target", "d0*d1", "--nvars", "2"]
    assert main([*argv, "--bound", "1"]) == 0
    capsys.readouterr()
    assert main([*argv, "--bound", "0"]) == 4
    assert json.loads(capsys.readouterr().err)["error"]["message"] == (
        "no certificate with cofactor degree <= 0"
    )


# Only analyze, toric-ideal, present, restrict and verify-member read
# --order; every other command must reject it rather than compute in degrevlex.
# qdeg rejects it too: its components do not depend on the term order.
ORDER_READERS = ["analyze", "toric-ideal", "present", "restrict", "verify-member"]
NO_ORDER = sorted(set(OWN_OPTIONS) - set(ORDER_READERS))


@pytest.mark.parametrize("command", NO_ORDER)
def test_cli_order_rejected_where_unused(capsys, command):
    argv = [command, *OWN_OPTIONS[command], "--order", "lex"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --order lex" in capsys.readouterr().err


# Each reader rejects an unknown order before any work, so restrict on a
# matrix that is no homogenization still exits 2, not 3.
@pytest.mark.parametrize("command", ORDER_READERS)
def test_cli_unknown_order_is_a_parse_error(capsys, command):
    assert main([command, *OWN_OPTIONS[command], "--order", "bogus"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "parse_error"
    assert "unknown term order 'bogus'" in error["message"]


# Only the commands that read a parameter take --beta, and psi takes no
# matrix; elsewhere these options are parse errors, not silently ignored.
BETA_READERS = {"analyze", "sres", "dsres", "nbeta", "dual-param", "present", "restrict", "verify-member"}


@pytest.mark.parametrize("command", sorted(set(OWN_OPTIONS) - BETA_READERS))
def test_cli_beta_rejected_where_unused(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *OWN_OPTIONS[command], "--beta", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --beta 7" in capsys.readouterr().err


def test_cli_psi_rejects_a_matrix(capsys):
    for option in (["--matrix", "1 2"], ["-A", "matrix.txt"]):
        with pytest.raises(SystemExit) as exc:
            main(["psi", "--m", "0,0", *option])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(option) in capsys.readouterr().err


@pytest.mark.parametrize("nvars", ["0", "-1"])
def test_cli_nonpositive_nvars_is_a_parse_error(capsys, nvars):
    with pytest.raises(SystemExit) as exc:
        main(["verify-member", "--gens", "1", "--target", "1", "--nvars=" + nvars])
    assert exc.value.code == 2
    assert f"argument --nvars: must be positive, got {nvars}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-member", "--gens", "d0; d1", "--nvars", "2", "--target", "d0"],
        ["verify-member", "--gens", "l0", "--target", "l0"],
        ["verify-member", *BETA, "--target", "l0"],
    ],
)
def test_cli_negative_bound_is_a_parse_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--bound", "-1"])
    assert exc.value.code == 2
    assert "argument --bound: must be nonnegative, got -1" in capsys.readouterr().err
    assert main([*argv, "--bound", "0"]) in (0, 4)


@pytest.mark.parametrize("zero", ["0", "d0 - d0"])
def test_cli_verify_member_zero_generator(capsys, zero):
    argv = ["verify-member", "--target", "l0*d0", "--gens", f"{zero}; d0", "--nvars", "2", "--bound", "2"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["found"] is True
    assert out["cofactors"] == ["0", "l0"]
    gens = [parse_weyl(zero, 2), parse_weyl("d0", 2)]
    cert = MembershipCertificate(tuple(parse_weyl(c, 2) for c in out["cofactors"]), bound=2)
    assert cert.combine(gens) == parse_weyl("l0*d0", 2)


def test_cli_verify_member_deep_parentheses(capsys):
    deep = "(" * 1200 + "l0" + ")" * 1200
    assert main(["verify-member", "--gens", deep, "--target", "l0"]) == 0
    assert json.loads(capsys.readouterr().out)["cofactors"] == ["1"]
    # Unclosed, the same depth is a parse error, not a RecursionError.
    assert main(["verify-member", "--gens", "(" * 1200 + "l0", "--target", "l0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["message"] == (
        "unexpected end of operator expression"
    )


@pytest.mark.parametrize(
    "gens, target, token",
    [("d0", "1/0", "1/0"), ("3/0*d0", "d0", "3/0"), ("d0", "0/0*l0", "0/0")],
)
def test_cli_verify_member_zero_denominator_is_a_parse_error(capsys, gens, target, token):
    # The same error as --beta 1/0, not a ZeroDivisionError traceback.
    assert main(["verify-member", "--gens", gens, "--target", target, "--bound", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "code": "parse_error", "message": f"bad rational '{token}'",
    }


def test_cli_verify_member_many_variables(capsys):
    argv = ["verify-member", "--gens", "l0*d0", "--nvars", "600", "--target", "l0*d0", "--bound", "1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["cofactors"] == ["1"]


@pytest.mark.parametrize(
    "argv, cofactors",
    [
        # Each expression once had its own count: d0 parsed with 1 variable, d1 with 2.
        (["--gens", "d0; d1", "--target", "d0", "--bound", "1"], ["1", "0"]),
        (["--gens", "d0; d1", "--target", "l1*d1", "--bound", "2"], ["0", "l1"]),
        # With a matrix, the count is its column count, also for --gens.
        (["--matrix", "1 1 1; 0 1 -1", "--beta", "0,0", "--gens", "d0", "--target", "d0", "--bound", "0"],
         ["1", "0", "0", "0"]),
    ],
)
def test_cli_verify_member_parses_every_expression_with_one_count(capsys, argv, cofactors):
    assert main(["verify-member", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["cofactors"] == cofactors


def test_cli_verify_member_count_covers_the_target(capsys):
    # The largest index of --target counts too, and --nvars overrides it.
    assert main(["verify-member", "--gens", "d0", "--target", "l2*d0", "--bound", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["cofactors"] == ["l2"]
    assert main(["verify-member", "--gens", "d0", "--target", "l2*d0", "--nvars", "2"]) == 2
    assert "variable index 2 out of range" in capsys.readouterr().err


@pytest.mark.parametrize("box", ["3 0 0 3", "0 3 3 0"])
def test_cli_diagram_rejects_an_inverted_box(capsys, box):
    assert main(["diagram", "--matrix", "1 1; 0 1", "--box", box, "--style", "ascii"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["message"].endswith("wants xmin <= xmax and ymin <= ymax")
    with pytest.raises(ParseError):
        DiagramSpec(tuple(int(x) for x in box.split()), ("semigroup",))


def test_cli_diagram_styles_mark_the_same_points(capsys):
    # A zero column: the filtration raises DegenerateColumn, so the SVG draws
    # no qdeg lines, but both styles mark the true degrees of the table.
    argv = ["diagram", "--matrix", "1 1 0; 0 1 0", "--box", "0 2 0 2", "--layers", "qdeg"]
    assert main([*argv, "--style", "ascii"]) == 0
    rows = capsys.readouterr().out.splitlines()[:3]
    ascii_marks = {(x, 2 - y): glyph for y, row in enumerate(rows) for x, glyph in enumerate(row.split())}
    assert main([*argv, "--style", "svg"]) == 0
    svg = capsys.readouterr().out
    assert "<line" not in svg
    radius = {"r=\"4\"": "O", "r=\"3\"": "x", "r=\"1\"": "."}
    svg_marks = {}
    for circle in re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)" (r="\d")', svg):
        x, y = (round((float(c) - 20) / 28) for c in circle[:2])
        svg_marks[(x, 2 - y)] = radius[circle[2]]
    assert svg_marks == ascii_marks
    assert {p for p, glyph in ascii_marks.items() if glyph == "x"} == {(0, 0), (1, 1), (2, 2)}


def test_cli_psi(capsys):
    assert main(["psi", "--m", "0,0", "--s", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["exponents"] == [1, 0, 0]


def test_cli_diagram_ascii(capsys):
    assert main(["diagram", "--matrix", "1", "--box=-3 3", "--layers", "sres", "--style", "ascii"]) == 0
    out = capsys.readouterr().out
    assert "x x x ." in out


def test_cli_cone_diagram_above_the_face_column_cap(capsys):
    # The cone layer reads facet signs; the face lattice takes 13 columns.
    matrix = " ".join(str(k) for k in range(1, 14))
    assert main(["diagram", "--matrix", matrix, "--box=0,5", "--layers", "cone"]) == 0
    assert "<svg" in capsys.readouterr().out


def test_cli_narrow_cone_dual_parameter(capsys):
    # No shift within the radius-8 box works; the column-sum walk answers.
    assert main(["dual-param", "--matrix", "1 1; 5 6", "--beta", "0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["dual"] == ["-2", "-11"]


def test_cli_faces_above_twelve_columns(capsys):
    assert main(["faces", "--matrix", " ".join(["1"] * 13)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"pointed": True, "proper_faces": [{"certificate": ["1"], "columns": [], "dim": 0}]}


def test_cli_matrix_file(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    path.write_text("3 2 0\n1 1 1\n")
    assert main(["faces", "-A", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pointed"] is True


def test_diagram_sres_segments_match_closed_form(staircase):
    """Clipped sres lines in the box agree with the known vertical/slanted set."""
    from gkzkit.report import DiagramSpec, _sres_segments

    spec = DiagramSpec(box=(-4, 4, -4, 4), layers=("sres",), output_format="svg")
    segments = _sres_segments(staircase, spec)
    verticals = set()
    slants = set()
    for seg in segments:
        sx, sy_ = F(seg["start"][0]), F(seg["start"][1])
        ex, ey = F(seg["end"][0]), F(seg["end"][1])
        if sx == ex and sy_ != ey:
            verticals.add(sx)
        else:
            slants.add(sx - 3 * sy_)
    assert verticals == {F(x) for x in (-4, -3, -2, -1, 1)}
    # slanted family x - 3y = m for every positive integer crossing the box
    assert {v for v in slants} == {F(m) for m in range(1, 17)}


def test_diagram_qdeg_segments(staircase):
    from gkzkit.report import DiagramSpec, _qdeg_segments

    spec = DiagramSpec(box=(-1, 9, -1, 5), layers=("qdeg",), output_format="svg", qdeg_j=1)
    segments = _qdeg_segments(staircase, spec)
    xs = sorted(F(seg["start"][0]) for seg in segments)
    assert xs == [F(0), F(2), F(4)]


def test_diagram_dsres_segments(staircase):
    from gkzkit.report import DiagramSpec, _dsres_segments

    spec = DiagramSpec(box=(-3, 3, -3, 3), layers=("dsres",), output_format="svg")
    segments = _dsres_segments(staircase, spec)
    verticals = {s["value"] for s in segments if tuple(s["columns"]) == (3,)}
    slants = {s["value"] for s in segments if tuple(s["columns"]) == (1,)}
    assert verticals == set(range(0, 4))
    # psi = (-1, 3) for the (3,1) ray: values -x + 3y = v with v >= 0 only
    assert slants == set(range(0, 13))


def test_diagram_dsres_segments_read_a_face_past_its_zero_column():
    from gkzkit.report import DiagramSpec, _dsres_segments

    # Column 2 is zero, so it is the first column of both rays' faces.
    spec = DiagramSpec(box=(-2, 3, -2, 3), layers=("dsres",), output_format="svg")
    segments = _dsres_segments(parse_matrix("1 0 1; 0 0 1"), spec)
    horizontals = {s["value"] for s in segments if tuple(s["columns"]) == (1, 2)}
    diagonals = {s["value"] for s in segments if tuple(s["columns"]) == (2, 3)}
    assert horizontals == set(range(0, 4))
    # psi = (-1, 1) for the (1,1) ray: values -x + y = v with v <= 0 only
    assert diagonals == set(range(-5, 1))


def test_cli_homogenize(capsys):
    assert main(["homogenize", "--matrix", "3 2 0; 1 1 1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["matrix"] == [[1, 1, 1, 1], [0, 3, 2, 0], [0, 1, 1, 1]]


STAIRCASE = "3 2 0; 1 1 1"
HAT = "1 1 1; 0 1 -1"

# Each case is a bad input that must exit 2 with a JSON error on stderr:
# non-integer vectors, parameters of the wrong length, unreadable -A files.
BAD_INPUTS = {
    "member-fractional-point": ["member", "--matrix", STAIRCASE, "--point", "1/2,1"],
    "member-short-point": ["member", "--matrix", STAIRCASE, "--point", "5"],
    "psi-fractional-m": ["psi", "--m", "1/2,0"],
    "diagram-fractional-box": ["diagram", "--matrix", STAIRCASE, "--box=-1/2,9,-1,5"],
    "analyze-short-beta": ["analyze", "--matrix", STAIRCASE, "--beta", "0"],
    "sres-short-beta": ["sres", "--matrix", STAIRCASE, "--beta", "0"],
    "dsres-long-beta": ["dsres", "--matrix", HAT, "--beta", "0,0,0"],
    "nbeta-long-beta": ["nbeta", "--matrix", "2 5", "--beta", "0,0"],
    "dual-param-short-beta": ["dual-param", "--matrix", HAT, "--beta", "0"],
    "missing-matrix-file": ["faces", "-A", "{missing}"],
    "directory-as-matrix-file": ["faces", "-A", "{dir}"],
    "binary-matrix-file": ["faces", "-A", "{binary}"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_exits_2(case, capsys, tmp_path):
    binary = tmp_path / "matrix.bin"
    binary.write_bytes(b"\xff\xfe\x00 1 2")
    paths = {"missing": str(tmp_path / "absent.txt"), "dir": str(tmp_path), "binary": str(binary)}
    argv = [arg.format(**paths) for arg in BAD_INPUTS[case]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["code"] == "parse_error"


@pytest.mark.parametrize(
    "call",
    [
        run_report,
        sres_witness,
        dsres_witness,
        n_beta,
        dual_parameter,
        gkz_presentation,
        restrict_presentation,
        cone_witness,
        semigroup_witness,
    ],
    ids=lambda f: f.__name__,
)
def test_wrong_length_parameter_raises_parse_error(call):
    hat = parse_matrix(HAT)
    for bad in ((F(0),), (F(0),) * 3):
        with pytest.raises(ParseError):
            call(hat, bad)


VECTOR_CALLS = [sres_witness, dual_parameter, semigroup_witness, run_report]


@pytest.mark.parametrize("call", VECTOR_CALLS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("entry", [0.1, "1/0", "x"], ids=["float", "zero-denominator", "not-a-number"])
def test_inexact_or_unreadable_entry_raises_parse_error(call, entry):
    # A float would be read as its binary value (0.1 as 3602879701896397/2^55),
    # and a bad string used to raise ZeroDivisionError or ValueError.
    with pytest.raises(ParseError, match=re.escape(repr(entry))):
        call(parse_matrix(HAT), (entry, 0))


@pytest.mark.parametrize("call", VECTOR_CALLS, ids=lambda f: f.__name__)
def test_string_entries_are_read_as_exact_rationals(call):
    hat = parse_matrix(HAT)
    assert call(hat, ("-9/5", " 3/5 ")) == call(hat, (F(-9, 5), F(3, 5)))


# Each used to pass: int() truncated the exponents, float arithmetic decided
# the cone, and a string reached a dot product as a TypeError.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: psi_image((F(1, 2), 2), 0), "m entry 1/2 is not an integer"),
        (lambda: psi_image((1.7, 2), F(3, 2)), "m entry 1.7 is a float"),
        (lambda: psi_image((1, 2), F(3, 2)), "s entry 3/2 is not an integer"),
        (lambda: psi_lambda_derivative((F(1, 2), 2), 0, 0), "m entry 1/2 is not an integer"),
        (lambda: psi_lambda_derivative((1, 2), 0.5, 0), "s entry 0.5 is a float"),
        (lambda: saturation_contains(parse_matrix(HAT), (0.5, 1)), "point entry 0.5 is a float"),
        (lambda: saturation_contains(parse_matrix(HAT), ("x", 1)), "bad rational 'x'"),
    ],
    ids=["psi-half", "psi-float", "psi-half-s", "derivative-half", "derivative-float-s", "cone-float", "cone-string"],
)
def test_exponent_and_point_entries_are_checked(call, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        call()


LAYERS = ("semigroup", "saturation-gap", "cone", "qdeg", "sres", "dsres", "delta-cone")


@pytest.mark.parametrize("layer", LAYERS)
def test_classify_point_rejects_a_point_of_the_wrong_length(layer):
    # zip and vec_sub would drop the third coordinate and answer for (1, 2)
    rnc3 = parse_matrix("1 1 1 1; 0 1 2 3")
    with pytest.raises(ParseError, match="point has length 3, but the matrix has 2 rows"):
        classify_point(rnc3, (1, 2, 99), [layer])


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [["smith", "--matrix", "1 1 1 1; 0 1 2 3"], ["sres", "--matrix", "1 1; 0 1", "--beta", "0,0"]])
def test_cli_closed_stdout_exits_0_quietly(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == 0
    assert sys.stdout.name == os.devnull  # so the flush at exit does not raise again
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_cli_closed_pipe_exits_0():
    # The reader closes its end before the child has written anything.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gkzkit.cli", "analyze", "--matrix", "1 1 1 1; 0 1 2 3", "--beta=1/3,1/5"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
