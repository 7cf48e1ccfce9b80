"""The `gkz` command line tool.

Exit codes: 0 success (also when the reader closes stdout early), 2 parse
error, 3 precondition violation, 4 search bound exhausted.  Output is JSON
by default; `--format text` prints a human-oriented rendering of the same
data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import cones, family, polynomials, report, resonance, toric, weyl
from .errors import CertificateNotFound, GkzError, ParseError, SearchBoundError
from .intlinalg import (
    IntMatrix,
    format_fraction,
    homogenize,
    parse_integer_vector,
    parse_matrix,
    parse_rational_vector,
    smith_decompose,
)

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SEARCH = 4
# First match wins; any other GkzError is a precondition violation.
EXIT_CODES = ((ParseError, EXIT_PARSE), (SearchBoundError, EXIT_SEARCH))


def _matrix_from_args(args) -> IntMatrix:
    if getattr(args, "matrix_file", None):
        try:
            with open(args.matrix_file) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read matrix file {args.matrix_file!r}: {exc}") from exc
        return parse_matrix(text)
    if getattr(args, "matrix", None):
        return parse_matrix(args.matrix)
    raise ParseError("pass a matrix with -A <file> or --matrix \"r1; r2\"")


def _beta_from_args(args, d: int):
    if getattr(args, "beta", None) is None:
        return (Fraction(0),) * d
    return parse_rational_vector(args.beta)


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "text":
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_analyze(args):
    a = _matrix_from_args(args)
    beta = _beta_from_args(args, a.d)
    rep = report.run_report(a, beta, order_name=args.order)
    print(report.report_json(rep))


def cmd_smith(args):
    a = _matrix_from_args(args)
    dec = smith_decompose(a)
    payload = {
        "C": [list(r) for r in dec.C.rows],
        "D1": [list(r) for r in dec.D1.rows],
        "D2": [list(r) for r in dec.D2.rows],
        "M": [list(r) for r in dec.M.rows],
        "e": list(dec.e),
        "A": [list(r) for r in dec.A.rows],
    }
    _emit(args, payload, f"e = {list(dec.e)}\nA = {dec.A}\n")


def cmd_homogenize(args):
    a = _matrix_from_args(args)
    h = homogenize(a)
    _emit(args, {"matrix": [list(r) for r in h.rows]}, str(h) + "\n")


def cmd_faces(args):
    a = _matrix_from_args(args)
    lat = cones.face_lattice(a)
    payload = {"pointed": lat.pointed, "proper_faces": report.faces_json(lat.proper_faces)}
    lines = [f"pointed: {lat.pointed}"]
    for f in payload["proper_faces"]:
        lines.append(f"face {f['columns']} dim {f['dim']}")
    _emit(args, payload, "\n".join(lines) + "\n")


def cmd_member(args):
    a = _matrix_from_args(args)
    witness = cones.semigroup_witness(a, parse_integer_vector(args.point))
    payload = {"member": witness is not None}
    if witness is not None:
        payload["witness"] = list(witness)
    _emit(args, payload, f"{payload}\n")


def cmd_saturated(args):
    a = _matrix_from_args(args)
    flag = cones.is_saturated(a)
    _emit(args, {"saturated": flag}, f"saturated: {flag}\n")


def cmd_toric_ideal(args):
    a = _matrix_from_args(args)
    gens = report.toric_generators_json(toric.toric_ideal(a, args.order))
    payload = {"order": args.order, "generators": gens}
    _emit(args, payload, "\n".join(g["text"] for g in gens) + "\n")


def cmd_qdeg(args):
    a = _matrix_from_args(args)
    comps = report.qdeg_json(toric.quasi_degrees(a, args.j))
    lines = [f"offset {c['offset']} + N * columns {c['face_columns']}" for c in comps]
    _emit(args, {"j": args.j, "components": comps}, "\n".join(lines) + "\n")


def cmd_sres(args):
    a = _matrix_from_args(args)
    payload = report.sres_json(resonance.sres_witness(a, _beta_from_args(args, a.d)))
    _emit(args, payload, f"{payload}\n")


def cmd_dsres(args):
    a = _matrix_from_args(args)
    payload = report.dsres_json(resonance.dsres_witness(a, _beta_from_args(args, a.d)))
    _emit(args, payload, f"{payload}\n")


def cmd_delta(args):
    a = _matrix_from_args(args)
    delta = resonance.delta_A(a)
    payload = {"delta": list(delta), "verified": resonance.delta_valid(a, delta)}
    _emit(args, payload, f"delta = {list(delta)}\n")


def cmd_nbeta(args):
    a = _matrix_from_args(args)
    beta = _beta_from_args(args, a.d)
    n = resonance.n_beta(a, beta)
    _emit(args, {"n_beta": n}, f"n_beta = {n}\n")


def cmd_dual_param(args):
    a = _matrix_from_args(args)
    beta = _beta_from_args(args, a.d)
    dual = report.vector_json(resonance.dual_parameter(a, beta))
    _emit(args, {"dual": dual}, f"dual = {dual}\n")


def cmd_present(args):
    a = _matrix_from_args(args)
    beta = _beta_from_args(args, a.d)
    pres = weyl.gkz_presentation(a, beta, args.order)
    payload = {
        "boxes": [b.pretty() for b in pres.boxes],
        "eulers": [e.pretty() for e in pres.eulers],
    }
    _emit(
        args,
        payload,
        "\n".join(["boxes:"] + [f"  {b.pretty()}" for b in pres.boxes]
                  + ["eulers:"] + [f"  {e.pretty()}" for e in pres.eulers]) + "\n",
    )


def cmd_restrict(args):
    a = _matrix_from_args(args)
    beta = _beta_from_args(args, a.d)
    gens = weyl.restrict_presentation(a, beta, args.order)
    payload = {"generators": [g.pretty() for g in gens]}
    _emit(args, payload, "\n".join(g.pretty() for g in gens) + "\n")


def cmd_verify_member(args):
    """Every expression gets --nvars, else the matrix's n, else the largest index used + 1."""
    texts = [g for g in (args.gens or "").split(";") if g.strip()]
    a = _matrix_from_args(args) if args.matrix or args.matrix_file else None
    if not texts and a is None:
        raise ParseError("no generators: pass --gens and/or a matrix")
    nvars = args.nvars or (a.n if a is not None else weyl.variable_count([*texts, args.target]))
    gens = [weyl.parse_weyl(g, nvars) for g in texts]
    if a is not None:
        gens.extend(weyl.gkz_presentation(a, _beta_from_args(args, a.d), args.order).generators())
    target = weyl.parse_weyl(args.target, nvars)
    cert = weyl.ideal_member_bounded(target, gens, args.bound)
    if cert is None:
        payload = {"found": False, "bound": args.bound, "target": target.pretty()}
        print(json.dumps(payload, sort_keys=True, indent=2))
        raise CertificateNotFound(f"no certificate with cofactor degree <= {args.bound}")
    payload = {
        "found": True,
        "bound": args.bound,
        "target": target.pretty(),
        "cofactors": [c.pretty() for c in cert.cofactors],
    }
    _emit(args, payload, "\n".join(payload["cofactors"]) + "\n")


def cmd_factor(args):
    b = _matrix_from_args(args)
    fam = family.factor_B(b)
    payload = {
        "B": [list(r) for r in fam.B.rows],
        "C": [list(r) for r in fam.C.rows],
        "e": list(fam.e),
        "A": [list(r) for r in fam.A.rows],
        "laurent_exponents": [list(c) for c in fam.laurent_exponents()],
        "laurent_sign": -1,
    }
    _emit(args, payload, f"e = {list(fam.e)}\nA = {fam.A}\n")


def cmd_index_sets(args):
    b = _matrix_from_args(args)
    kind = "Iprime" if args.kind in ("Iprime", "I'") else "I"
    idx = family.index_sets(b, kind)
    payload = dict(report.index_set_json(idx), kind=idx.kind)
    _emit(args, payload, "\n".join(str(m) for m in payload["members"]) + "\n")


def cmd_psi(args):
    image = family.psi_image(parse_integer_vector(args.m), args.s)
    payload = {
        "coefficient": format_fraction(image.coefficient),
        "exponents": list(image.exponents),
    }
    _emit(args, payload, f"d-exponents: {list(image.exponents)}\n")


def cmd_diagram(args):
    a = _matrix_from_args(args)
    box = parse_integer_vector(args.box)
    if len(box) == 2:
        box = (box[0], box[1], 0, 0)
    if len(box) != 4:
        raise ParseError("--box wants 'xmin xmax ymin ymax' (or 'xmin xmax' for d = 1)")
    layers = tuple(t.strip() for t in args.layers.split(",") if t.strip())
    for layer in layers:
        if layer not in report.LAYERS:
            raise ParseError(f"unknown layer {layer!r} (choose from {report.LAYERS})")
    spec = report.DiagramSpec(
        box=box, layers=layers, output_format=args.style, qdeg_j=args.j
    )
    print(report.render_diagram(a, spec), end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkz",
        description="Exact analysis of GKZ-hypergeometric data: toric ideals, "
        "cone geometry, resonance sets, and Weyl-algebra presentations.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def nonnegative(text: str) -> int:
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"must be nonnegative, got {int(text)}")
        return int(text)

    def positive(text: str) -> int:
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"must be positive, got {int(text)}")
        return int(text)

    def add(name, func, matrix=True, beta=False, order=False, **kw):
        p = sub.add_parser(name, **kw)
        if matrix:
            p.add_argument("-A", "--matrix-file", dest="matrix_file")
            p.add_argument("--matrix")
        if beta:
            p.add_argument("--beta")
        if order:
            p.add_argument("--order", default="degrevlex")
        p.set_defaults(func=func)
        return p

    add("analyze", cmd_analyze, beta=True, order=True, help="full analysis report")
    add("smith", cmd_smith, help="Smith factorization C D1 D2 M")
    add("homogenize", cmd_homogenize, help="prepend the homogenizing row/column")
    add("faces", cmd_faces, help="face lattice with certificates")
    p = add("member", cmd_member, help="semigroup membership with witness")
    p.add_argument("--point", required=True)
    add("saturated", cmd_saturated, help="saturation test")
    add("toric-ideal", cmd_toric_ideal, order=True, help="reduced Groebner basis of I_A")
    p = add("qdeg", cmd_qdeg, help="quasi-degree components of S_A/<d_j>")
    p.add_argument("--j", type=int, required=True)
    add("sres", cmd_sres, beta=True, help="strong-resonance membership")
    add("dsres", cmd_dsres, beta=True, help="dual resonance-set membership")
    add("delta", cmd_delta, help="cone shift avoiding sRes")
    add("nbeta", cmd_nbeta, beta=True, help="homogenization lift bound for beta")
    add("dual-param", cmd_dual_param, beta=True, help="dual parameter search")
    add("present", cmd_present, beta=True, order=True, help="box and Euler generators")
    add("restrict", cmd_restrict, beta=True, order=True,
        help="generators of the lambda_0 = 1 restriction")
    p = add("verify-member", cmd_verify_member, beta=True, order=True,
            help="bounded left-ideal membership")
    p.add_argument("--target", required=True)
    p.add_argument("--gens")
    p.add_argument("--nvars", type=positive, default=None)
    p.add_argument("--bound", type=nonnegative, default=4)
    add("factor", cmd_factor, help="family factorization B = C D1 A")
    p = add("index-sets", cmd_index_sets, help="congruence representatives I / I'")
    p.add_argument("--kind", default="I", choices=("I", "Iprime", "I'"))
    p = add("psi", cmd_psi, matrix=False, help="exponent image of a monomial section")
    p.add_argument("--m", required=True)
    p.add_argument("--s", type=int, default=0)
    p = add("diagram", cmd_diagram, help="2-D lattice diagram (svg or ascii)")
    p.add_argument("--box", required=True)
    p.add_argument("--layers", default="semigroup,saturation-gap,cone")
    p.add_argument("--style", choices=("svg", "ascii"), default="svg")
    p.add_argument("--j", type=int, default=1)
    return parser


# Built on the first call of main, not at import: the parser is the same for
# every call, and a process that imports this module without running a
# command (a library user, a test collector) does not pay for it.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if hasattr(args, "order"):
            # A bad name is a parse error before any work, also where a
            # report section or a precondition would meet it first.
            polynomials.order_by_name(args.order)
        args.func(args)
        sys.stdout.flush()
    except GkzError as exc:
        print(json.dumps({"error": {"code": exc.code, "message": str(exc)}}), file=sys.stderr)
        return next((code for cls, code in EXIT_CODES if isinstance(exc, cls)), EXIT_PRECONDITION)
    except BrokenPipeError:
        # The reader closed stdout early (`gkz ... | head`), which is not a
        # failure of the command.  stdout now writes to devnull, so the
        # flush at exit does not raise a second time.
        sys.stdout = open(os.devnull, "w")
    return 0


if __name__ == "__main__":
    sys.exit(main())
