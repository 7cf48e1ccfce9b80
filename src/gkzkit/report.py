"""Whole-pipeline analysis reports and 2-D lattice diagrams.

Reports are plain dicts with deterministic JSON serialization (sorted keys,
rationals as exact 'p/q' strings).  Sections whose preconditions fail are
embedded as {"error": {...}} values instead of aborting the whole report.
Each section type has one `*_json` function, shared by `run_report` and the
subcommands that print that type (`faces`, `toric-ideal`, `qdeg`, `sres`,
`dsres`, `dual-param`, `index-sets`); the others build their own payloads in
`cli`, and `present` prints as text what the report gives as terms and text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from operator import mul
from typing import Optional, Sequence

from . import cones, family, resonance, toric, weyl
from .errors import DegenerateColumn, DimensionUnsupported, GkzError, ParseError
from .intlinalg import (
    IntMatrix,
    checked_vector,
    elementary_divisors,
    format_fraction,
    homogeneity_vector,
)

SCHEMA_VERSION = 1


def vector_json(v) -> list:
    return [format_fraction(x) for x in v]


def faces_json(faces: Sequence[cones.Face]) -> list:
    return [
        {
            "columns": list(f.sorted_columns()),
            "certificate": vector_json(f.certificate),
            "dim": f.dim,
        }
        for f in faces
    ]


def toric_generators_json(ideal: toric.ToricIdeal) -> list:
    names = [f"d{i+1}" for i in range(ideal.nvars)]
    return [
        {
            "terms": [
                {"exponents": list(m), "coefficient": format_fraction(c)}
                for m, c in sorted(g.terms.items())
            ],
            "text": g.pretty(names),
        }
        for g in ideal.generators
    ]


def qdeg_json(qd: toric.QuasiDegreeSet) -> list:
    return [
        {"offset": list(c.offset), "face_columns": list(c.face.sorted_columns())}
        for c in qd.components
    ]


def sres_json(wit: Optional[resonance.ResonanceWitness]) -> dict:
    if wit is None:
        return {"member": False}
    return {
        "member": True,
        "witness": {
            "j": wit.j,
            "offset": list(wit.offset),
            "face_columns": list(wit.face_columns),
            "multiplier": format_fraction(wit.multiplier),
        },
    }


def dsres_json(wit: Optional[tuple[int, ...]]) -> dict:
    if wit is None:
        return {"member": False}
    return {"member": True, "witness": {"face_columns": list(wit)}}


def index_set_json(idx: family.IndexSet) -> dict:
    return {
        "members": [vector_json(m) for m in idx.members],
        "shift": list(idx.shift),
        "e": list(idx.e),
    }


def _weyl_json(w: weyl.WeylElement) -> dict:
    terms = [
        {"lambda": list(u), "d": list(v), "coefficient": format_fraction(c)}
        for (u, v), c in sorted(w.terms.items())
    ]
    return {"terms": terms, "text": w.pretty()}


def _section(func):
    try:
        return func()
    except GkzError as exc:
        return {"error": {"code": exc.code, "message": str(exc)}}


def run_report(
    a: IntMatrix, beta: Sequence[Fraction], order_name: str = "degrevlex"
) -> dict:
    """Deterministic full analysis of (A, beta)."""
    beta = checked_vector(beta, a.d, "beta")
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "input": {"matrix": [list(r) for r in a.rows], "beta": vector_json(beta)},
        "order": order_name,
    }

    lat = cones.face_lattice(a)  # raises no GkzError, so it needs no _section
    report["faces"] = {"proper": faces_json(lat.proper_faces), "pointed": lat.pointed}
    h = homogeneity_vector(a)
    divisors = elementary_divisors(a)
    report["flags"] = {
        "pointed": lat.pointed,
        "spans_lattice": a.spans_lattice,
        "homogeneous": list(h) if h is not None else None,
        "saturated": _section(lambda: cones.is_saturated(a)),
        "full_dimensional": len(divisors) == a.d,
    }
    report["elementary_divisors"] = list(divisors)

    def _toric():
        ideal = toric.toric_ideal(a, order_name)
        return {
            "generators": toric_generators_json(ideal),
            "order": order_name,
            "is_groebner": True,
        }

    report["toric_ideal"] = _section(_toric)
    report["quasi_degrees"] = _section(
        lambda: {
            str(j): qdeg_json(toric.quasi_degrees(a, j))
            for j in range(1, a.n + 1)
        }
    )
    report["sres"] = _section(lambda: sres_json(resonance.sres_witness(a, beta)))
    report["dsres"] = _section(lambda: dsres_json(resonance.dsres_witness(a, beta)))
    report["delta"] = _section(lambda: list(resonance.delta_A(a)))
    report["dual_parameter"] = _section(
        lambda: vector_json(resonance.dual_parameter(a, beta))
    )
    report["n_beta"] = _section(lambda: resonance.n_beta(a, beta))

    def _present():
        pres = weyl.gkz_presentation(a, beta, order_name)
        return {
            "boxes": [_weyl_json(b) for b in pres.boxes],
            "eulers": [_weyl_json(e) for e in pres.eulers],
        }

    report["presentation"] = _section(_present)

    def _monodromic():
        hvec = weyl.euler_decomposition(a)
        if hvec is None:
            return {"monodromic": False}
        scalar = sum(Fraction(hk) * bk for hk, bk in zip(hvec, beta))
        return {"monodromic": True, "h": list(hvec), "b": format_fraction(scalar)}

    report["euler_decomposition"] = _section(_monodromic)

    def _index():
        if a.spans_lattice:
            return {"skipped": "matrix already spans the lattice"}
        return {kind: index_set_json(family.index_sets(a, kind)) for kind in ("I", "Iprime")}

    report["index_sets"] = _section(_index)
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


LAYERS = ("semigroup", "saturation-gap", "cone", "qdeg", "sres", "dsres", "delta-cone")


@dataclass(frozen=True)
class DiagramSpec:
    box: tuple[int, int, int, int]  # xmin, xmax, ymin, ymax (ymin/ymax unused if d=1)
    layers: tuple[str, ...]
    output_format: str = "svg"  # or "ascii"
    qdeg_j: int = 1

    def __post_init__(self):
        if self.box[0] > self.box[1] or self.box[2] > self.box[3]:
            raise ParseError(f"box {list(self.box)} wants xmin <= xmax and ymin <= ymax")


def classify_point(a: IntMatrix, point: tuple[int, ...], layers: Sequence[str], qdeg_j: int = 1) -> dict:
    """Exact per-layer classification of one lattice point.

    The cone, saturation-gap and delta-cone layers test the cone by facet
    signs (`cones.cone_contains`), so a warm table asks no LP."""
    point = checked_vector(point, a.d, "point")
    out = {}
    if "semigroup" in layers or "saturation-gap" in layers:
        in_semi = cones.semigroup_contains(a, point)
        if "semigroup" in layers:
            out["semigroup"] = in_semi
        if "saturation-gap" in layers:
            out["saturation-gap"] = not in_semi and cones.cone_contains(a, point)
    if "cone" in layers:
        out["cone"] = cones.saturation_contains(a, point)
    if "qdeg" in layers:
        out["qdeg"] = toric.true_degree_contains(a, qdeg_j, point)
    if "sres" in layers:
        out["sres"] = resonance.sres_contains(a, point)
    if "dsres" in layers:
        out["dsres"] = resonance.dsres_contains(a, point)
    if "delta-cone" in layers:
        delta = resonance.delta_A(a)
        shifted = tuple(x - dx for x, dx in zip(point, delta))
        out["delta-cone"] = cones.cone_contains(a, shifted)
    return out


def _lattice_points(spec: DiagramSpec, d: int):
    x0, x1, y0, y1 = spec.box
    if d == 1:
        for x in range(x0, x1 + 1):
            yield (x,)
    else:
        for y in range(y1, y0 - 1, -1):
            for x in range(x0, x1 + 1):
                yield (x, y)


def classification_table(a: IntMatrix, spec: DiagramSpec) -> dict:
    if a.d > 2:
        raise DimensionUnsupported("diagrams are limited to one or two rows")
    return {p: classify_point(a, p, spec.layers, spec.qdeg_j) for p in _lattice_points(spec, a.d)}


def _sres_segments(a: IntMatrix, spec: DiagramSpec) -> list[dict]:
    """Analytic line/point data for sres components clipped to the box.

    Each component marches -m * a_j for m = 1, 2, ..; its translate can meet
    the box only where psi . (offset - m * shift) lies in psi's range over the
    box corners, for each psi of `cones.face_functionals`.  Some psi . shift
    is nonzero (lemma 1 of `resonance`), so that bounds m on both sides, and
    each m in the bounds is clipped, in increasing order.
    """
    x0, x1, y0, y1 = spec.box
    segments = []
    for comp in resonance.resonance_set(a).components:
        cols = list(comp.face_columns)
        direction = a.column(cols[0] - 1) if cols else None
        lows, highs = [1], []
        for psi in cones.face_functionals(a, comp.face_columns):
            s, g = (sum(map(mul, psi, v)) for v in (comp.shift, comp.offset))
            if s:  # min(values) <= g - m s <= max(values)
                values = [psi[0] * x + psi[1] * y for x in (x0, x1) for y in (y0, y1)]
                ends = sorted(Fraction(g - v, s) for v in (min(values), max(values)))
                lows.append(ceil(ends[0]))
                highs.append(floor(ends[1]))
        for m in range(max(lows), min(highs) + 1):
            anchor = tuple(
                Fraction(o) - m * Fraction(s) for o, s in zip(comp.offset, comp.shift)
            )
            seg = _clip_line(anchor, direction, spec.box)
            if seg is not None:
                segments.append(
                    {"j": comp.j, "m": m, "start": vector_json(seg[0]), "end": vector_json(seg[1])}
                )
    return segments


def _clip_line(anchor, direction, box):
    x0, x1, y0, y1 = box
    if direction is None or direction == (0, 0):
        x, y = anchor
        if x0 <= x <= x1 and y0 <= y <= y1:
            return (anchor, anchor)
        return None
    tmin, tmax = Fraction(-10**9), Fraction(10**9)
    for coord, lo, hi, dv in (
        (anchor[0], x0, x1, direction[0]),
        (anchor[1], y0, y1, direction[1]),
    ):
        if dv == 0:
            if not (lo <= coord <= hi):
                return None
            continue
        t_lo = (Fraction(lo) - coord) / dv
        t_hi = (Fraction(hi) - coord) / dv
        if t_lo > t_hi:
            t_lo, t_hi = t_hi, t_lo
        tmin = max(tmin, t_lo)
        tmax = min(tmax, t_hi)
    if tmin > tmax:
        return None
    p = tuple(c + tmin * dv for c, dv in zip(anchor, direction))
    q = tuple(c + tmax * dv for c, dv in zip(anchor, direction))
    return (p, q)


def _qdeg_segments(a: IntMatrix, spec: DiagramSpec) -> list[dict]:
    """One clipped line (or point) per quasi-degree component; none where a
    zero column leaves the filtration undefined (the points stay marked)."""
    try:
        components = toric.quasi_degrees(a, spec.qdeg_j).components
    except DegenerateColumn:
        return []
    segments = []
    for comp in components:
        cols = comp.face.sorted_columns()
        direction = a.column(cols[0] - 1) if cols else None
        anchor = tuple(Fraction(x) for x in comp.offset)
        seg = _clip_line(anchor, direction, spec.box)
        if seg is not None:
            segments.append({"start": vector_json(seg[0]), "end": vector_json(seg[1])})
    return segments


def _dsres_segments(a: IntMatrix, spec: DiagramSpec) -> list[dict]:
    """Analytic lines of the dual set: per face, one line per reachable class.

    For a one-dimensional face with primitive annihilator psi, the union
    (cone lattice points) + QF is the family of lines psi = v over integers
    v in psi(cone); only the values whose line crosses the box are emitted.
    Zero columns lie in every face, so the lines run along the face's first
    nonzero column, as in `cones.extreme_rays`.
    """
    x0, x1, y0, y1 = spec.box
    segments = []
    for face in cones.face_lattice(a).proper_faces:
        cols = face.sorted_columns()
        if face.dim != 1:
            continue
        (psi,) = cones.face_functionals(a, cols)
        direction = next(a.column(j - 1) for j in cols if any(a.column(j - 1)))
        col_values = [psi[0] * x + psi[1] * y for x, y in a.columns()]
        corner_values = [psi[0] * x + psi[1] * y for x in (x0, x1) for y in (y0, y1)]
        lo, hi = min(corner_values), max(corner_values)
        for v in range(lo, hi + 1):
            # v must be reachable by psi on the cone
            if min(col_values) >= 0 and v < 0:
                continue
            if max(col_values) <= 0 and v > 0:
                continue
            anchor = _point_with_value(psi, v)
            seg = _clip_line(anchor, direction, spec.box)
            if seg is not None:
                segments.append({
                    "columns": list(cols),
                    "value": v,
                    "start": vector_json(seg[0]),
                    "end": vector_json(seg[1]),
                })
    return segments


def _point_with_value(psi, v):
    if psi[0] != 0:
        return (Fraction(v, psi[0]), Fraction(0))
    return (Fraction(0), Fraction(v, psi[1]))


def render_diagram(a: IntMatrix, spec: DiagramSpec) -> str:
    table = classification_table(a, spec)
    if spec.output_format == "ascii":
        return _render_ascii(a, spec, table)
    return _render_svg(a, spec, table)


def _glyph(flags: dict) -> str:
    if flags.get("semigroup"):
        return "O"
    if flags.get("saturation-gap"):
        return "o"
    if flags.get("qdeg") or flags.get("sres") or flags.get("dsres"):
        return "x"
    if flags.get("delta-cone"):
        return "#"
    if flags.get("cone"):
        return "+"
    return "."


# The SVG circle of each `_glyph`; the cone glyphs and the background get r="1".
_CIRCLES = {
    "O": 'r="4" fill="black"',
    "o": 'r="4" fill="white" stroke="black"',
    "x": 'r="3" fill="#444444"',
}


def _render_ascii(a: IntMatrix, spec: DiagramSpec, table: dict) -> str:
    # The table is in `_lattice_points` order, top row first: cut it into rows.
    x0, x1 = spec.box[:2]
    glyphs = [_glyph(flags) for flags in table.values()]
    width = x1 - x0 + 1
    lines = [" ".join(glyphs[k : k + width]) for k in range(0, len(glyphs), width)]
    if a.d == 1:
        lines.append(" ".join("^" if x == 0 else " " for x in range(x0, x1 + 1)))
    legend = "legend: O semigroup, o saturation gap, x marked layer, # shifted cone, + cone, . background"
    lines.append(legend)
    return "\n".join(lines) + "\n"


def _render_svg(a: IntMatrix, spec: DiagramSpec, table: dict) -> str:
    x0, x1, y0, y1 = spec.box
    scale = 28
    pad = 20
    if a.d == 1:
        y0 = y1 = 0
    width = (x1 - x0) * scale + 2 * pad
    height = (y1 - y0) * scale + 2 * pad

    def sx(x) -> float:
        return pad + float(Fraction(x) - x0) * scale

    def sy(y) -> float:
        return pad + float(Fraction(y1) - Fraction(y)) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if "cone" in spec.layers and a.d == 2:
        hull = _cone_polygon(a, spec.box)
        if hull:
            pts = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in hull)
            parts.append(f'<polygon points="{pts}" fill="#bbbbbb" fill-opacity="0.45"/>')
    line_layers = []
    if a.d == 2:
        if "sres" in spec.layers:
            line_layers.append(("black", _sres_segments(a, spec)))
        if "dsres" in spec.layers:
            line_layers.append(("#666666", _dsres_segments(a, spec)))
        if "qdeg" in spec.layers:
            line_layers.append(("#3355aa", _qdeg_segments(a, spec)))
    for color, segments in line_layers:
        for seg in segments:
            p, q = seg["start"], seg["end"]
            parts.append(
                f'<line x1="{sx(Fraction(p[0])):.2f}" y1="{sy(Fraction(p[1])):.2f}" '
                f'x2="{sx(Fraction(q[0])):.2f}" y2="{sy(Fraction(q[1])):.2f}" '
                f'stroke="{color}" stroke-width="1"/>'
            )
    for point, flags in table.items():
        x = point[0]
        y = point[1] if a.d == 2 else 0
        style = _CIRCLES.get(_glyph(flags), 'r="1" fill="black"')
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" {style}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cone_polygon(a: IntMatrix, box) -> Optional[list[tuple[float, float]]]:
    """Clip R+A to the box for shading (2-D only, pointed full-dim cones)."""
    try:
        rays = cones.extreme_rays(a)
    except GkzError:
        return None
    if len(rays) != 2:
        return None
    x0, x1, y0, y1 = box
    reach = 4 * (abs(x0) + abs(x1) + abs(y0) + abs(y1) + 4)
    r1, r2 = rays
    return [
        (0.0, 0.0),
        (r1[0] * reach, r1[1] * reach),
        (r2[0] * reach, r2[1] * reach),
    ]
