"""Planar four-point configurations with exact rational coordinates.

The witness formulas (doubled signed area, squared distance, lifting and
Cayley-Menger rows), each written once over any commutative ring, so that the
integer points here and the polynomial placements of `certificates` share
them; the sign-table hull classifier, Cayley-Menger and cocircularity
determinants, midpoint-distance identities, reflections, and seeded generators
for the configuration families (cyclic, folded, tilted kite, reflected).  The
generators are constructive: rational points on the unit circle, reflected
across a diagonal where the family asks for it (a folded quadrilateral folds
D over AC; a tilted kite reflects C of a cyclic ACBD or ACDB configuration
over BD).  Generators only ever emit rational points, so downstream tests
are exact; orientations, areas, distances, reflections and point equality
are computed on integer points (`QuadConfig.int_points`).  A generator that
checks its family's condition asks the condition table through
`conditions.eval_condition`, imported where it is used since `conditions`
imports this module; no condition is encoded here a second time.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Callable
from .poly import det


class GeometryError(ValueError):
    pass


class HullTableError(AssertionError):
    """A sign row that four distinct points cannot give appeared: indicates
    an arithmetic bug."""


_EXPONENT = re.compile(r"e([-+]?[0-9_]+)\s*$", re.IGNORECASE)
_MAX_EXPONENT = 4300  # sys.int_info.default_max_str_digits


def _frac(x, what: str) -> Fraction:
    """An exact rational from an int, a Fraction or a "p/q" string; `what`
    names the entry in an error.  A decimal exponent beyond Python's
    int-digit limit is refused before `Fraction` expands it."""
    if isinstance(x, bool) or not isinstance(x, (int, str, Fraction)):
        raise GeometryError(f"{what} {x!r} is not exact; pass an int or "
                            "a p/q string")
    try:
        exp = isinstance(x, str) and _EXPONENT.search(x)
        if exp and abs(int(exp[1])) > _MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT}")
        return Fraction(x)
    except (ZeroDivisionError, ValueError) as exc:
        raise GeometryError(f"bad {what} {x!r}: {exc}") from None


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __iter__(self):
        return iter((self.x, self.y))


# ---------------------------------------------------------------------------
# witnesses, over any commutative ring: a point is an (x, y) pair of ints,
# Fractions or Polynomials
# ---------------------------------------------------------------------------

def cross(p, q, r):
    """Twice the signed area of the triangle pqr (counterclockwise > 0)."""
    (px, py), (qx, qy), (rx, ry) = p, q, r
    return (qx - px) * (ry - py) - (qy - py) * (rx - px)


def sq_dist(p, q):
    """The squared distance between p and q."""
    (px, py), (qx, qy) = p, q
    return (px - qx) ** 2 + (py - qy) ** 2


def lift_rows(points) -> list[list]:
    """The rows [x^2 + y^2, x, y, 1] of four points: their determinant is 0
    iff the points lie on one circle or line."""
    return [[x * x + y * y, x, y, 1] for x, y in points]


def cm_rows(qa, qb, qc, qd, qe, qf) -> list[list]:
    """The 5x5 Cayley-Menger matrix of the squared distances |AB|^2, |BC|^2,
    |CD|^2, |DA|^2, |AC|^2, |BD|^2."""
    return [[0, 1, 1, 1, 1], [1, 0, qa, qe, qd], [1, qa, 0, qb, qf],
            [1, qe, qb, 0, qc], [1, qd, qf, qc, 0]]


# the vertex pair of each distance a..f, and the squared distances' names
DIST_PAIRS = ("AB", "BC", "CD", "DA", "AC", "BD")
SQ_DIST_NAMES = ("qa", "qb", "qc", "qd", "qe", "qf")


@dataclass(frozen=True)
class DistSextuple:
    """Squared distances qa=|AB|^2, qb=|BC|^2, qc=|CD|^2, qd=|DA|^2,
    qe=|AC|^2, qf=|BD|^2 (planarity not implied), held as `int_q`, six
    positive integers in that order, over one positive `int_scale`.  Both are
    reduced by their gcd, so each sextuple has one encoding; `qa`..`qf` and
    `as_tuple()` give the `Fraction` values, for output."""

    int_q: tuple[int, ...]
    int_scale: int

    def __post_init__(self):
        s, qs = self.int_scale, self.int_q
        if s < 1:
            raise GeometryError(f"scale must be >= 1, not {s}")
        for name, q in zip(SQ_DIST_NAMES, qs, strict=True):
            if q <= 0:
                raise GeometryError(f"squared distance {name} must be > 0")
        g = gcd(s, *qs)
        object.__setattr__(self, "int_scale", s // g)
        object.__setattr__(self, "int_q", tuple(q // g for q in qs))

    @classmethod
    def of(cls, *qs) -> "DistSextuple":
        fs = [_frac(q, f"squared distance {name}")
              for name, q in zip(SQ_DIST_NAMES, qs, strict=True)]
        s = lcm(*(f.denominator for f in fs))
        return cls(tuple(f.numerator * (s // f.denominator) for f in fs), s)

    qa, qb, qc, qd, qe, qf = (property(lambda d, i=i: d.as_tuple()[i])
                              for i in range(6))

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(q, self.int_scale) for q in self.int_q)


_LABELS = {label: i for i, label in enumerate("ABCD")}


@dataclass(frozen=True)
class QuadConfig:
    """Four labeled planar points A, B, C, D, held as `int_points`, the
    integer pairs in A, B, C, D order, over the shared positive `int_scale`.
    Both are reduced by their gcd, so the scale is the lcm of the eight
    coordinate denominators and each configuration has one encoding.  A
    positive shared scale keeps orientations, coincidences and coordinate
    order; `points()` gives the `Fraction` points, for output."""

    int_points: tuple[tuple[int, int], ...]
    int_scale: int

    def __post_init__(self):
        s = self.int_scale
        if s < 1:
            raise GeometryError(f"scale must be >= 1, not {s}")
        g = gcd(s, *(c for p in self.int_points for c in p))
        object.__setattr__(self, "int_scale", s // g)
        object.__setattr__(self, "int_points",
                           tuple((x // g, y // g) for x, y in self.int_points))

    @classmethod
    def of(cls, A, B, C, D) -> "QuadConfig":
        cs = [_frac(c, f"coordinate of {v}")
              for v, p in zip("ABCD", (A, B, C, D)) for c in p]
        s = lcm(*(c.denominator for c in cs))
        ints = [c.numerator * (s // c.denominator) for c in cs]
        return cls(tuple(zip(ints[::2], ints[1::2])), s)

    def points(self) -> tuple[Point, ...]:
        s = self.int_scale
        return tuple(Point(Fraction(x, s), Fraction(y, s))
                     for x, y in self.int_points)

    def cross(self, tri: str) -> int:
        """Twice the signed area of three labeled vertices, e.g. "ABC", on
        the integer points: int_scale**2 times the true value."""
        pts, i = self.int_points, _LABELS
        return cross(pts[i[tri[0]]], pts[i[tri[1]]], pts[i[tri[2]]])

    def orient(self, tri: str) -> int:
        """The sign of `cross` (+1 counterclockwise)."""
        d = self.cross(tri)
        return (d > 0) - (d < 0)

    def distinct(self) -> bool:
        return len(set(self.int_points)) == 4

    def sextuple(self) -> DistSextuple:
        pts, i = self.int_points, _LABELS
        return DistSextuple(tuple(sq_dist(pts[i[u]], pts[i[v]])
                                  for u, v in DIST_PAIRS), self.int_scale ** 2)


# ---------------------------------------------------------------------------
# hull classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HullClass:
    """Convex-hull classification of four labeled points.

    kind: "convex4" (boundary = ccw 4-cycle), "concave3" (boundary = ccw hull
    triangle, interior = the inner vertex), "collinear3" (triple = the
    collinear vertices) or "collinear4".
    """

    kind: str
    boundary: str = ""
    interior: str = ""
    triple: str = ""

    def __str__(self) -> str:
        if self.kind == "convex4":
            return f"convex {self.boundary}"
        if self.kind == "concave3":
            return f"concave: hull {self.boundary}, {self.interior} interior"
        if self.kind == "collinear3":
            return f"collinear triple {self.triple}"
        return "all four points collinear"


def same_cycle(s1: str, s2: str) -> bool:
    """True if two boundary strings denote the same cyclic sequence."""
    return len(s1) == len(s2) and s1 in s2 + s2


# sign rows (ABC, ABD, BCD, ACD) with ABC > 0 -> hull; interior vertex of a
# concave row is the one missing from the triangle string
_HULL_TABLE: dict[tuple[int, int, int, int], tuple[str, str]] = {
    (1, 1, 1, 1): ("convex4", "ABCD"),
    (1, 1, -1, -1): ("convex4", "ABDC"),
    (1, -1, 1, -1): ("convex4", "ADBC"),
    (1, 1, 1, -1): ("concave3", "ABC"),
    (1, 1, -1, 1): ("concave3", "ABD"),
    (1, -1, 1, 1): ("concave3", "BCD"),
    (1, -1, -1, -1): ("concave3", "CAD"),
}
# the mirror rows: a reflection flips every sign and reverses each hull
_HULL_TABLE |= {tuple(-s for s in signs): (kind, tri[0] + tri[:0:-1])
                for signs, (kind, tri) in _HULL_TABLE.items()}
TRIANGLES = ("ABC", "ABD", "BCD", "ACD")  # sign-row order


def hull_table() -> dict[tuple[int, int, int, int], tuple[str, str]]:
    """Copy of the sign-row table: (ABC,ABD,BCD,ACD) signs -> (kind, hull)."""
    return dict(_HULL_TABLE)


def hull_from_signs(signs: tuple[int, int, int, int]) -> HullClass:
    """Hull of four distinct points from the signs of ABC, ABD, BCD, ACD.
    A row without a zero is read off the sign table.  Otherwise the terms
    [ABC] - [ABD] + [ACD] - [BCD] sum to 0: all four zero is collinear4,
    and one zero is collinear3 unless the other three share one sign.  Any
    other row cannot come from distinct points (two flat triples share two
    points, so all four lie on one line): HullTableError, an arithmetic bug."""
    if signs in _HULL_TABLE:
        kind, tri = _HULL_TABLE[signs]
        inner = "".join(v for v in "ABCD" if v not in tri)  # "" if convex
        return HullClass(kind, boundary=tri, interior=inner)
    abc, abd, bcd, acd = signs
    terms = (abc, -abd, acd, -bcd)
    if not any(terms):
        return HullClass("collinear4")
    if terms.count(0) == 1 and len(set(terms)) == 3:
        return HullClass("collinear3", triple=TRIANGLES[signs.index(0)])
    raise HullTableError(f"sign row {signs} is impossible for distinct points")


def classify_hull(cfg: QuadConfig) -> HullClass:
    """`hull_from_signs` on a configuration of distinct points."""
    if not cfg.distinct():
        raise GeometryError("classify_hull needs four distinct points")
    return hull_from_signs(tuple(cfg.orient(tri) for tri in TRIANGLES))


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def cayley_menger(d: DistSextuple) -> Fraction:
    """The 5x5 distance determinant; 0 iff the six squared distances embed in
    the plane, and 288 V^2 for a tetrahedron of volume V.  Of degree 3 in the
    q's, it is the determinant on `int_q` over int_scale**3."""
    return Fraction(det(cm_rows(*d.int_q)), d.int_scale ** 3)


def cocircularity(cfg: QuadConfig) -> Fraction:
    """4x4 lifting determinant; 0 iff A, B, C, D lie on one circle or line.
    On the integer points its columns scale by int_scale**2, int_scale,
    int_scale and 1, so the true value is the integer one over int_scale**4."""
    return Fraction(det(lift_rows(cfg.int_points)),
                    cfg.int_scale ** 4)


def midpoint_distances(d: DistSextuple) -> tuple[Fraction, Fraction, Fraction]:
    """(v1^2, v2^2, v3^2): squared distances between the midpoints of the
    three opposite-edge pairs (AC,BD), (AB,CD), (BC,AD)."""
    qa, qb, qc, qd, qe, qf = d.as_tuple()
    v1 = (qa + qb + qc + qd - qe - qf) / 4
    v2 = (-qa + qb - qc + qd + qe + qf) / 4
    v3 = (qa - qb + qc - qd + qe + qf) / 4
    for name, v in (("v1", v1), ("v2", v2), ("v3", v3)):
        if v < 0:
            raise GeometryError(
                f"sextuple not realizable in 3-space: {name}^2 = {v} < 0")
    return v1, v2, v3


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

def reflect_over_line(cfg: QuadConfig, vertex: str,
                      line: tuple[str, str]) -> QuadConfig:
    """Reflect one labeled vertex across the line through two other vertices:
    p' = p - 2((p-l1).n / n.n) n on the integer points, n the line's normal,
    over the scale times n.n.  Distances from the moved vertex to the line's
    endpoints are unchanged."""
    pts = cfg.int_points
    try:
        i, a, b = (_LABELS[v] for v in (vertex, *line[:2]))
    except KeyError as exc:
        raise GeometryError(
            f"vertex must be A/B/C/D, not {exc.args[0]!r}") from None
    (px, py), (ax, ay), (bx, by) = pts[i], pts[a], pts[b]
    nx, ny = ay - by, bx - ax
    nn = sq_dist((ax, ay), (bx, by))  # n.n
    if nn == 0:
        raise GeometryError("line endpoints coincide")
    k = 2 * ((px - ax) * nx + (py - ay) * ny)
    moved = [(x * nn, y * nn) for x, y in pts]
    moved[i] = (px * nn - k * nx, py * nn - k * ny)
    return QuadConfig(tuple(moved), nn * cfg.int_scale)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _rand_fraction(rng: random.Random, lo: int, hi: int, max_den: int
                   ) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _circle_ints(n: int, d: int) -> tuple[int, int, int]:
    """The unit-circle point of t = n/d (d != 0) as (x/w, y/w), w > 0."""
    return d * d - n * n, 2 * n * d, d * d + n * n


def gen_cyclic(seed_or_rng, order: str = "ABCD") -> QuadConfig:
    """Four distinct rational points on the unit circle whose counterclockwise
    order around the circle realizes `order` (any permutation of ABCD)."""
    if sorted(order) != ["A", "B", "C", "D"]:
        raise GeometryError(f"order must be a permutation of ABCD: {order!r}")
    rng = _rng(seed_or_rng)
    ts = set()
    while len(ts) < 4:
        ts.add(_rand_fraction(rng, -30, 30, 10))
    # the circle parametrization is injective: distinct ts, distinct points
    xyw = dict(zip(order, (_circle_ints(t.numerator, t.denominator)
                           for t in sorted(ts))))
    s = lcm(*(w for _, _, w in xyw.values()))
    return QuadConfig(tuple((x * (s // w), y * (s // w))
                            for x, y, w in map(xyw.get, "ABCD")), s)


def gen_collinear_inorder(seed_or_rng) -> QuadConfig:
    """Four points in order on a rational line (Ptolemy's degenerate case):
    O + (m/840) u for drawn parameters n/d = m/840 (d <= 8), a unit direction
    u = (x/w, y/w) and O = (on/od, pn/pd), over one integer scale."""
    rng = _rng(seed_or_rng)
    randint = rng.randint
    ms = set()
    while len(ms) < 4:  # 840 = lcm(1..8)
        ms.add(randint(-20, 20) * (840 // randint(1, 8)))
    # random rational direction keeps the family from being axis-special; a
    # unit direction sends distinct parameters to distinct points
    x, y, w = _circle_ints(randint(-5, 5), randint(1, 4))
    on, od = randint(-5, 5), randint(1, 4)
    pn, pd = randint(-5, 5), randint(1, 4)
    k, s = od * pd, 840 * w
    ox, oy = on * pd * s, pn * od * s
    return QuadConfig(tuple((ox + k * m * x, oy + k * m * y)
                            for m in sorted(ms)), k * s)


def _reflected(draw: Callable[[], QuadConfig], vertex: str,
               line: tuple[str, str], condition: str,
               accept: Callable[[QuadConfig], bool]) -> QuadConfig:
    """The one reflection construction: reflect `vertex` of `draw()` across
    `line` until the integer tests of `accept` take the image, then assert
    the family's `condition` once, exactly.  A broken construction raises
    GeometryError; it is never drawn again."""
    from .conditions import eval_condition  # conditions imports geometry
    while not accept(image := reflect_over_line(draw(), vertex, line)):
        pass
    if not eval_condition(condition, image.sextuple()).is_zero:
        raise GeometryError(f"reflected {vertex} gave {condition} != 0")
    return image


def gen_folded(seed_or_rng) -> QuadConfig:
    """Cyclic quadrilateral ABCD folded about the diagonal AC (D reflected),
    the standard family with R = 0, K = 0 and P > 0.  The fold keeps the
    angle at D, so K = 0; D' lies on B's side of AC, so ABCD' is not in
    cyclic order and P > 0.  On the plane K^2 = PQR with Q > 0, so R = 0."""
    rng = _rng(seed_or_rng)
    return _reflected(lambda: gen_cyclic(rng, "ABCD"), "D", ("A", "C"), "R",
                      lambda f: f.distinct() and classify_hull(f).kind
                      not in ("collinear3", "collinear4"))


def gen_reflected(seed_or_rng) -> QuadConfig:
    """Cyclic quadrilateral in order ACBD with C reflected across BD: the
    reflection family.  A and C lie on one arc cut off by BD, so the angles
    at A and C are equal and C's image lands on A's far side of BD (the four
    points stay distinct); by the reflection theorem R_T = 0 exactly."""
    rng = _rng(seed_or_rng)
    return _reflected(lambda: gen_cyclic(rng, "ACBD"), "C", ("B", "D"), "R_T",
                      lambda r: classify_hull(r).kind
                      not in ("collinear3", "collinear4"))


def gen_tilted_kite(seed_or_rng, convex: bool = True) -> QuadConfig:
    """Tilted kite (R_T = 0, equal angles at A and C) of the requested hull
    kind, built as `gen_reflected` from a cyclic configuration in order ACBD
    or ACDB (chosen at random).  A and the moved C lie on opposite sides of
    BD, so the hull is convex ABCD or a triangle with B or D interior; draws
    of the other kind are redrawn."""
    rng = _rng(seed_or_rng)
    want = "convex4" if convex else "concave3"
    return _reflected(lambda: gen_cyclic(rng, rng.choice(("ACBD", "ACDB"))),
                      "C", ("B", "D"), "R_T",
                      lambda k: classify_hull(k).kind == want)


def _draw_quad(rng: random.Random, span: int, max_den: int
               ) -> tuple[tuple[tuple[int, int], ...], int]:
    """The first distinct quad of draws n/d for x_A, y_A, ..., y_D, as its
    integer points n * (L // d) and L, the lcm of the drawn denominators.
    Each value is drawn as `rng.randint` draws it on CPython 3.10-3.13, by
    its rejection loop written out: `getrandbits(size.bit_length())` until
    the draw is below the range's size, so the stream is randint's."""
    if span < 1:  # span 0 draws only the origin: never four distinct points
        raise GeometryError(f"span must be >= 1, not {span}")
    if max_den < 1:  # getrandbits(0) is always 0: the loop would never end
        raise GeometryError(f"max_den must be >= 1, not {max_den}")
    getrandbits = rng.getrandbits
    width = 2 * span + 1
    kn, kd = width.bit_length(), max_den.bit_length()
    while True:
        ns, ds = [], []
        for _ in range(8):
            while (n := getrandbits(kn)) >= width:
                pass
            while (d := getrandbits(kd)) >= max_den:
                pass
            ns.append(n - span)
            ds.append(d + 1)
        scale = lcm(*ds)
        ints = [n * (scale // d) for n, d in zip(ns, ds)]
        pts = tuple(zip(ints[::2], ints[1::2]))
        if len(set(pts)) == 4:
            return pts, scale


def random_quad(seed_or_rng, span: int = 40, max_den: int = 4) -> QuadConfig:
    """Four distinct random rational points (no structure imposed)."""
    return QuadConfig(*_draw_quad(_rng(seed_or_rng), span, max_den))


# ---------------------------------------------------------------------------
# JSON and SVG interfaces
# ---------------------------------------------------------------------------

def config_to_obj(cfg: QuadConfig) -> dict:
    s = cfg.int_scale  # each text is str(Fraction(x, s)), from one gcd
    texts = [f"{x // g}/{s // g}" if (g := gcd(x, s)) != s else str(x // g)
             for p in cfg.int_points for x in p]
    return {label: texts[i:i + 2] for label, i in zip("ABCD", range(0, 8, 2))}


def config_from_obj(obj) -> QuadConfig:
    if not isinstance(obj, dict):
        raise GeometryError("configuration JSON must be an object")
    pts = []
    for label in "ABCD":
        if label not in obj:
            raise GeometryError(f"missing vertex {label}")
        pair = obj[label]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise GeometryError(f"vertex {label} must be [x, y]")
        pts.append(pair)
    return QuadConfig.of(*pts)


def sextuple_to_obj(d: DistSextuple) -> dict:
    return {k: str(v) for k, v in zip(SQ_DIST_NAMES, d.as_tuple())}


def sextuple_from_obj(obj) -> DistSextuple:
    if not isinstance(obj, dict):
        raise GeometryError("sextuple JSON must be an object")
    try:
        return DistSextuple.of(*(obj[k] for k in SQ_DIST_NAMES))
    except KeyError as exc:
        raise GeometryError(f"missing squared distance {exc.args[0]}") from None


def config_svg(cfg: QuadConfig) -> str:
    """A labeled SVG drawing; vertex coordinates converted to float once."""
    s = cfg.int_scale
    try:
        pts = {label: (x / s, y / s)
               for label, (x, y) in zip("ABCD", cfg.int_points)}
    except OverflowError:
        raise GeometryError("coordinates too large to draw") from None
    xs = [v[0] for v in pts.values()]
    ys = [v[1] for v in pts.values()]
    pad = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9) * 0.15
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    scale = 440 / max(x1 - x0, y1 - y0)  # the longer side: 440 px
    width, height = (x1 - x0) * scale, (y1 - y0) * scale
    if not (isfinite(width) and isfinite(height)):  # a span beyond float
        raise GeometryError("coordinates too large to draw")

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale  # svg y axis points down

    def fmt(v: float) -> str:
        return f"{v:.6f}"

    w, h = fmt(width), fmt(height)
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
             f'height="{h}" viewBox="0 0 {w} {h}">']
    ring = "ABCD"
    for i in range(4):
        p, q = pts[ring[i]], pts[ring[(i + 1) % 4]]
        lines.append(f'<line x1="{fmt(sx(p[0]))}" y1="{fmt(sy(p[1]))}" '
                     f'x2="{fmt(sx(q[0]))}" y2="{fmt(sy(q[1]))}" '
                     'stroke="black" stroke-width="1.5"/>')
    for pair in ("AC", "BD"):
        p, q = pts[pair[0]], pts[pair[1]]
        lines.append(f'<line x1="{fmt(sx(p[0]))}" y1="{fmt(sy(p[1]))}" '
                     f'x2="{fmt(sx(q[0]))}" y2="{fmt(sy(q[1]))}" '
                     'stroke="gray" stroke-width="0.8" '
                     'stroke-dasharray="4 3"/>')
    for label, (x, y) in pts.items():
        lines.append(f'<circle cx="{fmt(sx(x))}" cy="{fmt(sy(y))}" r="3" '
                     'fill="black"/>')
        lines.append(f'<text x="{fmt(sx(x) + 6)}" y="{fmt(sy(y) - 6)}" '
                     f'font-size="14">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines)
