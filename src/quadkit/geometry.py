"""Planar four-point configurations with exact rational coordinates.

Signed areas, the sign-table hull classifier, Cayley-Menger and cocircularity
determinants, midpoint-distance identities, reflections, and seeded generators
for the configuration families (cyclic, folded, tilted kite, reflected).  The
generators are constructive: rational points on the unit circle, reflected
across a diagonal where the family asks for it (a folded quadrilateral folds
D over AC; a tilted kite reflects C of a cyclic ACBD or ACDB configuration
over BD).  Everything is Fraction arithmetic; generators only ever emit
rational points, so downstream tests are exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from .poly import det


class GeometryError(ValueError):
    pass


class HullTableError(AssertionError):
    """A sign pattern the classification tables mark unrealizable appeared,
    or an impossible zero pattern: indicates an arithmetic bug."""


def _frac(x) -> Fraction:
    """An exact rational from an int, a Fraction or a "p/q" string."""
    if isinstance(x, bool) or not isinstance(x, (int, str, Fraction)):
        raise GeometryError(f"coordinate {x!r} is not exact; pass an int or "
                            "a p/q string")
    try:
        return Fraction(x)
    except (ZeroDivisionError, ValueError) as exc:
        raise GeometryError(f"bad coordinate {x!r}: {exc}") from None


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    @classmethod
    def of(cls, x, y) -> "Point":
        return cls(_frac(x), _frac(y))

    def __iter__(self):
        return iter((self.x, self.y))


def sqdist(p: Point, q: Point) -> Fraction:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


@dataclass(frozen=True)
class DistSextuple:
    """Squared distances qa=|AB|^2, qb=|BC|^2, qc=|CD|^2, qd=|DA|^2,
    qe=|AC|^2, qf=|BD|^2; all positive, planarity not implied."""

    qa: Fraction
    qb: Fraction
    qc: Fraction
    qd: Fraction
    qe: Fraction
    qf: Fraction

    def __post_init__(self):
        for name in ("qa", "qb", "qc", "qd", "qe", "qf"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, _frac(v))
        for name in ("qa", "qb", "qc", "qd", "qe", "qf"):
            if getattr(self, name) <= 0:
                raise GeometryError(f"squared distance {name} must be > 0")

    def as_tuple(self) -> tuple[Fraction, ...]:
        return (self.qa, self.qb, self.qc, self.qd, self.qe, self.qf)


@dataclass(frozen=True)
class QuadConfig:
    """Four labeled planar points A, B, C, D."""

    A: Point
    B: Point
    C: Point
    D: Point

    @classmethod
    def of(cls, A, B, C, D) -> "QuadConfig":
        return cls(Point.of(*A), Point.of(*B), Point.of(*C), Point.of(*D))

    def points(self) -> tuple[Point, Point, Point, Point]:
        return (self.A, self.B, self.C, self.D)

    def point(self, label: str) -> Point:
        try:
            return getattr(self, label)
        except AttributeError:
            raise GeometryError(f"vertex must be A/B/C/D, not {label!r}") from None

    def distinct(self) -> bool:
        pts = self.points()
        return all(pts[i] != pts[j] for i in range(4) for j in range(i + 1, 4))

    def sextuple(self) -> DistSextuple:
        A, B, C, D = self.points()
        return DistSextuple(sqdist(A, B), sqdist(B, C), sqdist(C, D),
                            sqdist(D, A), sqdist(A, C), sqdist(B, D))

    def replace(self, label: str, p: Point) -> "QuadConfig":
        parts = {"A": self.A, "B": self.B, "C": self.C, "D": self.D}
        parts[label] = p
        return QuadConfig(**parts)


@dataclass(frozen=True)
class SignedAreas:
    """Twice the signed areas of ABC, ABD, BCD, ACD (counterclockwise > 0)."""

    abc: Fraction
    abd: Fraction
    bcd: Fraction
    acd: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.abc, self.abd, self.bcd, self.acd)


def _area2(p: Point, q: Point, r: Point) -> Fraction:
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)


def signed_areas(cfg: QuadConfig) -> SignedAreas:
    A, B, C, D = cfg.points()
    return SignedAreas(_area2(A, B, C), _area2(A, B, D),
                       _area2(B, C, D), _area2(A, C, D))


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

    @property
    def is_convex(self) -> bool:
        return self.kind == "convex4"

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


# sign rows (ABC, ABD, BCD, ACD) -> hull; interior vertex of a concave row is
# the one missing from the triangle string
_HULL_TABLE: dict[tuple[int, int, int, int], tuple[str, str]] = {
    (1, 1, 1, 1): ("convex4", "ABCD"),
    (1, 1, -1, -1): ("convex4", "ABDC"),
    (1, -1, 1, -1): ("convex4", "ADBC"),
    (1, 1, 1, -1): ("concave3", "ABC"),
    (1, 1, -1, 1): ("concave3", "ABD"),
    (1, -1, 1, 1): ("concave3", "BCD"),
    (1, -1, -1, -1): ("concave3", "CAD"),
    (-1, -1, -1, -1): ("convex4", "ADCB"),
    (-1, -1, 1, 1): ("convex4", "ACDB"),
    (-1, 1, -1, 1): ("convex4", "ACBD"),
    (-1, -1, -1, 1): ("concave3", "ACB"),
    (-1, -1, 1, -1): ("concave3", "ADB"),
    (-1, 1, -1, -1): ("concave3", "BDC"),
    (-1, 1, 1, 1): ("concave3", "CDA"),
}
_UNREALIZABLE = {(1, -1, -1, 1), (-1, 1, 1, -1)}
_TRIPLE_NAMES = ("ABC", "ABD", "BCD", "ACD")


def hull_table() -> dict[tuple[int, int, int, int], tuple[str, str]]:
    """Copy of the sign-row table: (ABC,ABD,BCD,ACD) signs -> (kind, hull)."""
    return dict(_HULL_TABLE)


def unrealizable_patterns() -> frozenset:
    return frozenset(_UNREALIZABLE)


def _hom(p: Point) -> tuple[int, int, int]:
    # integer homogeneous row (x*sy, y*sx, sx*sy); positive row scaling keeps
    # orientation signs
    return (p.x.numerator * p.y.denominator,
            p.y.numerator * p.x.denominator,
            p.x.denominator * p.y.denominator)


def orient_sign(p: Point, q: Point, r: Point) -> int:
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3) = _hom(p), _hom(q), _hom(r)
    d = (x1 * (y2 * w3 - w2 * y3) - y1 * (x2 * w3 - w2 * x3)
         + w1 * (x2 * y3 - y2 * x3))
    return (d > 0) - (d < 0)


def classify_hull(cfg: QuadConfig) -> HullClass:
    """Classify by the signed-area sign tables.

    Distinct points only.  Raises HullTableError if a sign pattern the tables
    mark as not realizable shows up (that would mean an arithmetic bug)."""
    if not cfg.distinct():
        raise GeometryError("classify_hull needs four distinct points")
    A, B, C, D = cfg.points()
    signs = (orient_sign(A, B, C), orient_sign(A, B, D),
             orient_sign(B, C, D), orient_sign(A, C, D))
    zeros = [i for i, s in enumerate(signs) if s == 0]
    if not zeros:
        if signs in _UNREALIZABLE:
            raise HullTableError(f"unrealizable sign pattern {signs}")
        kind, tri = _HULL_TABLE[signs]
        if kind == "convex4":
            return HullClass("convex4", boundary=tri)
        interior = next(v for v in "ABCD" if v not in tri)
        return HullClass("concave3", boundary=tri, interior=interior)
    if len(zeros) == 4:
        return HullClass("collinear4")
    if len(zeros) == 1:
        return HullClass("collinear3", triple=_TRIPLE_NAMES[zeros[0]])
    raise HullTableError(
        f"impossible zero pattern {signs} for distinct points")


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def cayley_menger(d: DistSextuple) -> Fraction:
    """The 5x5 distance determinant; 0 iff the six squared distances embed in
    the plane, and 288 V^2 for a tetrahedron of volume V."""
    one = Fraction(1)
    zero = Fraction(0)
    qa, qb, qc, qd, qe, qf = d.as_tuple()
    rows = [
        [zero, one, one, one, one],
        [one, zero, qa, qe, qd],
        [one, qa, zero, qb, qf],
        [one, qe, qb, zero, qc],
        [one, qd, qf, qc, zero],
    ]
    return det(rows)


def cocircularity(cfg: QuadConfig) -> Fraction:
    """4x4 lifting determinant; 0 iff A, B, C, D lie on one circle or line."""
    rows = []
    for p in cfg.points():
        rows.append([p.x * p.x + p.y * p.y, p.x, p.y, Fraction(1)])
    return det(rows)


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

def reflect_point(p: Point, l1: Point, l2: Point) -> Point:
    """Mirror p across the line through l1, l2 (a rational map)."""
    if l1 == l2:
        raise GeometryError("line endpoints coincide")
    dx = l2.x - l1.x
    dy = l2.y - l1.y
    # normal n = (-dy, dx); p' = p - 2((p-l1).n / n.n) n
    nx, ny = -dy, dx
    t = ((p.x - l1.x) * nx + (p.y - l1.y) * ny) / (nx * nx + ny * ny)
    return Point(p.x - 2 * t * nx, p.y - 2 * t * ny)


def reflect_over_line(cfg: QuadConfig, vertex: str,
                      line: tuple[str, str]) -> QuadConfig:
    """Reflect one labeled vertex across the line through two other vertices.
    Distances from the moved vertex to the line's endpoints are unchanged."""
    l1, l2 = (cfg.point(line[0]), cfg.point(line[1]))
    moved = reflect_point(cfg.point(vertex), l1, l2)
    return cfg.replace(vertex, moved)


# ---------------------------------------------------------------------------
# exact zero tests used by the generators (radical-free encodings)
# ---------------------------------------------------------------------------

def r_condition_is_zero(d: DistSextuple) -> bool:
    """(bc+ad)^2 == qe*(sum q - qe - qf), decided in rationals."""
    qa, qb, qc, qd, qe, qf = d.as_tuple()
    t = qa + qb + qc + qd - qe - qf
    r0 = qb * qc + qa * qd - qe * t
    g = qa * qb * qc * qd
    # R = r0 + 2*sqrt(g): zero iff r0 <= 0 and r0^2 == 4g
    return r0 <= 0 and r0 * r0 == 4 * g


def rt_condition_is_zero(d: DistSextuple) -> bool:
    """(ab-cd)^2 == qf*(sum q - qe - qf), decided in rationals."""
    qa, qb, qc, qd, qe, qf = d.as_tuple()
    t = qa + qb + qc + qd - qe - qf
    r0 = qa * qb + qc * qd - qf * t
    g = qa * qb * qc * qd
    # R_T = r0 - 2*sqrt(g): zero iff r0 >= 0 and r0^2 == 4g
    return r0 >= 0 and r0 * r0 == 4 * g


def equal_angle_witness(d: DistSextuple) -> bool:
    """cos(BAD) = cos(BCD) without radicals: qb*qc*(qf-qa-qd)^2 ==
    qa*qd*(qf-qb-qc)^2 with matching signs.  Equivalent to K_T = 0."""
    x = d.qf - d.qa - d.qd
    y = d.qf - d.qb - d.qc
    if d.qb * d.qc * x * x != d.qa * d.qd * y * y:
        return False
    if x == 0 and y == 0:
        return True
    return (x > 0) == (y > 0)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def _rand_fraction(rng: random.Random, lo: int, hi: int, max_den: int = 12
                   ) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def unit_circle_point(t: Fraction) -> Point:
    """Tangent half-angle parametrization of the rational unit circle."""
    t = Fraction(t)
    den = 1 + t * t
    return Point((1 - t * t) / den, 2 * t / den)


_CYCLIC_ORDERS = ("ABCD", "ABDC", "ACBD", "ACDB", "ADBC", "ADCB")


def gen_cyclic(seed_or_rng, order: str = "ABCD") -> QuadConfig:
    """Four distinct rational points on the unit circle whose counterclockwise
    order around the circle realizes `order` (any permutation of ABCD)."""
    if sorted(order) != ["A", "B", "C", "D"]:
        raise GeometryError(f"order must be a permutation of ABCD: {order!r}")
    rng = _rng(seed_or_rng)
    while True:
        ts = set()
        while len(ts) < 4:
            ts.add(_rand_fraction(rng, -30, 30, 10))
        t_sorted = sorted(ts)
        pts = {label: unit_circle_point(t_sorted[i])
               for i, label in enumerate(order)}
        cfg = QuadConfig(pts["A"], pts["B"], pts["C"], pts["D"])
        if cfg.distinct():
            return cfg


def gen_collinear_inorder(seed_or_rng) -> QuadConfig:
    """Four points in order on a rational line (Ptolemy's degenerate case)."""
    rng = _rng(seed_or_rng)
    while True:
        xs = set()
        while len(xs) < 4:
            xs.add(_rand_fraction(rng, -20, 20, 8))
        x1, x2, x3, x4 = sorted(xs)
        # random rational direction keeps the family from being axis-special
        t = _rand_fraction(rng, -5, 5, 4)
        den = 1 + t * t
        ux, uy = (1 - t * t) / den, 2 * t / den
        ox = _rand_fraction(rng, -5, 5, 4)
        oy = _rand_fraction(rng, -5, 5, 4)
        pts = [Point(ox + x * ux, oy + x * uy) for x in (x1, x2, x3, x4)]
        cfg = QuadConfig(*pts)
        if cfg.distinct():
            return cfg


def gen_folded(seed_or_rng) -> QuadConfig:
    """Cyclic quadrilateral ABCD folded about the diagonal AC (D reflected),
    the standard family with R = 0, K = 0 and P > 0."""
    rng = _rng(seed_or_rng)
    while True:
        cfg = gen_cyclic(rng, "ABCD")
        folded = reflect_over_line(cfg, "D", ("A", "C"))
        if not folded.distinct():
            continue
        if classify_hull(folded).kind.startswith("collinear"):
            continue
        if r_condition_is_zero(folded.sextuple()):
            return folded


def _reflected_cyclic(rng: random.Random, order: str) -> QuadConfig:
    """A cyclic configuration in order ACBD or ACDB with C reflected across BD.

    A and C lie on the same arc cut off by BD, so the angles at A and C are
    equal and C's mirror image lands on A's far side of BD (so the four points
    stay distinct); by the reflection theorem the result satisfies the
    tilted-kite condition R_T = 0 exactly."""
    refl = reflect_over_line(gen_cyclic(rng, order), "C", ("B", "D"))
    if not rt_condition_is_zero(refl.sextuple()):
        raise GeometryError(f"reflected cyclic {order} configuration has "
                            "R_T != 0")
    return refl


def gen_reflected(seed_or_rng) -> QuadConfig:
    """Cyclic quadrilateral in order ACBD with C reflected across BD: the
    reflection family, satisfying the tilted-kite condition exactly."""
    rng = _rng(seed_or_rng)
    while True:
        refl = _reflected_cyclic(rng, "ACBD")
        if not classify_hull(refl).kind.startswith("collinear"):
            return refl


def gen_tilted_kite(seed_or_rng, convex: bool = True) -> QuadConfig:
    """Tilted kite (R_T = 0, equal angles at A and C) of the requested hull
    kind, built by the reflection theorem: a cyclic configuration in order
    ACBD or ACDB (chosen at random) with C reflected across BD.  A and the
    moved C lie on opposite sides of BD, so the hull is convex ABCD or a
    triangle with B or D interior; draws of the other kind are redrawn.
    """
    rng = _rng(seed_or_rng)
    want = "convex4" if convex else "concave3"
    while True:
        kite = _reflected_cyclic(rng, rng.choice(("ACBD", "ACDB")))
        if classify_hull(kite).kind == want:
            return kite


def random_quad(seed_or_rng, span: int = 40, max_den: int = 4) -> QuadConfig:
    """Four distinct random rational points (no structure imposed)."""
    rng = _rng(seed_or_rng)
    while True:
        pts = [Point(_rand_fraction(rng, -span, span, max_den),
                     _rand_fraction(rng, -span, span, max_den))
               for _ in range(4)]
        cfg = QuadConfig(*pts)
        if cfg.distinct():
            return cfg


# ---------------------------------------------------------------------------
# JSON and SVG interfaces
# ---------------------------------------------------------------------------

def config_to_obj(cfg: QuadConfig) -> dict:
    return {label: [str(p.x), str(p.y)]
            for label, p in zip("ABCD", cfg.points())}


def config_from_obj(obj) -> QuadConfig:
    if not isinstance(obj, dict):
        raise GeometryError("configuration JSON must be an object")
    pts = {}
    for label in "ABCD":
        if label not in obj:
            raise GeometryError(f"missing vertex {label}")
        pair = obj[label]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise GeometryError(f"vertex {label} must be [x, y]")
        pts[label] = Point(_frac(pair[0]), _frac(pair[1]))
    return QuadConfig(pts["A"], pts["B"], pts["C"], pts["D"])


def sextuple_to_obj(d: DistSextuple) -> dict:
    return {k: str(v) for k, v in zip(("qa", "qb", "qc", "qd", "qe", "qf"),
                                      d.as_tuple())}


def sextuple_from_obj(obj) -> DistSextuple:
    if not isinstance(obj, dict):
        raise GeometryError("sextuple JSON must be an object")
    vals = []
    for k in ("qa", "qb", "qc", "qd", "qe", "qf"):
        if k not in obj:
            raise GeometryError(f"missing squared distance {k}")
        vals.append(_frac(obj[k]))
    return DistSextuple(*vals)


def config_svg(cfg: QuadConfig, size: int = 440) -> str:
    """A labeled SVG drawing; vertex coordinates converted to float once."""
    pts = {label: (float(p.x), float(p.y))
           for label, p in zip("ABCD", cfg.points())}
    xs = [v[0] for v in pts.values()]
    ys = [v[1] for v in pts.values()]
    pad = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9) * 0.15
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    scale = size / max(x1 - x0, y1 - y0)

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale  # svg y axis points down

    def fmt(v: float) -> str:
        return f"{v:.6f}"

    w = fmt((x1 - x0) * scale)
    h = fmt((y1 - y0) * scale)
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
