import hashlib
import json
import random
import signal
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadkit import certificates, conditions, geometry
from quadkit.certificates import (_degenerate_families, _hulls_agree,
                                  oracle_hull)
from quadkit.cli import main
from quadkit.conditions import (CONDITION_NAMES, condition_poly,
                                eval_condition, eval_polys_on_sextuple)
from quadkit.geometry import (DistSextuple, GeometryError, HullClass,
                              HullTableError, Point, QuadConfig, TRIANGLES,
                              cayley_menger, classify_hull,
                              cocircularity, config_from_obj, config_svg,
                              config_to_obj, gen_collinear_inorder,
                              gen_cyclic, gen_folded, gen_reflected,
                              gen_tilted_kite, hull_from_signs, hull_table,
                              midpoint_distances, random_quad,
                              reflect_over_line, same_cycle,
                              sextuple_from_obj, sextuple_to_obj)
from quadkit.poly import Polynomial, VarSet, det
from quadkit.radicals import RadicalValue

SQUARE = QuadConfig.of((0, 0), (1, 0), (1, 1), (0, 1))
RECT34 = QuadConfig.of((0, 0), (4, 0), (4, 3), (0, 3))
CONCAVE = QuadConfig.of((0, 0), (2, 0), (1, 2), (1, Fraction(1, 2)))


def _mid(p, q):
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def sqdist(p, q):
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


# -- signed areas -------------------------------------------------------------

def _areas(cfg):
    # twice the signed areas of ABC, ABD, BCD, ACD at the true coordinates
    return tuple(Fraction(cfg.cross(t), cfg.int_scale ** 2) for t in TRIANGLES)


def test_signed_areas_square():
    assert _areas(SQUARE) == (1, 1, 1, 1)


def test_signed_areas_collinear_triple():
    cfg = QuadConfig.of((0, 0), (1, 0), (2, 0), (5, 7))
    assert _areas(cfg)[0] == 0


def test_signed_areas_concave_example():
    assert _areas(CONCAVE)[3] == Fraction(-3, 2)


def test_cofactor_identity_on_random_configs():
    rng = random.Random(2)
    for _ in range(200):
        abc, abd, bcd, acd = _areas(random_quad(rng))
        assert abc - abd + acd - bcd == 0


# -- hull classification ------------------------------------------------------

def test_hull_square_and_concave_rows():
    assert classify_hull(SQUARE).boundary == "ABCD"
    h = classify_hull(CONCAVE)
    assert h.kind == "concave3" and h.boundary == "ABC" and h.interior == "D"


def test_hull_collinear_rows():
    assert classify_hull(QuadConfig.of((0, 0), (1, 0), (2, 0), (3, 0))).kind \
        == "collinear4"
    h = classify_hull(QuadConfig.of((0, 0), (1, 0), (2, 0), (3, 1)))
    assert h.kind == "collinear3" and h.triple == "ABC"


def test_hull_rejects_coincident_points():
    with pytest.raises(GeometryError):
        classify_hull(QuadConfig.of((0, 0), (0, 0), (1, 1), (2, 2)))


# one exact witness per realizable sign row (ABC, ABD, BCD, ACD): labelings
# of a square and of a triangle with one point inside
ROW_WITNESSES = {
    (1, 1, 1, 1): ((0, 0), (1, 0), (1, 1), (0, 1)),
    (1, 1, -1, -1): ((0, 0), (1, 0), (0, 1), (1, 1)),
    (1, -1, 1, -1): ((0, 0), (1, 1), (0, 1), (1, 0)),
    (1, 1, 1, -1): ((0, 0), (3, 0), (0, 3), ("2/3", "3/4")),
    (1, 1, -1, 1): ((0, 0), (3, 0), ("2/3", "3/4"), (0, 3)),
    (1, -1, 1, 1): (("2/3", "3/4"), (0, 0), (3, 0), (0, 3)),
    (1, -1, -1, -1): ((0, 0), ("2/3", "3/4"), (0, 3), (3, 0)),
    (-1, -1, -1, -1): ((0, 0), (0, 1), (1, 1), (1, 0)),
    (-1, -1, 1, 1): ((0, 0), (0, 1), (1, 0), (1, 1)),
    (-1, 1, -1, 1): ((0, 0), (1, 1), (1, 0), (0, 1)),
    (-1, -1, -1, 1): ((0, 0), (0, 3), (3, 0), ("2/3", "3/4")),
    (-1, -1, 1, -1): ((0, 0), (0, 3), ("2/3", "3/4"), (3, 0)),
    (-1, 1, -1, -1): (("2/3", "3/4"), (0, 0), (0, 3), (3, 0)),
    (-1, 1, 1, 1): ((0, 0), ("2/3", "3/4"), (3, 0), (0, 3)),
}


def test_one_witness_per_sign_row():
    table = hull_table()
    assert set(ROW_WITNESSES) == set(table)
    for signs, pts in ROW_WITNESSES.items():
        cfg = QuadConfig.of(*pts)
        assert tuple(cfg.orient(t) for t in ("ABC", "ABD", "BCD", "ACD")) \
            == signs
        hull = classify_hull(cfg)
        assert (hull.kind, hull.boundary) == table[signs]
        assert _hulls_agree(hull, oracle_hull(cfg))
    # the 16 rows with no zero: the 14 table keys and two impossible rows
    outside = {(1, -1, -1, 1), (-1, 1, 1, -1)}
    for signs in outside:
        with pytest.raises(HullTableError):
            hull_from_signs(signs)
    assert set(product((-1, 1), repeat=4)) == set(table) | outside
    assert len(table) == 14


def test_accepted_sign_rows_are_those_of_distinct_points():
    # the rule behind hull_from_signs: the doubled areas, each a 3x3
    # determinant of symbolic coordinates, satisfy
    # [ABC] - [ABD] + [ACD] - [BCD] = 0 identically
    names = VarSet(c + v for v in "ABCD" for c in "xy")
    one = Polynomial.one(names)
    coords = Polynomial.variables(names)
    xy = {v: coords[2 * i:2 * i + 2] for i, v in enumerate("ABCD")}
    area = {t: det([[*xy[v], one] for v in t])
            for t in ("ABC", "ABD", "BCD", "ACD")}
    assert area["ABC"] - area["ABD"] + area["ACD"] - area["BCD"] == \
        Polynomial.zero(names)
    # every ordered quadruple of distinct points of the 4x4 integer grid,
    # signed by its own integer cross products, realizes exactly the rows
    # the tables accept
    realized = set()
    for (ax, ay), (bx, by), (cx, cy), (dx, dy) in permutations(
            product(range(4), repeat=2), 4):
        crosses = ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax),
                   (bx - ax) * (dy - ay) - (by - ay) * (dx - ax),
                   (cx - bx) * (dy - by) - (cy - by) * (dx - bx),
                   (cx - ax) * (dy - ay) - (cy - ay) * (dx - ax))
        realized.add(tuple((v > 0) - (v < 0) for v in crosses))
    accepted = set()
    for signs in product((-1, 0, 1), repeat=4):
        try:
            hull_from_signs(signs)
        except HullTableError:
            continue
        accepted.add(signs)
    assert realized == accepted
    assert len(accepted) == 39


def test_hull_invariant_under_rigid_motions_and_scaling():
    rng = random.Random(9)
    for _ in range(60):
        cfg = random_quad(rng)
        base = classify_hull(cfg)
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        den = 1 + t * t
        ca, sa = (1 - t * t) / den, 2 * t / den  # rational rotation
        ox = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
        oy = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
        lam = Fraction(rng.randint(1, 12), rng.randint(1, 6))

        def move(p):
            return Point(lam * (ca * p.x - sa * p.y) + ox,
                         lam * (sa * p.x + ca * p.y) + oy)

        moved = QuadConfig.of(*[move(p) for p in cfg.points()])
        assert classify_hull(moved) == base


def test_convex_iff_coupled_sign_products():
    rng = random.Random(10)
    for _ in range(300):
        cfg = random_quad(rng)
        abc, abd, bcd, acd = _areas(cfg)
        if 0 in (abc, abd, bcd, acd):
            continue
        n = abc * acd
        m = abd * bcd
        convex = classify_hull(cfg).kind == "convex4"
        assert convex == ((n > 0 and m > 0) or (n < 0 and m < 0))


def _fraction_orient(p, q, r):
    # reference orientation: the cross product in Fractions
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (d > 0) - (d < 0)


def _reference_hull(cfg):
    """The sign-table hull read from Fraction orientations."""
    pts = dict(zip("ABCD", cfg.points()))
    names = ("ABC", "ABD", "BCD", "ACD")
    signs = tuple(_fraction_orient(*(pts[v] for v in t)) for t in names)
    flat = [t for t, sg in zip(names, signs) if sg == 0]
    if len(flat) == 4:
        return HullClass("collinear4")
    if flat:
        return HullClass("collinear3", triple=flat[0])
    kind, ring = hull_table()[signs]
    if kind == "convex4":
        return HullClass(kind, boundary=ring)
    return HullClass(kind, boundary=ring,
                     interior=next(v for v in "ABCD" if v not in ring))


def _wide_fraction(rng):
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))


def _orientation_cases():
    rng = random.Random(61)
    for _ in range(150):  # denominators up to 10^6
        yield QuadConfig.of(*[Point(_wide_fraction(rng), _wide_fraction(rng))
                              for _ in range(4)])
    for i in range(150):  # an exact collinear triple, then a free point
        a = Point(_wide_fraction(rng), _wide_fraction(rng))
        b = Point(_wide_fraction(rng), _wide_fraction(rng))
        t, u = _wide_fraction(rng), _wide_fraction(rng)
        line = [a, b, Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))]
        free = Point(_wide_fraction(rng), _wide_fraction(rng))
        if i % 5 == 0:  # or all four on the line
            free = Point(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y))
        pts = line + [free]
        rng.shuffle(pts)
        yield QuadConfig.of(*pts)
    for _ in range(40):
        yield gen_collinear_inorder(rng)
    for family in ("R", "R_T"):  # the degenerate placements
        for row in _degenerate_families()[family][3]:
            for _ in range(20):
                h = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
                k = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
                x = 2 * h + Fraction(rng.randint(1, 10 ** 6),
                                     rng.randint(1, 10 ** 6))
                if family == "R_T":  # inside AC, off the apex's foot
                    x = h * Fraction(rng.choice((rng.randint(1, 499),
                                                 rng.randint(501, 999))), 500)
                yield QuadConfig.of(*row[1](h, k, x))


def test_integer_orientation_matches_fraction_cross_product():
    kinds = set()
    for cfg in _orientation_cases():
        pts = dict(zip("ABCD", cfg.points()))
        for tri in permutations("ABCD", 3):
            assert cfg.orient("".join(tri)) == \
                _fraction_orient(*(pts[v] for v in tri))
        assert cfg.distinct()
        ref = _reference_hull(cfg)
        assert classify_hull(cfg) == ref
        assert _hulls_agree(oracle_hull(cfg), ref)
        kinds.add(ref.kind)
    assert kinds == {"convex4", "concave3", "collinear3", "collinear4"}


def test_distinct_matches_point_inequality_on_unreduced_inputs():
    pool = ("1/2", "2/4", "-3/6", "-1/2", "0", "0/7", "1", "3/3", "7/10",
            "700000/1000000")
    rng = random.Random(62)
    seen = set()
    for _ in range(400):
        cfg = QuadConfig.of(*[(rng.choice(pool), rng.choice(pool))
                              for _ in range(4)])
        pts = cfg.points()
        pairwise = all(pts[i] != pts[j]
                       for i in range(4) for j in range(i + 1, 4))
        assert cfg.distinct() == pairwise
        seen.add(pairwise)
    assert seen == {True, False}
    assert not QuadConfig.of(("1/2", 0), ("2/4", "0/3"), (1, 1),
                             (2, 2)).distinct()
    assert QuadConfig.of(("1/2", 0), ("2/3", 0), (1, 1), (2, 2)).distinct()


_DRAWS = (lambda r: gen_cyclic(r, r.choice(("ABCD", "ACBD", "ADCB"))),
          gen_folded, gen_reflected, gen_tilted_kite,
          lambda r: gen_tilted_kite(r, convex=False),
          gen_collinear_inorder, random_quad,
          lambda r: random_quad(r, span=100, max_den=30),
          certificates._parallelogram, certificates._rhombus,
          certificates._symmetric_kite,
          lambda r: certificates._ray_kite(r, convex=True),
          lambda r: certificates._ray_kite(r, convex=False))


def test_every_configuration_holds_its_one_reduced_encoding():
    # rebuilt from its Fraction points, each generated configuration is the
    # same value: its integer points and scale share no factor
    rng = random.Random(27)
    for draw in _DRAWS:
        for _ in range(25):
            cfg = draw(rng)
            assert QuadConfig.of(*cfg.points()) == cfg
            assert gcd(cfg.int_scale,
                       *(c for p in cfg.int_points for c in p)) == 1
    cfg = QuadConfig(((2, 4), (6, 0), (0, 8), (4, 4)), 4)
    assert cfg.int_points == ((1, 2), (3, 0), (0, 4), (2, 2))
    assert cfg.int_scale == 2
    assert cfg == QuadConfig.of(("1/2", 1), ("3/2", 0), (0, 2), (1, 1))
    assert cfg.points() == (Point(Fraction(1, 2), Fraction(1)),
                            Point(Fraction(3, 2), Fraction(0)),
                            Point(Fraction(0), Fraction(2)),
                            Point(Fraction(1), Fraction(1)))
    for scale in (0, -2):
        with pytest.raises(GeometryError, match="scale must be >= 1"):
            QuadConfig(((0, 0), (1, 0), (0, 1), (1, 1)), scale)
    for vertex in ("a", "AB", "E"):
        with pytest.raises(GeometryError, match="vertex must be"):
            reflect_over_line(cfg, vertex, ("B", "D"))


def test_every_sextuple_holds_its_one_reduced_encoding():
    # rebuilt from its Fraction entries, each generated configuration's
    # sextuple is the same value: its integer entries and scale share no
    # factor
    rng = random.Random(28)
    for draw in _DRAWS:
        for _ in range(25):
            d = draw(rng).sextuple()
            assert gcd(d.int_scale, *d.int_q) == 1
            assert DistSextuple.of(*d.as_tuple()) == d
    d = DistSextuple((2, 4, 6, 8, 10, 12), 4)
    assert (d.int_q, d.int_scale) == ((1, 2, 3, 4, 5, 6), 2)
    assert d == DistSextuple.of("1/2", 1, "3/2", 2, "5/2", 3)
    assert d.as_tuple() == (d.qa, d.qb, d.qc, d.qd, d.qe, d.qf) == tuple(
        Fraction(q, 2) for q in range(1, 7))
    with pytest.raises(GeometryError, match="scale must be >= 1"):
        DistSextuple((1, 1, 1, 1, 1, 1), 0)
    for zero in (lambda: DistSextuple((1, 1, 0, 1, 1, 1), 1),
                 lambda: DistSextuple.of(1, 1, 0, 1, 1, 1)):
        with pytest.raises(GeometryError, match="squared distance qc must"):
            zero()
    for bad in (True, 1.5):
        with pytest.raises(GeometryError, match="squared distance qb .* not "
                           "exact"):
            DistSextuple.of(1, bad, 1, 1, 1, 1)


def test_drawn_configurations_never_parse_input(monkeypatch, capsys):
    # the input checks of `QuadConfig.of` and `DistSextuple.of` are for
    # parsed input: every claim, family and the self-check builds on integers
    def refuse(*args, **kwargs):
        raise AssertionError("a drawn value went through the input parser")

    monkeypatch.setattr(QuadConfig, "of", refuse)
    monkeypatch.setattr(DistSextuple, "of", refuse)
    monkeypatch.setattr(geometry, "_frac", refuse)
    monkeypatch.setattr(conditions, "_SELF_CHECK_DONE", False)
    conditions.run_self_check()
    certs = certificates.run_certificates(timeout=0, samples=20)
    assert len(certs) == 16
    assert all(c.status != certificates.FAILED for c in certs), certs
    for family in ("cyclic", "tilted_kite", "folded", "reflected"):
        assert main(["generate", family, "--count", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 20


# -- determinants ---------------------------------------------------------------

def test_cayley_menger_planar_zero():
    rng = random.Random(4)
    for _ in range(100):
        assert cayley_menger(random_quad(rng).sextuple()) == 0


def test_cayley_menger_regular_tetrahedron():
    assert cayley_menger(DistSextuple.of(1, 1, 1, 1, 1, 1)) == 4  # 288/72
    assert cayley_menger(DistSextuple.of(4, 4, 4, 4, 4, 4)) == 256  # scales as L^6


def test_cayley_menger_scaling_law():
    rng = random.Random(6)
    for _ in range(30):
        qs = [Fraction(rng.randint(1, 50), rng.randint(1, 6)) for _ in range(6)]
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        cm1 = cayley_menger(DistSextuple.of(*qs))
        cm2 = cayley_menger(DistSextuple.of(*[lam * q for q in qs]))
        assert cm2 == lam ** 3 * cm1


def test_cocircularity_examples():
    assert cocircularity(SQUARE) == 0
    assert cocircularity(QuadConfig.of((0, 0), (1, 0), (2, 0), (3, 0))) == 0
    # (2,2) is off the circle through (0,0), (1,0), (0,1)
    assert cocircularity(QuadConfig.of((0, 0), (1, 0), (0, 1), (2, 2))) != 0


def _fraction_det(rows):
    # cofactor expansion on Fraction entries, independent of quadkit.poly.det
    if len(rows) == 1:
        return Fraction(rows[0][0])
    return sum((-1) ** j * Fraction(a)
               * _fraction_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]))


def _cm_reference(qa, qb, qc, qd, qe, qf):
    return _fraction_det([[0, 1, 1, 1, 1], [1, 0, qa, qe, qd],
                          [1, qa, 0, qb, qf], [1, qe, qb, 0, qc],
                          [1, qd, qf, qc, 0]])


def _cocircularity_reference(cfg):
    return _fraction_det([[p.x * p.x + p.y * p.y, p.x, p.y, 1]
                          for p in cfg.points()])


def test_integer_determinants_match_fraction_cofactor_reference():
    rng = random.Random(19)

    def q():
        return Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))

    for _ in range(200):
        qs = [q() for _ in range(6)]
        assert cayley_menger(DistSextuple.of(*qs)) == _cm_reference(*qs)
        cfg = QuadConfig.of(*(Point(q() - q(), q() - q()) for _ in range(4)))
        assert cocircularity(cfg) == _cocircularity_reference(cfg)
        assert cayley_menger(cfg.sextuple()) == 0
    # DistSextuple refuses a zero entry, but the determinant is defined
    # there: a stand-in with the same int_q and int_scale reaches it
    for _ in range(20):
        qs = [Fraction(0)] + [q() for _ in range(5)]
        rng.shuffle(qs)
        s = lcm(*(x.denominator for x in qs))
        stub = SimpleNamespace(int_q=[int(x * s) for x in qs], int_scale=s)
        assert cayley_menger(stub) == _cm_reference(*qs)
    # collinear points: on one line, both determinants vanish
    for _ in range(20):
        a, b, c = q(), q(), q()
        cfg = QuadConfig.of(*(Point(x, a * x + b)
                              for x in (c, c + 1, q(), -q())))
        assert cocircularity(cfg) == _cocircularity_reference(cfg) == 0
        assert cayley_menger(cfg.sextuple()) == _cm_reference(
            *cfg.sextuple().as_tuple()) == 0


# -- midpoint distances ------------------------------------------------------------

def test_midpoint_distances_square():
    assert midpoint_distances(SQUARE.sextuple()) == (0, 1, 1)


def test_midpoint_distances_regular_tetrahedron():
    assert midpoint_distances(DistSextuple.of(1, 1, 1, 1, 1, 1)) == \
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_midpoint_distances_against_coordinates():
    rng = random.Random(8)
    for _ in range(200):
        cfg = random_quad(rng)
        v1, v2, v3 = midpoint_distances(cfg.sextuple())
        A, B, C, D = cfg.points()
        assert v1 == sqdist(_mid(A, C), _mid(B, D))
        assert v2 == sqdist(_mid(A, B), _mid(C, D))
        assert v3 == sqdist(_mid(B, C), _mid(A, D))


def test_midpoint_distances_unrealizable():
    with pytest.raises(GeometryError):
        midpoint_distances(DistSextuple.of(1, 1, 1, 1, 100, 1))


def test_sextuple_requires_positive():
    with pytest.raises(GeometryError):
        DistSextuple.of(0, 1, 1, 1, 1, 1)


# -- reflections ---------------------------------------------------------------------

def test_reflect_rectangle_example():
    folded = reflect_over_line(RECT34, "D", ("A", "C"))
    A, B, C, D = folded.points()
    assert D == Point(Fraction(72, 25), Fraction(-21, 25))
    assert sqdist(D, A) == 9    # |D'A| = 3 preserved
    assert sqdist(D, C) == 16   # |D'C| = 4 preserved
    assert sqdist(B, D) == Fraction(49, 25)


def test_reflection_is_involution():
    rng = random.Random(12)
    for _ in range(40):
        cfg = random_quad(rng)
        twice = reflect_over_line(reflect_over_line(cfg, "C", ("B", "D")),
                                  "C", ("B", "D"))
        assert twice == cfg


def test_reflection_fixes_points_on_line():
    cfg = QuadConfig.of((0, 0), (1, 0), (2, 0), (1, 1))
    moved = reflect_over_line(cfg, "C", ("A", "B"))
    assert moved.points()[2] == cfg.points()[2]


def _reference_reflect_point(p, l1, l2):
    # the Fraction form of the reflection, kept as a reference
    dx, dy = l2.x - l1.x, l2.y - l1.y
    nx, ny = -dy, dx
    t = ((p.x - l1.x) * nx + (p.y - l1.y) * ny) / (nx * nx + ny * ny)
    return Point(p.x - 2 * t * nx, p.y - 2 * t * ny)


_coords = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@settings(max_examples=200, deadline=None)
@given(st.lists(_coords, min_size=8, max_size=8),
       st.sampled_from(["free", "horizontal", "vertical"]),
       st.sampled_from([("C", ("B", "D")), ("D", ("A", "C")),
                        ("A", ("D", "B"))]))
def test_reflection_matches_fraction_reference(coords, line_kind, move):
    vertex, (u, v) = move
    pts = {label: Point(coords[2 * i], coords[2 * i + 1])
           for i, label in enumerate("ABCD")}
    if line_kind == "horizontal":
        pts[v] = Point(pts[v].x, pts[u].y)
    elif line_kind == "vertical":
        pts[v] = Point(pts[u].x, pts[v].y)
    cfg = QuadConfig.of(**pts)
    if pts[u] == pts[v]:
        with pytest.raises(GeometryError):
            reflect_over_line(cfg, vertex, (u, v))
        return
    want = _reference_reflect_point(pts[vertex], pts[u], pts[v])
    assert reflect_over_line(cfg, vertex, (u, v)) == QuadConfig.of(
        **{**pts, vertex: want})


def test_reflection_rejects_degenerate_line():
    cfg = QuadConfig.of((0, 0), (0, 0), (1, 1), (2, 2))
    with pytest.raises(GeometryError):
        reflect_over_line(cfg, "C", ("A", "B"))


@pytest.mark.parametrize("vertex, line", [("E", ("B", "D")),
                                          ("C", ("B", "x"))])
def test_reflection_rejects_unknown_label(vertex, line):
    with pytest.raises(GeometryError, match="vertex must be"):
        reflect_over_line(SQUARE, vertex, line)


# -- generators ------------------------------------------------------------------------

def test_unit_circle_points_are_on_circle():
    for n, d in ((0, 1), (1, 1), (3, 1), (-2, 1), (7, 5), (6, 4)):
        x, y, w = geometry._circle_ints(n, d)
        assert x * x + y * y == w * w and w > 0


@settings(max_examples=200, deadline=None)
@given(st.fractions(max_denominator=10 ** 6))
def test_unit_circle_point_matches_formula(t):
    # the tangent half-angle parametrization, read off the integer triple
    x, y, w = geometry._circle_ints(t.numerator, t.denominator)
    assert (Fraction(x, w), Fraction(y, w)) == ((1 - t * t) / (1 + t * t),
                                                2 * t / (1 + t * t))


def test_gen_cyclic_orders_and_determinism():
    for order in ("ABCD", "ACBD", "ADBC"):
        cfg = gen_cyclic(101, order)
        assert cocircularity(cfg) == 0
        hull = classify_hull(cfg)
        assert hull.kind == "convex4" and same_cycle(hull.boundary, order)
    assert gen_cyclic(5) == gen_cyclic(5)
    with pytest.raises(GeometryError):
        gen_cyclic(0, "ABCE")


def test_gen_folded_has_supplementary_family_conditions():
    for seed in range(25):
        cfg = gen_folded(seed)
        assert eval_condition("R", cfg.sextuple()).is_zero
        assert cayley_menger(cfg.sextuple()) == 0


def test_gen_tilted_kite_hull_kinds():
    for seed in range(12):
        cv = gen_tilted_kite(seed, convex=True)
        assert classify_hull(cv).kind == "convex4"
        d = cv.sextuple()
        assert (eval_condition("R_T", d).is_zero
                and eval_condition("K_T", d).is_zero)
        cc = gen_tilted_kite(seed, convex=False)
        h = classify_hull(cc)
        assert h.kind == "concave3"
        # equal angles sit at A and C, so the interior vertex is B or D
        assert h.interior in ("B", "D")
        assert eval_condition("R_T", cc.sextuple()).is_zero


def test_gen_reflected_satisfies_kite_condition():
    for seed in range(15):
        cfg = gen_reflected(seed)
        assert eval_condition("R_T", cfg.sextuple()).is_zero


def test_gen_tilted_kite_reflection_construction():
    # exact R_T = 0 and equal angles, the requested hull kind with B or D
    # interior when concave, and kites from both cyclic orders: ACBD leaves
    # A, B, D counterclockwise, ACDB clockwise.  About 0.2 s on a 2-core Xeon.
    rng = random.Random(4)
    t0 = time.perf_counter()
    kites = [gen_tilted_kite(rng, convex=bool(i % 2)) for i in range(400)]
    elapsed = time.perf_counter() - t0
    orders = set()
    for i, kite in enumerate(kites):
        d = kite.sextuple()
        assert (eval_condition("R_T", d).is_zero
                and eval_condition("K_T", d).is_zero)
        hull = classify_hull(kite)
        if i % 2:
            assert hull.kind == "convex4"
        else:
            assert hull.kind == "concave3" and hull.interior in ("B", "D")
        orders.add(_areas(kite)[1] > 0)
    assert orders == {True, False}
    assert elapsed < 2.0


class _Runaway(Exception):
    """A generator went on drawing after its construction check failed."""


@pytest.mark.parametrize("make, condition", [
    (gen_folded, "R"),
    (gen_reflected, "R_T"),
    (lambda rng: gen_tilted_kite(rng, convex=False), "R_T"),
    (lambda rng: certificates._ray_kite(rng, convex=True), "K_T"),
    (lambda rng: certificates._ray_kite(rng, convex=True), "R_T"),
], ids=["folded", "reflected", "tilted_kite", "ray_kite", "ray_kite_R_T"])
def test_broken_construction_raises_on_first_accepted_draw(monkeypatch, make,
                                                           condition):
    # the family's condition is stubbed never to vanish (the ray kite's
    # other asserted condition, evaluated in the same batch, still sees the
    # true value): the generator must raise on the first draw its integer
    # tests accept, and not draw again; the sentinel after 50 evaluations
    # stops a generator that would loop forever
    calls = []
    names = {id(condition_poly(n)): n for n in CONDITION_NAMES}

    def broken(name):
        calls.append(name)
        if len(calls) > 50:
            raise _Runaway(calls.count(condition))
        return name == condition

    def stub(name, d):
        if broken(name):
            return SimpleNamespace(is_zero=False)
        return eval_condition(name, d)

    def stub_batch(polys, d):
        return [RadicalValue.from_rational(1) if broken(names.get(id(p)))
                else v for p, v in zip(polys, eval_polys_on_sextuple(polys, d))]

    monkeypatch.setattr(conditions, "eval_condition", stub)
    monkeypatch.setattr(certificates, "eval_condition", stub)
    monkeypatch.setattr(certificates, "eval_polys_on_sextuple", stub_batch)
    with pytest.raises(GeometryError, match=f"{condition} != 0"):
        make(random.Random(1))
    assert calls.count(condition) == 1


def test_tilted_kite_evaluates_its_condition_once_per_kite(monkeypatch):
    # the hull test runs before the exact R_T test, so only the kite
    # returned is evaluated (876 evaluations when every draw was)
    calls = []

    def counted(name, d):
        calls.append(name)
        return eval_condition(name, d)

    monkeypatch.setattr(conditions, "eval_condition", counted)
    rng = random.Random(3)
    for i in range(400):
        gen_tilted_kite(rng, convex=bool(i % 2))
    assert calls == ["R_T"] * 400


def test_gen_collinear_inorder():
    cfg = gen_collinear_inorder(3)
    assert classify_hull(cfg).kind == "collinear4"


def test_gen_collinear_inorder_stream_pinned():
    # recorded before the line moved to integer points: 200 configurations,
    # then the next 64 bits, so the rng calls are pinned too
    want = {0: "dd797ea5b26fed8534f2a6df6492de6d"
               "42a51958f8472dad48b8f3e41ca897ad",
            499: "98151cd96bf3e2686f641023dbeec763"
                 "4c5be91ecf88f51c2dd53ab24212b340"}
    for seed, digest in want.items():
        rng = random.Random(seed)
        h = hashlib.sha256()
        for _ in range(200):
            h.update(json.dumps(config_to_obj(gen_collinear_inorder(rng)))
                     .encode())
        h.update(str(rng.getrandbits(64)).encode())
        assert h.hexdigest() == digest, seed


def test_gen_cyclic_streams_pinned():
    # recorded before the circle parameters moved to integers: 200
    # configurations in each order, then the next 64 bits
    want = {"ABCD": "bbecf12e9bf3583f88816428097e7973"
                    "b4ea75862b3913ada8fb1e6f8216aad7",
            "ADCB": "68b38dd3e9930e233e2e4f48e01d2017"
                    "28ce118e806889db71601f5a4af60629",
            "ACBD": "47c660d067b670e4788a9b620ae9b72e"
                    "0e468b15707caab14ac3c8907fda2bf6",
            "ACDB": "bdd770adec6037b5238bffa3e47ea1c3"
                    "fbcb35a4456500aac09618523bbd4ffb"}
    for order, digest in want.items():
        rng = random.Random(order)
        h = hashlib.sha256()
        for _ in range(200):
            cfg = gen_cyclic(rng, order)
            h.update(repr((cfg.int_points, cfg.int_scale)).encode())
        h.update(str(rng.getrandbits(64)).encode())
        assert h.hexdigest() == digest, order


def _draw_quad_by_randint(rng, span, max_den):
    """`geometry._draw_quad` as it reads on `rng.randint`: the reference
    stream its written-out rejection loop must repeat."""
    while True:
        draw = [(rng.randint(-span, span), rng.randint(1, max_den))
                for _ in range(8)]
        scale = lcm(*(d for _, d in draw))
        ints = [n * (scale // d) for n, d in draw]
        pts = tuple(zip(ints[::2], ints[1::2]))
        if len(set(pts)) == 4:
            return pts, scale


def test_draw_quad_repeats_the_randint_stream():
    # the spans and denominator bounds cross the powers of two where the
    # bit length of the range's size changes
    for span, max_den in product((1, 3, 8, 31, 32, 40, 63, 64, 1000),
                                 (1, 2, 3, 4, 8, 16, 100)):
        seed = span * 1000 + max_den
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(300):
            assert (geometry._draw_quad(ours, span, max_den)
                    == _draw_quad_by_randint(ref, span, max_den)), \
                (span, max_den)
        assert ours.getrandbits(64) == ref.getrandbits(64), (span, max_den)


def test_randint_repeats_rng_randint():
    # widths 1 to 2**40 + 1 cross the powers of two where the bit length of
    # the range's size changes; randint(1, 1) still takes a bit per draw
    bounds = [(1, 1), (0, 1), (-5, 5), (1, 4), (1, 8), (1, 9), (-40, 40),
              (1, 30), (-8, 8), (7, 7 + 2 ** 40)]
    bounds += [(lo, lo + w - 1) for w in (2, 3, 4, 5, 15, 16, 17, 63, 64, 65)
               for lo in (-3, 0, 2)]
    for seed in range(3):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(40):
            for lo, hi in bounds:
                assert geometry._randint(ours, lo, hi) == ref.randint(lo, hi)
        assert ours.getrandbits(64) == ref.getrandbits(64), seed


@pytest.mark.parametrize("lo, hi", [(1, 0), (5, -5)])
def test_randint_refuses_an_empty_range(lo, hi):
    with pytest.raises(GeometryError, match="empty range"):
        geometry._randint(random.Random(1), lo, hi)


def _refused_at_once(match, **bounds):
    """random_quad with `bounds` raises GeometryError within 1 s, before
    any draw."""
    def expire(signum, frame):
        raise AssertionError("random_quad ran past 1 s")
    rng = random.Random(5)
    state = rng.getstate()
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(GeometryError, match=match):
            random_quad(rng, **bounds)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert rng.getstate() == state


@pytest.mark.parametrize("span", [0, -3])
def test_random_quad_refuses_empty_span_at_once(span):
    # span 0 can only draw the origin, so the redraw loop never ended
    _refused_at_once("span", span=span)


@pytest.mark.parametrize("max_den", [0, -2])
def test_random_quad_refuses_empty_denominator_range_at_once(max_den):
    # getrandbits(0) is always 0, so the denominator's rejection loop would
    # never end
    _refused_at_once("max_den", max_den=max_den)


# -- JSON / SVG -----------------------------------------------------------------------------

def test_config_json_round_trip():
    obj = config_to_obj(RECT34)
    assert obj["C"] == ["4", "3"]
    assert config_from_obj(json.loads(json.dumps(obj))) == RECT34
    with pytest.raises(GeometryError):
        config_from_obj({"A": [0, 0], "B": [1, 0], "C": [1, 1]})
    with pytest.raises(GeometryError):
        config_from_obj({"A": [0.5, 0], "B": [1, 0], "C": [1, 1], "D": [0, 1]})


def test_sextuple_json_round_trip():
    d = DistSextuple.of(16, 9, 16, 9, 25, Fraction(49, 25))
    obj = sextuple_to_obj(d)
    assert obj["qf"] == "49/25"
    assert sextuple_from_obj(obj) == d


def test_svg_is_well_formed_and_labeled():
    svg = config_svg(RECT34)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert sorted(texts) == ["A", "B", "C", "D"]
