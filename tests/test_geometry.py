import json
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from quadkit.geometry import (DistSextuple, GeometryError, Point, QuadConfig,
                              cayley_menger, classify_hull, cocircularity,
                              config_from_obj, config_svg, config_to_obj,
                              equal_angle_witness, gen_collinear_inorder,
                              gen_cyclic, gen_folded, gen_reflected,
                              gen_tilted_kite, midpoint_distances,
                              r_condition_is_zero, random_quad, reflect_over_line,
                              rt_condition_is_zero, same_cycle,
                              sextuple_from_obj, sextuple_to_obj, signed_areas,
                              sqdist, unit_circle_point)

SQUARE = QuadConfig.of((0, 0), (1, 0), (1, 1), (0, 1))
RECT34 = QuadConfig.of((0, 0), (4, 0), (4, 3), (0, 3))
CONCAVE = QuadConfig.of((0, 0), (2, 0), (1, 2), (1, Fraction(1, 2)))


def _mid(p, q):
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


# -- signed areas -------------------------------------------------------------

def test_signed_areas_square():
    ar = signed_areas(SQUARE)
    assert ar.as_tuple() == (1, 1, 1, 1)


def test_signed_areas_collinear_triple():
    cfg = QuadConfig.of((0, 0), (1, 0), (2, 0), (5, 7))
    assert signed_areas(cfg).abc == 0


def test_signed_areas_concave_example():
    ar = signed_areas(CONCAVE)
    assert ar.acd == Fraction(-3, 2)


def test_cofactor_identity_on_random_configs():
    rng = random.Random(2)
    for _ in range(200):
        ar = signed_areas(random_quad(rng))
        assert ar.abc - ar.abd + ar.acd - ar.bcd == 0


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

        moved = QuadConfig(*[move(p) for p in cfg.points()])
        assert classify_hull(moved) == base


def test_convex_iff_coupled_sign_products():
    rng = random.Random(10)
    for _ in range(300):
        cfg = random_quad(rng)
        ar = signed_areas(cfg)
        if 0 in ar.as_tuple():
            continue
        n = ar.abc * ar.acd
        m = ar.abd * ar.bcd
        convex = classify_hull(cfg).is_convex
        assert convex == ((n > 0 and m > 0) or (n < 0 and m < 0))


# -- determinants ---------------------------------------------------------------

def test_cayley_menger_planar_zero():
    rng = random.Random(4)
    for _ in range(100):
        assert cayley_menger(random_quad(rng).sextuple()) == 0


def test_cayley_menger_regular_tetrahedron():
    assert cayley_menger(DistSextuple(1, 1, 1, 1, 1, 1)) == 4  # 288/72
    assert cayley_menger(DistSextuple(4, 4, 4, 4, 4, 4)) == 256  # scales as L^6


def test_cayley_menger_scaling_law():
    rng = random.Random(6)
    for _ in range(30):
        qs = [Fraction(rng.randint(1, 50), rng.randint(1, 6)) for _ in range(6)]
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        cm1 = cayley_menger(DistSextuple(*qs))
        cm2 = cayley_menger(DistSextuple(*[lam * q for q in qs]))
        assert cm2 == lam ** 3 * cm1


def test_cocircularity_examples():
    assert cocircularity(SQUARE) == 0
    assert cocircularity(QuadConfig.of((0, 0), (1, 0), (2, 0), (3, 0))) == 0
    # (2,2) is off the circle through (0,0), (1,0), (0,1)
    assert cocircularity(QuadConfig.of((0, 0), (1, 0), (0, 1), (2, 2))) != 0


# -- midpoint distances ------------------------------------------------------------

def test_midpoint_distances_square():
    assert midpoint_distances(SQUARE.sextuple()) == (0, 1, 1)


def test_midpoint_distances_regular_tetrahedron():
    assert midpoint_distances(DistSextuple(1, 1, 1, 1, 1, 1)) == \
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
        midpoint_distances(DistSextuple(1, 1, 1, 1, 100, 1))


def test_sextuple_requires_positive():
    with pytest.raises(GeometryError):
        DistSextuple(0, 1, 1, 1, 1, 1)


# -- reflections ---------------------------------------------------------------------

def test_reflect_rectangle_example():
    folded = reflect_over_line(RECT34, "D", ("A", "C"))
    assert folded.D == Point(Fraction(72, 25), Fraction(-21, 25))
    assert sqdist(folded.D, folded.A) == 9    # |D'A| = 3 preserved
    assert sqdist(folded.D, folded.C) == 16   # |D'C| = 4 preserved
    assert sqdist(folded.B, folded.D) == Fraction(49, 25)


def test_reflection_is_involution():
    rng = random.Random(12)
    for _ in range(40):
        cfg = random_quad(rng)
        twice = reflect_over_line(reflect_over_line(cfg, "C", ("B", "D")),
                                  "C", ("B", "D"))
        assert twice == cfg


def test_reflection_fixes_points_on_line():
    cfg = QuadConfig.of((0, 0), (1, 0), (2, 0), (1, 1))
    assert reflect_over_line(cfg, "C", ("A", "B")).C == cfg.C


def test_reflection_rejects_degenerate_line():
    cfg = QuadConfig.of((0, 0), (0, 0), (1, 1), (2, 2))
    with pytest.raises(GeometryError):
        reflect_over_line(cfg, "C", ("A", "B"))


# -- generators ------------------------------------------------------------------------

def test_unit_circle_points_are_on_circle():
    for t in (Fraction(0), Fraction(1), Fraction(3), Fraction(-2),
              Fraction(7, 5)):
        p = unit_circle_point(t)
        assert p.x * p.x + p.y * p.y == 1


def test_gen_cyclic_orders_and_determinism():
    for order in ("ABCD", "ACBD", "ADBC"):
        cfg = gen_cyclic(101, order)
        assert cocircularity(cfg) == 0
        hull = classify_hull(cfg)
        assert hull.is_convex and same_cycle(hull.boundary, order)
    assert gen_cyclic(5) == gen_cyclic(5)
    with pytest.raises(GeometryError):
        gen_cyclic(0, "ABCE")


def test_gen_folded_has_supplementary_family_conditions():
    for seed in range(25):
        cfg = gen_folded(seed)
        assert r_condition_is_zero(cfg.sextuple())
        assert cayley_menger(cfg.sextuple()) == 0


def test_gen_tilted_kite_hull_kinds():
    for seed in range(12):
        cv = gen_tilted_kite(seed, convex=True)
        assert classify_hull(cv).is_convex
        d = cv.sextuple()
        assert rt_condition_is_zero(d) and equal_angle_witness(d)
        cc = gen_tilted_kite(seed, convex=False)
        h = classify_hull(cc)
        assert h.kind == "concave3"
        # equal angles sit at A and C, so the interior vertex is B or D
        assert h.interior in ("B", "D")
        assert rt_condition_is_zero(cc.sextuple())


def test_gen_reflected_satisfies_kite_condition():
    for seed in range(15):
        cfg = gen_reflected(seed)
        assert rt_condition_is_zero(cfg.sextuple())


def test_gen_collinear_inorder():
    cfg = gen_collinear_inorder(3)
    assert classify_hull(cfg).kind == "collinear4"


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
    d = DistSextuple(16, 9, 16, 9, 25, Fraction(49, 25))
    obj = sextuple_to_obj(d)
    assert obj["qf"] == "49/25"
    assert sextuple_from_obj(obj) == d


def test_svg_is_well_formed_and_labeled():
    svg = config_svg(RECT34)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert sorted(texts) == ["A", "B", "C", "D"]
