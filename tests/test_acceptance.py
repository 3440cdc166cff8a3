"""Acceptance suite: one test per criterion, each printed as a pass/fail line
(run with -s to see the lines on passing runs).  All checks are exact; the
stated runtime budgets are asserted."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from quadkit.certificates import (CERTIFIED, ELIM_TARGETS, TIER2_ONLY,
                                  cert_converse_ptolemy, cert_hull_tables,
                                  elimination_tier2)
from quadkit.conditions import (IDENTITY_NAMES, eval_condition,
                                midpoint_v_formulas, verify_identity)
from quadkit.geometry import (DistSextuple, QuadConfig, gen_cyclic,
                              gen_folded, gen_tilted_kite, midpoint_distances,
                              random_quad, reflect_over_line)
from quadkit.groebner import buchberger, normal_form, radical_membership, \
    s_polynomial
from quadkit.poly import GREVLEX, LEX, Polynomial, VarSet
from quadkit.radicals import RadicalValue


@contextmanager
def criterion(num: int, desc: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {num}] {desc}: FAIL")
        raise
    elapsed = time.monotonic() - t0
    ok = elapsed < budget_s
    print(f"[ACCEPTANCE {num}] {desc}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeded the {budget_s}s budget"


def test_criterion_1_identity_suite():
    with criterion(1, "eleven identities expand symbolically to zero", 5):
        for name in IDENTITY_NAMES:
            assert verify_identity(name), name
        assert len(IDENTITY_NAMES) == 11


def test_criterion_2_converse_ptolemy_certificate():
    cert = cert_converse_ptolemy(seed=20260810, timeout=600, samples=500)
    status_ok = cert.status in (CERTIFIED, TIER2_ONLY)
    print(f"[ACCEPTANCE 2] converse-of-Ptolemy certificate: "
          f"{'PASS' if status_ok else 'FAIL'} (status {cert.status}, "
          f"{cert.elapsed_ms} ms)")
    assert status_ok, cert.status
    assert cert.tier2["samples"] == 500
    assert cert.tier2["violations"] == 0
    if cert.status == CERTIFIED:
        assert cert.reduced_basis == ["1"]


def test_criterion_3_elimination_closed_forms():
    with criterion(3, "ten elimination closed forms on 1000 exact instances "
                      "each", 60):
        stats = elimination_tier2(list(ELIM_TARGETS), samples=1000,
                                  seed=20260810)
        for target, st in stats.items():
            assert st["samples"] >= 1000, (target, st)
            assert st["mismatches"] == 0, (target, st)
            assert st["sign_violations"] == 0, (target, st)


def test_criterion_4_folded_rectangle_worked_instance():
    with criterion(4, "folded 3-4 rectangle worked exact instance", 1):
        rect = QuadConfig.of((0, 0), (4, 0), (4, 3), (0, 3))
        folded = reflect_over_line(rect, "D", ("A", "C"))
        d = folded.sextuple()
        assert d == DistSextuple.of(16, 9, 16, 9, 25, Fraction(49, 25))
        assert eval_condition("R", d).is_zero
        assert eval_condition("K", d).is_zero
        assert eval_condition("P", d) == RadicalValue.from_rational(18)
        assert eval_condition("P", d).sign() == 1
        v1, v2 = midpoint_v_formulas(d)
        want = RadicalValue.from_rational(Fraction(12, 5))
        assert v1 == want and v2 == want
        A, B, C, D = folded.points()
        mid_ac = ((A.x + C.x) / 2, (A.y + C.y) / 2)
        mid_bd = ((B.x + D.x) / 2, (B.y + D.y) / 2)
        dist_sq = ((mid_ac[0] - mid_bd[0]) ** 2
                   + (mid_ac[1] - mid_bd[1]) ** 2)
        assert dist_sq == Fraction(144, 25)


def test_criterion_5_theorem_property_suites():
    with criterion(5, "five theorem property suites, 500 exact instances "
                      "each", 120):
        n = 500
        rng = random.Random(20260810)
        # (a) P vanishes on sequentially ordered cyclic configurations
        for i in range(n):
            cfg = gen_cyclic(rng, "ABCD" if i % 2 else "ADCB")
            assert eval_condition("P", cfg.sextuple()).is_zero

        # (b) K = 0 and S = 0 together are equivalent to P = 0
        for i in range(n):
            d = (gen_cyclic(rng).sextuple() if i % 2
                 else random_quad(rng).sextuple())
            p0 = eval_condition("P", d).is_zero
            ks0 = (eval_condition("K", d).is_zero
                   and eval_condition("S", d).is_zero)
            assert p0 == ks0

        # (c) R = 0 implies supplementary angles, K = 0
        for _ in range(n):
            d = gen_folded(rng).sextuple()
            assert eval_condition("R", d).is_zero
            assert eval_condition("K", d).is_zero

        # (d) R_T = 0 implies equal angles, K_T = 0
        for i in range(n):
            d = gen_tilted_kite(rng, convex=bool(i % 2)).sextuple()
            assert eval_condition("R_T", d).is_zero
            assert eval_condition("K_T", d).is_zero

        # (e) reflection biconditional: R_T after reflecting C over BD
        #     vanishes exactly when P_T*Q_T vanishes before
        done = 0
        while done < n // 2:
            cfg = gen_cyclic(rng, "ACBD")
            refl = reflect_over_line(cfg, "C", ("B", "D"))
            if not refl.distinct():
                continue
            done += 1
            assert eval_condition("Q_T", cfg.sextuple()).is_zero
            assert eval_condition("R_T", refl.sextuple()).is_zero
        done = 0
        while done < n - n // 2:
            cfg = random_quad(rng)
            d = cfg.sextuple()
            pq = eval_condition("P_T", d) * eval_condition("Q_T", d)
            if pq.is_zero:
                continue
            refl = reflect_over_line(cfg, "C", ("B", "D"))
            if not refl.distinct():
                continue
            done += 1
            assert not eval_condition("R_T", refl.sextuple()).is_zero


def test_criterion_6_hull_table_validation():
    with criterion(6, "hull tables vs orientation oracle on 1e5 samples", 60):
        cert = cert_hull_tables(seed=20260810, samples=100000)
        assert cert.status == "SUPPORTED"
        assert cert.tier2["samples"] == 100000
        assert cert.tier2["mismatches"] == 0
        assert cert.tier2["unrealizable_patterns"] == 0


def test_criterion_7_generalized_quadrilateral_theorem():
    with criterion(7, "midpoint-distance identities on 1000 planar configs "
                      "and the regular tetrahedron", 10):
        rng = random.Random(20260810)
        for _ in range(1000):
            cfg = random_quad(rng)
            v1, v2, v3 = midpoint_distances(cfg.sextuple())
            A, B, C, D = cfg.points()

            def midsq(p, q, r, s):
                mx = (p.x + q.x) / 2 - (r.x + s.x) / 2
                my = (p.y + q.y) / 2 - (r.y + s.y) / 2
                return mx * mx + my * my

            assert v1 == midsq(A, C, B, D)
            assert v2 == midsq(A, B, C, D)
            assert v3 == midsq(B, C, A, D)
        # integer-coordinate regular tetrahedron, side 2*sqrt(2)
        pts = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))

        def sq3(p, q):
            return Fraction(sum((a - b) ** 2 for a, b in zip(p, q)))

        A3, B3, C3, D3 = pts
        d = DistSextuple.of(sq3(A3, B3), sq3(B3, C3), sq3(C3, D3),
                            sq3(D3, A3), sq3(A3, C3), sq3(B3, D3))
        v1, v2, v3 = midpoint_distances(d)

        def midsq3(p, q, r, s):
            return Fraction(sum(
                (Fraction(p[i] + q[i], 2) - Fraction(r[i] + s[i], 2)) ** 2
                for i in range(3)))

        assert v1 == midsq3(A3, C3, B3, D3)
        assert v2 == midsq3(A3, B3, C3, D3)
        assert v3 == midsq3(B3, C3, A3, D3)
        # unit-squared-distance model: all three midpoint gaps are 1/2
        assert midpoint_distances(DistSextuple.of(1, 1, 1, 1, 1, 1)) == \
            (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_criterion_8_groebner_self_tests():
    with criterion(8, "Groebner engine self-tests", 10):
        XYZ = VarSet(("x", "y", "z"))
        XY = VarSet(("x", "y"))
        u, v, w = Polynomial.variables(XYZ)
        x, y = Polynomial.variables(XY)
        ideals = [[u + v + w, u*v + v*w + w*u, u*v*w - 1],
                  [x**2 + y**2 - 1, x*y - 2]]
        rng = random.Random(20260810)
        for gens in ideals:
            for order in (GREVLEX, LEX):
                baseline = buchberger(gens, order)
                for _ in range(5):
                    shuffled = gens[:]
                    rng.shuffle(shuffled)
                    assert buchberger(shuffled, order).texts() == \
                        baseline.texts()
                G = list(baseline.generators)
                for i in range(len(G)):
                    for j in range(i + 1, len(G)):
                        s = s_polynomial(G[i], G[j], order)
                        assert normal_form(s, G, order).is_zero
        assert radical_membership(x, [x * x])
        assert not radical_membership(y, [x])
