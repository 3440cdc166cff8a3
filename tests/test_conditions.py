import hashlib
import random
import time
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadkit import conditions, radicals
from quadkit.certificates import _elim_targets
from quadkit.conditions import (CONDITION_NAMES, DIST_VARS,
                                condition_poly, eval_condition,
                                eval_ints_on_sextuple, eval_poly_on_sextuple,
                                eval_polys_on_sextuple, identity_poly,
                                midpoint_v_formulas,
                                run_self_check, verify_all_identities,
                                verify_identity)
from quadkit.geometry import (DistSextuple, QuadConfig, gen_cyclic,
                              gen_folded, gen_tilted_kite, random_quad,
                              reflect_over_line)
from quadkit.poly import Polynomial, VarSet
from quadkit.radicals import RadicalValue, sqrt_rational

FOLDED_RECT = DistSextuple.of(16, 9, 16, 9, 25, Fraction(49, 25))


# the paper's formulas as text, read by sympy: an independent reader of the
# rows that `conditions` writes with Polynomial operators
PAPER_FORMULAS = {
    "P": "a*c + b*d - e*f",
    "Q": "a*c + b*d + e*f",
    "S": "e*(a*b + c*d) - f*(a*d + b*c)",
    "K": "e^2*(a*b + c*d) - (a^2 + b^2)*c*d - (c^2 + d^2)*a*b",
    "R": "(b*c + a*d)^2 - e^2*(a^2 + b^2 + c^2 + d^2 - e^2 - f^2)",
    "W": "a*c*(-a^2 - c^2 + b^2 + d^2 + e^2 + f^2)"
         " + b*d*(a^2 + c^2 - b^2 - d^2 + e^2 + f^2)"
         " - e*f*(a^2 + c^2 + b^2 + d^2 - e^2 - f^2)",
    "P_T": "a*c - b*d + e*f",
    "Q_T": "a*c - b*d - e*f",
    "R_T": "(a*b - c*d)^2 - f^2*(a^2 + b^2 + c^2 + d^2 - e^2 - f^2)",
    "K_T": "f^2*(b*c - a*d) - b*c*(a^2 + d^2) + a*d*(b^2 + c^2)",
    "S_T": "f*(b*c - a*d) - e*(c*d - a*b)",
    "W_T": "a*c*(-a^2 + b^2 - c^2 + d^2 + e^2 + f^2)"
           " - b*d*(a^2 - b^2 + c^2 - d^2 + e^2 + f^2)"
           " + e*f*(a^2 + b^2 + c^2 + d^2 - e^2 - f^2)",
    "K_1": "(a*d + b*c)*f^2 - (a^2 + d^2)*b*c - (b^2 + c^2)*a*d",
    "R_1": "(a*b + c*d)^2 - f^2*(a^2 + b^2 + c^2 + d^2 - e^2 - f^2)",
    "K_G": "(a*f - c*e)*d^2 + c*e*(a^2 + f^2) - (c^2 + e^2)*a*f",
    "Q_G": "-a*c + b*d + e*f",
    "R_G": "(a^2 - b^2 + c^2 - d^2 + e^2 + f^2)*d^2 - (a*e - c*f)^2",
}


def test_condition_table_matches_the_paper_formulas():
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                            standard_transformations)
    assert set(PAPER_FORMULAS) == set(CONDITION_NAMES) - {"CM"}
    syms = sympy.symbols(DIST_VARS.names)
    for name, text in PAPER_FORMULAS.items():
        expr = parse_expr(text, local_dict=dict(zip(DIST_VARS.names, syms)),
                          transformations=standard_transformations
                          + (convert_xor,))
        terms = {m: Fraction(int(c)) for m, c in
                 sympy.Poly(expr, *syms, domain="ZZ").terms()}
        assert condition_poly(name) == Polynomial(DIST_VARS, terms), name
    with pytest.raises(ValueError):
        condition_poly("nope")


def test_every_condition_name_resolves():
    for name in CONDITION_NAMES:
        p = condition_poly(name)
        assert not p.is_zero


def test_all_identities_expand_to_zero():
    assert all(verify_all_identities().values())


def test_mutated_identity_fails():
    # wrong multiplier: f^2*CM instead of e^2*CM must not cancel
    t = {n: condition_poly(n) for n in ("K", "P", "Q", "R", "CM")}
    f = Polynomial.variable(DIST_VARS, "f")
    mutated = (t["K"] * t["K"] - t["P"] * t["Q"] * t["R"]) * 2 + f * f * t["CM"]
    assert not mutated.is_zero
    with pytest.raises(ValueError):
        verify_identity("I99")


def test_identities_hold_numerically_on_random_configs():
    rng = random.Random(17)
    for _ in range(200):
        d = random_quad(rng).sextuple()
        for name in ("I2", "I3", "IT", "IG"):
            assert eval_poly_on_sextuple(identity_poly(name), d).is_zero


def test_cm_self_check():
    run_self_check()


def test_cm_self_check_catches_a_wrong_determinant(monkeypatch):
    # a determinant off by one on every sextuple must fail the start-up check
    true_cm = conditions.cayley_menger
    monkeypatch.setattr(conditions, "_SELF_CHECK_DONE", False)
    monkeypatch.setattr(conditions, "cayley_menger", lambda d: true_cm(d) + 1)
    with pytest.raises(AssertionError):
        run_self_check()


def test_cm_self_check_sextuples_pinned(monkeypatch):
    # recorded before the self-check's draws moved to integers: its 50
    # sextuples, then the next 64 bits of its rng
    seen, rngs = [], []
    true_cm = conditions.cayley_menger

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    monkeypatch.setattr(conditions, "_SELF_CHECK_DONE", False)
    monkeypatch.setattr(conditions, "random", SimpleNamespace(Random=Recorded))
    monkeypatch.setattr(conditions, "cayley_menger",
                        lambda d: seen.append(d) or true_cm(d))
    run_self_check()
    assert len(seen) == 50 and len(rngs) == 1
    h = hashlib.sha256()
    for d in seen:
        h.update(repr((d.int_q, d.int_scale)).encode())
    h.update(str(rngs[0].getrandbits(64)).encode())
    assert h.hexdigest() == ("c024afb7e8a5bbaed8227ec1d2190604"
                             "0d5b1af4cf86c1e5818302b30a0af0db")

def test_eval_condition_worked_instances():
    # rectangle with sides 3, 4: Ptolemy is tight
    rect = DistSextuple.of(9, 16, 9, 16, 25, 25)
    assert eval_condition("P", rect).is_zero
    # folded 3-4 rectangle
    assert eval_condition("R", FOLDED_RECT).is_zero
    assert eval_condition("K", FOLDED_RECT).is_zero
    assert eval_condition("P", FOLDED_RECT) == RadicalValue.from_rational(18)
    # parallelogram a=c=2, b=d=1: the equal-angle condition is the
    # parallelogram law
    par = DistSextuple.of(4, 1, 4, 1, 6, 4)
    assert eval_condition("R_T", par).is_zero


def test_eval_condition_irrational_values():
    d = DistSextuple.of(2, 3, 5, 7, 11, 13)
    v = eval_condition("P", d)
    assert not v.is_rational()
    assert v == (RadicalValue({10: Fraction(1)}) + RadicalValue({21: Fraction(1)})
                 - RadicalValue({143: Fraction(1)}))


def test_condition_sign_trichotomy_on_cyclic():
    d = gen_cyclic(77).sextuple()
    assert eval_condition("P", d).sign() == 0
    assert eval_condition("Q", d).sign() == 1


def test_supplementary_witness():
    assert eval_condition("K", FOLDED_RECT).is_zero
    assert eval_condition("K", QuadConfig.of((0, 0), (1, 0), (1, 1),
                                             (0, 1)).sextuple()).is_zero
    rng = random.Random(3)
    hits = 0
    for _ in range(50):
        d = random_quad(rng).sextuple()
        if eval_condition("K", d).is_zero:
            hits += 1
    assert hits == 0  # generic quadrilaterals have K != 0


def test_equal_angle_witness():
    kite = QuadConfig.of((0, 0), (1, 1), (2, 0), (1, -3)).sextuple()
    assert eval_condition("K_T", kite).is_zero
    par = DistSextuple.of(4, 1, 4, 1, 6, 4)
    assert eval_condition("K_T", par).is_zero
    rng = random.Random(4)
    hits = 0
    for _ in range(50):
        if eval_condition("K_T", random_quad(rng).sextuple()).is_zero:
            hits += 1
    assert hits == 0


def test_witnesses_match_symbolic_zero_tests():
    for seed in range(10):
        d = gen_folded(seed).sextuple()
        assert eval_condition("K", d).is_zero
        d = gen_tilted_kite(seed).sextuple()
        assert eval_condition("K_T", d).is_zero


def test_midpoint_v_formulas_folded_rectangle():
    v1, v2 = midpoint_v_formulas(FOLDED_RECT)
    want = RadicalValue.from_rational(Fraction(12, 5))
    assert v1 == want and v2 == want
    # ... and the value matches the coordinate distance between the midpoints
    rect = QuadConfig.of((0, 0), (4, 0), (4, 3), (0, 3))
    folded = reflect_over_line(rect, "D", ("A", "C"))
    A, B, C, D = folded.points()
    m_ac_x = (A.x + C.x) / 2
    m_ac_y = (A.y + C.y) / 2
    m_bd_x = (B.x + D.x) / 2
    m_bd_y = (B.y + D.y) / 2
    dist_sq = (m_ac_x - m_bd_x) ** 2 + (m_ac_y - m_bd_y) ** 2
    assert dist_sq == Fraction(144, 25)


def test_midpoint_v_formulas_agree_on_folded_family():
    for seed in range(12):
        d = gen_folded(seed).sextuple()
        v1, v2 = midpoint_v_formulas(d)
        assert v1 == v2
        assert v1.sign() > 0 or v1.is_zero


def test_midpoint_v_formulas_reject_cyclic():
    d = gen_cyclic(9).sextuple()
    with pytest.raises(ValueError):
        midpoint_v_formulas(d)


def test_midpoint_v_formulas_reject_nonplanar_supplementary():
    # R = 0 off the plane: K^2 = -e^2*CM/2 != 0, so the diagonal-free form
    # is not the midpoint distance there
    d = DistSextuple.of(1, 1, 9, 4, 5, 5)
    assert eval_condition("R", d).is_zero
    assert eval_condition("K", d) == RadicalValue.from_rational(10)
    assert eval_condition("CM", d) == RadicalValue.from_rational(-40)
    with pytest.raises(ValueError, match="K = 0"):
        midpoint_v_formulas(d)


def test_midpoint_v_equals_both_closed_forms_on_folded_family():
    for seed in range(12):
        d = gen_folded(seed).sextuple()
        v, _ = midpoint_v_formulas(d)
        a, b, c, dd, e = (sqrt_rational(q) for q in d.as_tuple()[:5])
        assert 2 * e * v == b * c + a * dd
        assert (4 * v * v * (a * c + b * dd)
                == (b * c + a * dd) * (a * b + c * dd))


def test_ptolemy_equality_and_inequality():
    # P = 0 on sequential cyclic configs, P > 0 off-circle (planar)
    for seed in range(15):
        assert eval_condition("P", gen_cyclic(seed, "ABCD").sextuple()).sign() \
            == 0
    rng = random.Random(21)
    checked = 0
    from quadkit.geometry import cocircularity
    while checked < 30:
        cfg = random_quad(rng)
        if cocircularity(cfg) == 0:
            continue
        assert eval_condition("P", cfg.sextuple()).sign() == 1
        checked += 1


def test_k_and_s_vanish_iff_p_vanishes():
    for seed in range(15):
        d = gen_cyclic(seed).sextuple()
        assert eval_condition("K", d).is_zero
        assert eval_condition("S", d).is_zero
    rng = random.Random(2)
    for _ in range(30):
        d = random_quad(rng).sextuple()
        p_zero = eval_condition("P", d).is_zero
        ks_zero = (eval_condition("K", d).is_zero
                   and eval_condition("S", d).is_zero)
        assert p_zero == ks_zero


# -- the parity-class evaluator against a term-by-term sum ----------------------

def _eval_per_term(p, d):
    """Reference evaluator: one rational part and one square root per term."""
    qs = dict(zip("abcdef", d.as_tuple()))
    total = RadicalValue.from_rational(0)
    for mono, coeff in p.terms.items():
        rat = coeff
        rad = 1
        for name, exp in zip("abcdef", mono):
            rat *= qs[name] ** (exp >> 1)
            if exp & 1:
                rad *= qs[name]
        term = RadicalValue.from_rational(rat)
        if rad != 1:
            term = term * sqrt_rational(rad)
        total = total + term
    return total


_CLOSED_FORM_SIDES = tuple(side for _, lhs, rhs in _elim_targets().values()
                           for side in (lhs, rhs))

# squared distances with mixed denominators up to 10^6
_sextuples = st.builds(
    DistSextuple.of, *[st.builds(Fraction, st.integers(1, 10 ** 6),
                                 st.integers(1, 10 ** 6)) for _ in range(6)])


@st.composite
def _odd_degree_polys(draw):
    """Non-homogeneous rational polynomials in a..f of odd total degree: one
    top term of odd degree plus terms of strictly lower degree."""
    top = draw(st.lists(st.integers(0, 3), min_size=6, max_size=6).filter(
        lambda m: sum(m) % 2 == 1))
    coeff = st.builds(Fraction, st.integers(-99, 99).filter(bool),
                      st.integers(1, 99))
    terms = {tuple(top): draw(coeff)}
    lower = st.lists(st.integers(0, 2), min_size=6, max_size=6).filter(
        lambda m: sum(m) < sum(top))
    for mono in draw(st.lists(lower, min_size=1, max_size=8)):
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + draw(coeff)
    return Polynomial(DIST_VARS, terms)


@settings(max_examples=25, deadline=None)
@given(_sextuples)
def test_parity_class_evaluator_matches_per_term_on_named_polys(d):
    polys = [condition_poly(n) for n in CONDITION_NAMES] + list(
        _CLOSED_FORM_SIDES)
    for p in polys:
        value, ref = eval_poly_on_sextuple(p, d), _eval_per_term(p, d)
        assert value == ref
        assert value.sign() == ref.sign()


@settings(max_examples=60, deadline=None)
@given(_odd_degree_polys(), _sextuples)
def test_parity_class_evaluator_matches_per_term_on_random_polys(p, d):
    value, ref = eval_poly_on_sextuple(p, d), _eval_per_term(p, d)
    assert value == ref
    assert value.sign() == ref.sign()


@settings(max_examples=40, deadline=None)
@given(st.lists(_odd_degree_polys(), min_size=1, max_size=4), _sextuples,
       st.data())
def test_many_polynomial_evaluator_matches_per_term(polys, d, data):
    # one call over several polynomials, one of them twice and one zero,
    # gives each one's term-wise value in order; no polynomials, no values
    twice = data.draw(st.sampled_from(polys))
    polys = data.draw(st.permutations(
        polys + [Polynomial.zero(DIST_VARS), twice]))
    values = eval_polys_on_sextuple(polys, d)
    refs = [_eval_per_term(p, d) for p in polys]
    assert values == refs
    assert [v.sign() for v in values] == [r.sign() for r in refs]
    # the integer form: each value's numerators over one positive den
    ints = eval_ints_on_sextuple(polys, d)
    assert all(den > 0 for _, den in ints)
    assert [{s: Fraction(n, den) for s, n in nums.items() if n}
            for nums, den in ints] == [r.coords for r in refs]
    assert eval_polys_on_sextuple([], d) == []


def test_evaluator_rejects_foreign_variables():
    p = Polynomial.variable(VarSet(("x",)), "x")
    for _ in range(2):  # a rejected polynomial is never cached
        with pytest.raises(ValueError):
            eval_poly_on_sextuple(p, FOLDED_RECT)


def test_evaluator_factorizes_entries_not_products(monkeypatch):
    d = random_quad(random.Random(11), span=1000, max_den=100).sextuple()
    qs = d.as_tuple()
    scale = lcm(*(q.denominator for q in qs))
    entries = {q.numerator * (scale // q.denominator) for q in qs} | {scale}
    seen = []
    factorize = radicals.factorize

    def recorder(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(radicals, "factorize", recorder)
    for name in CONDITION_NAMES:
        eval_condition(name, d)
    assert seen
    assert set(seen) <= entries


def test_wide_inputs_evaluate_in_bounded_time():
    # span-1000 coordinates with denominators up to 100 give scaled entries
    # of up to ~27 digits and class radicands of up to ~100 digits; Pollard
    # rho on those products took minutes, on the entries it takes ms
    rng = random.Random(2026)
    cfgs = [random_quad(rng, span=1000, max_den=100) for _ in range(40)]
    radicals.factorize.cache_clear()
    t0 = time.perf_counter()
    for cfg in cfgs:
        d = cfg.sextuple()
        for name in CONDITION_NAMES:
            value = eval_condition(name, d)
            assert value.sign() in (-1, 0, 1)
            assert str(value)
    assert time.perf_counter() - t0 < 5.0


def test_latest_sextuple_memo_gives_fresh_values():
    rng = random.Random(29)
    a, b = (random_quad(rng, span=40, max_den=12).sextuple() for _ in range(2))
    a_copy = DistSextuple.of(*a.as_tuple())
    assert a_copy == a and a_copy is not a
    polys = [condition_poly(n) for n in CONDITION_NAMES] + list(
        _CLOSED_FORM_SIDES)
    first = {}
    for d in (a, b, a, a_copy, b):
        for i, p in enumerate(polys):
            value = eval_poly_on_sextuple(p, d)
            assert value == _eval_per_term(p, d)
            assert first.setdefault((d, i), value) == value


def test_each_class_radicand_is_decomposed_at_most_once_per_call(
        monkeypatch):
    # within one call over many polynomials each entry of a class radicand
    # is decomposed at most once, however many classes share it; no call
    # reuses another's roots, and equal sextuples give equal values
    rng = random.Random(31)
    a, b = (random_quad(rng, span=1000, max_den=100).sextuple()
            for _ in range(2))
    polys = [condition_poly(n) for n in CONDITION_NAMES] + list(
        _CLOSED_FORM_SIDES)
    calls = []
    decompose = conditions.squarefree_decompose

    def recorder(*factors):
        calls[-1].append(factors)
        return decompose(*factors)

    monkeypatch.setattr(conditions, "squarefree_decompose", recorder)
    values = {}
    for d in (a, b, a, DistSextuple.of(*a.as_tuple())):
        calls.append([])
        got = eval_polys_on_sextuple(polys, d)
        assert calls[-1] and len(calls[-1]) == len(set(calls[-1]))
        assert values.setdefault(d, got) == got
    assert calls[0] == calls[2] == calls[3] != calls[1]
