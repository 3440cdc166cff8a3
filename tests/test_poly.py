import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadkit.poly import (GREVLEX, LEX, MonomialOrder, Polynomial, VarSet,
                          det)

XY = VarSet(("x", "y"))
ABCDEF = VarSet(("a", "b", "c", "d", "e", "f"))


def _v(vars, name):
    return Polynomial.variable(vars, name)


def test_varset_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        VarSet(("x", "x"))
    with pytest.raises(ValueError):
        VarSet(("x", "2bad"))


def test_difference_of_squares():
    x, y = _v(XY, "x"), _v(XY, "y")
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_additive_identity():
    x, y = Polynomial.variables(XY)
    p = 3*x**2 - y + Fraction(1, 2)
    assert p + Polynomial.zero(XY) == p
    assert Polynomial.zero(XY) + p == p


def test_ptolemy_product_expansion():
    # (ac+bd-ef)(ac+bd+ef) expanded by hand
    a, b, c, d, e, f = Polynomial.variables(ABCDEF)
    p = a*c + b*d - e*f
    q = a*c + b*d + e*f
    expected = a**2*c**2 + 2*a*b*c*d + b**2*d**2 - e**2*f**2
    assert p * q == expected


def test_varset_mismatch_errors():
    p = _v(XY, "x") + _v(XY, "y")
    q = _v(ABCDEF, "a")
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q


def test_zero_coefficients_never_stored():
    x, y = _v(XY, "x"), _v(XY, "y")
    p = x + y - x - y
    assert p.is_zero and p.terms == {}
    q = (x + y) - x
    assert set(q.terms) == {(0, 1)}


def test_pow_and_scalar_ops():
    x, y = _v(XY, "x"), _v(XY, "y")
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1
    assert Fraction(1, 2) * (2 * x) == x
    assert (x - y) ** 0 == Polynomial.one(XY)
    with pytest.raises(ValueError):
        x ** -1


def test_hash_agrees_with_equality():
    # a constant polynomial equals its scalar, so it hashes like it, over
    # any VarSet; equal non-constant polynomials still hash alike
    for vars in (XY, ABCDEF):
        three = Polynomial.const(vars, 3)
        half = Polynomial.const(vars, Fraction(1, 2))
        zero = Polynomial.zero(vars)
        x = Polynomial.variable(vars, vars.names[0])
        for value, plain in ((three, 3), (three, Fraction(6, 2)),
                             (half, Fraction(1, 2)), (zero, 0),
                             (zero, Fraction(0)), (x - x, 0),
                             ((x + 3) - x, 3)):
            assert value == plain
            assert hash(value) == hash(plain)
            assert plain in {value}
            assert value in {plain}
        assert {3: "c"}[three] == "c"
        assert (x + 1) ** 2 == x * x + 2 * x + 1
        assert hash((x + 1) ** 2) == hash(x * x + 2 * x + 1)
        assert x ** 2 + 1 in {1 + x * x}


def test_leading_monomials_per_order():
    # x^2*y vs x*y^2 vs y^3: grevlex and grlex tie-break differently from lex
    x, y = Polynomial.variables(XY)
    p = x*y**2 + x**2*y + y**3 + x
    assert p.leading_monomial(LEX) == (2, 1)
    assert p.leading_monomial(MonomialOrder.grlex()) == (2, 1)
    assert p.leading_monomial(GREVLEX) == (2, 1)
    q = x*y**2 + y**3
    assert q.leading_monomial(GREVLEX) == (1, 2)


def test_block_order_dominates_on_first_block():
    order = MonomialOrder.block_elimination(1)
    # any monomial containing x beats any pure-y monomial
    assert order.key((1, 0)) > order.key((0, 9))
    assert order.key((2, 0)) > order.key((1, 5))


def test_order_is_multiplicative_and_well_founded():
    rng = random.Random(5)
    for order in (LEX, MonomialOrder.grlex(), GREVLEX,
                  MonomialOrder.block_elimination(2)):
        one = (0, 0, 0)
        for _ in range(200):
            u = tuple(rng.randint(0, 4) for _ in range(3))
            v = tuple(rng.randint(0, 4) for _ in range(3))
            w = tuple(rng.randint(0, 4) for _ in range(3))
            if order.key(u) < order.key(v):
                uw = tuple(a + b for a, b in zip(u, w))
                vw = tuple(a + b for a, b in zip(v, w))
                assert order.key(uw) < order.key(vw)
            if u != one:
                assert order.key(u) > order.key(one)


@st.composite
def _polys(draw, vars=XY):
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, 3)) for _ in vars)
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(vars, terms)


@settings(max_examples=120, deadline=None)
@given(_polys(), _polys(), _polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert (p - q) + q == p


def _read_by_sympy(text, vars, implicit=False):
    # an independent reader of the record form: brackets dropped, ^ as power;
    # returns the terms as Polynomial holds them
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (
        convert_xor, implicit_multiplication, parse_expr,
        standard_transformations)
    syms = sympy.symbols(vars.names)
    extra = (convert_xor, implicit_multiplication) if implicit \
        else (convert_xor,)
    expr = parse_expr(text.replace("[", "").replace("]", ""),
                      local_dict=dict(zip(vars.names, syms)),
                      transformations=standard_transformations + extra)
    read = sympy.Poly(expr, *syms, domain="QQ")
    return {m: Fraction(int(c.numerator), int(c.denominator))
            for m, c in read.terms() if c}


def test_parse_print_round_trip_examples():
    # the same texts the operators build are printed exactly: sympy reads
    # each literal and its printed form to the same terms
    a, b, c, d, e, f = Polynomial.variables(ABCDEF)
    cases = [
        ("a*c + b*d - e*f", a*c + b*d - e*f),
        ("1/2*a^2 - 3*b*c + 7", Fraction(1, 2)*a**2 - 3*b*c + 7),
        ("-a + 2/3", -a + Fraction(2, 3)),
        ("0", Polynomial.zero(ABCDEF)),
        ("e^2*(a*b + c*d) - (a^2 + b^2)*c*d - (c^2 + d^2)*a*b",
         e**2*(a*b + c*d) - (a**2 + b**2)*c*d - (c**2 + d**2)*a*b),
    ]
    for text, p in cases:
        assert _read_by_sympy(text, ABCDEF) == p.terms, text
        assert _read_by_sympy(p.to_text(), ABCDEF) == p.terms, text
        assert _read_by_sympy(p.to_text(LEX), ABCDEF) == p.terms, text


def test_parse_bracketed_names_and_implicit_mult():
    # names longer than one letter print in brackets
    V = VarSet(("x", "eta"))
    x, eta = Polynomial.variables(V)
    p = 2 * x * eta ** 2 - eta
    assert p.to_text() == "2*x*[eta]^2 - [eta]"
    assert _read_by_sympy("2x*[eta]^2 - [eta]", V, implicit=True) == p.terms
    assert _read_by_sympy(p.to_text(), V) == p.terms


@settings(max_examples=80, deadline=None)
@given(_polys(VarSet(("x", "eta", "y"))))
def test_text_round_trip(p):
    # the record form is exact under every order: read back, the text has
    # exactly the same terms
    for order in (GREVLEX, LEX):
        text = p.to_text(order)
        assert _read_by_sympy(text, p.vars) == p.terms, (text, order)


def test_evaluate_rational_and_generic():
    x, y = Polynomial.variables(XY)
    p = x**2*y - 3*x + Fraction(1, 2)
    val = p.evaluate({"x": Fraction(2), "y": Fraction(-1)})
    assert val == Fraction(-4) - 6 + Fraction(1, 2)


def test_on_vars_embedding_and_projection():
    x, y = Polynomial.variables(XY)
    p = x**2 - y
    big = VarSet(("t", "x", "y"))
    q = p.on_vars(big)
    assert q.to_text() == p.to_text()
    assert q.on_vars(XY) == p
    with pytest.raises(ValueError):
        _v(big, "t").on_vars(XY)


def test_det_small_matrices():
    assert det([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2
    m = [[Fraction(x) for x in row]
         for row in ((2, 0, 1), (1, 1, 0), (0, 3, 1))]
    assert det(m) == 2 * 1 - 0 + 1 * 3
    x, y = Polynomial.variables(XY)
    sym = det([[x, y], [y, x]])
    assert sym == x ** 2 - y ** 2


def test_det_rejects_non_square_matrices():
    one = Fraction(1)
    with pytest.raises(ValueError, match="square"):
        det([[one, one], [one]])
    with pytest.raises(ValueError, match="square"):
        det([[one, one, one], [one, one, one]])
    with pytest.raises(ValueError, match="square"):
        det([[one, 0, 0], [0, one, 0], [0, 0]])
