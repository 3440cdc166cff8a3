import itertools
import random
from fractions import Fraction

import pytest

from quadkit.groebner import (GroebnerTimeout, buchberger, divmod_multi,
                              elimination_ideal, ideal_membership,
                              normal_form, radical_membership, s_polynomial)
from quadkit.poly import GREVLEX, LEX, MonomialOrder, Polynomial, VarSet

XY = VarSet(("x", "y"))
XYZ = VarSet(("x", "y", "z"))


def _p(text, vars=XY):
    return Polynomial.parse(text, vars)


# -- normal form ----------------------------------------------------------

def test_normal_form_textbook():
    assert normal_form(_p("x^2"), [_p("x")], LEX).is_zero
    assert normal_form(_p("x^2 + y"), [_p("x")], LEX) == _p("y")
    assert normal_form(_p("x*y + 1"), [_p("x + 1"), _p("y + 1")], LEX) == _p("2")


def test_division_certificate_reexpands():
    # rational f; non-monic divisors with non-unit content exercise the
    # kernel's scale and quotient bookkeeping
    rng = random.Random(11)
    G = [_p("2*x^2 - 4*y"), _p("x*y - 1"), _p("1/3*y - 1"), _p("6*x - 9/2")]
    for order in (LEX, GREVLEX, MonomialOrder.block_elimination(1)):
        for _ in range(25):
            terms = {(rng.randint(0, 4), rng.randint(0, 4)):
                     Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                     for _ in range(5)}
            f = Polynomial(XY, terms)
            qs, r = divmod_multi(f, G, order)
            rebuilt = r
            for q, g in zip(qs, G):
                rebuilt = rebuilt + q * g
            assert rebuilt == f
            # no monomial of r is divisible by a leading term of G
            for mono in r.terms:
                for g in G:
                    lt = g.leading_monomial(order)
                    assert not all(a <= b for a, b in zip(lt, mono))


def test_normal_form_deterministic_in_sequence():
    f = _p("x^2*y")
    g1, g2 = _p("x^2"), _p("x*y")
    # first listed divisor wins; both orders still end at remainder 0 here
    assert normal_form(f, [g1, g2], LEX).is_zero
    q1, _ = divmod_multi(f, [g1, g2], LEX)
    q2, _ = divmod_multi(f, [g2, g1], LEX)
    assert not q1[0].is_zero and q1[1].is_zero
    assert not q2[0].is_zero and q2[1].is_zero


# -- buchberger -----------------------------------------------------------

def test_linear_span():
    gb = buchberger([_p("x + y"), _p("x - y")], LEX)
    assert gb.texts() == ["x", "y"]


def test_circle_line():
    gb = buchberger([_p("x^2 + y^2 - 1"), _p("x - y")], LEX)
    assert gb.texts() == ["x - y", "y^2 - 1/2"]


def test_single_generator_is_its_own_basis():
    for order in (LEX, GREVLEX):
        gb = buchberger([_p("x^2")], order)
        assert gb.texts() == ["x^2"]


def test_unit_ideal_short_circuits():
    gb = buchberger([_p("x"), _p("x + 1")], GREVLEX)
    assert gb.is_unit()


def test_zero_generators_only():
    gb = buchberger([Polynomial.zero(XY)], GREVLEX)
    assert len(gb) == 0


def test_spolys_of_basis_reduce_to_zero():
    ideals = [
        [_p("x^2 + y^2 - 1"), _p("x*y - 2")],
        [_p("x^3 - 2*x*y"), _p("x^2*y + x - 2*y^2")],
        [Polynomial.parse("x + y + z", XYZ),
         Polynomial.parse("x*y + y*z + z*x", XYZ),
         Polynomial.parse("x*y*z - 1", XYZ)],
    ]
    for gens in ideals:
        order = GREVLEX
        gb = buchberger(gens, order)
        G = list(gb.generators)
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                s = s_polynomial(G[i], G[j], order)
                assert normal_form(s, G, order).is_zero


def test_reduced_basis_unique_under_shuffles():
    rng = random.Random(3)
    for texts in (("x + y + z", "x*y + y*z + z*x", "x*y*z - 1"),
                  ("x^2 + y - z", "x*z - y^2", "y^3 - x")):
        gens = [Polynomial.parse(t, XYZ) for t in texts]
        for order in (GREVLEX, LEX):
            gb = buchberger(gens, order)
            for _ in range(6):
                shuffled = gens[:]
                rng.shuffle(shuffled)
                assert buchberger(shuffled, order).texts() == gb.texts()
            # reduced: monic, and no monomial of any generator is divisible
            # by the leading monomial of another
            lts = [g.leading_monomial(order) for g in gb]
            for i, g in enumerate(gb):
                assert g.leading_coeff(order) == 1
                for mono in g.terms:
                    for j, lt in enumerate(lts):
                        if j != i:
                            assert not all(a <= b for a, b in zip(lt, mono))


def test_original_generators_reduce_to_zero():
    gens = [Polynomial.parse(t, XYZ) for t in
            ("x^2 + y - z", "x*z - y^2", "y^3 - x")]
    gb = buchberger(gens, GREVLEX)
    for g in gens:
        assert normal_form(g, gb.generators, GREVLEX).is_zero


def test_timeout_raises():
    V = VarSet(tuple("abcdefuvwz") + ("t",))
    gens = [Polynomial.parse(s, V) for s in (
        "(u-a)^2 + v^2 - b^2", "(w-u)^2 + (z-v)^2 - c^2", "w^2 + z^2 - d^2",
        "u^2 + v^2 - e^2", "(w-a)^2 + z^2 - f^2", "a*c + b*d - e*f",
        "a*v*(u*z - v*w) - t")]
    with pytest.raises(GroebnerTimeout):
        elimination_ideal(gens, ["e", "f", "u", "v", "w", "z"], timeout=0.25)


# -- elimination -----------------------------------------------------------

def test_parabola_elimination_and_samples():
    V = VarSet(("t", "x", "y"))
    gens = [Polynomial.parse("x - t", V), Polynomial.parse("y - t^2", V)]
    out = elimination_ideal(gens, ["t"])
    assert len(out) == 1
    rel = out[0]
    assert rel.monic(GREVLEX) == Polynomial.parse("x^2 - y", VarSet(("x", "y")))
    rng = random.Random(7)
    for _ in range(1000):
        t = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        assert rel.evaluate({"x": t, "y": t * t}) == 0


def test_circle_elimination():
    out = elimination_ideal([_p("x^2 + y^2 - 1"), _p("x - y")], ["x"], LEX)
    assert [p.to_text(LEX) for p in out] == ["y^2 - 1/2"]


def test_elimination_requires_valid_order():
    gens = [_p("x^2 + y^2 - 1")]
    with pytest.raises(ValueError):
        elimination_ideal(gens, ["x"], GREVLEX)
    with pytest.raises(ValueError):
        elimination_ideal(gens, ["nope"])


# -- membership -------------------------------------------------------------

def test_ideal_membership_textbook():
    assert ideal_membership(_p("x^2 - 1"), [_p("x - 1"), _p("x + 1")])
    assert not ideal_membership(_p("x"), [_p("x^2")])


def test_membership_in_zero_ideal():
    zero = Polynomial.zero(XY)
    assert ideal_membership(zero, [zero])
    assert not ideal_membership(_p("x"), [zero])


def test_identity_combination_lies_in_zero_ideal():
    # the S/K coupling identity expands to the zero polynomial, i.e. it is a
    # member of <0>
    from quadkit.conditions import DIST_VARS, identity_poly
    combo = identity_poly("I2")
    assert ideal_membership(combo, [Polynomial.zero(DIST_VARS)])


def test_radical_membership_textbook():
    assert radical_membership(_p("x"), [_p("x^2")])
    assert not radical_membership(_p("y"), [_p("x")])


def test_radical_membership_vanishing_points():
    # f in the radical means f vanishes wherever the generators do
    g = _p("(x - y)^2")
    f = _p("x - y")
    assert radical_membership(f, [g])
    rng = random.Random(13)
    for _ in range(100):
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        assert f.evaluate({"x": t, "y": t}) == 0


def test_radical_membership_slack_name_fresh():
    V = VarSet(("y", "x"))
    f = Polynomial.parse("x", V)
    g = Polynomial.parse("x^2", V)
    assert radical_membership(f, [g])


# -- packed monomials ---------------------------------------------------------

def test_exponents_beyond_initial_field_width():
    # 70000 does not fit the kernel's first field width (16 bits, 15 for
    # values); x - y^20000 fits but its S-polynomial product y^40000 does
    # not, nor do the reduction products y^60000 and y^90000 below: each
    # restarts at a wider field
    gens = [_p("x^70000 - y"), _p("y^2 - 1")]
    f = _p("x^140001 + y^3")
    for order in (LEX, MonomialOrder.block_elimination(1)):
        assert buchberger(gens, order).texts() == ["x^70000 - y", "y^2 - 1"]
        assert normal_form(f, gens, order) == _p("x + y")
        qs, r = divmod_multi(f, gens, order)
        assert qs == [_p("x^70001 + x*y"), _p("x + y")] and r == _p("x + y")
        gb = buchberger([_p("x - y^20000"), _p("x*y^20000 - 1")], order)
        assert gb.texts() == ["x - y^20000", "y^40000 - 1"]
        assert normal_form(_p("x^3"), [_p("x - y^30000")], order) == \
            _p("y^90000")
    # the S-polynomial guard fires before any product is formed
    from quadkit.groebner import (_Gen, _int_terms, _Overflow, _Packing,
                                  _spoly_int)
    pk = _Packing(LEX, 2, 16)
    a, b = (_Gen(_int_terms(_p(t), pk)[0], pk)
            for t in ("x - y^20000", "x*y^20000 - 1"))
    with pytest.raises(_Overflow):
        _spoly_int(a, b, b.lt, pk.guard)


def test_groebner_binds_traced_mono_names():
    # perfbench/tracer.py wraps these names in the groebner module
    import quadkit.groebner as groebner
    for name in ("mono_mul", "mono_div", "mono_divides", "mono_lcm"):
        assert callable(groebner.__dict__[name]), name


def test_full_basis_hashes_pinned():
    # sha256 of the newline-joined texts() of the three full reduced bases
    # of the benchmark's basis workload
    import hashlib

    from quadkit import certificates, conditions
    expected = {
        "ptolemy_scheme": "84b509f491415713996fb1fe25a90cfe"
                          "fc495056b321754736eaf95eeace612d",
        "r_scheme": "e9878ce5d4cd2894e683032644a37f15"
                    "aa4e303f9d64f9b110c1662579eee19f",
        "t_scheme": "5849d05e769f77a18838f15e81bd4165"
                    "b6e0bef9f3560cbd41ce4c1e19411e9d"}
    for (builder, digest), cond in zip(expected.items(), ("P", "R", "R_T")):
        scheme = getattr(certificates, builder)()
        gens = list(scheme.generators) + [
            conditions.condition_poly(cond).on_vars(scheme.vars)]
        texts = buchberger(gens, GREVLEX).texts()
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest


def test_reduced_bases_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    names = {2: XY, 3: XYZ}
    orders = {"lex": LEX, "grlex": MonomialOrder.grlex(), "grevlex": GREVLEX}
    for k in range(30):
        V = names[rng.choice((2, 3))]
        monos = [m for m in itertools.product(range(4), repeat=len(V))
                 if sum(m) <= 3]
        gens, size = [], rng.randint(2, 3)
        while len(gens) < size:
            g = Polynomial(V, {rng.choice(monos): Fraction(
                rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                for _ in range(rng.randint(2, 4))})
            if not g.is_constant():
                gens.append(g)
        name = ("lex", "grlex", "grevlex")[k % 3]
        order = orders[name]
        syms = sympy.symbols(V.names)
        exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                     * sympy.prod([s ** e for s, e in zip(syms, m)])
                     for m, c in g.terms.items()) for g in gens]
        ref = sympy.groebner(exprs, *syms, order=name, domain="QQ")
        want = set()
        for p in ref.polys:
            terms = {m: Fraction(int(c.numerator), int(c.denominator))
                     for m, c in p.terms()}
            want.add(Polynomial(V, terms).monic(order))
        assert set(buchberger(gens, order).generators) == want, (gens, name)
