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


x, y = Polynomial.variables(XY)


# -- normal form ----------------------------------------------------------

def test_normal_form_textbook():
    assert normal_form(x**2, [x], LEX).is_zero
    assert normal_form(x**2 + y, [x], LEX) == y
    assert normal_form(x*y + 1, [x + 1, y + 1], LEX) == Polynomial.const(XY, 2)


def test_division_certificate_reexpands():
    # rational f; non-monic divisors with non-unit content exercise the
    # kernel's scale and quotient bookkeeping
    rng = random.Random(11)
    G = [2*x**2 - 4*y, x*y - 1, Fraction(1, 3)*y - 1, 6*x - Fraction(9, 2)]
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
    f = x**2*y
    g1, g2 = x**2, x*y
    # first listed divisor wins; both orders still end at remainder 0 here
    assert normal_form(f, [g1, g2], LEX).is_zero
    q1, _ = divmod_multi(f, [g1, g2], LEX)
    q2, _ = divmod_multi(f, [g2, g1], LEX)
    assert not q1[0].is_zero and q1[1].is_zero
    assert not q2[0].is_zero and q2[1].is_zero


# -- buchberger -----------------------------------------------------------

def test_linear_span():
    gb = buchberger([x + y, x - y], LEX)
    assert gb.texts() == ["x", "y"]


def test_circle_line():
    gb = buchberger([x**2 + y**2 - 1, x - y], LEX)
    assert gb.texts() == ["x - y", "y^2 - 1/2"]


def test_single_generator_is_its_own_basis():
    for order in (LEX, GREVLEX):
        gb = buchberger([x**2], order)
        assert gb.texts() == ["x^2"]


def test_unit_ideal_short_circuits():
    gb = buchberger([x, x + 1], GREVLEX)
    assert gb.is_unit()


def test_zero_generators_only():
    gb = buchberger([Polynomial.zero(XY)], GREVLEX)
    assert len(gb) == 0


def test_spolys_of_basis_reduce_to_zero():
    u, v, w = Polynomial.variables(XYZ)
    ideals = [
        [x**2 + y**2 - 1, x*y - 2],
        [x**3 - 2*x*y, x**2*y + x - 2*y**2],
        [u + v + w, u*v + v*w + w*u, u*v*w - 1],
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
    x, y, z = Polynomial.variables(XYZ)
    for gens in ([x + y + z, x*y + y*z + z*x, x*y*z - 1],
                 [x**2 + y - z, x*z - y**2, y**3 - x]):
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
    x, y, z = Polynomial.variables(XYZ)
    gens = [x**2 + y - z, x*z - y**2, y**3 - x]
    gb = buchberger(gens, GREVLEX)
    for g in gens:
        assert normal_form(g, gb.generators, GREVLEX).is_zero


def test_timeout_raises():
    V = VarSet(tuple("abcdefuvwz") + ("t",))
    a, b, c, d, e, f, u, v, w, z, t = Polynomial.variables(V)
    gens = [(u - a)**2 + v**2 - b**2, (w - u)**2 + (z - v)**2 - c**2,
            w**2 + z**2 - d**2, u**2 + v**2 - e**2, (w - a)**2 + z**2 - f**2,
            a*c + b*d - e*f, a*v*(u*z - v*w) - t]
    with pytest.raises(GroebnerTimeout):
        elimination_ideal(gens, ["e", "f", "u", "v", "w", "z"], timeout=0.25)


# -- elimination -----------------------------------------------------------

def test_parabola_elimination_and_samples():
    V = VarSet(("t", "x", "y"))
    t, x, y = Polynomial.variables(V)
    gens = [x - t, y - t**2]
    out = elimination_ideal(gens, ["t"])
    assert len(out) == 1
    rel = out[0]
    assert rel.monic(GREVLEX) == (x**2 - y).on_vars(XY)
    rng = random.Random(7)
    for _ in range(1000):
        t = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        assert rel.evaluate({"x": t, "y": t * t}) == 0


def test_circle_elimination():
    out = elimination_ideal([x**2 + y**2 - 1, x - y], ["x"])
    assert [p.to_text(LEX) for p in out] == ["y^2 - 1/2"]


def test_elimination_requires_valid_order():
    gens = [x**2 + y**2 - 1]
    with pytest.raises(ValueError):
        elimination_ideal(gens, ["nope"])


# -- membership -------------------------------------------------------------

def test_ideal_membership_textbook():
    assert ideal_membership(x**2 - 1, [x - 1, x + 1])
    assert not ideal_membership(x, [x**2])


def test_membership_in_zero_ideal():
    zero = Polynomial.zero(XY)
    assert ideal_membership(zero, [zero])
    assert not ideal_membership(x, [zero])


def test_identity_combination_lies_in_zero_ideal():
    # the S/K coupling identity expands to the zero polynomial, i.e. it is a
    # member of <0>
    from quadkit.conditions import DIST_VARS, identity_poly
    combo = identity_poly("I2")
    assert ideal_membership(combo, [Polynomial.zero(DIST_VARS)])


def test_radical_membership_textbook():
    assert radical_membership(x, [x**2])
    assert not radical_membership(y, [x])


def test_radical_membership_vanishing_points():
    # f in the radical means f vanishes wherever the generators do
    g = (x - y)**2
    f = x - y
    assert radical_membership(f, [g])
    rng = random.Random(13)
    for _ in range(100):
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
        assert f.evaluate({"x": t, "y": t}) == 0


def test_radical_membership_slack_name_fresh():
    V = VarSet(("t", "x"))
    f = Polynomial.variable(V, "x")
    g = f**2
    assert radical_membership(f, [g])


def test_radical_membership_past_the_square_takes_the_fallback(monkeypatch):
    # x^3 is the least power of x in <x^3>: neither x nor x^2 reduces to 0,
    # so only the Rabinowitsch basis can say True
    import quadkit.groebner as groebner
    slack = []
    real = groebner.rabinowitsch
    monkeypatch.setattr(groebner, "rabinowitsch",
                        lambda f, gens: slack.append(f) or real(f, gens))
    assert not ideal_membership(x**2, [x**3])
    assert radical_membership(x, [x**3])
    assert slack == [x]
    assert radical_membership(x, [x**2])
    assert slack == [x]


def test_radical_membership_matches_the_rabinowitsch_basis():
    # small random ideals: half of them hold f^k (k = 1, 2, 3) plus a
    # multiple of another generator, so both verdicts are drawn
    from quadkit.groebner import rabinowitsch
    rng = random.Random(2311)
    seen = set()
    for k in range(40):
        V = rng.choice((XY, XYZ))
        monos = [m for m in itertools.product(range(3), repeat=len(V))
                 if sum(m) <= 2]

        def draw():
            return Polynomial(V, {rng.choice(monos): Fraction(
                rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))})
        f, gens = draw(), [draw() for _ in range(rng.randint(1, 2))]
        if k % 2:
            gens.append(f ** rng.randint(1, 3) + draw() * gens[0])
        want = buchberger(rabinowitsch(f, gens), GREVLEX).is_unit()
        assert radical_membership(f, gens) == want, (f, gens)
        seen.add(want)
    assert seen == {True, False}


def test_radical_membership_fallback_gets_the_budget_left(monkeypatch):
    # one deadline covers the pair loop, both normal forms and the
    # Rabinowitsch basis: the fallback is handed what is left of it
    import time

    import quadkit.groebner as groebner
    budgets = []
    real_bb, real_power = groebner.buchberger, groebner._power_in

    def capture(gens, order=GREVLEX, timeout=None):
        budgets.append(timeout)
        return real_bb(gens, order, timeout=timeout)

    def slow(*args):
        time.sleep(0.2)
        return real_power(*args)

    monkeypatch.setattr(groebner, "buchberger", capture)
    monkeypatch.setattr(groebner, "_power_in", slow)
    assert radical_membership(x, [x**3], timeout=10)
    assert radical_membership(x, [x**3])
    assert 0 < budgets[0] <= 9.8 and budgets[1] is None
    with pytest.raises(GroebnerTimeout):
        radical_membership(x, [x**3], timeout=0.1)


def test_early_stop_agrees_with_the_complete_basis(monkeypatch):
    # the membership tests stop the pair loop at the first zero remainder.
    # On seeded small ideals, homogeneous or not, every verdict must be the
    # one reduction against the complete basis gives, for three kinds of
    # target: members of low degree, f with only f^2 in the ideal, and
    # random f.  The early stop must fire on some draws, with fewer S-pairs
    import quadkit.groebner as groebner
    from quadkit.groebner import rabinowitsch
    spolys, slack = 0, []
    real_spoly, real_slack = groebner._spoly_int, groebner.rabinowitsch

    def counting(*args):
        nonlocal spolys
        spolys += 1
        return real_spoly(*args)

    def pairs_reduced(run):
        nonlocal spolys
        spolys = 0
        return run(), spolys

    monkeypatch.setattr(groebner, "_spoly_int", counting)
    monkeypatch.setattr(groebner, "rabinowitsch",
                        lambda f, gens: slack.append(f) or real_slack(f, gens))
    rng = random.Random(3030)
    verdicts, fired = set(), set()
    for k in range(90):
        V, kind = rng.choice((XY, XYZ)), k % 3
        homogeneous = k % 2 == 0
        monos = [m for m in itertools.product(range(3), repeat=len(V))
                 if sum(m) <= 2]

        def draw(*degrees):
            if homogeneous:
                degrees = degrees[-1:]
            pool = [m for m in monos if sum(m) in degrees]
            return Polynomial(V, {m: Fraction(rng.choice(
                (-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                for m in rng.sample(pool, min(2, len(pool)))})
        gens = [draw(1, 2), draw(0, 1, 2)]
        if kind == 0:  # a member of degree 3 at most
            f = draw(0, 1) * gens[0] + draw(0, 1) * gens[1]
        elif kind == 1:  # f^2 is a member, f seldom
            f = draw(0, 1)
            gens = [gens[0], f ** 2 + draw(0) * gens[0]]
        else:
            f = draw(0, 1, 2)
        complete, full = pairs_reduced(
            lambda: buchberger(gens, GREVLEX).generators)
        want = [normal_form(p, complete).is_zero for p in (f, f * f)]
        verdicts.add((kind, *want))
        got, early = pairs_reduced(lambda: ideal_membership(f, gens))
        assert got == want[0] and early <= full, (f, gens)
        slack.clear()
        got, early = pairs_reduced(lambda: radical_membership(f, gens))
        assert bool(slack) == (not any(want)), (f, gens)
        if any(want):
            assert got and early <= full, (f, gens)
            if early < full:
                fired.add(kind)
        else:
            assert got == buchberger(rabinowitsch(f, gens),
                                     GREVLEX).is_unit(), (f, gens)
    assert {(0, True, True), (1, False, True)} <= verdicts
    assert (2, False, False) in verdicts
    assert fired >= {0, 1}


def test_flipped_elimination_relation_is_not_in_the_ideal():
    # N_R's relation A' * area^2 - B' has its square in the R-scheme ideal;
    # with the sign of B' flipped neither it nor its square is, so no zero
    # remainder may stop the pair loop and the complete basis says False
    from math import prod

    import quadkit.groebner as groebner
    from quadkit import certificates
    from quadkit.conditions import condition_poly
    tgt, lhs, rhs = certificates._elim_targets()["N_R"]
    scheme = certificates.r_scheme()
    area = prod(scheme.area2(tri) for tri in tgt.triangles)
    lhs = lhs.on_vars(scheme.vars) * area ** tgt.power
    rhs = rhs.on_vars(scheme.vars)
    gens = scheme.ideal(condition_poly("R"))
    assert groebner._power_in(lhs - rhs, gens, 2, None)
    assert not ideal_membership(lhs - rhs, gens)
    assert not groebner._power_in(lhs + rhs, gens, 2, None)


# -- packed monomials ---------------------------------------------------------

def test_order_keys_are_additive_and_packing_sorts_like_them():
    # the kernel packs each monomial with its order key's fields, so the
    # fields must add under multiplication and the packed int order must be
    # the key order
    from quadkit.groebner import _Packing
    rng = random.Random(13)
    for order in (LEX, MonomialOrder.grlex(), GREVLEX,
                  MonomialOrder.block_elimination(2)):
        pk = _Packing(order, 4, 16)
        monos = [tuple(rng.randint(0, 5) for _ in range(4))
                 for _ in range(60)]
        for u, v in zip(monos, monos[1:]):
            uv = tuple(a + b for a, b in zip(u, v))
            assert order.key(uv) == tuple(
                a + b for a, b in zip(order.key(u), order.key(v))), order
            assert pk.pack(uv) == pk.pack(u) + pk.pack(v)
        assert sorted(monos, key=pk.pack) == sorted(monos, key=order.key)


def test_exponents_beyond_initial_field_width():
    # 70000 does not fit the kernel's first field width (16 bits, 15 for
    # values); x - y^20000 fits but its S-polynomial product y^40000 does
    # not, nor do the reduction products y^60000 and y^90000 below: each
    # restarts at a wider field
    gens = [x**70000 - y, y**2 - 1]
    f = x**140001 + y**3
    for order in (LEX, MonomialOrder.block_elimination(1)):
        assert buchberger(gens, order).texts() == ["x^70000 - y", "y^2 - 1"]
        assert normal_form(f, gens, order) == x + y
        qs, r = divmod_multi(f, gens, order)
        assert qs == [x**70001 + x*y, x + y] and r == x + y
        gb = buchberger([x - y**20000, x*y**20000 - 1], order)
        assert gb.texts() == ["x - y^20000", "y^40000 - 1"]
        assert normal_form(x**3, [x - y**30000], order) == y**90000
    # the S-polynomial guard fires before any product is formed
    from quadkit.groebner import (_Gen, _int_terms, _Overflow, _Packing,
                                  _spoly_int)
    pk = _Packing(LEX, 2, 16)
    a, b = (_Gen(_int_terms(g, pk)[0])
            for g in (x - y**20000, x*y**20000 - 1))
    with pytest.raises(_Overflow):
        _spoly_int(a, b, b.lt, pk.guard)


def test_square_beyond_initial_field_width(monkeypatch):
    # x^20000 fits the kernel's first field width and its square x^40000
    # does not: the guard restarts the route at a wider field, where the
    # square reduces to 0 modulo x^30000 with no Rabinowitsch ideal
    import quadkit.groebner as groebner
    monkeypatch.setattr(groebner, "rabinowitsch", None)
    assert radical_membership(x**20000, [x**30000])
    assert not ideal_membership(x**20000, [x**30000])


def test_names_the_benchmark_tracer_wraps_exist(monkeypatch):
    # perfbench/tracer.py wraps these names from outside the package; a
    # missing one breaks `perfbench/smoke.py --trace 1` only
    import importlib
    import importlib.util
    import sys
    from pathlib import Path

    from quadkit import certificates, groebner, poly, radicals
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclasses
    spec.loader.exec_module(tracer)
    for mod_name, names in tracer.SPAN_PROBES.items():
        mod = importlib.import_module(f"quadkit.{mod_name}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{mod_name}.{name}"
    # wrapped by class attribute, so each must be defined on the class itself
    for cls, names in ((poly.Polynomial, tracer.POLY_OPS),
                       (radicals.RadicalValue,
                        tracer.RADICAL_OPS + ("sign", "interval")),
                       (poly.MonomialOrder, ("key",))):
        for name in names:
            assert callable(cls.__dict__.get(name)), f"{cls.__name__}.{name}"
    assert callable(radicals.sqrt_rational)
    assert callable(radicals.factorize.cache_clear)
    assert callable(radicals.factorize.cache_info)
    for name in ("mono_mul", "mono_div", "mono_divides", "mono_lcm"):
        assert callable(groebner.__dict__.get(name)), name
    for name in ("ptolemy_scheme", "r_scheme", "t_scheme"):
        assert callable(getattr(certificates, name, None)), name


def test_full_basis_hashes_pinned():
    # sha256 of the newline-joined texts() of the three full reduced bases
    # of the benchmark's basis workload
    import hashlib

    from quadkit import certificates, conditions
    expected = {
        "ptolemy_scheme": "3f3564b01f8f693b15272a9151aabe3d"
                          "9a03342802927d67a4c6a47946d4f451",
        "r_scheme": "f1216f0735889ba85e7cc08d413ff9a2"
                    "e713376033696122b9c919952678283e",
        "t_scheme": "0b444a78ac956ce8d063090256a6f04a"
                    "353fa2efd796fb14d461d432847462ed"}
    for (builder, digest), cond in zip(expected.items(), ("P", "R", "R_T")):
        scheme = getattr(certificates, builder)()
        gens = list(scheme.generators) + [
            conditions.condition_poly(cond).on_vars(scheme.vars)]
        texts = buchberger(gens, GREVLEX).texts()
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest


def test_elimination_bases_hashes_pinned():
    # sha256 of the newline-joined texts() of the block-order bases behind
    # elimination_ideal (the coordinates dropped, in the scheme's order v, z,
    # u, w) and of the elimination ideal they share, the monic Cayley-Menger
    # polynomial
    import hashlib

    from quadkit import certificates
    digest = lambda texts: hashlib.sha256("\n".join(texts).encode()).hexdigest()
    expected = {
        "ptolemy_scheme": "32d7fe608192d6e61d3d79ad61364b22"
                          "b2a3096a57fe15b8c4944311e1fa0953",
        "r_scheme": "02631746666be2c0176d71586c475082"
                    "faad803fb8d6d623394d13484e2d64d6",
        "t_scheme": "8a1cc4a7ce49a6599a15dac9fee8a4f4"
                    "61bb0b6cab481db216979e061edb56fd"}
    for builder, want in expected.items():
        gens = list(getattr(certificates, builder)().generators)
        names = gens[0].vars.names
        drop = tuple(n for n in names if n in {"u", "v", "w", "z"})
        work = VarSet(drop + tuple(n for n in names if n not in drop))
        gb = buchberger([g.on_vars(work) for g in gens],
                        MonomialOrder.block_elimination(len(drop)))
        assert digest(gb.texts()) == want, builder
        elim = elimination_ideal(gens, drop)
        assert digest(g.to_text(GREVLEX) for g in elim) == (
            "848dc451514773297a36b1c2a9d142ce"
            "eb0a7152cf2eb8894c598d1d25bd7acd"), builder


def test_pair_selection_reduction_counts(monkeypatch):
    # sugar selection under block orders cuts the S-pair reductions of the
    # elimination bases below the normal strategy's 226/122/176.  The grevlex
    # radical routes keep the normal strategy, decide the claims on the
    # scheme ideal's own pair loop and stop it at the first zero remainder.
    # In the scheme's order with the y-coordinates above the x-coordinates
    # converse_ptolemy takes 161 reductions, N_R 60 and parallelogram_case
    # 31.  With x above y they take 114, 64 and 61, so the N_R and
    # parallelogram_case bounds also guard the order; the converse_ptolemy
    # bound pins the early stop, not the order
    import quadkit.groebner as groebner
    from quadkit import certificates
    calls = 0
    kernel = groebner._reduce_int

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce_int", counting)

    def count(run):
        nonlocal calls
        calls = 0
        run()
        return calls

    for builder, normal in (("ptolemy_scheme", 226), ("r_scheme", 122),
                            ("t_scheme", 176)):
        gens = list(getattr(certificates, builder)().generators)
        assert count(lambda: elimination_ideal(
            gens, ("u", "v", "w", "z"))) < normal, builder
    assert count(lambda: certificates.cert_converse_ptolemy(samples=0)) <= 161
    assert count(lambda: certificates.cert_elimination_formula(
        "N_R", timeout=30, samples=0)) <= 60
    assert count(lambda: certificates.cert_parallelogram_case(
        samples=0)) <= 31


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
