"""Buchberger's algorithm with reduced Groebner bases, elimination ideals and
ideal/radical membership tests.

All reduction runs through one fraction-free kernel, `_reduce_int`: the
polynomial being reduced is held with integer coefficients and
content-stripped as it goes, which keeps the rational blow-up of the
10+-variable certificate ideals in check.  Buchberger's S-pair reductions,
the one-pass interreduction of the final basis and the public division
(`divmod_multi`, `normal_form`) all call it; division recovers its exact
rational remainder and quotients from the scale the kernel tracks.  All
public results are exact `Fraction` polynomials (reduced bases are monic).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Collection, Sequence

from .poly import (GREVLEX, MonomialOrder, Polynomial, VarSet, mono_div,
                   mono_divides, mono_lcm, mono_mul)


class GroebnerTimeout(Exception):
    """Raised when a deadline expires mid-computation."""


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic generators, sorted by decreasing
    leading monomial; unique for (ideal, order)."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def is_unit(self) -> bool:
        """True iff the basis is {1}, i.e. the ideal is the whole ring."""
        return (len(self.generators) == 1
                and self.generators[0].is_constant()
                and not self.generators[0].is_zero)

    def texts(self) -> list[str]:
        return [g.to_text(self.order) for g in self.generators]


def _negkey(k):
    if isinstance(k, tuple):
        return tuple(_negkey(x) for x in k)
    return -k


def _negkeyf(order: MonomialOrder):
    keyf = order.key
    return lambda m: _negkey(keyf(m))


# ---------------------------------------------------------------------------
# exact division -- the public normal form
# ---------------------------------------------------------------------------

def divmod_multi(f: Polynomial, G: Sequence[Polynomial], order: MonomialOrder
                 ) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division: f = sum(q_i * G_i) + r with no monomial of r
    divisible by any leading term of G.  Divisor choice is the first match in
    the listed sequence, so the output is deterministic given (order, G)."""
    for g in G:
        if g.vars != f.vars:
            raise ValueError("variable-set mismatch in division")
    where: dict = {}  # integer divisor -> (position in G, its factor)
    for i, g in enumerate(G):
        if not g.is_zero:
            terms, gscale = _int_terms(g)
            where[_Gen(terms, order.key)] = (i, gscale)
    p, fscale = _int_terms(f)
    steps: list = []
    r, scale = _reduce_int(p, list(where), _negkeyf(order), steps=steps)
    quotients: list[dict] = [{} for _ in G]
    for gen, delta, cf, num, den in steps:
        i, gscale = where[gen]
        quotients[i][delta] = Fraction(cf * den, num) * gscale / fscale
    rscale = 1 / (scale * fscale)
    return ([Polynomial(f.vars, q, _clean=False) for q in quotients],
            Polynomial(f.vars, {m: c * rscale for m, c in r.items()},
                       _clean=False))


def normal_form(f: Polynomial, G: Sequence[Polynomial],
                order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of f on division by G; f - r lies in <G>."""
    if not G:
        return f
    return divmod_multi(f, G, order)[1]


def s_polynomial(f: Polynomial, g: Polynomial,
                 order: MonomialOrder = GREVLEX) -> Polynomial:
    lt_f = f.leading_monomial(order)
    lt_g = g.leading_monomial(order)
    L = mono_lcm(lt_f, lt_g)
    mf = Polynomial(f.vars, {mono_div(L, lt_f): 1 / f.leading_coeff(order)})
    mg = Polynomial(g.vars, {mono_div(L, lt_g): 1 / g.leading_coeff(order)})
    return mf * f - mg * g


# ---------------------------------------------------------------------------
# fraction-free internals
# ---------------------------------------------------------------------------

class _Gen:
    """Divisor with integer coefficients, content-free."""

    __slots__ = ("lt", "lc", "items")

    def __init__(self, terms: dict, keyf):
        self.lt = max(terms, key=keyf)
        self.lc = terms[self.lt]
        self.items = tuple(terms.items())


def _int_terms(p: Polynomial) -> tuple[dict, Fraction]:
    """Clear denominators and strip content; sign is left as-is.  Returns
    the integer terms and the factor they are p multiplied by."""
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    out = {m: int(c * den) for m, c in p.terms.items()}
    return out, Fraction(den, _strip(out))


def _strip(*dicts: dict) -> int:
    """Divide the dicts in place by the gcd of all their values; return it."""
    g = 0
    for d in dicts:
        for v in d.values():
            g = gcd(g, v)
            if g == 1:
                return 1
    if g > 1:
        for d in dicts:
            for k in d:
                d[k] //= g
    return g or 1


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise GroebnerTimeout("Groebner computation exceeded its time budget")


def _reduce_int(p: dict, basis: list[_Gen], negkeyf, deadline=None,
                steps: list | None = None) -> tuple[dict, Fraction]:
    """Full reduction of the integer polynomial p by the basis, taking the
    first listed divisor whose leading monomial divides the current term.

    Returns (r, scale): r is content-stripped and r / scale is exactly the
    remainder of division over Q.  Each step multiplies the working
    polynomial by a positive integer instead of dividing by a leading
    coefficient, so it stays a scalar multiple of the rational one with the
    same support and takes the same steps.  The scalar is tracked as num/den.
    If `steps` is a list, each step appends (divisor, delta, cf, num, den):
    it subtracted cf * delta * divisor from the working polynomial, which is
    the quotient term cf * den / num * delta in the rational division.
    """
    p = dict(p)
    out: dict = {}
    heap = [(negkeyf(m), m) for m in p]
    heapq.heapify(heap)
    num = den = 1
    n = 0
    while heap:
        _, m = heapq.heappop(heap)
        c = p.get(m)
        if not c:
            continue
        red = None
        for g in basis:
            if mono_divides(g.lt, m):
                red = g
                break
        if red is None:
            out[m] = c
            del p[m]
            continue
        g0 = gcd(red.lc, c)
        mult = red.lc // g0
        cf = c // g0
        if mult != 1:
            if mult < 0:
                mult, cf = -mult, -cf
            for k in p:
                p[k] *= mult
            for k in out:
                out[k] *= mult
            num *= mult
        delta = mono_div(m, red.lt)
        if steps is not None:
            steps.append((red, delta, cf, num, den))
        for mg, cg in red.items:
            m2 = mono_mul(mg, delta)
            v = p.get(m2)
            if v is None:
                nv = -cf * cg
                if nv:
                    p[m2] = nv
                    heapq.heappush(heap, (negkeyf(m2), m2))
            else:
                nv = v - cf * cg
                if nv:
                    p[m2] = nv
                else:
                    del p[m2]
        n += 1
        if n & 0x3F == 0:
            _check_deadline(deadline)
        if n & 0x1FF == 0:
            # joint content strip bounds integer growth mid-reduction
            den *= _strip(p, out)
    den *= _strip(out)
    return out, Fraction(num, den)


def _spoly_int(a: _Gen, b: _Gen) -> dict:
    L = mono_lcm(a.lt, b.lt)
    g0 = gcd(a.lc, b.lc)
    ca = b.lc // g0
    cb = a.lc // g0
    da = mono_div(L, a.lt)
    db = mono_div(L, b.lt)
    terms: dict = {}
    for m, c in a.items:
        terms[mono_mul(m, da)] = ca * c
    for m, c in b.items:
        m2 = mono_mul(m, db)
        v = terms.get(m2)
        nv = (v - cb * c) if v is not None else -cb * c
        if nv:
            terms[m2] = nv
        elif v is not None:
            del terms[m2]
    return terms


def _is_const_terms(terms: dict) -> bool:
    return len(terms) == 1 and not any(next(iter(terms)))


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX,
               deadline: float | None = None,
               timeout: float | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of <gens>.

    Pair selection is the normal strategy (minimal lcm in the order) with the
    product and chain criteria; the result is the unique reduced basis, so it
    does not depend on the strategy.  As soon as any reduction produces a
    nonzero constant the unit basis {1} is returned (sound: the ideal is the
    whole ring), which is what makes the radical-membership certificates fast.
    `timeout` (seconds) or an absolute monotonic `deadline` aborts with
    GroebnerTimeout.
    """
    if not gens:
        raise ValueError("buchberger needs at least one generator")
    vars0 = gens[0].vars
    for g in gens:
        if g.vars != vars0:
            raise ValueError("variable-set mismatch among generators")
    if timeout is not None:
        deadline = time.monotonic() + timeout

    keyf = order.key
    negkeyf = _negkeyf(order)
    unit = GroebnerBasis((Polynomial.one(vars0),), order)

    basis: list[_Gen] = []
    for g in gens:
        if g.is_zero:
            continue
        if g.is_constant():
            return unit
        basis.append(_Gen(_int_terms(g)[0], keyf))
    if not basis:
        return GroebnerBasis((), order)

    pairs: list = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(t: int) -> None:
        lt_t = basis[t].lt
        for i in range(t):
            L = mono_lcm(basis[i].lt, lt_t)
            heapq.heappush(pairs, (keyf(L), i, t))
            pending.add((i, t))

    for t in range(1, len(basis)):
        push_pairs(t)

    while pairs:
        _check_deadline(deadline)
        _, i, j = heapq.heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        gi, gj = basis[i], basis[j]
        L = mono_lcm(gi.lt, gj.lt)
        if L == mono_mul(gi.lt, gj.lt):
            continue  # product criterion: disjoint leading terms
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if mono_divides(basis[k].lt, L):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True  # chain criterion
                    break
        if skip:
            continue
        r, _ = _reduce_int(_spoly_int(gi, gj), basis, negkeyf, deadline)
        if not r:
            continue
        if _is_const_terms(r):
            return unit
        basis.append(_Gen(r, keyf))
        push_pairs(len(basis) - 1)

    return _reduce_basis(basis, vars0, order, deadline)


def _reduce_basis(basis: list[_Gen], vars0: VarSet, order: MonomialOrder,
                  deadline=None) -> GroebnerBasis:
    """Minimalize and interreduce in one pass of increasing leading monomial,
    returning the unique reduced basis.  One pass suffices: a tail monomial
    m < lt(g) is only divisible by leading monomials <= m, and the elements
    that own them are already reduced when g's turn comes."""
    keyf = order.key
    negkeyf = _negkeyf(order)
    done: list[_Gen] = []
    for g in sorted(basis, key=lambda g: keyf(g.lt)):
        if any(mono_divides(h.lt, g.lt) for h in done):
            continue  # not minimal
        _check_deadline(deadline)
        r, _ = _reduce_int(dict(g.items), done, negkeyf, deadline)
        done.append(_Gen(r, keyf))
    return GroebnerBasis(tuple(
        Polynomial(vars0, {m: Fraction(c, g.lc) for m, c in g.items},
                   _clean=False) for g in reversed(done)), order)


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def ideal_membership(f: Polynomial, gens: Sequence[Polynomial],
                     order: MonomialOrder = GREVLEX,
                     timeout: float | None = None) -> bool:
    """f in <gens>, decided via a reduced basis and a zero normal form."""
    live = [g for g in gens if not g.is_zero]
    if not live:
        return f.is_zero
    gb = buchberger(live, order, timeout=timeout)
    return normal_form(f, gb.generators, order).is_zero


def radical_membership(f: Polynomial, gens: Sequence[Polynomial],
                       order: MonomialOrder = GREVLEX,
                       timeout: float | None = None) -> bool:
    """f in the radical of <gens>, by the slack-variable trick: adjoin a fresh
    variable y and test whether the reduced basis of <gens, 1 - y*f> is {1}."""
    vars0 = f.vars
    slack = vars0.fresh_name("y")
    ext = vars0.extend(slack)
    y = Polynomial.variable(ext, slack)
    lifted = [g.on_vars(ext) for g in gens if not g.is_zero]
    lifted.append(Polynomial.one(ext) - y * f.on_vars(ext))
    ext_order = order
    if order.kind == "block":
        ext_order = GREVLEX  # block split indexes the original vars only
    gb = buchberger(lifted, ext_order, timeout=timeout)
    return gb.is_unit()


def elimination_ideal(gens: Sequence[Polynomial], drop_vars: Collection[str],
                      order: MonomialOrder | None = None,
                      timeout: float | None = None) -> list[Polynomial]:
    """Generators of <gens> intersected with k[remaining vars].

    Internally permutes the VarSet so the dropped variables form the leading
    block, runs Buchberger under a block (or caller-supplied lex) elimination
    order, and keeps the basis members free of dropped variables -- those
    generate the elimination ideal.  Results are returned over the VarSet of
    the remaining variables, in their original order.
    """
    if not gens:
        raise ValueError("elimination_ideal needs at least one generator")
    vars0 = gens[0].vars
    drop = [n for n in vars0.names if n in set(drop_vars)]
    if len(drop) != len(set(drop_vars)):
        missing = set(drop_vars) - set(vars0.names)
        raise ValueError(f"drop_vars not in VarSet: {sorted(missing)}")
    keep = [n for n in vars0.names if n not in set(drop)]
    if not keep:
        raise ValueError("cannot eliminate every variable")
    work_vars = VarSet(tuple(drop) + tuple(keep))
    if order is None:
        order = MonomialOrder.block_elimination(len(drop))
    elif not order.eliminates(len(drop)):
        raise ValueError(f"{order.name} does not eliminate the first "
                         f"{len(drop)} variables")
    lifted = [g.on_vars(work_vars) for g in gens]
    gb = buchberger(lifted, order, timeout=timeout)
    keep_vars = VarSet(keep)
    nd = len(drop)
    out = []
    for g in gb.generators:
        if all(not any(m[:nd]) for m in g.terms):
            out.append(g.on_vars(keep_vars))
    return out
