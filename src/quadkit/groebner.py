"""Buchberger's algorithm with reduced Groebner bases, elimination ideals and
ideal/radical membership tests.

All reduction runs through one fraction-free kernel, `_reduce_int`: the
polynomial being reduced is held with integer coefficients and
content-stripped as it goes, which keeps the rational blow-up of the
10+-variable certificate ideals in check.  Buchberger's S-pair reductions,
the one-pass interreduction of the final basis and the public division
(`divmod_multi`, `normal_form`) all call it; division recovers its exact
rational remainder and quotients from the scale the kernel tracks.  Inside
the kernel a monomial is one int (see `_Packing`): product and quotient are
`+` and `-`, the order is int `<`, the constant monomial is 0 and
divisibility is one mask test.  All public results are exact `Fraction`
polynomials over exponent tuples (reduced bases are monic).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import Collection, Sequence

# all four mono_* stay bound here: the benchmark tracer wraps them
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
    def run(pk: _Packing):
        where: dict = {}  # integer divisor -> (position in G, its factor)
        for i, g in enumerate(G):
            if not g.is_zero:
                terms, gscale = _int_terms(g, pk)
                where[_Gen(terms, pk)] = (i, gscale)
        p, fscale = _int_terms(f, pk)
        steps: list = []
        r, scale = _reduce_int(p, list(where), pk, steps=steps)
        quotients: list[dict] = [{} for _ in G]
        for gen, delta, cf, num, den in steps:
            i, gscale = where[gen]
            quotients[i][pk.unpack(delta)] = (Fraction(cf * den, num)
                                              * gscale / fscale)
        rscale = 1 / (scale * fscale)
        return ([Polynomial(f.vars, q, _clean=False) for q in quotients],
                Polynomial(f.vars, {pk.unpack(m): c * rscale
                                    for m, c in r.items()}, _clean=False))

    return _packed(run, order, len(f.vars))


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
# packed monomials and fraction-free internals
# ---------------------------------------------------------------------------

class _Overflow(Exception):
    """A packed field reached its guard bit."""


class _Packing:
    """Exponent tuples of one order and arity packed into single ints.

    Fields are `w` bits wide; the top bit of each is a guard, clear in a
    valid monomial.  Field i < n holds the exponent of variable i.  Above
    them, most significant first, sit the order's key fields (lex: e1..en;
    grlex: deg, e1..en; grevlex: the prefix sums deg, deg - en, ..., e1;
    block: the grevlex fields of each block).  All fields are additive, so
    `+` multiplies while no field reaches its guard, and `<` is the order.
    Every reduction step and S-polynomial checks the guards of its largest
    product; on overflow the computation restarts at double the width.
    """

    def __init__(self, order: MonomialOrder, n: int, w: int):
        s = order.split or n  # grevlex is block order with one block
        rev = lambda m: tuple(accumulate(m))[::-1]  # grevlex fields
        self.key = {"lex": lambda m: m, "grlex": lambda m: (sum(m),) + m}.get(
            order.kind, lambda m: rev(m[:s]) + rev(m[s:]))
        self.n, self.w = n, w
        self.nf = n + len(self.key((0,) * n))
        self.mask = (1 << w) - 1
        self.cap = 1 << (w - 1)
        self.dguard = sum(self.cap << (i * w) for i in range(n))
        self.guard = sum(self.cap << (i * w) for i in range(self.nf))

    def pack(self, m: tuple) -> int:
        fields = m + self.key(m)[::-1]
        if max(fields) >= self.cap:
            raise _Overflow
        return sum(v << (i * self.w) for i, v in enumerate(fields))

    def unpack(self, x: int) -> tuple:
        w, mask = self.w, self.mask
        return tuple((x >> (i * w)) & mask for i in range(self.n))

    def top(self, monos) -> int:
        """Fieldwise maximum: top + d bounds every product m + d."""
        w, mask = self.w, self.mask
        return sum(max((m >> (i * w)) & mask for m in monos) << (i * w)
                   for i in range(self.nf))


def _packed(run, order: MonomialOrder, n: int):
    """run(packing), restarted at double the field width on overflow."""
    w = 16
    while True:
        try:
            return run(_Packing(order, n, w))
        except _Overflow:
            w *= 2


class _Gen:
    """Divisor with integer coefficients, content-free, packed monomials."""

    __slots__ = ("lt", "lc", "items", "top")

    def __init__(self, terms: dict, pk: _Packing):
        self.lt = max(terms)
        self.lc = terms[self.lt]
        self.items = tuple(terms.items())
        self.top = pk.top(terms)


def _int_terms(p: Polynomial, pk: _Packing) -> tuple[dict, Fraction]:
    """Clear denominators, strip content and pack; sign is left as-is.
    Returns the integer terms and the factor they are p multiplied by."""
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    out = {pk.pack(m): int(c * den) for m, c in p.terms.items()}
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


def _reduce_int(p: dict, basis: list[_Gen], pk: _Packing, deadline=None,
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
    heap = [-m for m in p]  # max-heap of packed monomials
    heapq.heapify(heap)
    guard, dguard = pk.guard, pk.dguard
    num = den = 1
    n = 0
    while heap:
        m = -heapq.heappop(heap)
        c = p.get(m)
        if not c:
            continue
        red = None
        md = m | dguard
        for g in basis:
            if (md - g.lt) & dguard == dguard:
                red = g
                break
        if red is None:
            out[m] = c
            del p[m]
            continue
        delta = m - red.lt
        if (red.top + delta) & guard:
            raise _Overflow
        g0 = gcd(red.lc, c)
        mult = red.lc // g0
        cf = c // g0
        if mult < 0:
            mult, cf = -mult, -cf
        if mult != 1:
            for k in p:
                p[k] *= mult
            for k in out:
                out[k] *= mult
            num *= mult
        if steps is not None:
            steps.append((red, delta, cf, num, den))
        for mg, cg in red.items:
            m2 = mg + delta
            v = p.get(m2)
            if v is None:
                nv = -cf * cg
                if nv:
                    p[m2] = nv
                    heapq.heappush(heap, -m2)
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


def _spoly_int(a: _Gen, b: _Gen, L: int, guard: int) -> dict:
    """S-polynomial of a and b, whose leading monomials have lcm L."""
    g0 = gcd(a.lc, b.lc)
    ca = b.lc // g0
    cb = a.lc // g0
    da = L - a.lt
    db = L - b.lt
    if (a.top + da) & guard or (b.top + db) & guard:
        raise _Overflow
    terms: dict = {}
    for m, c in a.items:
        terms[m + da] = ca * c
    for m, c in b.items:
        m2 = m + db
        v = terms.get(m2)
        nv = (v - cb * c) if v is not None else -cb * c
        if nv:
            terms[m2] = nv
        elif v is not None:
            del terms[m2]
    return terms


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
    live = [g for g in gens if not g.is_zero]
    if any(g.is_constant() for g in live):
        return GroebnerBasis((Polynomial.one(vars0),), order)
    if not live:
        return GroebnerBasis((), order)
    return _packed(lambda pk: _buchberger(live, vars0, order, pk, deadline),
                   order, len(vars0))


def _buchberger(gens: list[Polynomial], vars0: VarSet, order: MonomialOrder,
                pk: _Packing, deadline) -> GroebnerBasis:
    """The pair loop of `buchberger` at one packing."""
    basis = [_Gen(_int_terms(g, pk)[0], pk) for g in gens]
    guard, dguard = pk.guard, pk.dguard
    pairs: list = []
    pending: set[tuple[int, int]] = set()

    def push_pairs(t: int) -> None:
        lt_t = pk.unpack(basis[t].lt)
        for i in range(t):
            L = tuple(map(max, pk.unpack(basis[i].lt), lt_t))
            heapq.heappush(pairs, (pk.pack(L), i, t))
            pending.add((i, t))

    for t in range(1, len(basis)):
        push_pairs(t)

    while pairs:
        _check_deadline(deadline)
        L, i, j = heapq.heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        gi, gj = basis[i], basis[j]
        if L == gi.lt + gj.lt:
            continue  # product criterion: disjoint leading terms
        skip = False
        Ld = L | dguard
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if (Ld - basis[k].lt) & dguard == dguard:
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True  # chain criterion
                    break
        if skip:
            continue
        r, _ = _reduce_int(_spoly_int(gi, gj, L, guard), basis, pk, deadline)
        if not r:
            continue
        g = _Gen(r, pk)
        if g.lt == 0:
            return GroebnerBasis((Polynomial.one(vars0),), order)
        basis.append(g)
        push_pairs(len(basis) - 1)

    return _reduce_basis(basis, vars0, order, pk, deadline)


def _reduce_basis(basis: list[_Gen], vars0: VarSet, order: MonomialOrder,
                  pk: _Packing, deadline=None) -> GroebnerBasis:
    """Minimalize and interreduce in one pass of increasing leading monomial,
    returning the unique reduced basis.  One pass suffices: a tail monomial
    m < lt(g) is only divisible by leading monomials <= m, and the elements
    that own them are already reduced when g's turn comes."""
    done: list[_Gen] = []
    for g in sorted(basis, key=lambda g: g.lt):
        ld = g.lt | pk.dguard
        if any((ld - h.lt) & pk.dguard == pk.dguard for h in done):
            continue  # not minimal
        _check_deadline(deadline)
        r, _ = _reduce_int(dict(g.items), done, pk, deadline)
        done.append(_Gen(r, pk))
    return GroebnerBasis(tuple(
        Polynomial(vars0, {pk.unpack(m): Fraction(c, g.lc)
                           for m, c in g.items},
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
