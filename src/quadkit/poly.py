"""Sparse multivariate polynomial arithmetic over exact rationals.

Coefficients are `fractions.Fraction` throughout; nothing in this module ever
rounds.  Monomials are bare exponent tuples (one entry per variable of the
owning `VarSet`) in every public interface, which keeps dict-based
arithmetic fast and hashable; only the Groebner kernel packs them into
single ints internally (see `groebner`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Mapping, Sequence

Mono = tuple  # exponent tuple, one nonnegative int per variable


@dataclass(frozen=True, slots=True)
class VarSet:
    """Ordered set of distinct variable names.

    The listed order is what gives monomial orders their meaning, so a VarSet
    is fixed per ideal and shared by every polynomial in it.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        if not names:
            raise ValueError("VarSet needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        for n in names:
            if not n or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", n):
                raise ValueError(f"bad variable name: {n!r}")
        object.__setattr__(self, "names", names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} in {self.names}") from None

    def extend(self, *extra: str) -> "VarSet":
        return VarSet(self.names + extra)

    def fresh_name(self, base: str) -> str:
        """A name not already in the set (for slack variables)."""
        name = base
        while name in self.names:
            name += "_"
        return name

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self.names


# -- monomial helpers (exponent tuples) --------------------------------------

def mono_mul(m1: Mono, m2: Mono) -> Mono:
    return tuple(a + b for a, b in zip(m1, m2))

def mono_div(m1: Mono, m2: Mono) -> Mono:
    # caller guarantees divisibility
    return tuple(a - b for a, b in zip(m1, m2))

def mono_divides(m1: Mono, m2: Mono) -> bool:
    return all(a <= b for a, b in zip(m1, m2))

def mono_lcm(m1: Mono, m2: Mono) -> Mono:
    return tuple(a if a > b else b for a, b in zip(m1, m2))


@dataclass(frozen=True, slots=True)
class MonomialOrder:
    """A monomial order: total, multiplicative, with 1 minimal.

    Kinds: lex, grlex, grevlex, and block elimination (grevlex on the first
    `split` variables, then grevlex on the rest; the first block dominates).
    """

    KINDS = ("lex", "grlex", "grevlex", "block")
    kind: str
    split: int | None = None

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown monomial order kind {self.kind!r}")
        if self.kind == "block":
            if not isinstance(self.split, int) or self.split < 1:
                raise ValueError("block order needs a positive split index")
        elif self.split is not None:
            raise ValueError("split only applies to block orders")

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls("lex")

    @classmethod
    def grlex(cls) -> "MonomialOrder":
        return cls("grlex")

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls("grevlex")

    @classmethod
    def block_elimination(cls, split: int) -> "MonomialOrder":
        return cls("block", split)

    def key(self, mono: Mono) -> tuple:
        """Sort key; larger key means larger monomial.  The fields add under
        multiplication, which lets the Groebner kernel pack them: lex, the
        exponents; grlex, the degree, then the exponents; grevlex, the prefix
        sums from the last variable (deg, deg - e_n, ..., e_1); block, those
        of each block."""
        if self.kind == "lex":
            return mono
        if self.kind == "grlex":
            return (sum(mono),) + mono
        s = self.split or len(mono)  # grevlex is block order with one block
        return (tuple(accumulate(mono[:s]))[::-1]
                + tuple(accumulate(mono[s:]))[::-1])

    @property
    def name(self) -> str:
        if self.kind == "block":
            return f"block({self.split}|grevlex,grevlex)"
        return self.kind


GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


# -- sparse sums {key: nonzero Fraction}, shared with radicals ---------------

def add_terms(a: Mapping, b: Mapping, negate: bool = False) -> dict:
    """The sparse sum a + b (a - b when `negate`), zero coefficients dropped."""
    res = dict(a)
    for k, c in b.items():
        s = res.get(k)
        if s is None:
            res[k] = -c if negate else c
        else:
            s = s - c if negate else s + c
            if s:
                res[k] = s
            else:
                del res[k]
    return res


def power(x, n: int, one):
    """x**n for an int n >= 0 by square-and-multiply; `one` is x's ring one."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def sum_hash(terms: Mapping, unit) -> int:
    """Hash of a sparse sum; one equal to a scalar (no key, or `unit` alone)
    hashes like that scalar, as it compares equal to it."""
    if not terms:
        return hash(0)
    if len(terms) == 1 and unit in terms:
        return hash(terms[unit])
    return hash(frozenset(terms.items()))


class Polynomial:
    """Sparse polynomial: {exponent tuple: nonzero Fraction} over a VarSet.

    Canonical form is unique per (VarSet, coefficient map): zero coefficients
    are never stored, so equality is plain dict equality.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms: Mapping[Mono, Fraction] | None = None,
                 _clean: bool = True):
        self.vars = vars
        if not terms:
            self.terms: dict[Mono, Fraction] = {}
        elif _clean:
            n = len(vars)
            clean: dict[Mono, Fraction] = {}
            for m, c in terms.items():
                if len(m) != n:
                    raise ValueError(f"monomial {m} has wrong arity for {vars}")
                if any(e < 0 for e in m):
                    raise ValueError(f"negative exponent in {m}")
                c = Fraction(c)
                if c:
                    clean[tuple(m)] = c
            self.terms = clean
        else:
            self.terms = dict(terms)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, vars: VarSet) -> "Polynomial":
        return cls(vars, None)

    @classmethod
    def const(cls, vars: VarSet, value) -> "Polynomial":
        value = Fraction(value)
        if not value:
            return cls.zero(vars)
        return cls(vars, {(0,) * len(vars): value}, _clean=False)

    @classmethod
    def one(cls, vars: VarSet) -> "Polynomial":
        return cls.const(vars, 1)

    @classmethod
    def variable(cls, vars: VarSet, name: str) -> "Polynomial":
        i = vars.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {mono: Fraction(1)}, _clean=False)

    @classmethod
    def variables(cls, vars: VarSet) -> tuple["Polynomial", ...]:
        return tuple(cls.variable(vars, n) for n in vars)

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1
                                  and not any(next(iter(self.terms))))

    def leading_monomial(self, order: MonomialOrder) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def sorted_terms(self, order: MonomialOrder = GREVLEX
                     ) -> list[tuple[Mono, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]),
                      reverse=True)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError(
                    f"variable-set mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.vars, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = add_terms(self.terms, other.terms)
        return Polynomial(self.vars, terms, _clean=False)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, {m: -c for m, c in self.terms.items()},
                          _clean=False)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = add_terms(self.terms, other.terms, negate=True)
        return Polynomial(self.vars, terms, _clean=False)

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return Polynomial.zero(self.vars)
            return Polynomial(self.vars,
                              {m: c * other for m, c in self.terms.items()},
                              _clean=False)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        res: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = res.get(m)
                if s is None:
                    res[m] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        res[m] = s
                    else:
                        del res[m]
        return Polynomial(self.vars, res, _clean=False)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        return power(self, n, Polynomial.one(self.vars))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return sum_hash(self.terms, (0,) * len(self.vars))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- normalization ----------------------------------------------------

    def monic(self, order: MonomialOrder) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coeff(order)
        if lc == 1:
            return self
        inv = 1 / lc
        return Polynomial(self.vars,
                          {m: c * inv for m, c in self.terms.items()},
                          _clean=False)

    # -- variable plumbing -------------------------------------------------

    def on_vars(self, new_vars: VarSet) -> "Polynomial":
        """Re-express over another VarSet containing all variables used here."""
        if new_vars == self.vars:
            return self
        pos = [new_vars.index(n) if n in new_vars else -1
               for n in self.vars.names]
        width = len(new_vars)
        res: dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            out = [0] * width
            for i, e in enumerate(m):
                if e:
                    if pos[i] < 0:
                        raise ValueError(
                            f"variable {self.vars.names[i]!r} missing from {new_vars}")
                    out[pos[i]] = e
            res[tuple(out)] = c
        return Polynomial(new_vars, res, _clean=False)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at named values from any commutative ring (Fraction,
        RadicalValue, even Polynomial)."""
        if not self.terms:
            return Fraction(0)
        names = self.vars.names
        total = None
        for m, c in self.terms.items():
            term = c
            for i, e in enumerate(m):
                if e:
                    term = term * (values[names[i]] ** e)
            total = term if total is None else total + term
        return total

    # -- text form ------------------------------------------------------------

    def to_text(self, order: MonomialOrder = GREVLEX) -> str:
        """The record form: terms largest first under `order`, single-letter
        or [bracketed] names, integer or p/q coefficients, ^ powers."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (m, c) in enumerate(self.sorted_terms(order)):
            factors = []
            for j, e in enumerate(m):
                if not e:
                    continue
                name = self.vars.names[j]
                if len(name) > 1:
                    name = f"[{name}]"
                factors.append(name if e == 1 else f"{name}^{e}")
            mag = abs(c)
            if factors:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = str(mag)
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"


def det(rows: Sequence[Sequence]) -> object:
    """Determinant by cofactor expansion; works over any commutative ring
    (Fraction entries, Polynomial entries, ...).  Intended for tiny matrices.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return _cofactor_det(rows)


def _cofactor_det(rows: Sequence[Sequence]) -> object:
    """`det` of a matrix known to be square; its minors are square too."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = rows[0][0] * 0  # ring zero of the entry type
    for j, a in enumerate(rows[0]):
        if not a:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        term = a * _cofactor_det(minor)
        total = total - term if j % 2 else total + term
    return total
