"""Sparse multivariate polynomial arithmetic over exact rationals.

Coefficients are `fractions.Fraction` throughout; nothing in this module ever
rounds.  Monomials are bare exponent tuples (one entry per variable of the
owning `VarSet`) in every public interface, which keeps dict-based
arithmetic fast and hashable; only the Groebner kernel packs them into
single ints internally (see `groebner`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

Mono = tuple  # exponent tuple, one nonnegative int per variable


class VarSet:
    """Ordered set of distinct variable names.

    The listed order is what gives monomial orders their meaning, so a VarSet
    is fixed per ideal and shared by every polynomial in it.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("VarSet needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        for n in names:
            if not n or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", n):
                raise ValueError(f"bad variable name: {n!r}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r} in {self.names}") from None

    def extend(self, *extra: str) -> "VarSet":
        return VarSet(self.names + extra)

    def fresh_name(self, base: str = "y") -> str:
        """A name not already in the set (for slack variables)."""
        name = base
        while name in self._index:
            name += "_"
        return name

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarSet({','.join(self.names)})"


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


def _grevlex_key(m: Mono):
    return (sum(m), tuple(-e for e in reversed(m)))


class MonomialOrder:
    """A monomial order: total, multiplicative, with 1 minimal.

    Kinds: lex, grlex, grevlex, and block elimination (grevlex on the first
    `split` variables, then grevlex on the rest; the first block dominates).
    """

    KINDS = ("lex", "grlex", "grevlex", "block")
    __slots__ = ("kind", "split")

    def __init__(self, kind: str, split: int | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown monomial order kind {kind!r}")
        if kind == "block":
            if not isinstance(split, int) or split < 1:
                raise ValueError("block order needs a positive split index")
        elif split is not None:
            raise ValueError("split only applies to block orders")
        self.kind = kind
        self.split = split

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

    def key(self, mono: Mono):
        """Sort key; larger key means larger monomial."""
        kind = self.kind
        if kind == "lex":
            return mono
        if kind == "grlex":
            return (sum(mono), mono)
        if kind == "grevlex":
            return _grevlex_key(mono)
        s = self.split
        return (_grevlex_key(mono[:s]), _grevlex_key(mono[s:]))

    def eliminates(self, n_drop: int) -> bool:
        """True if the order makes the first n_drop variables an elimination block."""
        if self.kind == "lex":
            return True
        return self.kind == "block" and self.split == n_drop

    @property
    def name(self) -> str:
        if self.kind == "block":
            return f"block({self.split}|grevlex,grevlex)"
        return self.kind

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.split == other.split
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.split))

    def __repr__(self) -> str:
        return f"MonomialOrder({self.name})"


GREVLEX = MonomialOrder.grevlex()
LEX = MonomialOrder.lex()


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

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_monomial(self, order: MonomialOrder) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def sorted_terms(self, order: MonomialOrder = GREVLEX,
                     reverse: bool = True) -> list[tuple[Mono, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]),
                      reverse=reverse)

    def uses_variable(self, name: str) -> bool:
        i = self.vars.index(name)
        return any(m[i] for m in self.terms)

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
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m)
            if s is None:
                res[m] = c
            else:
                s = s + c
                if s:
                    res[m] = s
                else:
                    del res[m]
        return Polynomial(self.vars, res, _clean=False)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.vars, {m: -c for m, c in self.terms.items()},
                          _clean=False)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m)
            if s is None:
                res[m] = -c
            else:
                s = s - c
                if s:
                    res[m] = s
                else:
                    del res[m]
        return Polynomial(self.vars, res, _clean=False)

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
        result = Polynomial.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- normalization ----------------------------------------------------

    def content(self) -> Fraction:
        """gcd of numerators over lcm of denominators (0 for the zero poly)."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive_part(self) -> "Polynomial":
        cont = self.content()
        if not cont or cont == 1:
            return self
        inv = 1 / cont
        return Polynomial(self.vars,
                          {m: c * inv for m, c in self.terms.items()},
                          _clean=False)

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

    # -- parsing ------------------------------------------------------------

    @staticmethod
    def parse(text: str, vars: VarSet) -> "Polynomial":
        """Parse the printable grammar: single-letter or [bracketed] variables,
        integer or p/q coefficients, ^ powers, explicit or implicit '*'."""
        return _Parser(text, vars).parse()


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z])|\[(?P<bname>[A-Za-z_][A-Za-z0-9_]*)\]"
    r"|(?P<op>[-+*^()/]))"
)


class _Parser:
    def __init__(self, text: str, vars: VarSet):
        self.vars = vars
        self.tokens: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ValueError(f"bad polynomial syntax at {text[pos:]!r}")
                break
            if m.group("num") is not None:
                self.tokens.append(("num", m.group("num")))
            elif m.group("name") is not None:
                self.tokens.append(("name", m.group("name")))
            elif m.group("bname") is not None:
                self.tokens.append(("name", m.group("bname")))
            else:
                self.tokens.append(("op", m.group("op")))
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial text")
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok != ("op", op):
            raise ValueError(f"expected {op!r}, got {tok}")

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens: {self.tokens[self.i:]}")
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.next()
                p = p + self.term()
            elif tok == ("op", "-"):
                self.next()
                p = p - self.term()
            else:
                return p

    def term(self) -> Polynomial:
        p = self.unary()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.next()
                p = p * self.unary()
            elif tok is not None and (tok[0] in ("num", "name")
                                      or tok == ("op", "(")):
                p = p * self.unary()  # implicit multiplication
            else:
                return p

    def unary(self) -> Polynomial:
        tok = self.peek()
        if tok == ("op", "-"):
            self.next()
            return -self.unary()
        if tok == ("op", "+"):
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            kind, val = self.next()
            if kind != "num":
                raise ValueError("exponent must be a nonnegative integer")
            return base ** int(val)
        return base

    def atom(self) -> Polynomial:
        kind, val = self.next()
        if kind == "num":
            # rational literal p/q when '/' directly follows
            if self.peek() == ("op", "/"):
                self.next()
                k2, v2 = self.next()
                if k2 != "num":
                    raise ValueError("expected integer denominator")
                return Polynomial.const(self.vars, Fraction(int(val), int(v2)))
            return Polynomial.const(self.vars, int(val))
        if kind == "name":
            return Polynomial.variable(self.vars, val)
        if (kind, val) == ("op", "("):
            p = self.expr()
            self.expect_op(")")
            return p
        raise ValueError(f"unexpected token {val!r}")


def det(rows: Sequence[Sequence]) -> object:
    """Determinant by cofactor expansion; works over any commutative ring
    (Fraction entries, Polynomial entries, ...).  Intended for tiny matrices.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for j in range(n):
        a = rows[0][j]
        if isinstance(a, (int, Fraction)) and not a:
            continue
        if isinstance(a, Polynomial) and a.is_zero:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        term = a * det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return rows[0][0] * 0  # ring zero of the entry type
    return total
