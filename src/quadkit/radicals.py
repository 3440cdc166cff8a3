"""Exact arithmetic and sign determination in multi-quadratic extensions
Q(sqrt(m1), ..., sqrt(mk)).

A value is stored as a finite map {squarefree positive radicand: Fraction}
with radicand 1 holding the rational part.  Products of square roots of
distinct squarefree integers are linearly independent over Q, so the zero
test is purely symbolic: a value is zero iff the map is empty.  Signs of
nonzero values are decided by adaptive-precision integer intervals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from .poly import add_terms, power, sum_hash

_SIGN_PREC_START = 64
_SIGN_PREC_CAP = 65536
_RHO_STEPS = 1 << 18
_RHO_BITS = 256
_PRIME_BITS = 1024


class RadicalSignError(ArithmeticError):
    """Internal error: interval precision cap reached for a nonzero value."""


# ---------------------------------------------------------------------------
# integer factorization (radicands stay exact only if kept squarefree)
# ---------------------------------------------------------------------------

def _small_primes(limit: int = 1000) -> tuple[int, ...]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = b"\x00" * len(sieve[p * p:: p])
    return tuple(i for i, f in enumerate(sieve) if f)

_PRIMES = _small_primes()

# deterministic Miller-Rabin witness set, valid below 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _PRIMES[:20]:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant,
    deterministic parameter sweep for reproducibility).  Raises ValueError
    rather than start a round that would take the whole sweep past
    `_RHO_STEPS` iterations: a number whose smallest factor is out of that
    reach is refused, in bounded time."""
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 50):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            steps += 2 * r  # a round advances y at most 2r times
            if steps > _RHO_STEPS:
                raise ValueError(f"cannot factor a {n.bit_length()}-bit "
                                 f"number within {_RHO_STEPS} Pollard rho "
                                 "steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to factor {n}")  # pragma: no cover


@lru_cache(maxsize=65536)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted ((p, e), ...); ValueError
    when a composite part is out of Pollard rho's reach, at once when it has
    more than `_RHO_BITS` bits (each rho step would square it).  A part of
    more than `_PRIME_BITS` bits gets no primality test, whose cost grows
    with the cube of the length, and is refused unless it is a square."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    for p in _PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m.bit_length() <= _PRIME_BITS and _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        if m.bit_length() > _RHO_BITS:
            raise ValueError(f"cannot factor a {m.bit_length()}-bit number: "
                             f"Pollard rho takes at most {_RHO_BITS} bits")
        f = _pollard_rho(m)
        stack.extend((f, m // f))
    return tuple(sorted(out.items()))


def squarefree_decompose(*factors: int) -> tuple[int, int]:
    """n = s * k**2 with s squarefree, for n the product of the factors;
    returns (s, k).  Each factor is factorized on its own, never their
    product, so the prime exponents are the sums over the factors."""
    if min(factors, default=1) < 1:
        raise ValueError("squarefree_decompose needs positive integers")
    n = prod(factors)
    r = isqrt(n)
    if r * r == n:
        return 1, r
    exps: dict[int, int] = {}
    for m in factors:
        for p, e in factorize(m):
            exps[p] = exps.get(p, 0) + e
    s = k = 1
    for p, e in exps.items():
        if e & 1:
            s *= p
        k *= p ** (e >> 1)
    return s, k


# ---------------------------------------------------------------------------
# the field elements
# ---------------------------------------------------------------------------

class RadicalValue:
    """An exact element of a square-root tower over Q.

    Immutable; arithmetic merges radicand bases on the fly
    (sqrt(2)*sqrt(6) = 2*sqrt(3)) and keeps every radicand squarefree.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: dict[int, Fraction] | None = None,
                 _normalized: bool = False):
        if not coords:
            self._coords: dict[int, Fraction] = {}
        elif _normalized:
            self._coords = coords
        else:
            clean: dict[int, Fraction] = {}
            for s, c in coords.items():
                if s < 1:
                    raise ValueError(f"radicand must be positive: {s}")
                c = Fraction(c)
                if not c:
                    continue
                sf, k = squarefree_decompose(s)
                prev = clean.get(sf)
                val = (prev + c * k) if prev is not None else c * k
                if val:
                    clean[sf] = val
                elif prev is not None:
                    del clean[sf]
            self._coords = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "RadicalValue":
        q = Fraction(q)
        return cls({1: q} if q else {}, _normalized=True)

    # -- structure ----------------------------------------------------------

    @property
    def coords(self) -> dict[int, Fraction]:
        return dict(self._coords)

    @property
    def is_zero(self) -> bool:
        return not self._coords

    def is_rational(self) -> bool:
        return all(s == 1 for s in self._coords)

    def rational_part(self) -> Fraction:
        return self._coords.get(1, Fraction(0))

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.rational_part()

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "RadicalValue | None":
        if isinstance(other, RadicalValue):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalValue.from_rational(other)
        return None

    def __add__(self, other) -> "RadicalValue":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RadicalValue(add_terms(self._coords, other._coords),
                            _normalized=True)

    __radd__ = __add__

    def __neg__(self) -> "RadicalValue":
        return RadicalValue({s: -c for s, c in self._coords.items()},
                            _normalized=True)

    def __sub__(self, other) -> "RadicalValue":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RadicalValue(add_terms(self._coords, other._coords, negate=True),
                            _normalized=True)

    def __rsub__(self, other) -> "RadicalValue":
        return (-self) + other

    def __mul__(self, other) -> "RadicalValue":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        res: dict[int, Fraction] = {}
        for s1, c1 in self._coords.items():
            for s2, c2 in other._coords.items():
                g = gcd(s1, s2)
                s = (s1 // g) * (s2 // g)  # squarefree: s1/g, s2/g coprime
                c = c1 * c2 * g
                v = res.get(s)
                if v is None:
                    res[s] = c
                else:
                    v = v + c
                    if v:
                        res[s] = v
                    else:
                        del res[s]
        return RadicalValue(res, _normalized=True)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RadicalValue":
        if not isinstance(n, int):
            raise TypeError("exponent must be int")
        return power(self.inverse(), -n, ONE) if n < 0 else power(self, n, ONE)

    def inverse(self) -> "RadicalValue":
        """Multiplicative inverse by conjugating one prime at a time."""
        if self.is_zero:
            raise ZeroDivisionError("radical value is zero")
        if self.is_rational():
            return RadicalValue.from_rational(1 / self.rational_part())
        p = min(factorize(s)[0][0] for s in self._coords if s != 1)
        conj: dict[int, Fraction] = {}
        for s, c in self._coords.items():
            if s % p == 0:
                conj[s] = -c
            else:
                conj[s] = c
        conj_val = RadicalValue(conj, _normalized=True)
        norm = self * conj_val  # free of sqrt(p); relative norm, nonzero
        if norm.is_zero or any(s % p == 0 for s in norm._coords):
            raise RadicalSignError("inverse: norm computation failed")
        return conj_val * norm.inverse()

    def __truediv__(self, other) -> "RadicalValue":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "RadicalValue":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._coords == o._coords

    def __hash__(self) -> int:
        return sum_hash(self._coords, 1)

    # -- sign -------------------------------------------------------------------

    def interval(self, prec: int) -> tuple[Fraction, Fraction]:
        """Enclosing rational interval with sqrt error < 2**-prec per term."""
        lo = hi = Fraction(0)
        scale = 1 << prec
        for s, c in self._coords.items():
            if s == 1:
                lo += c
                hi += c
                continue
            n = isqrt(s << (2 * prec))
            r_lo = Fraction(n, scale)
            r_hi = Fraction(n + 1, scale)
            if c > 0:
                lo += c * r_lo
                hi += c * r_hi
            else:
                lo += c * r_hi
                hi += c * r_lo
        return lo, hi

    def sign(self) -> int:
        """-1, 0 or +1.  Zero is decided symbolically (empty coordinate map);
        nonzero signs by refining `interval(prec)` scaled to integers by the
        coefficients' common denominator times 2**prec, doubling prec as
        needed."""
        if not self._coords:
            return 0
        if len(self._coords) == 1:
            (c,) = self._coords.values()
            return -1 if c < 0 else 1
        den = lcm(*(c.denominator for c in self._coords.values()))
        terms = [(s, c.numerator * (den // c.denominator))
                 for s, c in self._coords.items()]
        width = sum(abs(n) for s, n in terms if s != 1)  # hi - lo
        prec = _SIGN_PREC_START
        while prec <= _SIGN_PREC_CAP:
            lo = 0
            for s, n in terms:
                if s == 1:
                    lo += n << prec
                else:
                    r = isqrt(s << (2 * prec))
                    lo += n * r if n > 0 else n * (r + 1)
            if lo > 0:
                return 1
            if lo + width < 0:
                return -1
            prec <<= 1
        raise RadicalSignError(
            f"sign undecided at {_SIGN_PREC_CAP} bits for nonzero value {self}")

    def __bool__(self) -> bool:
        return bool(self._coords)

    # -- printing -----------------------------------------------------------------

    def __str__(self) -> str:
        if not self._coords:
            return "0"
        parts = []
        for s in sorted(self._coords):
            c = self._coords[s]
            num, den = c.numerator, c.denominator
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            body = (mag if s == 1 else f"sqrt({s})" if mag == "1"
                    else f"{mag}*sqrt({s})")
            if not parts:
                parts.append(body if num > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if num > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"RadicalValue({self})"


ZERO = RadicalValue.from_rational(0)
ONE = RadicalValue.from_rational(1)


def sqrt_rational(q) -> RadicalValue:
    """Exact sqrt of a nonnegative rational, with squarefree extraction:
    sqrt(8) = 2*sqrt(2), sqrt(50/9) = (5/3)*sqrt(2)."""
    q = Fraction(q)
    if q < 0:
        raise ValueError(f"sqrt of negative rational {q}")
    if not q:
        return ZERO
    # p/q = sqrt(p*q)/q so the stored radicand is an integer
    s, k = squarefree_decompose(q.numerator, q.denominator)
    return RadicalValue({s: Fraction(k, q.denominator)}, _normalized=True)

