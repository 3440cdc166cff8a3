import random
from decimal import Decimal, getcontext
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadkit import radicals
from quadkit.radicals import (RadicalValue, RadicalSignError, factorize,
                              sqrt_rational, squarefree_decompose)


def test_sqrt_rational_examples():
    assert sqrt_rational(Fraction(25, 4)) == RadicalValue.from_rational(Fraction(5, 2))
    assert sqrt_rational(8).coords == {2: Fraction(2)}          # 2*sqrt(2)
    assert sqrt_rational(Fraction(50, 9)).coords == {2: Fraction(5, 3)}
    assert sqrt_rational(0).is_zero
    with pytest.raises(ValueError):
        sqrt_rational(-1)


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(360) == (10, 6)
    p = 10 ** 6 + 3  # prime
    assert squarefree_decompose(p * p * 7) == (7, p)
    n = 2 ** 3 * 3 ** 4 * 5
    s, k = squarefree_decompose(n)
    assert s * k * k == n and s == 10


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == ((p, 1), (q, 1))


def test_arithmetic_examples():
    r2, r3 = sqrt_rational(2), sqrt_rational(3)
    assert r2 * r2 == RadicalValue.from_rational(2)
    assert (1 + r2) * (1 - r2) == RadicalValue.from_rational(-1)
    assert r2 * r3 == sqrt_rational(6)
    assert sqrt_rational(8) - 2 * r2 == RadicalValue.from_rational(0)


def test_sign_examples():
    r2, r3, r5 = (sqrt_rational(n) for n in (2, 3, 5))
    assert (r2 + r3 - r5).sign() == 1
    assert RadicalValue.from_rational(0).sign() == 0
    # folded-rectangle P value: 3*4 + 4*3 - 5*(7/5) = 18 > 0, via radicals
    p = (sqrt_rational(16) * sqrt_rational(16)
         + sqrt_rational(9) * sqrt_rational(9)
         - sqrt_rational(25) * sqrt_rational(Fraction(49, 25)))
    assert p == RadicalValue.from_rational(18)
    assert p.sign() == 1


def test_sign_near_zero_needs_precision():
    r2 = sqrt_rational(2)
    # continued-fraction convergents of sqrt(2) straddle it
    assert (r2 - Fraction(99, 70)).sign() == -1
    assert (r2 - Fraction(239, 169)).sign() == 1
    assert (r2 - Fraction(114243, 80782)).sign() == -1
    big = Fraction(886731088897, 627013566048)  # very close convergent
    expected = 1 if big * big < 2 else -1
    assert (r2 - big).sign() == expected


def test_zero_is_decided_symbolically():
    x = (sqrt_rational(2) + sqrt_rational(3)) ** 2 - (5 + 2 * sqrt_rational(6))
    assert x.is_zero and x.sign() == 0
    y = sqrt_rational(Fraction(4, 9)) - Fraction(2, 3)
    assert y.is_zero


def test_sign_multiplicativity_on_random_values():
    rng = random.Random(23)

    def rand_val():
        v = RadicalValue.from_rational(0)
        for s in rng.sample((1, 2, 3, 5, 6, 7, 10), k=3):
            c = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            v = v + c * sqrt_rational(s)
        return v

    for _ in range(300):
        x, y = rand_val(), rand_val()
        if x.is_zero or y.is_zero:
            continue
        assert (x * y).sign() == x.sign() * y.sign()


def test_sign_against_100_digit_decimal():
    getcontext().prec = 110
    rng = random.Random(7)
    radicands = (1, 2, 3, 5, 6, 7, 11, 13, 15, 21)
    for _ in range(1000):
        coords = {}
        for s in rng.sample(radicands, k=rng.randint(1, 4)):
            coords[s] = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        v = RadicalValue(coords)
        approx = Decimal(0)
        for s, c in v.coords.items():
            approx += (Decimal(c.numerator) / Decimal(c.denominator)
                       * Decimal(s).sqrt())
        want = 0 if v.is_zero else (1 if approx > 0 else -1)
        assert v.sign() == want


def test_inverse_and_division():
    rng = random.Random(5)
    for _ in range(60):
        coords = {s: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for s in rng.sample((1, 2, 3, 5, 7, 30), k=3)}
        x = RadicalValue(coords)
        if x.is_zero:
            continue
        assert x * x.inverse() == RadicalValue.from_rational(1)
        assert (x / x) == RadicalValue.from_rational(1)
    with pytest.raises(ZeroDivisionError):
        RadicalValue.from_rational(0).inverse()


def test_pow():
    r2 = sqrt_rational(2)
    assert (1 + r2) ** 3 == 7 + 5 * r2
    assert (1 + r2) ** 0 == RadicalValue.from_rational(1)
    assert (1 + r2) ** -1 == (1 + r2).inverse()


def test_radicand_normalization_in_constructor():
    # non-squarefree radicands are normalized on entry: sqrt(12) = 2*sqrt(3)
    v = RadicalValue({12: Fraction(1)})
    assert v.coords == {3: Fraction(2)}
    w = RadicalValue({3: Fraction(1), 12: Fraction(1)})
    assert w.coords == {3: Fraction(3)}


def test_str_format():
    v = Fraction(3, 2) + 5 * sqrt_rational(2) - Fraction(1, 3) * sqrt_rational(6)
    assert str(v) == "3/2 + 5*sqrt(2) - 1/3*sqrt(6)"
    assert str(RadicalValue.from_rational(0)) == "0"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10 ** 6))
def test_squarefree_property(n):
    s, k = squarefree_decompose(n)
    assert s * k * k == n
    for p, e in factorize(s):
        assert e == 1


def test_squarefree_decompose_of_factors():
    assert squarefree_decompose(12, 3) == (1, 6)
    assert squarefree_decompose(6, 10) == (15, 2)
    assert squarefree_decompose(1, 8, 1) == (2, 2)
    assert squarefree_decompose(1, 1) == (1, 1)
    p = 10 ** 6 + 3  # prime
    assert squarefree_decompose(2 * p, 7, 14 * p) == (1, 14 * p)
    assert squarefree_decompose(3 * p, 5 * p, 15) == (1, 15 * p)
    assert squarefree_decompose(2 * p, 3 * p) == (6, p)
    with pytest.raises(ValueError):
        squarefree_decompose(4, 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=7))
def test_squarefree_of_factors_matches_product(factors):
    s, k = squarefree_decompose(*factors)
    assert (s, k) == squarefree_decompose(prod(factors))
    for p, e in factorize(s):
        assert e == 1


def test_hash_agrees_with_equality():
    # equal values hash alike, so rational values mix with ints and
    # Fractions in sets and dict keys
    two = RadicalValue.from_rational(2)
    half = RadicalValue.from_rational(Fraction(1, 2))
    zero = RadicalValue.from_rational(0)
    for value, plain in ((two, 2), (two, Fraction(4, 2)), (half, Fraction(1, 2)),
                         (zero, 0), (zero, Fraction(0)),
                         (sqrt_rational(4), 2), (sqrt_rational(2) * sqrt_rational(2), 2),
                         (sqrt_rational(3) - sqrt_rational(3), 0)):
        assert value == plain
        assert hash(value) == hash(plain)
        assert plain in {value}
        assert value in {plain}
    assert {two: "x"}[2] == "x"
    assert {0: "z"}[zero] == "z"
    r2 = sqrt_rational(2)
    assert r2 in {sqrt_rational(8) / 2}
    assert hash(1 + r2) == hash(r2 + 1)


# -- the integer sign kernel against the Fraction-interval kernel it replaced --

def _fraction_interval_sign(v):
    """Reference: the sign by Fraction intervals, refined from 64 bits by
    doubling up to the 65536-bit cap."""
    if v.is_zero:
        return 0
    if v.is_rational():
        return -1 if v.rational_part() < 0 else 1
    prec = 64
    while prec <= 65536:
        lo, hi = v.interval(prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec <<= 1
    raise RadicalSignError(str(v))


def _squarefree(rng):
    return prod(rng.sample((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 10007,
                            1000003), k=rng.randint(1, 4)))


def _random_values(rng):
    """Values with 1-5 radicands (1 among them at times), numerators and
    denominators of up to 40 digits, each also with a rational approximation
    of itself subtracted, so that the difference nearly cancels."""
    for _ in range(300):
        coords = {}
        for _ in range(rng.randint(1, 5)):
            s = 1 if rng.random() < 0.2 else _squarefree(rng)
            coords[s] = Fraction(rng.randint(-10 ** 40, 10 ** 40),
                                 rng.randint(1, 10 ** rng.randint(1, 40)))
        v = RadicalValue(coords)
        yield v
        if not v.is_rational():
            lo, hi = v.interval(300)
            near = ((lo + hi) / 2).limit_denominator(10 ** rng.randint(5, 60))
            yield v - near


def test_integer_sign_matches_fraction_interval_sign():
    r2 = sqrt_rational(2)
    pinned = [r2 - Fraction(114243, 80782), r2 - Fraction(99, 70),
              r2 - Fraction(886731088897, 627013566048),
              Fraction(-3, 7) * sqrt_rational(5)]
    for v in [*pinned, *_random_values(random.Random(41))]:
        assert v.sign() == _fraction_interval_sign(v), v


def test_sign_precision_cap_still_raises(monkeypatch):
    # sqrt(2) - p/q is about 1/(2*sqrt(2)*q**2) = 9e-25: 64 bits undecided
    close = sqrt_rational(2) - Fraction(886731088897, 627013566048)
    monkeypatch.setattr(radicals, "_SIGN_PREC_CAP", 64)
    with pytest.raises(RadicalSignError):
        close.sign()
    assert (sqrt_rational(2) - Fraction(99, 70)).sign() == -1
    monkeypatch.setattr(radicals, "_SIGN_PREC_CAP", 128)
    assert close.sign() == _fraction_interval_sign(close)
