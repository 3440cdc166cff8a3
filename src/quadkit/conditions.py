"""The named condition polynomials in the six mutual distances a..f, their
identity ledger, and exact evaluators on configurations, which factorize each
scaled squared distance on its own and never a product of them.

Angle conventions (fixed once, to avoid vertex-order confusion): the
supplementary-angle family R compares alpha = angle CDA with beta = angle CBA;
the equal-angle family R_T compares alpha = angle BAD with beta = angle BCD.
Each fact has one zero test, `eval_condition(name, d).is_zero`: the angles are
supplementary iff K = 0 and equal iff K_T = 0 (for positive distances).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .geometry import DistSextuple, cayley_menger, cm_rows, midpoint_distances
from .poly import Polynomial, VarSet, det
from .radicals import RadicalValue, sqrt_rational, squarefree_decompose

DIST_VARS = VarSet(("a", "b", "c", "d", "e", "f"))

CONDITION_NAMES = ("P", "Q", "S", "K", "R", "W",
                   "P_T", "Q_T", "R_T", "K_T", "S_T", "W_T",
                   "K_1", "R_1", "K_G", "Q_G", "R_G", "CM")

IDENTITY_NAMES = ("I1", "I2", "I3", "IT", "IT_S1", "IT_S2",
                  "I5a", "I5b", "SYM1", "SYM2", "IG")


@lru_cache(maxsize=1)
def _conditions() -> dict[str, Polynomial]:
    a, b, c, d, e, f = Polynomial.variables(DIST_VARS)
    table = {
        "P": a*c + b*d - e*f,
        "Q": a*c + b*d + e*f,
        "S": e*(a*b + c*d) - f*(a*d + b*c),
        "K": e**2*(a*b + c*d) - (a**2 + b**2)*c*d - (c**2 + d**2)*a*b,
        "R": (b*c + a*d)**2 - e**2*(a**2 + b**2 + c**2 + d**2 - e**2 - f**2),
        "W": (a*c*(-a**2 - c**2 + b**2 + d**2 + e**2 + f**2)
              + b*d*(a**2 + c**2 - b**2 - d**2 + e**2 + f**2)
              - e*f*(a**2 + c**2 + b**2 + d**2 - e**2 - f**2)),
        "P_T": a*c - b*d + e*f,
        "Q_T": a*c - b*d - e*f,
        "R_T": (a*b - c*d)**2 - f**2*(a**2 + b**2 + c**2 + d**2 - e**2 - f**2),
        "K_T": f**2*(b*c - a*d) - b*c*(a**2 + d**2) + a*d*(b**2 + c**2),
        "S_T": f*(b*c - a*d) - e*(c*d - a*b),
        "W_T": (a*c*(-a**2 + b**2 - c**2 + d**2 + e**2 + f**2)
                - b*d*(a**2 - b**2 + c**2 - d**2 + e**2 + f**2)
                + e*f*(a**2 + b**2 + c**2 + d**2 - e**2 - f**2)),
        "K_1": (a*d + b*c)*f**2 - (a**2 + d**2)*b*c - (b**2 + c**2)*a*d,
        "R_1": (a*b + c*d)**2 - f**2*(a**2 + b**2 + c**2 + d**2 - e**2 - f**2),
        "K_G": (a*f - c*e)*d**2 + c*e*(a**2 + f**2) - (c**2 + e**2)*a*f,
        "Q_G": -a*c + b*d + e*f,
        "R_G": (a**2 - b**2 + c**2 - d**2 + e**2 + f**2)*d**2 - (a*e - c*f)**2,
        "CM": det(cm_rows(a*a, b*b, c*c, d*d, e*e, f*f)),
    }
    assert tuple(table) == CONDITION_NAMES
    return table


def condition_poly(name: str) -> Polynomial:
    """The symbolic condition polynomial in a..f (CM is the expanded 5x5
    distance determinant)."""
    table = _conditions()
    if name not in table:
        raise ValueError(f"unknown condition {name!r}; "
                         f"one of {', '.join(CONDITION_NAMES)}")
    return table[name]


@lru_cache(maxsize=1)
def _identities() -> dict[str, Polynomial]:
    t = _conditions()
    P, Q, S, K, R, W = (t[k] for k in ("P", "Q", "S", "K", "R", "W"))
    P_T, Q_T, R_T, K_T, S_T, W_T = (t[k] for k in
                                    ("P_T", "Q_T", "R_T", "K_T", "S_T", "W_T"))
    K_1, R_1, K_G, Q_G, R_G, CM = (t[k] for k in
                                   ("K_1", "R_1", "K_G", "Q_G", "R_G", "CM"))
    a, b, c, d, e, f = Polynomial.variables(DIST_VARS)
    half = Fraction(1, 2)
    return {
        "I1": -P * W + S * S + CM * half,
        "I2": -e * S + K + (b * c + a * d) * P,
        "I3": (K * K - P * Q * R) * 2 + e * e * CM,
        "IT": (P_T * Q_T * R_T - K_T * K_T) * 2 - f * f * CM,
        "IT_S1": -f * S_T + K_T - (c * d - a * b) * P_T,
        "IT_S2": -P_T * W_T + S_T * S_T + CM * half,
        "I5a": (K_1 * K_1 - P * Q * R_1) * 2 + f * f * CM,
        "I5b": f * S + K_1 + (a * b + c * d) * P,
        "SYM1": (f - e) * S + K + K_1 + (a * b + c * d + b * c + a * d) * P,
        "SYM2": (K * K + K_1 * K_1 - P * Q * (R + R_1)) * 2
                + (e * e + f * f) * CM,
        "IG": P * Q_G * R_G - K_G * K_G - CM * (d * d) * half,
    }


def identity_poly(name: str) -> Polynomial:
    table = _identities()
    if name not in table:
        raise ValueError(f"unknown identity {name!r}; "
                         f"one of {', '.join(IDENTITY_NAMES)}")
    return table[name]


def verify_identity(name: str) -> bool:
    """Expand the identity's combination symbolically; True iff it is the
    zero polynomial.  No sampling involved."""
    return identity_poly(name).is_zero


def verify_all_identities() -> dict[str, bool]:
    return {name: verify_identity(name) for name in IDENTITY_NAMES}


# ---------------------------------------------------------------------------
# exact evaluation on squared-distance sextuples
# ---------------------------------------------------------------------------

_COMPILED: dict[int, tuple] = {}  # by id; each entry keeps its polynomial
_LAST: tuple | None = None  # (sextuple, class roots) of the latest sextuple


def _compile(p: Polynomial) -> tuple:
    """p's terms by the parity vector of their exponents: per class the odd
    variables, den and e of the common denominator den * L**e (L is the
    sextuple's `int_scale`) and per term its integer coefficient, its half
    exponents above 0 and the power of L padding it to the top half degree."""
    hit = _COMPILED.get(id(p))
    if hit is not None:
        return hit[1]
    if p.vars != DIST_VARS:
        raise ValueError("polynomial must live in the distance variables")
    groups: dict[tuple[int, ...], list] = {}
    for mono, c in p.terms.items():
        groups.setdefault(tuple(i for i, e in enumerate(mono) if e & 1),
                          []).append((mono, c, sum(e >> 1 for e in mono)))
    classes = []
    for odd, terms in groups.items():
        den = lcm(*(c.denominator for _, c, _ in terms))
        top = max(h for _, _, h in terms)
        classes.append((odd, den, top + (len(odd) + 1) // 2, tuple(
            (c.numerator * (den // c.denominator),
             tuple((i, e >> 1) for i, e in enumerate(mono) if e > 1), top - h)
            for mono, c, h in terms)))
    if len(_COMPILED) >= 256:
        del _COMPILED[next(iter(_COMPILED))]
    _COMPILED[id(p)] = hit = (p, tuple(classes))
    return hit[1]


def eval_poly_on_sextuple(p: Polynomial, d: DistSextuple) -> RadicalValue:
    """Evaluate a distance polynomial exactly at a = sqrt(qa) etc.

    With q_i = n_i / L for the sextuple's `int_q` n_i and `int_scale` L,
    each parity class is an integer sum times sqrt(L**(len(odd) % 2) * prod
    of its odd n_i) over a power of L: one square root per class, whose
    radicand is factored entry by entry (`squarefree_decompose`).  Roots of
    distinct squarefree integers are linearly independent over Q, so the
    value's form is the term-wise one.  The class roots of the latest
    sextuple (compared by value) are kept for reuse."""
    global _LAST
    if _LAST is None or _LAST[0] != d:
        _LAST = (d, {})
    roots, n, scale = _LAST[1], d.int_q, d.int_scale
    coords: dict[int, Fraction] = {}
    for odd, den, exp, rows in _compile(p):
        acc = 0
        for coeff, halves, pad in rows:
            t = coeff * scale ** pad if pad else coeff
            for i, h in halves:
                t *= n[i] ** h
            acc += t
        if acc:
            root = roots.get(odd)
            if root is None:
                factors = [n[i] for i in odd]
                if len(odd) & 1:
                    factors.append(scale)
                root = roots[odd] = squarefree_decompose(*factors)
            s, k = root
            c = coords.pop(s, 0) + Fraction(acc * k, den * scale ** exp)
            if c:
                coords[s] = c
    return RadicalValue(coords, _normalized=True)


def eval_condition(id: str, d: DistSextuple) -> RadicalValue:
    """Exact value of a named condition at the sextuple's distances."""
    return eval_poly_on_sextuple(condition_poly(id), d)


# ---------------------------------------------------------------------------
# midpoint-distance corollary (valid on the R = 0 family only)
# ---------------------------------------------------------------------------

def midpoint_v_formulas(d: DistSextuple) -> tuple[RadicalValue, RadicalValue]:
    """Both closed forms for the distance v between the midpoints of AC and
    BD on the R = 0 family, (bc+ad)/(2e) and the diagonal-free
    (1/2)sqrt((bc+ad)(ab+cd)/(ac+bd)), checked multiplied out against the
    rational v^2 of `midpoint_distances`: (bc+ad)^2 - 4e^2*v^2 is R, and
    4v^2*(ac+bd) = (bc+ad)(ab+cd) holds on R = 0 iff K = 0, so on every
    planar input (I3).  Raises ValueError if R != 0 or K != 0."""
    r = eval_condition("R", d)
    if not r.is_zero:
        raise ValueError(f"midpoint formulas need R = 0; R = {r}")
    v_sq = midpoint_distances(d)[0]
    bc_ad = sqrt_rational(d.qb * d.qc) + sqrt_rational(d.qa * d.qd)
    ab_cd = sqrt_rational(d.qa * d.qb) + sqrt_rational(d.qc * d.qd)
    ac_bd = sqrt_rational(d.qa * d.qc) + sqrt_rational(d.qb * d.qd)
    if 4 * v_sq * ac_bd != bc_ad * ab_cd:
        raise ValueError("midpoint formulas need K = 0, true on every planar "
                         "R = 0 input; this sextuple is not planar")
    v = sqrt_rational(v_sq)
    return v, v


# ---------------------------------------------------------------------------
# startup self-check: determinant evaluator vs expanded CM polynomial
# ---------------------------------------------------------------------------

_SELF_CHECK_DONE = False


def run_self_check() -> None:
    """Assert the expanded CM polynomial agrees with the 5x5 determinant on
    50 random rational sextuples; cached after the first successful run."""
    global _SELF_CHECK_DONE
    if _SELF_CHECK_DONE:
        return
    rng = random.Random(20260810)
    cm = condition_poly("CM")
    for _ in range(50):
        d = DistSextuple.of(*[Fraction(rng.randint(1, 400), rng.randint(1, 20))
                              for _ in range(6)])
        sym = eval_poly_on_sextuple(cm, d)
        if not sym.is_rational() or sym.as_fraction() != cayley_menger(d):
            raise AssertionError(
                f"CM polynomial disagrees with determinant at {d}")
    _SELF_CHECK_DONE = True
