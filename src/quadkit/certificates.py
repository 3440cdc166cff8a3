"""Machine re-derivation of the Groebner-backed claims, with signed-off
certificate reports.

Every certificate is two-tier where that makes sense: tier 1 is a symbolic
Groebner computation under a wall-clock budget (a target in the radical of
the scheme ideal), tier 2 an exact-rational sampling fallback.  One runner
(`_certify`) runs every claim, and one rule (`_status`) turns the tiers into
a status: symbolic success yields CERTIFIED, sampling alone SUPPORTED or
TIER2-ONLY, and no finished tier INCONCLUSIVE; the report never confuses the
two.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, permutations
from math import prod
from typing import Callable, Sequence

from . import geometry
from .conditions import (DIST_VARS, condition_poly, eval_condition,
                         eval_poly_on_sextuple)
from .geometry import (DIST_PAIRS, TRIANGLES, HullClass, QuadConfig,
                       classify_hull, cocircularity, cross,
                       gen_collinear_inorder, gen_cyclic, gen_folded,
                       gen_tilted_kite, hull_from_signs, hull_table,
                       lift_rows, random_quad, reflect_over_line, same_cycle,
                       sq_dist)
from .groebner import GroebnerTimeout, radical_membership
from .poly import GREVLEX, Polynomial, VarSet, det

CERTIFIED = "CERTIFIED"
SUPPORTED = "SUPPORTED"
TIER2_ONLY = "TIER2-ONLY"
INCONCLUSIVE = "INCONCLUSIVE"
FAILED = "FAILED"

DEFAULT_TIMEOUT = 600.0


@dataclass
class Certificate:
    """Record of one certified claim, re-runnable by any CAS from its texts."""

    claim: str
    description: str
    status: str = INCONCLUSIVE
    order: str | None = None
    ideal: list[str] | None = None
    reduced_basis: list[str] | None = None
    elapsed_ms: int = 0
    tier1: dict | None = None
    tier2: dict | None = None
    notes: list[str] = field(default_factory=list)

    def to_obj(self) -> dict:
        return asdict(self)


def _ms(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


def _status(verdict: bool | None, has_tier1: bool, samples: int,
            violations: int) -> str:
    """The status of every claim: a false tier 1 (True, False, or None when
    absent or unfinished) or any tier-2 violation fails it, a true tier 1
    certifies it, and otherwise samples alone give TIER2-ONLY on a two-tier
    claim or SUPPORTED on a sampling-only one; with no sample it stays
    INCONCLUSIVE."""
    if verdict is False or violations:
        return FAILED
    if verdict:
        return CERTIFIED
    if not samples:
        return INCONCLUSIVE
    return TIER2_ONLY if has_tier1 else SUPPORTED


def _tally(record: dict) -> tuple[int, int]:
    """Samples and violations of a tier-2 record and its parts: every
    `samples` count, and every count named for violations or mismatches,
    plus `unrealizable_patterns`."""
    samples = violations = 0
    for key, v in record.items():
        if isinstance(v, dict):
            s, bad = _tally(v)
            samples += s
            violations += bad
        elif key == "samples":
            samples += v
        elif ("violations" in key or "mismatches" in key
              or key == "unrealizable_patterns"):
            violations += v
    return samples, violations


def _certify(claim: str, description: str,
             tier2: Callable[[], tuple[dict, list[str]]],
             timeout: float = 0.0,
             tier1: tuple[str, Polynomial, list[Polynomial]] | None = None
             ) -> Certificate:
    """The runner of every claim.  A symbolic claim's tier 1 (verdict key,
    f, gens) asks within `timeout` seconds whether f lies in the radical of
    <gens>, and is skipped at 0; tier 2 returns its record and notes.  The
    status is read from the verdict and the record's tally."""
    t0 = time.monotonic()
    cert = Certificate(claim, description)
    verdict = None
    if tier1 is not None:
        key, f, gens = tier1
        cert.order = GREVLEX.name
        cert.ideal = [g.to_text(GREVLEX) for g in gens]
        if timeout <= 0:
            cert.tier1 = {"completed": False, "method": None,
                          "note": "tier 1 skipped (budget 0)"}
        else:
            try:
                verdict = radical_membership(f, gens, timeout=timeout)
                cert.tier1 = {"completed": True,
                              "method": "radical-membership", key: verdict}
            except GroebnerTimeout:
                cert.tier1 = {"completed": False, "method": None, key: None,
                              "note": f"budget {timeout}s exceeded"}
            cert.tier1["elapsed_ms"] = _ms(t0)
        cert.reduced_basis = ["1"] if verdict else None
    t2 = time.monotonic()
    cert.tier2, cert.notes = tier2()
    if "samples" in cert.tier2:  # a record in parts keeps no time of its own
        cert.tier2["elapsed_ms"] = _ms(t2)
    cert.status = _status(verdict, tier1 is not None, *_tally(cert.tier2))
    cert.elapsed_ms = _ms(t0)
    return cert


# ---------------------------------------------------------------------------
# coordinate schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateScheme:
    """A rational placement of the four points, the distance generators
    that tie coordinates to the distances it leaves free, and the family
    that samples the scheme's constraint."""

    name: str
    vars: VarSet
    placement: dict
    generators: tuple
    family: str

    def area2(self, tri: str) -> Polynomial:
        return cross(*map(self.placement.get, tri))

    def cocircle(self) -> Polynomial:
        return det(lift_rows(map(self.placement.get, "ABCD")))

    def ideal(self, *extra: Polynomial) -> list[Polynomial]:
        """The generators, then each extra polynomial on the scheme's
        variables."""
        return [*self.generators, *(p.on_vars(self.vars) for p in extra)]


# y above x: fewer grevlex S-pair reductions (2013 vs 3444 over twelve claims)
_SCHEME_VARS = VarSet(("a", "b", "c", "d", "e", "f", "v", "z", "u", "w"))

# per constraint: the scheme's name; the x and y of A, B, C, D, each a scheme
# variable or 0; the distances the placement leaves free, in generator
# order; the family of tier 2
_SCHEMES = {
    "P": ("ptolemy", ("00", "a0", "uv", "wz"), "bcdef", "cyclic"),
    "R": ("supplementary", ("uv", "f0", "wz", "00"), "aecdb", "folded"),
    "R_T": ("equal-angle", ("00", "uv", "e0", "wz"), "abcdf", "kite"),
}


@lru_cache(maxsize=None)
def _scheme(constraint: str) -> CoordinateScheme:
    """The scheme of a constraint's row: the distance x joining P and Q
    (`DIST_PAIRS`) gives the generator |PQ|^2 - x^2."""
    name, coords, free, family = _SCHEMES[constraint]
    var = dict(zip(_SCHEME_VARS, Polynomial.variables(_SCHEME_VARS)))
    var["0"] = Polynomial.zero(_SCHEME_VARS)
    place = {v: (var[x], var[y]) for v, (x, y) in zip("ABCD", coords)}
    gens = [sq_dist(*map(place.get, DIST_PAIRS[DIST_VARS.index(x)]))
            - var[x] ** 2 for x in free]
    return CoordinateScheme(name, _SCHEME_VARS, place, tuple(gens), family)


def ptolemy_scheme() -> CoordinateScheme:
    return _scheme("P")


def r_scheme() -> CoordinateScheme:
    return _scheme("R")


def t_scheme() -> CoordinateScheme:
    return _scheme("R_T")


# ---------------------------------------------------------------------------
# converse-of-Ptolemy certificate
# ---------------------------------------------------------------------------

def cert_converse_ptolemy(seed: int = 0, timeout: float = DEFAULT_TIMEOUT,
                          samples: int = 500) -> Certificate:
    """The cocircularity quartic lies in the radical of <f1..f5, P>: on the
    distance variety, P = 0 forces the determinant to vanish."""
    scheme = ptolemy_scheme()
    quartic = scheme.cocircle()

    def tier2():
        # exact samples of the P family satisfy P = 0 and the determinant
        # vanishes; random non-cocircular samples keep it nonzero
        rng = random.Random(seed)
        bad = 0
        nonzero_controls = 0
        stream = _family_samples(scheme.family, rng)
        for _ in range(samples):
            cfg = next(stream)
            if not eval_condition("P", cfg.sextuple()).is_zero:
                bad += 1
            elif cocircularity(cfg) != 0:
                bad += 1
            ctrl = random_quad(rng)
            if cocircularity(ctrl) != 0:
                nonzero_controls += 1
        return ({"samples": samples, "violations": bad,
                 "nonzero_determinant_controls": nonzero_controls},
                ["cocircularity quartic derived from the 4x4 lifting "
                 f"determinant: {quartic.to_text(GREVLEX)}"])

    return _certify(
        "converse_ptolemy",
        "P = 0 forces four planar points onto a circle or a line "
        "(unit reduced basis of the slack-augmented ideal)", tier2, timeout,
        ("unit_basis", quartic, scheme.ideal(condition_poly("P"))))


# ---------------------------------------------------------------------------
# elimination closed forms
# ---------------------------------------------------------------------------

# the named area products; any other area spec is a single triangle
_AREA_PRODUCTS = {"N": ("ABC", "ACD"), "M": ("ABD", "BCD")}


@dataclass(frozen=True)
class _ElimTarget:
    """One closed form as the paper states it: on the family cut by the
    constraint (P, R or R_T), A' * value**power = B', where value is the
    product of the area spec's doubled signed triangle areas and a single
    triangle is compared squared.  A sample with A' = 0 is skipped as a
    guard.  `sign` is the claimed sign of the value; `hulls` the stated
    hull boundaries of a signed area product, keyed by the sign of ABC."""

    constraint: str
    area_spec: str
    sign: int | None = None
    hulls: dict[int, set[str]] | None = None

    @property
    def triangles(self) -> tuple[str, ...]:
        return _AREA_PRODUCTS.get(self.area_spec, (self.area_spec,))

    @property
    def power(self) -> int:
        return 2 if len(self.triangles) == 1 else 1


@lru_cache(maxsize=1)
def _heron_poly() -> Polynomial:
    a, b, c, d, e, f = Polynomial.variables(DIST_VARS)
    return (-a + b + c + d) * (a - b + c + d) * (a + b - c + d) * (a + b + c - d)


@lru_cache(maxsize=1)
def _gamma_poly() -> Polynomial:
    a, b, c, d, e, f = Polynomial.variables(DIST_VARS)
    return (a + b + c + d) * (a - b - c + d) * (a - b + c - d) * (a + b - c - d)


@lru_cache(maxsize=1)
def _elim_targets() -> dict[str, tuple[_ElimTarget, Polynomial, Polynomial]]:
    a, b, c, d, e, f = Polynomial.variables(DIST_VARS)
    heron = _heron_poly()
    gamma = _gamma_poly()
    abcd = a * b * c * d
    four = Fraction(4)
    t_ab_cd = four * (a * b + c * d) ** 2
    t_bc_ad = four * (b * c + a * d) ** 2
    t_ad_bc = four * (a * d - b * c) ** 2
    t_ac_bd = four * (a * c - b * d) ** 2
    table: dict[str, tuple[_ElimTarget, Polynomial, Polynomial]] = {
        "N_ptolemy": (_ElimTarget("P", "N", 1), t_ab_cd, abcd * heron),
        "M_ptolemy": (_ElimTarget("P", "M", 1), t_bc_ad, abcd * heron),
        "N_R": (_ElimTarget("R", "N", -1,
                            {1: {"ABC", "CAD", "ABDC", "ADBC"},
                             -1: {"ACB", "CDA", "ACDB", "ACBD"}}),
                t_ab_cd, -1 * abcd * heron),
        "dABD_R": (_ElimTarget("R", "ABD"),
                   t_ab_cd * (a * c + b * d) ** 2,
                   heron * (b * b - c * c) ** 2 * d * d * a * a),
        "dBCD_R": (_ElimTarget("R", "BCD"),
                   t_ab_cd * (a * c + b * d) ** 2,
                   heron * (a * a - d * d) ** 2 * c * c * b * b),
        "M_T": (_ElimTarget("R_T", "M", 1, {1: {"ABCD", "ABC", "CAD"},
                                            -1: {"ADCB", "ACB", "CDA"}}),
                t_ad_bc, -1 * abcd * gamma),
        "dABD_T": (_ElimTarget("R_T", "ABD"),
                   t_ad_bc, -1 * gamma * d * d * a * a),
        "dBCD_T": (_ElimTarget("R_T", "BCD"),
                   t_ad_bc, -1 * gamma * c * c * b * b),
        "dABC_T": (_ElimTarget("R_T", "ABC"),
                   t_ac_bd * (a * d - b * c) ** 2,
                   -1 * gamma * (c * c - d * d) ** 2 * b * b * a * a),
        "dACD_T": (_ElimTarget("R_T", "ACD"),
                   t_ac_bd * (a * d - b * c) ** 2,
                   -1 * gamma * (a * a - b * b) ** 2 * d * d * c * c),
    }
    return table


ELIM_TARGETS = ("N_ptolemy", "M_ptolemy", "N_R", "dABD_R", "dBCD_R",
                "M_T", "dABD_T", "dBCD_T", "dABC_T", "dACD_T")


def _hull_sets(tgt: _ElimTarget) -> dict[int, set[str]]:
    """Hull boundaries the sign tables allow when the target's triangle
    signs multiply to its claimed sign, keyed by the sign of ABC."""
    out: dict[int, set[str]] = {1: set(), -1: set()}
    for signs, (kind, hull) in hull_table().items():
        by_tri = dict(zip(TRIANGLES, signs))
        if prod(by_tri[t] for t in tgt.triangles) == tgt.sign:
            out[by_tri["ABC"]].add(hull)
    return out


def _family_samples(family: str, rng: random.Random):
    """Endless stream of exact configurations of one sampling family."""
    for i in count():
        if family == "cyclic":
            if i % 50 == 49:
                yield gen_collinear_inorder(rng)
            else:
                yield gen_cyclic(rng, "ABCD" if i % 2 else "ADCB")
        elif family == "folded":
            yield gen_folded(rng)
        elif family == "kite":
            yield gen_tilted_kite(rng, convex=bool(rng.random() < 0.5))
        else:
            raise ValueError(f"unknown family {family!r}")


def elimination_tier2(targets: Sequence[str], samples: int = 1000,
                      seed: int = 0) -> dict[str, dict]:
    """Exact sampling check of the closed forms: generates each family once
    and, per sample with A' != 0, compares A'(a..d) * value**power with
    B'(a..d) in the radical field and checks the claimed sign; a target with
    stated hull sets also checks the hull against the sets the sign tables
    allow, and a signed R_T target -Gamma >= 0.  Returns per-target stats."""
    table = _elim_targets()
    by_family: dict[str, list[str]] = {}
    results: dict[str, dict] = {}
    allowed: dict[str, dict[int, set[str]]] = {}
    for t in dict.fromkeys(targets):  # a repeated target runs once
        if t not in table:
            raise ValueError(f"unknown elimination target {t!r}")
        tgt = table[t][0]
        by_family.setdefault(_scheme(tgt.constraint).family, []).append(t)
        results[t] = {"samples": 0, "mismatches": 0, "sign_violations": 0,
                      "guard_skips": 0}
        if tgt.hulls is not None:
            allowed[t] = _hull_sets(tgt)
            results[t]["hull_violations"] = 0
        if tgt.constraint == "R_T" and tgt.sign is not None:
            results[t]["gamma_sign_violations"] = 0
    for family, fam_targets in by_family.items():
        stream = _family_samples(family, random.Random(seed))
        while any(results[t]["samples"] < samples for t in fam_targets):
            cfg = next(stream)
            d = cfg.sextuple()
            s2 = cfg.int_scale ** 2
            for t in fam_targets:
                tgt, lhs_poly, rhs_poly = table[t]
                stats = results[t]
                if stats["samples"] >= samples:
                    continue
                lhs = eval_poly_on_sextuple(lhs_poly, d)
                if lhs.is_zero:
                    stats["guard_skips"] += 1
                    continue
                stats["samples"] += 1
                value = prod(Fraction(cfg.cross(tri), s2)
                             for tri in tgt.triangles)
                rhs = eval_poly_on_sextuple(rhs_poly, d)
                if lhs * value ** tgt.power != rhs:
                    stats["mismatches"] += 1
                if tgt.sign is not None and tgt.sign * value < 0:
                    stats["sign_violations"] += 1
                if t in allowed:
                    # a collinear hull has no boundary to check
                    hull = classify_hull(cfg).boundary
                    if hull and hull not in allowed[t][cfg.orient("ABC")]:
                        stats["hull_violations"] += 1
                if ("gamma_sign_violations" in stats and
                        eval_poly_on_sextuple(_gamma_poly(), d).sign() > 0):
                    stats["gamma_sign_violations"] += 1
    return results


def cert_elimination_formula(target: str, seed: int = 0,
                             timeout: float = DEFAULT_TIMEOUT,
                             samples: int = 1000) -> Certificate:
    """Two-tier verification of one closed-form area or area-product
    formula: the relation A' * value^power - B' lies in the radical of the
    scheme ideal."""
    if target not in _elim_targets():
        raise ValueError(f"unknown elimination target {target!r}; "
                         f"one of {', '.join(ELIM_TARGETS)}")
    tgt, lhs_poly, rhs_poly = _elim_targets()[target]
    scheme = _scheme(tgt.constraint)
    area = prod(scheme.area2(tri) for tri in tgt.triangles)
    rel = (lhs_poly.on_vars(scheme.vars) * area ** tgt.power
           - rhs_poly.on_vars(scheme.vars))

    def tier2():
        stats = elimination_tier2([target], samples=samples,
                                  seed=seed)[target]
        if tgt.hulls is None:
            return stats, []
        # the stated hull sets must be the ones the sign tables allow
        derived = _hull_sets(tgt)
        stats["hull_set_mismatches"] = int(derived != tgt.hulls)
        claim = f"{tgt.area_spec}{'<=' if tgt.sign < 0 else '>='}0"
        return stats, [
            f"hull sets from the sign tables under {claim}: "
            f"{ {k: sorted(v) for k, v in derived.items()} }; "
            + ("matches the expected statement lists"
               if derived == tgt.hulls else
               f"MISMATCH vs expected {tgt.hulls}")]

    return _certify(
        f"elim_{target}",
        f"closed form for {tgt.area_spec} on the {tgt.constraint} = 0 "
        f"family ({scheme.name} placement)", tier2, timeout,
        ("relation_on_variety", rel,
         scheme.ideal(condition_poly(tgt.constraint))))


# ---------------------------------------------------------------------------
# parallelogram case of the equal-angle family
# ---------------------------------------------------------------------------

def _parallelogram(rng: random.Random) -> QuadConfig:
    draw = geometry._rand_fraction
    while True:
        x, y = draw(rng, -8, 8, 4), draw(rng, -8, 8, 4)
        ux, uy, vx, vy = (draw(rng, -9, 9, 3) for _ in range(4))
        cfg = QuadConfig.of((x, y), (x + ux, y + uy),
                            (x + ux + vx, y + uy + vy), (x + vx, y + vy))
        if cfg.distinct() and ux * vy != uy * vx:
            return cfg


def _rhombus(rng: random.Random) -> QuadConfig:
    # p, q >= 1: four distinct points, legs (p, q) and (p, -q) of equal length
    p, q = rng.randint(1, 9), rng.randint(1, 9)
    x, y = rng.randint(-5, 5), rng.randint(-5, 5)
    return QuadConfig(((x, y), (x + p, y + q), (x + 2 * p, y),
                       (x + p, y - q)), 1)


def _symmetric_kite(rng: random.Random) -> QuadConfig:
    while True:
        half = geometry._rand_fraction(rng, 1, 8, 3)
        h, k = _apex(rng)
        if h == k:
            continue  # that would be a rhombus
        return QuadConfig.of((0, 0), (half, h), (2 * half, 0), (half, -k))


def cert_parallelogram_case(seed: int = 0, timeout: float = DEFAULT_TIMEOUT,
                            samples: int = 300) -> Certificate:
    """R_T = 0 with ad = bc: radical membership of the displayed side-equality
    product, plus exact samples of the constraint set."""
    scheme = t_scheme()
    a, b, c, d = (Polynomial.variable(scheme.vars, n) for n in "abcd")
    target = (b ** 2 * c ** 2 * (a - c) ** 2 * (a + c) ** 2
              * (a - b) ** 2 * (a + b) ** 2)

    def tier2():
        rng = random.Random(seed)
        branch_bad = law_bad_ac = rt_bad = 0
        kite_law_holds = 0
        makers = (_parallelogram, _rhombus, _symmetric_kite)
        for i in range(samples):
            maker = makers[i % 3]
            d6 = maker(rng).sextuple()
            qa, qb, qc, qd, qe, qf = d6.int_q  # over one scale
            if qa * qd != qb * qc:
                branch_bad += 1
                continue
            if not eval_condition("R_T", d6).is_zero:
                rt_bad += 1
            first = qa == qc and qb == qd
            second = qa == qb and qc == qd
            if not (first or second):
                branch_bad += 1
            plaw = 2 * qa + 2 * qb - qe - qf
            if first and plaw != 0:
                law_bad_ac += 1
            if maker is _symmetric_kite and not first and plaw == 0:
                kite_law_holds += 1
        return ({"samples": samples, "branch_violations": branch_bad,
                 "rt_violations": rt_bad,
                 "parallelogram_law_violations_on_a=c_branch": law_bad_ac,
                 "kite_law_violations": kite_law_holds},
                ["non-rhombic kites (a=b, c=d, a!=c) satisfy R_T = 0 and "
                 "ad = bc but not the parallelogram law 2a^2+2b^2-e^2-f^2 = "
                 "0, e.g. A(0,0) B(2,1) C(4,0) D(2,-2) gives the law value "
                 "-5: the law is specific to the a=c, b=d branch"])

    return _certify(
        "parallelogram_case",
        "on the R_T = 0, ad = bc slice, b^2c^2(a-c)^2(a+c)^2(a-b)^2(a+b)^2 "
        "lies in the radical: sides pair up as a=c,b=d or a=b,c=d", tier2,
        timeout, ("radical_member", target,
                  scheme.ideal(condition_poly("R_T"), a * d - b * c)))


# ---------------------------------------------------------------------------
# degenerate families
# ---------------------------------------------------------------------------

def _frac_outside(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A random rational strictly outside [lo, hi]."""
    off = geometry._rand_fraction(rng, 1, 12, 4)
    return lo - off if rng.random() < 0.5 else hi + off


def _frac_inside(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A random rational strictly inside (lo, hi), never its midpoint."""
    num = rng.randint(1, 18)
    return lo + (hi - lo) * Fraction(num + (num >= 10), 20)


def _apex(rng: random.Random) -> tuple[Fraction, Fraction]:
    return (geometry._rand_fraction(rng, 1, 9, 3),
            geometry._rand_fraction(rng, 1, 9, 3))


@lru_cache(maxsize=1)
def _degenerate_families() -> dict[str, tuple]:
    """Per family: its condition's name; the squared diagonal laid on the
    axis from the origin to (2h, 0); the draw of the free axis point; and one
    row per case, in the order the draw picks them: its name; A, B, C, D
    from the half axis h, the apex height k and the free point x; exactly
    the flat triangles; two sides of equal length; one further polynomial
    that vanishes (the family's angle condition K or K_T when an apex is off
    the axis, else Heron or Gamma)."""
    return {
        # D at the origin, B = (2h, 0), the free point outside BD
        "R": ("R", "qf", _frac_outside, (
            ("all_collinear",
             lambda h, k, x: ((x, 0), (2 * h, 0), (h, 0), (0, 0)),
             TRIANGLES, ("qb", "qc"), _heron_poly()),
            ("case2", lambda h, k, x: ((x, 0), (2 * h, 0), (h, k), (0, 0)),
             ("ABD",), ("qb", "qc"), condition_poly("K")),
            ("case3", lambda h, k, x: ((h, k), (2 * h, 0), (x, 0), (0, 0)),
             ("BCD",), ("qa", "qd"), condition_poly("K")))),
        # A at the origin, C = (2h, 0), the free point inside AC
        "R_T": ("R_T", "qe", _frac_inside, (
            ("all_collinear",
             lambda h, k, x: ((0, 0), (x, 0), (2 * h, 0), (h, 0)),
             TRIANGLES, ("qc", "qd"), _gamma_poly()),
            ("case2", lambda h, k, x: ((0, 0), (x, 0), (2 * h, 0), (h, k)),
             ("ABC",), ("qc", "qd"), condition_poly("K_T")),
            ("case3", lambda h, k, x: ((0, 0), (h, k), (2 * h, 0), (x, 0)),
             ("ACD",), ("qa", "qb"), condition_poly("K_T")))),
    }


def cert_degenerate_cases(family: str, seed: int = 0, samples: int = 200,
                          timeout: float | None = None) -> Certificate:
    """Constructs the collinear degenerate families explicitly and verifies
    the condition polynomial, the vanishing areas, and the isosceles
    relations exactly.  Sampling only, so `timeout` is ignored."""
    if family not in ("R", "R_T"):
        raise ValueError("family must be 'R' or 'R_T'")
    condition, axis, free_point, cases = _degenerate_families()[family]

    def tier2():
        rng = random.Random(seed)
        checks = {case[0]: 0 for case in cases}
        bad = 0
        for _ in range(samples):
            name, place, flat, (s1, s2), zero = rng.choice(cases)
            h, k = _apex(rng)
            x = free_point(rng, Fraction(0), 2 * h)
            cfg = QuadConfig.of(*place(h, k, x))
            d6 = cfg.sextuple()
            ok = ({t for t in TRIANGLES if cfg.cross(t) == 0} == set(flat)
                  and eval_condition(condition, d6).is_zero
                  and getattr(d6, axis) == 4 * h * h
                  and getattr(d6, s1) == getattr(d6, s2)
                  and eval_poly_on_sextuple(zero, d6).is_zero)
            checks[name] += 1
            bad += not ok
        return ({"samples": sum(checks.values()), "by_case": checks,
                 "violations": bad}, [])

    return _certify(
        f"degenerate_{'R' if family == 'R' else 'RT'}",
        f"degenerate (collinear) configurations of the {family} = 0 family: "
        "collinear triple + isosceles side pair, and the all-collinear case",
        tier2)


# ---------------------------------------------------------------------------
# reflection theorem
# ---------------------------------------------------------------------------

def _ray_kite(rng: random.Random, convex: bool) -> QuadConfig:
    """A tilted kite of the requested hull kind drawn without the reflection
    construction, so the reverse direction below does not merely check that
    a reflection undoes itself.  A = 0 and C on the positive x-axis each send
    a ray pair with one rational opening angle; B and D are where the lines
    meet.  A draw counts when B and D lie on the same side of A along A's
    lines, and of C along C's: reversing both rays at a vertex keeps the angle
    between them.  The construction makes K_T vanish, so on the plane
    P_T * Q_T * R_T = K_T**2 = 0: with A and C on one side of BD the draw is
    cyclic (P_T * Q_T = 0), so an integer side test rejects it, and K_T and
    then R_T are asserted once on the kite returned.
    Directions are integer triples (x, y, w) for (x/w, y/w), w > 0, and A to
    D integer points over the scale cd * |den1 * den2|: no Fraction."""
    want = "convex4" if convex else "concave3"
    randint = rng.randint
    while True:
        tx, ty, tw = geometry._circle_ints(randint(1, 30), randint(1, 30))
        cn, cd = randint(1, 8), randint(1, 4)  # C = (cn/cd, 0)
        pairs = []
        for _ in range(2):  # the ray pair at A, then at C
            u = ux, uy, uw = geometry._circle_ints(randint(-40, 40),
                                                   randint(1, 12))
            v = (tx * ux - ty * uy, ty * ux + tx * uy, tw * uw)
            pairs.append((u, v) if rng.random() < 0.5 else (v, u))
        # s*a == C + t*q on the line towards B, then towards D: with den =
        # qx*ay - ax*qy, s has the sign of -qy*den, t that of -ay*den, and
        # s*a == -C.x*qy*(ax, ay)/den; parallel lines (den 0) fail the test
        lines = [(ax, ay, qy, qx * ay - ax * qy)
                 for (ax, ay, _), (qx, qy, _) in zip(*pairs)]
        (_, ay1, qy1, den1), (_, ay2, qy2, den2) = lines
        if qy1 * den1 * qy2 * den2 <= 0 or ay1 * den1 * ay2 * den2 <= 0:
            continue
        n = abs(den1 * den2)
        B, D = ((-cn * n // den * qy * ax, -cn * n // den * qy * ay)
                for ax, ay, qy, den in lines)
        cfg = QuadConfig(((0, 0), B, (cn * n, 0), D), cd * n)
        if (not cfg.distinct() or classify_hull(cfg).kind != want
                or cfg.cross("BDA") * cfg.cross("BDC") >= 0):
            continue
        d = cfg.sextuple()
        for name in ("K_T", "R_T"):
            if not eval_condition(name, d).is_zero:
                raise geometry.GeometryError(f"ray-pair kite has {name} != 0")
        return cfg


def cert_reflection_theorem(seed: int = 0, samples: int = 500,
                            timeout: float | None = None) -> Certificate:
    """Reflecting C across line BD swaps the tilted-kite condition with
    cocircularity: R_T(reflected) = 0 iff P_T * Q_T = 0.  Sampling only, so
    `timeout` is ignored."""
    def tier2():
        rng = random.Random(seed)

        def part(draw, holds):
            # reflect C over BD, drawing again when the image meets B or D
            done = bad = 0
            while done < samples:
                cfg = draw()
                refl = reflect_over_line(cfg, "C", ("B", "D"))
                if refl.distinct():
                    done += 1
                    bad += not holds(cfg, refl)
            return {"samples": done, "violations": bad}

        def zero(name, cfg):
            return eval_condition(name, cfg.sextuple()).is_zero

        def ptqt_zero(cfg):  # a field has no zero divisors
            return zero("P_T", cfg) or zero("Q_T", cfg)

        def off_ptqt():
            while True:
                cfg = random_quad(rng)
                if not ptqt_zero(cfg):
                    return cfg

        return ({"cyclic_ACBD_to_reflected_RT_zero":
                 part(lambda: gen_cyclic(rng, "ACBD"),
                      lambda c, r: zero("Q_T", c) and zero("R_T", r)),
                 "kite_to_reflected_PTQT_zero":
                 part(lambda: _ray_kite(rng, convex=bool(rng.random() < 0.5)),
                      lambda c, r: zero("R_T", c) and ptqt_zero(r)),
                 "PTQT_nonzero_keeps_reflected_RT_nonzero":
                 part(off_ptqt, lambda c, r: not zero("R_T", r))}, [])

    return _certify(
        "reflection_theorem",
        "R_T after reflecting C over BD vanishes exactly when P_T*Q_T "
        "vanishes before", tier2)


# ---------------------------------------------------------------------------
# hull tables against an independent oracle
# ---------------------------------------------------------------------------

# ordered triple -> (its sign row, +-1): each swap of two points flips it
_TRIPLE_SIGNS = {tri: (TRIANGLES.index("".join(sorted(tri))),
                       (-1) ** sum(a > b for a, b in combinations(tri, 2)))
                 for tri in map("".join, permutations("ABCD", 3))}
# per label x: the others' triangle, and its sides closed with x to test x
_INSIDE_TESTS = [(x, t, (t[:2] + x, t[1:] + x, t[2] + t[0] + x))
                 for x, t in ((x, "ABCD".replace(x, "")) for x in "ABCD")]


def _oracle_of_signs(signs: tuple[int, int, int, int]) -> HullClass:
    """Convex hull of four distinct labeled points by direct orientation
    tests, each ordered triple read as +-1 times one of the four signs."""
    orient = {tri: parity * signs[i]
              for tri, (i, parity) in _TRIPLE_SIGNS.items()}
    collinear = [tri for tri in TRIANGLES if orient[tri] == 0]
    if len(collinear) >= 2:
        return HullClass("collinear4")
    if len(collinear) == 1:
        return HullClass("collinear3", triple=collinear[0])
    interior = [(x, tri) for x, tri, (s0, s1, s2) in _INSIDE_TESTS
                if orient[s0] == orient[s1] == orient[s2] == orient[tri]]
    if len(interior) > 1:
        raise AssertionError("two interior points cannot happen")
    if interior:
        inner, tri = interior[0]
        if orient[tri] < 0:
            tri = tri[0] + tri[2] + tri[1]
        return HullClass("concave3", boundary=tri, interior=inner)
    # convex: every point is a hull vertex, so B, C, D lie in a wedge of less
    # than a half-turn at A; each one's place counterclockwise around A is
    # the number of the others it lies counterclockwise of
    ring = sorted("BCD", key=lambda l: sum(orient["A" + m + l] > 0
                                           for m in "BCD" if m != l))
    return HullClass("convex4", boundary="A" + "".join(ring))


def oracle_hull(cfg: QuadConfig) -> HullClass:
    """The orientation oracle's hull of a configuration of distinct points."""
    return _oracle_of_signs(tuple(cfg.orient(tri) for tri in TRIANGLES))


def _hulls_agree(h1: HullClass, h2: HullClass) -> bool:
    return ((h1.kind, h1.interior, h1.triple)
            == (h2.kind, h2.interior, h2.triple)
            and same_cycle(h1.boundary, h2.boundary))


@lru_cache(maxsize=None)
def _row_verdict(signs: tuple[int, int, int, int]) -> tuple[str | None, bool]:
    """The sign tables' hull kind of one sign row, None where they refuse
    it, and whether the orientation oracle agrees with them on the row."""
    try:
        h1 = hull_from_signs(signs)
    except geometry.HullTableError:
        return None, False
    return h1.kind, _hulls_agree(h1, _oracle_of_signs(signs))


def cert_hull_tables(seed: int = 0, samples: int = 100000,
                     timeout: float | None = None) -> Certificate:
    """Empirical validation of the sign tables against the orientation-based
    hull oracle, including the never-realizable sign rows; both read the
    four orientation signs of each integer sample.  Sampling only, so
    `timeout` is ignored."""
    def tier2():
        rng = random.Random(seed)
        mismatches = 0
        unrealizable_seen = 0
        kinds = {"convex4": 0, "concave3": 0, "collinear3": 0,
                 "collinear4": 0}
        for i in range(samples):
            if i % 500 == 499:  # exercises the collinear4 rows
                pts = gen_collinear_inorder(rng).int_points
            else:
                # small spans hit collinear triples
                span = 8 if i % 3 == 0 else 40
                pts, _ = geometry._draw_quad(rng, span, 3 if i % 2 else 1)
            (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts
            # `cross` written out: a call per triangle doubles this loop
            crosses = ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax),
                       (bx - ax) * (dy - ay) - (by - ay) * (dx - ax),
                       (cx - bx) * (dy - by) - (cy - by) * (dx - bx),
                       (cx - ax) * (dy - ay) - (cy - ay) * (dx - ax))
            kind, agree = _row_verdict(tuple((v > 0) - (v < 0)
                                             for v in crosses))
            if kind is None:
                unrealizable_seen += 1
                continue
            mismatches += not agree
            kinds[kind] += 1
        return ({"samples": samples, "mismatches": mismatches,
                 "unrealizable_patterns": unrealizable_seen,
                 "kinds": kinds}, [])

    return _certify(
        "hull_tables",
        "sign-table hull classification agrees with a direct orientation "
        "oracle; the 42 impossible sign rows never occur", tier2)


# ---------------------------------------------------------------------------
# registry / runner
# ---------------------------------------------------------------------------

def _bound(fn: str, first: str) -> Callable[..., Certificate]:
    # binds the first argument now; looks the function up at call time, so a
    # tracer that rebinds the module global still sees the call
    return lambda **kw: globals()[fn](first, **kw)


# each claim keeps its function's defaults; sampling-only ones ignore timeout
CLAIMS: dict[str, Callable[..., Certificate]] = {
    "converse_ptolemy": cert_converse_ptolemy,
    **{f"elim_{t}": _bound("cert_elimination_formula", t)
       for t in ELIM_TARGETS},
    "parallelogram_case": cert_parallelogram_case,
    "degenerate_R": _bound("cert_degenerate_cases", "R"),
    "degenerate_RT": _bound("cert_degenerate_cases", "R_T"),
    "reflection_theorem": cert_reflection_theorem,
    "hull_tables": cert_hull_tables,
}


def _run_claim(args: tuple) -> Certificate:
    name, seed, timeout, samples = args
    kw = {} if samples is None else {"samples": samples}
    return CLAIMS[name](seed=seed, timeout=timeout, **kw)


def run_certificates(claims: Sequence[str] | None = None, seed: int = 0,
                     timeout: float = DEFAULT_TIMEOUT, jobs: int = 1,
                     samples: int | None = None) -> list[Certificate]:
    """Run the selected certificates (all by default), optionally in
    parallel processes; report order follows the registry."""
    names = list(CLAIMS) if claims is None else list(claims)
    for n in names:
        if n not in CLAIMS:
            raise ValueError(f"unknown claim {n!r}; known: {', '.join(CLAIMS)}")
    argv = [(n, seed, timeout, samples) for n in names]
    if jobs > 1 and len(names) > 1:
        # imported here: the pool costs every other process 20-30 ms at start
        from concurrent.futures import ProcessPoolExecutor
        # fork starts every worker up front, so never more than there are claims
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            return list(pool.map(_run_claim, argv))
    return [_run_claim(a) for a in argv]
