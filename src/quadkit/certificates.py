"""Machine re-derivation of the Groebner-backed claims, with signed-off
certificate reports.

Every certificate is two-tier where that makes sense: tier 1 is a symbolic
Groebner computation (unit basis, radical membership, or elimination) under a
wall-clock budget, tier 2 an exact-rational sampling fallback.  Symbolic
success yields CERTIFIED, sampling alone SUPPORTED or TIER2-ONLY; the report
never confuses the two.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from . import geometry
from .conditions import (DIST_VARS, condition_poly, eval_condition,
                         eval_poly_on_sextuple, supplementary_witness,
                         equal_angle_witness)
from .geometry import (DistSextuple, HullClass, Point, QuadConfig,
                       classify_hull, cocircularity, gen_collinear_inorder,
                       gen_cyclic, gen_folded, gen_tilted_kite, hull_table,
                       orient_sign, random_quad, reflect_over_line, same_cycle,
                       signed_areas)
from .groebner import (GroebnerTimeout, buchberger, elimination_ideal,
                       normal_form, radical_membership)
from .poly import GREVLEX, MonomialOrder, Polynomial, VarSet, det

CERTIFIED = "CERTIFIED"
SUPPORTED = "SUPPORTED"
TIER2_ONLY = "TIER2-ONLY"
INCONCLUSIVE = "INCONCLUSIVE"
FAILED = "FAILED"

DEFAULT_TIMEOUT = 600.0


@dataclass
class Certificate:
    """Re-runnable record of one certified claim."""

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

    @property
    def ok(self) -> bool:
        return self.status != FAILED

    def to_obj(self) -> dict:
        return {
            "claim": self.claim,
            "description": self.description,
            "status": self.status,
            "order": self.order,
            "ideal": self.ideal,
            "reduced_basis": self.reduced_basis,
            "elapsed_ms": self.elapsed_ms,
            "tier1": self.tier1,
            "tier2": self.tier2,
            "notes": self.notes,
        }


def _ms(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


# ---------------------------------------------------------------------------
# coordinate schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateScheme:
    """A rational placement of the four points plus the distance generators
    that tie coordinates to the six distances."""

    name: str
    vars: VarSet
    placement: dict
    generators: tuple
    gen_names: tuple

    def area2(self, tri: str) -> Polynomial:
        one = Polynomial.one(self.vars)
        rows = [[self.placement[v][0], self.placement[v][1], one]
                for v in tri]
        return det(rows)

    def cocircle(self) -> Polynomial:
        one = Polynomial.one(self.vars)
        rows = []
        for v in "ABCD":
            x, y = self.placement[v]
            rows.append([x * x + y * y, x, y, one])
        return det(rows)


_SCHEME_VARS = VarSet(("a", "b", "c", "d", "e", "f", "u", "v", "w", "z"))


@lru_cache(maxsize=1)
def ptolemy_scheme() -> CoordinateScheme:
    V = _SCHEME_VARS
    a, b, c, d, e, f, u, v, w, z = Polynomial.variables(V)
    zero = Polynomial.zero(V)
    placement = {"A": (zero, zero), "B": (a, zero), "C": (u, v), "D": (w, z)}
    gens = (
        (u - a) ** 2 + v ** 2 - b ** 2,
        (w - u) ** 2 + (z - v) ** 2 - c ** 2,
        w ** 2 + z ** 2 - d ** 2,
        u ** 2 + v ** 2 - e ** 2,
        (w - a) ** 2 + z ** 2 - f ** 2,
    )
    return CoordinateScheme("ptolemy", V, placement, gens,
                            ("f1", "f2", "f3", "f4", "f5"))


@lru_cache(maxsize=1)
def r_scheme() -> CoordinateScheme:
    V = _SCHEME_VARS
    a, b, c, d, e, f, u, v, w, z = Polynomial.variables(V)
    zero = Polynomial.zero(V)
    placement = {"A": (u, v), "B": (f, zero), "C": (w, z), "D": (zero, zero)}
    gens = (
        (u - f) ** 2 + v ** 2 - a ** 2,
        (u - w) ** 2 + (z - v) ** 2 - e ** 2,
        w ** 2 + z ** 2 - c ** 2,
        u ** 2 + v ** 2 - d ** 2,
        (w - f) ** 2 + z ** 2 - b ** 2,
    )
    return CoordinateScheme("supplementary", V, placement, gens,
                            ("h1", "h2", "h3", "h4", "h5"))


@lru_cache(maxsize=1)
def t_scheme() -> CoordinateScheme:
    V = _SCHEME_VARS
    a, b, c, d, e, f, u, v, w, z = Polynomial.variables(V)
    zero = Polynomial.zero(V)
    placement = {"A": (zero, zero), "B": (u, v), "C": (e, zero), "D": (w, z)}
    gens = (
        u ** 2 + v ** 2 - a ** 2,
        (e - u) ** 2 + v ** 2 - b ** 2,
        (w - e) ** 2 + z ** 2 - c ** 2,
        w ** 2 + z ** 2 - d ** 2,
        (u - w) ** 2 + (z - v) ** 2 - f ** 2,
    )
    return CoordinateScheme("equal-angle", V, placement, gens,
                            ("g1", "g2", "g3", "g4", "g5"))


def _dist(name: str) -> Polynomial:
    return condition_poly(name).on_vars(_SCHEME_VARS)


# ---------------------------------------------------------------------------
# converse-of-Ptolemy certificate
# ---------------------------------------------------------------------------

def cert_converse_ptolemy(seed: int = 0, timeout: float = DEFAULT_TIMEOUT,
                          samples: int = 500) -> Certificate:
    """Reduced basis of <f1..f5, P, 1 - t*Ccirc> is {1}: on the distance
    variety, P = 0 forces the cocircularity determinant to vanish."""
    t0 = time.monotonic()
    cert = Certificate(
        "converse_ptolemy",
        "P = 0 forces four planar points onto a circle or a line "
        "(unit reduced basis of the slack-augmented ideal)")
    scheme = ptolemy_scheme()
    quartic = scheme.cocircle()
    ext = scheme.vars.extend("t")
    t_var = Polynomial.variable(ext, "t")
    gens = [g.on_vars(ext) for g in scheme.generators]
    gens.append(_dist("P").on_vars(ext))
    gens.append(Polynomial.one(ext) - t_var * quartic.on_vars(ext))
    order = GREVLEX
    cert.order = order.name
    cert.ideal = [g.to_text(order) for g in gens]
    cert.notes.append(
        "cocircularity quartic derived from the 4x4 lifting determinant: "
        f"{quartic.to_text(order)}; the v^2*z coefficient is -1 times the "
        "leading a factor (single occurrence)")
    t1_start = time.monotonic()
    try:
        gb = buchberger(gens, order, timeout=timeout)
        cert.reduced_basis = gb.texts()
        unit = gb.is_unit()
        cert.tier1 = {"completed": True, "unit_basis": unit,
                      "elapsed_ms": _ms(t1_start)}
    except GroebnerTimeout:
        unit = None
        cert.tier1 = {"completed": False, "unit_basis": None,
                      "elapsed_ms": _ms(t1_start),
                      "note": f"budget {timeout}s exceeded"}
    # tier 2: exact cyclic samples satisfy P = 0 and the determinant vanishes;
    # random non-cocircular samples keep the determinant nonzero
    t2_start = time.monotonic()
    rng = random.Random(seed)
    bad = 0
    nonzero_controls = 0
    for i in range(samples):
        if i % 25 == 24:
            cfg = gen_collinear_inorder(rng)
        else:
            cfg = gen_cyclic(rng, "ABCD" if i % 2 == 0 else "ADCB")
        if not eval_condition("P", cfg.sextuple()).is_zero:
            bad += 1
        elif cocircularity(cfg) != 0:
            bad += 1
        ctrl = random_quad(rng)
        if cocircularity(ctrl) != 0:
            nonzero_controls += 1
    cert.tier2 = {"samples": samples, "violations": bad,
                  "nonzero_determinant_controls": nonzero_controls,
                  "elapsed_ms": _ms(t2_start)}
    if unit is False or bad:
        cert.status = FAILED
    elif unit is True:
        cert.status = CERTIFIED
    elif samples:
        cert.status = TIER2_ONLY
    cert.elapsed_ms = _ms(t0)
    return cert


# ---------------------------------------------------------------------------
# elimination closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ElimTarget:
    scheme_builder: Callable[[], CoordinateScheme]
    constraint: str          # condition that cuts the family (P, R or R_T)
    area_spec: str           # N, M or a single triangle name
    slack: str
    power: int               # 1: linear in the slack; 2: compare squares
    family: str              # sampling family for tier 2
    sign: int | None         # claimed sign of the target value (0 allowed)
    guards: tuple = ()       # rational guards, e.g. ("ad!=bc",)


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
        "N_ptolemy": (_ElimTarget(ptolemy_scheme, "P", "N", "t", 1, "cyclic", 1),
                      t_ab_cd, abcd * heron),
        "M_ptolemy": (_ElimTarget(ptolemy_scheme, "P", "M", "t", 1, "cyclic", 1),
                      t_bc_ad, abcd * heron),
        "N_R": (_ElimTarget(r_scheme, "R", "N", "t", 1, "folded", -1),
                t_ab_cd, -1 * abcd * heron),
        "dABD_R": (_ElimTarget(r_scheme, "R", "ABD", "s", 2, "folded", None),
                   t_ab_cd * (a * c + b * d) ** 2,
                   heron * (b * b - c * c) ** 2 * d * d * a * a),
        "dBCD_R": (_ElimTarget(r_scheme, "R", "BCD", "eta", 2, "folded", None),
                   t_ab_cd * (a * c + b * d) ** 2,
                   heron * (a * a - d * d) ** 2 * c * c * b * b),
        "M_T": (_ElimTarget(t_scheme, "R_T", "M", "t", 1, "kite", 1,
                            ("ad!=bc",)),
                t_ad_bc, -1 * abcd * gamma),
        "dABD_T": (_ElimTarget(t_scheme, "R_T", "ABD", "s", 2, "kite", None,
                               ("ad!=bc",)),
                   t_ad_bc, -1 * gamma * d * d * a * a),
        "dBCD_T": (_ElimTarget(t_scheme, "R_T", "BCD", "s", 2, "kite", None,
                               ("ad!=bc",)),
                   t_ad_bc, -1 * gamma * c * c * b * b),
        "dABC_T": (_ElimTarget(t_scheme, "R_T", "ABC", "s", 2, "kite", None,
                               ("ad!=bc", "ac!=bd")),
                   t_ac_bd * (a * d - b * c) ** 2,
                   -1 * gamma * (c * c - d * d) ** 2 * b * b * a * a),
        "dACD_T": (_ElimTarget(t_scheme, "R_T", "ACD", "s", 2, "kite", None,
                               ("ad!=bc", "ac!=bd")),
                   t_ac_bd * (a * d - b * c) ** 2,
                   -1 * gamma * (a * a - b * b) ** 2 * d * d * c * c),
    }
    return table


ELIM_TARGETS = ("N_ptolemy", "M_ptolemy", "N_R", "dABD_R", "dBCD_R",
                "M_T", "dABD_T", "dBCD_T", "dABC_T", "dACD_T")


def _target_area_poly(scheme: CoordinateScheme, area_spec: str) -> Polynomial:
    if area_spec == "N":
        return scheme.area2("ABC") * scheme.area2("ACD")
    if area_spec == "M":
        return scheme.area2("ABD") * scheme.area2("BCD")
    return scheme.area2(area_spec)


def _target_area_value(cfg: QuadConfig, area_spec: str) -> Fraction:
    ar = signed_areas(cfg)
    if area_spec == "N":
        return ar.abc * ar.acd
    if area_spec == "M":
        return ar.abd * ar.bcd
    return {"ABC": ar.abc, "ABD": ar.abd, "BCD": ar.bcd, "ACD": ar.acd}[area_spec]


def _guards_ok(d: DistSextuple, guards: tuple) -> bool:
    for g in guards:
        if g == "ad!=bc" and d.qa * d.qd == d.qb * d.qc:
            return False
        if g == "ac!=bd" and d.qa * d.qc == d.qb * d.qd:
            return False
    return True


def _family_samples(family: str, rng: random.Random, n: int):
    out = []
    while len(out) < n:
        if family == "cyclic":
            if len(out) % 50 == 49:
                out.append(gen_collinear_inorder(rng))
            else:
                out.append(gen_cyclic(rng, "ABCD" if len(out) % 2 else "ADCB"))
        elif family == "folded":
            out.append(gen_folded(rng))
        elif family == "kite":
            out.append(gen_tilted_kite(rng, convex=bool(rng.random() < 0.5)))
        else:
            raise ValueError(f"unknown family {family!r}")
    return out


def elimination_tier2(targets: Sequence[str], samples: int = 1000,
                      seed: int = 0) -> dict[str, dict]:
    """Exact sampling check of the closed forms: generates each family once
    and, per sample, compares A'(a..d) * value (or value^2) with B'(a..d) in
    the radical field, plus the claimed signs.  Returns per-target stats."""
    table = _elim_targets()
    by_family: dict[str, list[str]] = {}
    for t in targets:
        if t not in table:
            raise ValueError(f"unknown elimination target {t!r}")
        by_family.setdefault(table[t][0].family, []).append(t)
    results = {t: {"samples": 0, "mismatches": 0, "sign_violations": 0,
                   "guard_skips": 0} for t in targets}
    for family, fam_targets in by_family.items():
        rng = random.Random(seed)
        # a few spare configs so guard skips cannot drop below the quota
        cfgs = _family_samples(family, rng, samples + max(20, samples // 20))
        for cfg in cfgs:
            if all(results[t]["samples"] >= samples for t in fam_targets):
                break
            d = cfg.sextuple()
            for t in fam_targets:
                tgt, lhs_poly, rhs_poly = table[t]
                if results[t]["samples"] >= samples:
                    continue
                if not _guards_ok(d, tgt.guards):
                    results[t]["guard_skips"] += 1
                    continue
                results[t]["samples"] += 1
                value = _target_area_value(cfg, tgt.area_spec)
                x = value if tgt.power == 1 else value * value
                lhs = eval_poly_on_sextuple(lhs_poly, d) * x
                rhs = eval_poly_on_sextuple(rhs_poly, d)
                if lhs != rhs:
                    results[t]["mismatches"] += 1
                if tgt.sign is not None:
                    if tgt.sign > 0 and value < 0:
                        results[t]["sign_violations"] += 1
                    elif tgt.sign < 0 and value > 0:
                        results[t]["sign_violations"] += 1
    return results


def _tier1_elimination(target: str, timeout: float,
                       literal_budget: float = 0.0) -> dict:
    """Symbolic tier: a radical-membership certificate of the relation, after
    the literal elimination (drop the six coordinate and diagonal variables,
    check the relation lands in the elimination ideal) if `literal_budget`
    gives it a slice; all attempts together stay within `timeout`."""
    tgt, lhs_poly, rhs_poly = _elim_targets()[target]
    scheme = tgt.scheme_builder()
    info: dict = {"completed": False, "method": None}
    area = _target_area_poly(scheme, tgt.area_spec)
    constraint = _dist(tgt.constraint)

    end = time.monotonic() + timeout
    lit_budget = min(literal_budget, timeout)
    if lit_budget <= 0.01:
        info["note"] = ("literal elimination skipped: it does not finish at "
                        "desk scale; a positive literal_budget opts in")
    else:
        t0 = time.monotonic()
        try:
            ext = scheme.vars.extend(tgt.slack)
            slack = Polynomial.variable(ext, tgt.slack)
            gens = [g.on_vars(ext) for g in scheme.generators]
            gens.append(constraint.on_vars(ext))
            gens.append(area.on_vars(ext) - slack)
            elim = elimination_ideal(
                gens, ("e", "f", "u", "v", "w", "z"), timeout=lit_budget)
            kept = VarSet(("a", "b", "c", "d", tgt.slack))
            s_kept = Polynomial.variable(kept, tgt.slack)
            rel = (lhs_poly.on_vars(kept) * s_kept ** tgt.power
                   - rhs_poly.on_vars(kept))
            in_ideal = normal_form(rel, elim, GREVLEX).is_zero
            ok = in_ideal or radical_membership(
                rel, elim, timeout=max(t0 + lit_budget - time.monotonic(), 0))
            info.update(completed=True, method="elimination",
                        relation_in_elimination_ideal=in_ideal,
                        relation_on_variety=ok,
                        elimination_generators=len(elim),
                        elapsed_ms=_ms(t0))
            return info
        except GroebnerTimeout:
            info["elimination_attempt_ms"] = _ms(t0)

    t0 = time.monotonic()
    try:
        rel = (lhs_poly.on_vars(scheme.vars) * area ** tgt.power
               - rhs_poly.on_vars(scheme.vars))
        gens = list(scheme.generators) + [constraint]
        ok = radical_membership(rel, gens,
                                timeout=max(end - time.monotonic(), 0))
        info.update(completed=True, method="radical-membership",
                    relation_on_variety=ok, elapsed_ms=_ms(t0))
    except GroebnerTimeout:
        info["radical_attempt_ms"] = _ms(t0)
    return info


def _stated_hull_sets(n_or_m: str) -> dict[int, set[str]]:
    """Hull strings compatible with the sign constraint derived from the
    tables: N <= 0 couples ABC against ACD; M >= 0 couples ABD with BCD."""
    out: dict[int, set[str]] = {1: set(), -1: set()}
    for signs, (kind, hull) in hull_table().items():
        abc, abd, bcd, acd = signs
        if n_or_m == "N<=0" and abc * acd < 0:
            out[abc].add(hull)
        if n_or_m == "M>=0" and abd * bcd > 0:
            out[abc].add(hull)
    return out


def cert_elimination_formula(target: str, seed: int = 0,
                             timeout: float = DEFAULT_TIMEOUT,
                             samples: int = 1000,
                             literal_budget: float = 0.0) -> Certificate:
    """Two-tier verification of one closed-form area product/slack formula."""
    if target not in _elim_targets():
        raise ValueError(f"unknown elimination target {target!r}; "
                         f"one of {', '.join(ELIM_TARGETS)}")
    t0 = time.monotonic()
    tgt, lhs_poly, rhs_poly = _elim_targets()[target]
    scheme = tgt.scheme_builder()
    cert = Certificate(
        f"elim_{target}",
        f"closed form for {tgt.area_spec} on the {tgt.constraint} = 0 "
        f"family ({scheme.name} placement)")
    order = MonomialOrder.block_elimination(6)
    cert.order = order.name
    gens = [g.to_text(GREVLEX) for g in scheme.generators]
    gens.append(condition_poly(tgt.constraint).to_text(GREVLEX))
    cert.ideal = gens
    cert.tier1 = (_tier1_elimination(target, timeout, literal_budget)
                  if timeout > 0 else
                  {"completed": False, "method": None,
                   "note": "tier 1 skipped (budget 0)"})

    t2 = time.monotonic()
    stats = elimination_tier2([target], samples=samples, seed=seed)[target]
    stats["elapsed_ms"] = _ms(t2)

    if target in ("N_R", "M_T"):
        # hull classes observed on the family must stay within the sets the
        # sign tables allow; also check those sets against the expected lists
        constraint_kind = "N<=0" if target == "N_R" else "M>=0"
        derived = _stated_hull_sets(constraint_kind)
        expected = ({1: {"ABC", "CAD", "ABDC", "ADBC"},
                     -1: {"ACB", "CDA", "ACDB", "ACBD"}}
                    if target == "N_R" else
                    {1: {"ABCD", "ABC", "CAD"},
                     -1: {"ADCB", "ACB", "CDA"}})
        cert.notes.append(
            f"hull sets from the sign tables under {constraint_kind}: "
            f"{ {k: sorted(v) for k, v in derived.items()} }; "
            + ("matches the expected statement lists"
               if derived == expected else
               f"MISMATCH vs expected {expected}"))
        rng = random.Random(seed + 1)
        fam = _family_samples(tgt.family, rng, min(samples, 200))
        bad_hulls = 0
        for cfg in fam:
            h = classify_hull(cfg)
            if h.kind.startswith("collinear"):
                continue
            abc = orient_sign(cfg.A, cfg.B, cfg.C)
            if h.boundary not in derived[abc]:
                bad_hulls += 1
        stats["hull_violations"] = bad_hulls
    if tgt.constraint == "R_T" and tgt.sign is not None:
        # the sign claim rides on -Gamma >= 0 for the family
        rng = random.Random(seed + 2)
        fam = _family_samples(tgt.family, rng, min(samples, 200))
        gamma = _gamma_poly()
        gbad = sum(1 for cfg in fam
                   if eval_poly_on_sextuple(gamma, cfg.sextuple()).sign() > 0)
        stats["gamma_sign_violations"] = gbad
    cert.tier2 = stats

    t2_bad = (stats["mismatches"] or stats["sign_violations"]
              or stats.get("hull_violations", 0)
              or stats.get("gamma_sign_violations", 0))
    t1 = cert.tier1
    if t2_bad or (t1.get("completed") and not t1.get("relation_on_variety")):
        cert.status = FAILED
    elif t1.get("completed"):
        cert.status = CERTIFIED
    else:
        cert.status = TIER2_ONLY
    cert.elapsed_ms = _ms(t0)
    return cert


# ---------------------------------------------------------------------------
# parallelogram case of the equal-angle family
# ---------------------------------------------------------------------------

def _parallelogram(rng: random.Random) -> QuadConfig:
    while True:
        A = Point(Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                  Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
        ux, uy = (Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        vx, vy = (Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        B = Point(A.x + ux, A.y + uy)
        C = Point(B.x + vx, B.y + vy)
        D = Point(A.x + vx, A.y + vy)
        cfg = QuadConfig(A, B, C, D)
        if cfg.distinct() and ux * vy != uy * vx:
            return cfg


def _rhombus(rng: random.Random) -> QuadConfig:
    while True:
        p = rng.randint(1, 9)
        q = rng.randint(1, 9)
        A = Point(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        # legs (p, q) and (p, -q) have equal length
        B = Point(A.x + p, A.y + q)
        C = Point(B.x + p, B.y - q)
        D = Point(A.x + p, A.y - q)
        cfg = QuadConfig(A, B, C, D)
        if cfg.distinct() and q:
            return cfg


def _symmetric_kite(rng: random.Random) -> QuadConfig:
    while True:
        half = Fraction(rng.randint(1, 8), rng.randint(1, 3))
        h = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        k = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        if h == k:
            continue  # that would be a rhombus
        A = Point(Fraction(0), Fraction(0))
        B = Point(half, h)
        C = Point(2 * half, Fraction(0))
        D = Point(half, -k)
        return QuadConfig(A, B, C, D)


def cert_parallelogram_case(seed: int = 0, timeout: float = DEFAULT_TIMEOUT,
                            samples: int = 300) -> Certificate:
    """R_T = 0 with ad = bc: radical membership of the displayed side-equality
    product, plus exact samples of the constraint set."""
    t0 = time.monotonic()
    cert = Certificate(
        "parallelogram_case",
        "on the R_T = 0, ad = bc slice, b^2c^2(a-c)^2(a+c)^2(a-b)^2(a+b)^2 "
        "lies in the radical: sides pair up as a=c,b=d or a=b,c=d")
    scheme = t_scheme()
    V = scheme.vars
    a, b, c, d = (Polynomial.variable(V, n) for n in "abcd")
    target = (b ** 2 * c ** 2 * (a - c) ** 2 * (a + c) ** 2
              * (a - b) ** 2 * (a + b) ** 2)
    J = list(scheme.generators) + [_dist("R_T"), a * d - b * c]
    cert.order = GREVLEX.name
    cert.ideal = [g.to_text(GREVLEX) for g in J]
    t1_start = time.monotonic()
    member: bool | None = None
    try:
        member = radical_membership(target, J, timeout=timeout)
        cert.tier1 = {"completed": True, "radical_member": member,
                      "target": target.to_text(GREVLEX),
                      "elapsed_ms": _ms(t1_start)}
        cert.reduced_basis = ["1"] if member else None
    except GroebnerTimeout:
        cert.tier1 = {"completed": False, "radical_member": None,
                      "elapsed_ms": _ms(t1_start),
                      "note": f"budget {timeout}s exceeded"}

    rng = random.Random(seed)
    t2_start = time.monotonic()
    branch_bad = law_bad_ac = rt_bad = 0
    kite_law_holds = 0
    n_each = max(samples // 3, 1)
    for maker, kind in ((_parallelogram, "parallelogram"),
                        (_rhombus, "rhombus"),
                        (_symmetric_kite, "kite")):
        for _ in range(n_each):
            cfg = maker(rng)
            d6 = cfg.sextuple()
            if d6.qa * d6.qd != d6.qb * d6.qc:
                branch_bad += 1
                continue
            if not geometry.rt_condition_is_zero(d6):
                rt_bad += 1
            first = d6.qa == d6.qc and d6.qb == d6.qd
            second = d6.qa == d6.qb and d6.qc == d6.qd
            if not (first or second):
                branch_bad += 1
            plaw = 2 * d6.qa + 2 * d6.qb - d6.qe - d6.qf
            if first and plaw != 0:
                law_bad_ac += 1
            if kind == "kite" and not first and plaw == 0:
                kite_law_holds += 1
    cert.tier2 = {"samples": 3 * n_each, "branch_violations": branch_bad,
                  "rt_violations": rt_bad,
                  "parallelogram_law_violations_on_a=c_branch": law_bad_ac,
                  "elapsed_ms": _ms(t2_start)}
    cert.notes.append(
        "non-rhombic kites (a=b, c=d, a!=c) satisfy R_T = 0 and ad = bc but "
        "not the parallelogram law 2a^2+2b^2-e^2-f^2 = 0, e.g. A(0,0) B(2,1) "
        "C(4,0) D(2,-2) gives the law value -5: the law is specific to the "
        "a=c, b=d branch")
    t2_bad = branch_bad or law_bad_ac or rt_bad or kite_law_holds
    if member is False or t2_bad:
        cert.status = FAILED
    elif member is True:
        cert.status = CERTIFIED
    else:
        cert.status = TIER2_ONLY
    cert.elapsed_ms = _ms(t0)
    return cert


# ---------------------------------------------------------------------------
# degenerate families
# ---------------------------------------------------------------------------

def _frac_outside(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A random rational strictly outside [lo, hi]."""
    off = Fraction(rng.randint(1, 12), rng.randint(1, 4))
    return lo - off if rng.random() < 0.5 else hi + off


def _frac_inside(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    num = rng.randint(1, 19)
    return lo + (hi - lo) * Fraction(num, 20)


def cert_degenerate_cases(family: str, seed: int = 0,
                          samples: int = 200) -> Certificate:
    """Constructs the collinear degenerate families explicitly and verifies
    the condition polynomial, the vanishing areas, and the isosceles
    relations exactly."""
    if family not in ("R", "R_T"):
        raise ValueError("family must be 'R' or 'R_T'")
    t0 = time.monotonic()
    cert = Certificate(
        f"degenerate_{'R' if family == 'R' else 'RT'}",
        f"degenerate (collinear) configurations of the {family} = 0 family: "
        "collinear triple + isosceles side pair, and the all-collinear case")
    rng = random.Random(seed)
    checks = {"all_collinear": 0, "case2": 0, "case3": 0}
    bad = 0
    for _ in range(samples):
        if family == "R":
            # scheme: D origin, B=(f,0); case 2: A,B,D collinear with b=c
            w = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            z = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            f_val = 2 * w
            u = _frac_outside(rng, Fraction(0), f_val)
            mode = rng.choice(["all", "case2", "case3"])
            if mode == "all":
                cfg = QuadConfig(Point(u, Fraction(0)), Point(f_val, Fraction(0)),
                                 Point(w, Fraction(0)), Point(Fraction(0), Fraction(0)))
                if not cfg.distinct():
                    continue
                d6 = cfg.sextuple()
                ar = signed_areas(cfg)
                ok = (ar.as_tuple() == (0, 0, 0, 0)
                      and geometry.r_condition_is_zero(d6)
                      and eval_poly_on_sextuple(_heron_poly(), d6).is_zero)
                checks["all_collinear"] += 1
            elif mode == "case2":
                cfg = QuadConfig(Point(u, Fraction(0)), Point(f_val, Fraction(0)),
                                 Point(w, z), Point(Fraction(0), Fraction(0)))
                d6 = cfg.sextuple()
                ar = signed_areas(cfg)
                ok = (ar.abd == 0 and ar.abc != 0 and ar.acd != 0
                      and geometry.r_condition_is_zero(d6)
                      and d6.qb == d6.qc          # b = c
                      and d6.qf == 4 * w * w       # f = 2w
                      and supplementary_witness(d6)
                      and eval_condition("K", d6).is_zero)
                checks["case2"] += 1
            else:
                # case 3: B,C,D collinear with a=d; C outside the BD segment
                uu = Fraction(rng.randint(1, 9), rng.randint(1, 3))
                vv = Fraction(rng.randint(1, 9), rng.randint(1, 3))
                f_val = 2 * uu
                ww = _frac_outside(rng, Fraction(0), f_val)
                cfg = QuadConfig(Point(uu, vv), Point(f_val, Fraction(0)),
                                 Point(ww, Fraction(0)), Point(Fraction(0), Fraction(0)))
                d6 = cfg.sextuple()
                ar = signed_areas(cfg)
                ok = (ar.bcd == 0 and ar.abc != 0
                      and geometry.r_condition_is_zero(d6)
                      and d6.qa == d6.qd           # a = d
                      and d6.qf == 4 * uu * uu      # f = 2u
                      and supplementary_witness(d6))
                checks["case3"] += 1
        else:
            # scheme: A origin, C=(e,0); case 2: A,B,C collinear with c=d
            w = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            z = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            e_val = 2 * w
            mode = rng.choice(["all", "case2", "case3"])
            if mode == "all":
                u = _frac_inside(rng, Fraction(0), e_val)
                cfg = QuadConfig(Point(Fraction(0), Fraction(0)), Point(u, Fraction(0)),
                                 Point(e_val, Fraction(0)), Point(w, Fraction(0)))
                if not cfg.distinct():
                    continue
                d6 = cfg.sextuple()
                ar = signed_areas(cfg)
                ok = (ar.as_tuple() == (0, 0, 0, 0)
                      and geometry.rt_condition_is_zero(d6)
                      and eval_poly_on_sextuple(_gamma_poly(), d6).is_zero)
                checks["all_collinear"] += 1
            elif mode == "case2":
                u = _frac_inside(rng, Fraction(0), e_val)
                if u == w:
                    continue
                cfg = QuadConfig(Point(Fraction(0), Fraction(0)), Point(u, Fraction(0)),
                                 Point(e_val, Fraction(0)), Point(w, z))
                d6 = cfg.sextuple()
                ar = signed_areas(cfg)
                ok = (ar.abc == 0 and ar.abd != 0
                      and geometry.rt_condition_is_zero(d6)
                      and d6.qc == d6.qd           # c = d
                      and d6.qe == 4 * w * w        # e = 2w
                      and equal_angle_witness(d6)
                      and eval_condition("K_T", d6).is_zero)
                checks["case2"] += 1
            else:
                # case 3: A,C,D collinear with a=b; D inside the AC segment
                uu = Fraction(rng.randint(1, 9), rng.randint(1, 3))
                vv = Fraction(rng.randint(1, 9), rng.randint(1, 3))
                e_val = 2 * uu
                ww = _frac_inside(rng, Fraction(0), e_val)
                if ww == uu:
                    continue
                cfg = QuadConfig(Point(Fraction(0), Fraction(0)), Point(uu, vv),
                                 Point(e_val, Fraction(0)), Point(ww, Fraction(0)))
                d6 = cfg.sextuple()
                ar = signed_areas(cfg)
                ok = (ar.acd == 0 and ar.abc != 0
                      and geometry.rt_condition_is_zero(d6)
                      and d6.qa == d6.qb           # a = b
                      and d6.qe == 4 * uu * uu      # e = 2u
                      and equal_angle_witness(d6))
                checks["case3"] += 1
        if not ok:
            bad += 1
    cert.tier2 = {"samples": sum(checks.values()), "by_case": checks,
                  "violations": bad, "elapsed_ms": _ms(t0)}
    cert.status = FAILED if bad else SUPPORTED
    cert.elapsed_ms = _ms(t0)
    return cert


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
    between them.  The exact equal-angle and R_T filters then reject the
    cyclic draws."""
    want = "convex4" if convex else "concave3"
    A = Point(Fraction(0), Fraction(0))
    while True:
        turn = geometry.unit_circle_point(Fraction(rng.randint(1, 30),
                                                   rng.randint(1, 30)))
        cx = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        pairs = []
        for _ in range(2):  # the ray pair at A, then at C
            u = geometry.unit_circle_point(Fraction(rng.randint(-40, 40),
                                                    rng.randint(1, 12)))
            v = Point(turn.x * u.x - turn.y * u.y, turn.y * u.x + turn.x * u.y)
            pairs.append((u, v) if rng.random() < 0.5 else (v, u))
        meets = []
        for a, c in zip(*pairs):  # lines towards B, then towards D
            den = c.x * a.y - a.x * c.y
            if den == 0:
                break
            # s*a == (cx, 0) + t*c
            s, t = -cx * c.y / den, -cx * a.y / den
            meets.append((s, t, Point(s * a.x, s * a.y)))
        if len(meets) < 2:
            continue
        (sb, tb, B), (sd, td, D) = meets
        if sb * sd <= 0 or tb * td <= 0:
            continue
        cfg = QuadConfig(A, B, Point(cx, Fraction(0)), D)
        if not cfg.distinct() or classify_hull(cfg).kind != want:
            continue
        d = cfg.sextuple()
        if equal_angle_witness(d) and geometry.rt_condition_is_zero(d):
            return cfg


def cert_reflection_theorem(seed: int = 0, samples: int = 500) -> Certificate:
    """Reflecting C across line BD swaps the tilted-kite condition with
    cocircularity: R_T(reflected) = 0 iff P_T * Q_T = 0."""
    t0 = time.monotonic()
    cert = Certificate(
        "reflection_theorem",
        "R_T after reflecting C over BD vanishes exactly when P_T*Q_T "
        "vanishes before")
    rng = random.Random(seed)
    fwd_bad = rev_bad = neg_bad = 0
    done_fwd = done_rev = done_neg = 0
    while done_fwd < samples:
        cfg = gen_cyclic(rng, "ACBD")
        d6 = cfg.sextuple()
        refl = reflect_over_line(cfg, "C", ("B", "D"))
        if not refl.distinct():
            continue
        done_fwd += 1
        if not eval_condition("Q_T", d6).is_zero:
            fwd_bad += 1
        elif not eval_condition("R_T", refl.sextuple()).is_zero:
            fwd_bad += 1
    while done_rev < samples:
        cfg = _ray_kite(rng, convex=bool(rng.random() < 0.5))
        refl = reflect_over_line(cfg, "C", ("B", "D"))
        if not refl.distinct():
            continue
        done_rev += 1
        if not eval_condition("R_T", cfg.sextuple()).is_zero:
            rev_bad += 1
            continue
        dr = refl.sextuple()
        pt = eval_condition("P_T", dr)
        qt = eval_condition("Q_T", dr)
        if not (pt * qt).is_zero:
            rev_bad += 1
    while done_neg < samples:
        cfg = random_quad(rng)
        d6 = cfg.sextuple()
        pq = eval_condition("P_T", d6) * eval_condition("Q_T", d6)
        if pq.is_zero:
            continue
        refl = reflect_over_line(cfg, "C", ("B", "D"))
        if not refl.distinct():
            continue
        done_neg += 1
        if eval_condition("R_T", refl.sextuple()).is_zero:
            neg_bad += 1
    cert.tier2 = {
        "cyclic_ACBD_to_reflected_RT_zero": {"samples": done_fwd,
                                             "violations": fwd_bad},
        "kite_to_reflected_PTQT_zero": {"samples": done_rev,
                                        "violations": rev_bad},
        "PTQT_nonzero_keeps_reflected_RT_nonzero": {"samples": done_neg,
                                                    "violations": neg_bad},
    }
    cert.status = FAILED if (fwd_bad or rev_bad or neg_bad) else SUPPORTED
    cert.elapsed_ms = _ms(t0)
    return cert


# ---------------------------------------------------------------------------
# hull tables against an independent oracle
# ---------------------------------------------------------------------------

def oracle_hull(cfg: QuadConfig) -> HullClass:
    """Convex hull of the four labeled points by direct orientation tests;
    shares no code path with the sign-table classifier."""
    pts = dict(zip("ABCD", cfg.points()))
    labels = "ABCD"
    collinear = []
    for tri in ("ABC", "ABD", "ACD", "BCD"):
        if orient_sign(pts[tri[0]], pts[tri[1]], pts[tri[2]]) == 0:
            collinear.append(tri)
    if len(collinear) >= 2:
        return HullClass("collinear4")
    if len(collinear) == 1:
        tri = collinear[0]
        canonical = {"ABC": "ABC", "ABD": "ABD", "ACD": "ACD", "BCD": "BCD"}
        return HullClass("collinear3", triple=canonical[tri])
    interior = []
    for x in labels:
        others = [l for l in labels if l != x]
        s1 = orient_sign(pts[others[0]], pts[others[1]], pts[x])
        s2 = orient_sign(pts[others[1]], pts[others[2]], pts[x])
        s3 = orient_sign(pts[others[2]], pts[others[0]], pts[x])
        base = orient_sign(pts[others[0]], pts[others[1]], pts[others[2]])
        if s1 == s2 == s3 == base:
            interior.append(x)
    if len(interior) > 1:
        raise AssertionError("two interior points cannot happen")
    if interior:
        inner = interior[0]
        tri = [l for l in labels if l != inner]
        if orient_sign(pts[tri[0]], pts[tri[1]], pts[tri[2]]) < 0:
            tri = [tri[0], tri[2], tri[1]]
        return HullClass("concave3", boundary="".join(tri), interior=inner)
    # convex: start at the lowest point, order the rest counterclockwise
    start = min(labels, key=lambda l: (pts[l].y, pts[l].x))
    rest = [l for l in labels if l != start]
    ordered: list[str] = []
    for l in rest:
        k = 0
        while k < len(ordered) and orient_sign(pts[start], pts[ordered[k]],
                                               pts[l]) > 0:
            k += 1
        ordered.insert(k, l)
    ring = start + "".join(ordered)
    k = ring.index("A")
    return HullClass("convex4", boundary=ring[k:] + ring[:k])


def _hulls_agree(h1: HullClass, h2: HullClass) -> bool:
    if h1.kind != h2.kind:
        return False
    if h1.kind == "convex4":
        return same_cycle(h1.boundary, h2.boundary)
    if h1.kind == "concave3":
        return (h1.interior == h2.interior
                and same_cycle(h1.boundary, h2.boundary))
    if h1.kind == "collinear3":
        return h1.triple == h2.triple
    return True


def cert_hull_tables(seed: int = 0, samples: int = 100000) -> Certificate:
    """Empirical validation of the sign tables against the orientation-based
    hull oracle, including the never-realizable sign rows."""
    t0 = time.monotonic()
    cert = Certificate(
        "hull_tables",
        "sign-table hull classification agrees with a direct orientation "
        "oracle; the two impossible sign rows never occur")
    rng = random.Random(seed)
    mismatches = 0
    unrealizable_seen = 0
    kinds = {"convex4": 0, "concave3": 0, "collinear3": 0, "collinear4": 0}
    for i in range(samples):
        if i % 500 == 499:
            cfg = gen_collinear_inorder(rng)  # exercises the collinear4 rows
        else:
            span = 8 if i % 3 == 0 else 40  # small spans hit collinear triples
            cfg = random_quad(rng, span=span, max_den=3 if i % 2 else 1)
        try:
            h1 = classify_hull(cfg)
        except geometry.HullTableError:
            unrealizable_seen += 1
            continue
        h2 = oracle_hull(cfg)
        if not _hulls_agree(h1, h2):
            mismatches += 1
        kinds[h1.kind] += 1
    cert.tier2 = {"samples": samples, "mismatches": mismatches,
                  "unrealizable_patterns": unrealizable_seen,
                  "kinds": kinds, "elapsed_ms": _ms(t0)}
    cert.status = FAILED if (mismatches or unrealizable_seen) else SUPPORTED
    cert.elapsed_ms = _ms(t0)
    return cert


# ---------------------------------------------------------------------------
# registry / runner
# ---------------------------------------------------------------------------

def _make_elim(target: str):
    def run(seed: int = 0, timeout: float = DEFAULT_TIMEOUT,
            samples: int = 1000) -> Certificate:
        return cert_elimination_formula(target, seed=seed, timeout=timeout,
                                        samples=samples)
    return run


CLAIMS: dict[str, Callable[..., Certificate]] = {
    "converse_ptolemy": cert_converse_ptolemy,
    **{f"elim_{t}": _make_elim(t) for t in ELIM_TARGETS},
    "parallelogram_case": cert_parallelogram_case,
    "degenerate_R": lambda seed=0, timeout=DEFAULT_TIMEOUT, samples=200:
        cert_degenerate_cases("R", seed=seed, samples=samples),
    "degenerate_RT": lambda seed=0, timeout=DEFAULT_TIMEOUT, samples=200:
        cert_degenerate_cases("R_T", seed=seed, samples=samples),
    "reflection_theorem": lambda seed=0, timeout=DEFAULT_TIMEOUT, samples=500:
        cert_reflection_theorem(seed=seed, samples=samples),
    "hull_tables": lambda seed=0, timeout=DEFAULT_TIMEOUT, samples=100000:
        cert_hull_tables(seed=seed, samples=samples),
}


def _run_claim(args: tuple) -> Certificate:
    name, seed, timeout, samples = args
    fn = CLAIMS[name]
    if samples is None:
        return fn(seed=seed, timeout=timeout)
    return fn(seed=seed, timeout=timeout, samples=samples)


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
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_claim, argv))
    return [_run_claim(a) for a in argv]
