import concurrent.futures
import dataclasses
import hashlib
import json
import random
import signal
from fractions import Fraction
from itertools import product
from math import prod
from types import SimpleNamespace

import pytest

from quadkit import certificates
from quadkit.certificates import (CERTIFIED, CLAIMS, FAILED, INCONCLUSIVE,
                                  SUPPORTED, TIER2_ONLY, cert_converse_ptolemy,
                                  cert_degenerate_cases,
                                  cert_elimination_formula, cert_hull_tables,
                                  cert_parallelogram_case,
                                  cert_reflection_theorem, elimination_tier2,
                                  ELIM_TARGETS, _hulls_agree, _status, _tally,
                                  oracle_hull, ptolemy_scheme, r_scheme,
                                  run_certificates, t_scheme)
from quadkit.conditions import (DIST_VARS, condition_poly,
                                eval_polys_on_sextuple)
from quadkit.geometry import (TRIANGLES, HullClass, Point, QuadConfig,
                              classify_hull, cocircularity, config_to_obj,
                              hull_from_signs, random_quad)
from quadkit.poly import GREVLEX, Polynomial
from quadkit.radicals import RadicalValue


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if not k.endswith("_ms")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_schemes_have_expected_generators():
    # name, placement (x y of A, B, C, D) and the five generators in order,
    # as grevlex texts
    expected = (
        (ptolemy_scheme(), "ptolemy", "0 0 a 0 u v w z", (
            "a^2 - b^2 + v^2 - 2*a*u + u^2",
            "-c^2 + v^2 - 2*v*z + z^2 + u^2 - 2*u*w + w^2",
            "-d^2 + z^2 + w^2",
            "-e^2 + v^2 + u^2",
            "a^2 - f^2 + z^2 - 2*a*w + w^2")),
        (r_scheme(), "supplementary", "u v f 0 w z 0 0", (
            "-a^2 + f^2 + v^2 - 2*f*u + u^2",
            "-e^2 + v^2 - 2*v*z + z^2 + u^2 - 2*u*w + w^2",
            "-c^2 + z^2 + w^2",
            "-d^2 + v^2 + u^2",
            "-b^2 + f^2 + z^2 - 2*f*w + w^2")),
        (t_scheme(), "equal-angle", "0 0 u v e 0 w z", (
            "-a^2 + v^2 + u^2",
            "-b^2 + e^2 + v^2 - 2*e*u + u^2",
            "-c^2 + e^2 + z^2 - 2*e*w + w^2",
            "-d^2 + z^2 + w^2",
            "-f^2 + v^2 - 2*v*z + z^2 + u^2 - 2*u*w + w^2")))
    for scheme, name, placement, gens in expected:
        assert scheme.name == name
        assert list(scheme.placement) == ["A", "B", "C", "D"]
        assert " ".join(c.to_text() for xy in scheme.placement.values()
                        for c in xy) == placement, name
        assert [g.to_text() for g in scheme.generators] == list(gens), name


def test_scheme_cocircle_quartic_shape():
    q = ptolemy_scheme().cocircle()
    # quartic, and the a*v^2*z coefficient is +1
    assert max(sum(m) for m in q.terms) == 4
    vars_ = ptolemy_scheme().vars
    idx = {n: i for i, n in enumerate(vars_.names)}
    mono = [0] * len(vars_)
    mono[idx["a"]] = 1
    mono[idx["v"]] = 2
    mono[idx["z"]] = 1
    assert q.terms[tuple(mono)] == 1
    # the converse record's note states that quartic and nothing more
    cert = cert_converse_ptolemy(seed=5, timeout=0, samples=1)
    assert cert.notes == [("cocircularity quartic derived from the 4x4 "
                           f"lifting determinant: {q.to_text(GREVLEX)}")]


def test_symbolic_witnesses_agree_with_integer_ones():
    # each scheme's placement at seeded rational values: its doubled areas,
    # cocircle quartic and generators there equal the integer witnesses of
    # the configuration placed
    rng = random.Random(24)
    for scheme in (ptolemy_scheme(), r_scheme(), t_scheme()):
        squares = {v: Polynomial.variable(scheme.vars, v) ** 2
                   for v in DIST_VARS}
        quartic = scheme.cocircle()
        checked = 0
        while checked < 20:
            values = {n: Fraction(rng.randint(1 if n in DIST_VARS else -30,
                                              30), rng.randint(1, 6))
                      for n in scheme.vars}
            cfg = QuadConfig.of(*(Point(x.evaluate(values),
                                        y.evaluate(values))
                                  for x, y in scheme.placement.values()))
            if not cfg.distinct():
                continue
            checked += 1
            for tri in TRIANGLES:
                assert scheme.area2(tri).evaluate(values) == Fraction(
                    cfg.cross(tri), cfg.int_scale ** 2), (scheme.name, tri)
            assert quartic.evaluate(values) == cocircularity(cfg)
            d = cfg.sextuple().as_tuple()
            for g in scheme.generators:
                # g = |PQ|^2 - x^2 for the one distance x of a -x^2 term
                (x,) = [v for v, sq in squares.items()
                        if g.terms.get(next(iter(sq.terms))) == -1]
                assert (g + squares[x]).evaluate(values) == \
                    d[DIST_VARS.index(x)], (scheme.name, x)


def test_converse_ptolemy_certified():
    cert = cert_converse_ptolemy(seed=5, timeout=600, samples=40)
    assert cert.status == CERTIFIED
    assert cert.reduced_basis == ["1"]
    assert cert.tier2["violations"] == 0
    assert cert.order == "grevlex"


def test_converse_ptolemy_tier2_only_on_tiny_budget():
    cert = cert_converse_ptolemy(seed=5, timeout=0.001, samples=30)
    assert cert.status == TIER2_ONLY
    assert cert.tier1["completed"] is False


def test_tier1_runs_on_the_scheme_polynomials_it_records(monkeypatch):
    # tier 1 hands radical_membership the scheme's own polynomials, in the
    # scheme's order with the y-coordinates above the x-coordinates, and the
    # record's ideal texts are exactly those generators printed (to_text is
    # injective on the canonical polynomials of one VarSet)
    seen = []
    real = certificates.radical_membership

    def capture(f, gens, timeout=None):
        seen.append((f, gens))
        return real(f, gens, timeout=timeout)

    monkeypatch.setattr(certificates, "radical_membership", capture)
    for run, scheme in ((cert_converse_ptolemy, ptolemy_scheme()),
                        (cert_parallelogram_case, t_scheme())):
        cert = run(seed=1, timeout=60, samples=0)
        (f, gens), = seen
        seen.clear()
        assert f.vars.names == tuple("abcdefvzuw")
        assert {g.vars for g in gens} == {scheme.vars}
        assert cert.ideal == [g.to_text(GREVLEX) for g in gens]
        assert cert.status == CERTIFIED


def test_tier1_certifies_without_the_rabinowitsch_ideal(monkeypatch):
    # f or f^2 reduces to 0 on the scheme ideal's own basis, so these claims
    # never build the slack-variable ideal
    import quadkit.groebner as groebner

    def refuse(f, gens):
        raise AssertionError("Rabinowitsch fallback taken")

    monkeypatch.setattr(groebner, "rabinowitsch", refuse)
    assert cert_converse_ptolemy(samples=0).status == CERTIFIED
    assert cert_elimination_formula("N_R", samples=0).status == CERTIFIED


@pytest.mark.parametrize("mutant", ["quartic_without_P", "quartic_plus_a"])
def test_false_tier1_fails_the_claim(mutant):
    # a tier 1 that finishes False fails the claim, even with clean samples:
    # the cocircle quartic is not in the radical of the bare scheme
    # generators, and quartic + a is not in the radical of the P = 0 ideal
    scheme = ptolemy_scheme()
    quartic = scheme.cocircle()
    f, gens = {
        "quartic_without_P": (quartic, scheme.ideal()),
        "quartic_plus_a": (quartic + Polynomial.variable(scheme.vars, "a"),
                           scheme.ideal(condition_poly("P"))),
    }[mutant]

    def expire(signum, frame):
        raise AssertionError("tier 1 ran past 5 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        cert = certificates._certify(
            mutant, "mutated tier 1",
            lambda: ({"samples": 1, "violations": 0}, []), 30,
            ("unit_basis", f, gens))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert cert.status == FAILED
    assert cert.tier1["completed"] is True
    assert cert.tier1["unit_basis"] is False
    assert cert.reduced_basis is None


def test_elimination_certificates_radical_route():
    for target in ("N_ptolemy", "M_T"):
        cert = cert_elimination_formula(target, seed=3, timeout=120,
                                        samples=30)
        assert cert.status == CERTIFIED, (target, cert.tier1)
        assert cert.tier1["method"] == "radical-membership"
        assert cert.tier1["relation_on_variety"] is True
        assert cert.tier2["mismatches"] == 0


def test_all_elimination_targets_certify_symbolically():
    # the full sweep: every closed form is proven on the variety, not just
    # sampled (radical route), under the order the record names
    for target in ELIM_TARGETS:
        cert = cert_elimination_formula(target, seed=1, timeout=180,
                                        samples=10)
        assert cert.status == CERTIFIED, (target, cert.tier1)
        assert cert.order == "grevlex"


def test_elimination_tier2_only_when_budget_zero():
    cert = cert_elimination_formula("dABD_R", seed=3, timeout=0, samples=25)
    assert cert.status == TIER2_ONLY
    assert cert.tier2["mismatches"] == 0
    assert cert.tier2["samples"] == 25


def test_closed_form_on_34_rectangle():
    # N = dABC * dACD = 12 * 12 on the 3-4 rectangle; the closed form gives
    # 144*6*8*6*8 / (4*24^2) = 144 as well
    from quadkit.certificates import _elim_targets
    from quadkit.conditions import eval_poly_on_sextuple
    rect = QuadConfig.of((0, 0), (4, 0), (4, 3), (0, 3))
    s2 = rect.int_scale ** 2
    n_val = Fraction(rect.cross("ABC"), s2) * Fraction(rect.cross("ACD"), s2)
    assert n_val == 144
    _, lhs, rhs = _elim_targets()["N_ptolemy"]
    d = rect.sextuple()
    assert eval_poly_on_sextuple(lhs, d) * n_val == eval_poly_on_sextuple(rhs, d)
    assert eval_poly_on_sextuple(rhs, d) == RadicalValue.from_rational(
        Fraction(144 * 2304))


def test_elimination_tier2_batch_counts():
    stats = elimination_tier2(["M_T", "dABD_T"], samples=30, seed=1)
    for t in ("M_T", "dABD_T"):
        assert stats[t]["samples"] == 30
        assert stats[t]["mismatches"] == 0
        assert stats[t]["sign_violations"] == 0


def test_repeated_elimination_target_draws_its_samples(monkeypatch):
    # a target named twice runs once, so the samples it reports are kites
    # it drew, not one kite counted twice
    calls = 0
    kite = certificates.gen_tilted_kite

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kite(*args, **kwargs)

    monkeypatch.setattr(certificates, "gen_tilted_kite", counting)
    draws = []
    for targets in (["M_T"], ["M_T", "M_T"]):
        calls = 0
        stats = elimination_tier2(targets, samples=10, seed=1)
        assert list(stats) == ["M_T"] and stats["M_T"]["samples"] == 10
        draws.append(calls)
    assert draws[0] == draws[1] >= 10


def _elimination_tier2_by_fractions(targets, samples, seed):
    """`certificates.elimination_tier2` as it read on `Fraction`s and
    `RadicalValue`s: the reference its integer comparison must repeat."""
    table = certificates._elim_targets()
    by_family, results, allowed = {}, {}, {}
    for t in dict.fromkeys(targets):
        tgt = table[t][0]
        by_family.setdefault(certificates._scheme(tgt.constraint).family,
                             []).append(t)
        results[t] = {"samples": 0, "mismatches": 0, "sign_violations": 0,
                      "guard_skips": 0}
        if tgt.hulls is not None:
            allowed[t] = certificates._hull_sets(tgt)
            results[t]["hull_violations"] = 0
        if tgt.constraint == "R_T" and tgt.sign is not None:
            results[t]["gamma_sign_violations"] = 0
    for family, fam_targets in by_family.items():
        stream = certificates._family_samples(family, random.Random(seed))
        polys = [side for t in fam_targets for side in table[t][1:]]
        polys.append(certificates._gamma_poly())
        while any(results[t]["samples"] < samples for t in fam_targets):
            cfg = next(stream)
            s2 = cfg.int_scale ** 2
            *sides, gamma = eval_polys_on_sextuple(polys, cfg.sextuple())
            for t, lhs, rhs in zip(fam_targets, sides[::2], sides[1::2]):
                tgt, stats = table[t][0], results[t]
                if stats["samples"] >= samples:
                    continue
                if lhs.is_zero:
                    stats["guard_skips"] += 1
                    continue
                stats["samples"] += 1
                value = prod(Fraction(cfg.cross(tri), s2)
                             for tri in tgt.triangles)
                if lhs * value ** tgt.power != rhs:
                    stats["mismatches"] += 1
                if tgt.sign is not None and tgt.sign * value < 0:
                    stats["sign_violations"] += 1
                if t in allowed:
                    hull = classify_hull(cfg).boundary
                    if hull and hull not in allowed[t][cfg.orient("ABC")]:
                        stats["hull_violations"] += 1
                if "gamma_sign_violations" in stats and gamma.sign() > 0:
                    stats["gamma_sign_violations"] += 1
    return results


def test_elimination_tier2_repeats_the_fraction_reference():
    # seed 38's kite stream has a guard skip (its third kite has ad = bc)
    for seed in (0, 7, 38, 41):
        assert (elimination_tier2(ELIM_TARGETS, 40, seed=seed)
                == _elimination_tier2_by_fractions(ELIM_TARGETS, 40, seed)), \
            seed


def _replaced_target(monkeypatch, name, **change):
    """Monkeypatch `_elim_targets` with one row's target or sides changed:
    `lhs` and `rhs` replace A' and B', anything else a field of the
    target."""
    table = dict(certificates._elim_targets())
    tgt, lhs, rhs = table[name]
    lhs, rhs = change.pop("lhs", lhs), change.pop("rhs", rhs)
    table[name] = (dataclasses.replace(tgt, **change), lhs, rhs)
    monkeypatch.setattr(certificates, "_elim_targets", lambda: table)


def test_flipped_closed_form_mismatches_on_every_sample(monkeypatch):
    rhs = certificates._elim_targets()["N_R"][2]
    _replaced_target(monkeypatch, "N_R", rhs=-1 * rhs)
    cert = cert_elimination_formula("N_R", seed=1, timeout=0, samples=30)
    assert cert.status == FAILED
    assert cert.tier2["mismatches"] == cert.tier2["samples"] == 30
    assert cert.tier2["sign_violations"] == cert.tier2["hull_violations"] == 0
    assert (elimination_tier2(["N_R"], 30, seed=1)
            == _elimination_tier2_by_fractions(["N_R"], 30, 1))


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_a_root_on_one_side_only_is_a_mismatch(monkeypatch, side):
    # A' or B' plus the distance e, a root the other side lacks wherever qe
    # is not a square: the comparison must read every radicand of both sides
    sides = dict(zip(("lhs", "rhs"), certificates._elim_targets()["N_R"][1:]))
    e = Polynomial.variable(DIST_VARS, "e")
    _replaced_target(monkeypatch, "N_R", **{side: sides[side] + e})
    stats = elimination_tier2(["N_R"], 30, seed=1)["N_R"]
    assert stats["mismatches"] == stats["samples"] == 30
    assert stats == _elimination_tier2_by_fractions(["N_R"], 30, 1)["N_R"]


def test_flipped_claimed_sign_is_a_sign_violation(monkeypatch):
    _replaced_target(monkeypatch, "M_T", sign=-1)
    stats = elimination_tier2(["M_T"], 30, seed=1)["M_T"]
    assert stats["sign_violations"] == stats["samples"] == 30
    assert stats["mismatches"] == 0
    assert stats == _elimination_tier2_by_fractions(["M_T"], 30, 1)["M_T"]
    cert = cert_elimination_formula("M_T", seed=1, timeout=0, samples=30)
    assert cert.status == FAILED


def test_elimination_unknown_target():
    with pytest.raises(ValueError):
        cert_elimination_formula("bogus")
    with pytest.raises(ValueError):
        elimination_tier2(["bogus"], samples=5)


def test_parallelogram_case_certified_with_kite_note():
    cert = cert_parallelogram_case(seed=2, timeout=300, samples=45)
    assert cert.status == CERTIFIED
    assert cert.tier1["radical_member"] is True
    assert cert.tier2["branch_violations"] == 0
    assert any("kite" in n for n in cert.notes)


def test_degenerate_cases_both_families():
    for family, claim in (("R", "degenerate_R"), ("R_T", "degenerate_RT")):
        cert = cert_degenerate_cases(family, seed=4, samples=120)
        assert cert.claim == claim
        assert cert.status == SUPPORTED
        assert cert.tier2["violations"] == 0
        assert all(v > 0 for v in cert.tier2["by_case"].values())
    with pytest.raises(ValueError):
        cert_degenerate_cases("X")


def test_degenerate_check_fails_on_the_wrong_angle_condition(monkeypatch):
    # case2 of each family with the other family's angle condition: K_T does
    # not vanish on the R family's case2 (it is -f^2*a*d there), nor K on the
    # R_T family's (e^2*a*b), so every case2 draw is a violation
    families = certificates._degenerate_families()
    for family, wrong in (("R", "K_T"), ("R_T", "K")):
        condition, axis, free_point, cases = families[family]
        cases = tuple(row[:4] + (condition_poly(wrong),)
                      if row[0] == "case2" else row for row in cases)
        monkeypatch.setattr(certificates, "_degenerate_families", lambda: {
            family: (condition, axis, free_point, cases)})
        cert = cert_degenerate_cases(family, seed=4, samples=120)
        assert cert.status == FAILED
        assert cert.tier2["violations"] == cert.tier2["by_case"]["case2"] > 0


def test_degenerate_records_pinned():
    # the seeded draws of both families, case by case
    pinned = {("R", 0, 200): (200, (68, 70, 62)),
              ("R", 4, 120): (120, (40, 35, 45)),
              ("R_T", 0, 200): (200, (60, 71, 69)),
              ("R_T", 4, 120): (120, (44, 40, 36))}
    for (family, seed, samples), (n, by_case) in pinned.items():
        tier2 = cert_degenerate_cases(family, seed, samples).tier2
        del tier2["elapsed_ms"]
        assert tier2 == {"samples": n, "violations": 0, "by_case": dict(
            zip(("all_collinear", "case2", "case3"), by_case))}


def _config_digest(cfgs, rng) -> str:
    h = hashlib.sha256()
    for cfg in cfgs:
        h.update(repr((cfg.int_points, cfg.int_scale)).encode())
    h.update(str(rng.getrandbits(64)).encode())
    return h.hexdigest()


def _recording_rngs(monkeypatch, module) -> list:
    """Every `random.Random` that `module` makes from here on."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(module, "random", SimpleNamespace(Random=Recorded))
    return made


def test_degenerate_configurations_pinned(monkeypatch):
    # recorded before the degenerate placements moved to integer points:
    # every configuration each tier 2 builds, then its rng's next 64 bits
    want = {("R", 0): "46ba85966ebecf656468007370c4915c"
                      "42a212a09299c4c6168489ed599fdec3",
            ("R", 4): "0eefacf1e5b292cb2b68a43b5d3ccff0"
                      "5d9e1395dbe1450594f4978c8216d0ec",
            ("R_T", 0): "154065dd90724053eeecd02ba67aa25d"
                        "99c803ccf150691a542087a0b68b811e",
            ("R_T", 4): "1125050ad128a5d5b30007c24e0cfbc5"
                        "a615aab093a5e29f6666772e12b97583"}
    built = []
    sextuple = QuadConfig.sextuple
    monkeypatch.setattr(QuadConfig, "sextuple",
                        lambda cfg: built.append(cfg) or sextuple(cfg))
    rngs = _recording_rngs(monkeypatch, certificates)
    for (family, seed), digest in want.items():
        built.clear()
        assert cert_degenerate_cases(family, seed).tier2["violations"] == 0
        assert len(built) == 200
        assert _config_digest(built, rngs[-1]) == digest, (family, seed)


def test_parallelogram_makers_pinned():
    # recorded before the parallelogram and kite makers moved to integer
    # points: 300 draws in the claim's rotation, then the next 64 bits
    rng = random.Random(0)
    makers = (certificates._parallelogram, certificates._rhombus,
              certificates._symmetric_kite)
    cfgs = [makers[i % 3](rng) for i in range(300)]
    assert _config_digest(cfgs, rng) == ("c6dc067b3b7b96b719eea792858b76f4"
                                        "ef1b9eff5c6317796e51aa08c9588536")

def test_reflection_theorem_supported():
    cert = cert_reflection_theorem(seed=6, samples=25)
    assert cert.status == SUPPORTED
    for part in cert.tier2.values():
        assert part["violations"] == 0


def test_reflection_reverse_direction_uses_independent_kites(monkeypatch):
    # kites made by reflecting cyclic configurations would only test that a
    # reflection undoes itself, so the kite -> P_T*Q_T = 0 direction must
    # not draw from gen_tilted_kite
    def refuse(*args, **kwargs):
        raise AssertionError("gen_tilted_kite called")

    monkeypatch.setattr(certificates, "gen_tilted_kite", refuse)
    cert = cert_reflection_theorem(seed=3, samples=5)
    assert cert.status == SUPPORTED
    assert cert.tier2["kite_to_reflected_PTQT_zero"] == {"samples": 5,
                                                         "violations": 0}


def test_hull_tables_supported():
    cert = cert_hull_tables(seed=6, samples=3000)
    assert cert.status == SUPPORTED
    assert cert.tier2["mismatches"] == 0
    assert cert.tier2["unrealizable_patterns"] == 0
    assert cert.tier2["kinds"]["collinear4"] > 0


def test_hull_and_elimination_tier2_pinned():
    # outputs recorded before orientation and evaluation moved to integers
    tier2 = cert_hull_tables(seed=3, samples=3000).tier2
    del tier2["elapsed_ms"]
    assert tier2 == {"samples": 3000, "mismatches": 0,
                     "unrealizable_patterns": 0,
                     "kinds": {"convex4": 2015, "concave3": 937,
                               "collinear3": 41, "collinear4": 7}}
    clean = {"samples": 20, "mismatches": 0, "sign_violations": 0,
             "guard_skips": 0}
    checks = {"N_R": {"hull_violations": 0},
              "M_T": {"hull_violations": 0, "gamma_sign_violations": 0}}
    assert elimination_tier2(ELIM_TARGETS, 20, seed=5) == {
        t: {**clean, **checks.get(t, {})} for t in ELIM_TARGETS}
    # the third kite of this stream has a = c and b = d, so ad = bc and
    # A' = 0 on both targets
    guarded = dict(clean, samples=60, guard_skips=1)
    assert elimination_tier2(["M_T", "dABC_T"], 60, seed=38) == {
        "M_T": {**guarded, **checks["M_T"]}, "dABC_T": guarded}


def test_random_draws_and_hull_tier2_pinned():
    # recorded before the hull loop moved to integer draws: each stream of
    # 2000 draws, then the next 64 bits, so the randint calls are pinned too
    want = {
        (40, 4): "2e39b04f1edb689951aa97ebc896c4e9"
                 "938859944549d17435d492cd00aa23db",
        (8, 1): "748319dc88fb47d6e8bdbb77c506298b"
                "d691ef49c11dba93ce097e2553c49054",
        (40, 3): "25e1bba13efb7dec87f8ac3ecaf605f5"
                 "7ccb8c567f5893f8eadfe8786ff9c9bd",
        (100, 30): "202b40e6c63290fddda6c8674349d514"
                   "39f2fa07656673bb6e596787b2b34d03",
        (1000, 100): "84463e3761ee6072e0c906df86685071"
                     "4d9437f11dda4aab82b315774037a041",
    }
    for (span, max_den), digest in want.items():
        rng = random.Random(span * 1000 + max_den)
        h = hashlib.sha256()
        for _ in range(2000):
            cfg = random_quad(rng, span, max_den)
            h.update(json.dumps(config_to_obj(cfg)).encode())
        h.update(str(rng.getrandbits(64)).encode())
        assert h.hexdigest() == digest, (span, max_den)
    kinds = {11: {"convex4": 3355, "concave3": 1575, "collinear3": 60,
                  "collinear4": 10},
             29: {"convex4": 3325, "concave3": 1598, "collinear3": 67,
                  "collinear4": 10}}
    for seed, counts in kinds.items():
        tier2 = cert_hull_tables(seed=seed, samples=5000).tier2
        del tier2["elapsed_ms"]
        assert tier2 == {"samples": 5000, "mismatches": 0,
                         "unrealizable_patterns": 0, "kinds": counts}


def test_ray_kite_streams_pinned():
    # recorded before the ray-kite draws moved to integers: 150 kites of
    # each hull kind, then the next 64 bits, so the rng calls are pinned too
    want = {True: "aff6b3ab5f091da25774d08735d36ce1"
                  "9f1fa5ac75ef021fde76b174a29932cb",
            False: "309a370ca047f2398ebe561359f05862"
                   "6fd0ab9ac3a975d27e9f47feb8cb7be8"}
    for convex, digest in want.items():
        rng = random.Random(2027 if convex else 2028)
        h = hashlib.sha256()
        for _ in range(150):
            kite = certificates._ray_kite(rng, convex)
            h.update(json.dumps(config_to_obj(kite)).encode())
        h.update(str(rng.getrandbits(64)).encode())
        assert h.hexdigest() == digest, convex


def test_reflection_tier2_pinned():
    # recorded before the reflection moved to integer points
    part = {"samples": 50, "violations": 0}
    assert cert_reflection_theorem(seed=2, samples=50).tier2 == {
        "cyclic_ACBD_to_reflected_RT_zero": part,
        "kite_to_reflected_PTQT_zero": part,
        "PTQT_nonzero_keeps_reflected_RT_nonzero": part}


def test_hull_set_mismatch_fails_the_claim(monkeypatch):
    table = dict(certificates._elim_targets())
    tgt, lhs, rhs = table["N_R"]
    swapped = dataclasses.replace(tgt, hulls={1: tgt.hulls[-1],
                                              -1: tgt.hulls[1]})
    table["N_R"] = (swapped, lhs, rhs)
    monkeypatch.setattr(certificates, "_elim_targets", lambda: table)
    cert = cert_elimination_formula("N_R", seed=1, timeout=0, samples=10)
    assert cert.status == FAILED
    assert "MISMATCH" in cert.notes[0]
    # the record shows what failed the claim, while the sampled hulls still
    # fit the sets the sign tables allow
    assert cert.tier2["hull_set_mismatches"] == 1
    assert cert.tier2["hull_violations"] == 0


def test_row_verdict_on_all_81_sign_rows():
    # both classifiers read only the four signs, so these 81 rows are the
    # whole of the agreement check
    rows = list(product((-1, 0, 1), repeat=4))
    refused = {r for r in rows if certificates._row_verdict(r)[0] is None}
    assert {r for r in refused if 0 not in r} == {(1, -1, -1, 1),
                                                  (-1, 1, 1, -1)}
    assert {r for r in rows if r.count(0) in (2, 3)} <= refused
    assert [sum(r.count(0) == z for r in refused) for z in range(5)] == \
        [2, 8, 24, 8, 0]
    assert len(refused) == 2 + 8 + 24 + 8
    kept = [r for r in rows if r not in refused]
    assert [sum(r.count(0) == z for r in kept) for z in (0, 1, 4)] == \
        [14, 24, 1]
    for r in kept:
        assert certificates._row_verdict(r) == (hull_from_signs(r).kind,
                                                True), r


def test_oracle_hull_agrees_on_known_shapes():
    sq = QuadConfig.of((0, 0), (1, 0), (1, 1), (0, 1))
    assert oracle_hull(sq) == classify_hull(sq)
    # A is the top vertex, so the sort around A does not start at the lowest
    kite = QuadConfig.of((2, 3), (3, 1), (1, 0), (0, 2))
    assert oracle_hull(kite) == classify_hull(kite) == \
        HullClass("convex4", boundary="ADCB")
    dart = QuadConfig.of((1, "1/2"), (0, 0), (2, 0), (1, 2))
    assert oracle_hull(dart) == classify_hull(dart) == \
        HullClass("concave3", boundary="BCD", interior="A")
    rng = random.Random(0)
    kinds = set()
    for _ in range(300):
        cfg = random_quad(rng, span=6, max_den=2)
        h1, h2 = classify_hull(cfg), oracle_hull(cfg)
        assert _hulls_agree(h1, h2), (cfg, h1, h2)
        kinds.add(h1.kind)
    assert kinds == {"convex4", "concave3", "collinear3"}


def test_certificates_deterministic_given_seed():
    c1 = cert_degenerate_cases("R", seed=9, samples=60)
    c2 = cert_degenerate_cases("R", seed=9, samples=60)
    assert _strip_timing(c1.to_obj()) == _strip_timing(c2.to_obj())
    c3 = cert_reflection_theorem(seed=9, samples=10)
    c4 = cert_reflection_theorem(seed=9, samples=10)
    assert _strip_timing(c3.to_obj()) == _strip_timing(c4.to_obj())


def test_run_certificates_selection_and_json():
    certs = run_certificates(["degenerate_R", "hull_tables"], seed=1,
                             samples=500)
    assert [c.claim for c in certs] == ["degenerate_R", "hull_tables"]
    blob = json.dumps([c.to_obj() for c in certs], sort_keys=True)
    assert json.loads(blob)[0]["claim"] == "degenerate_R"
    with pytest.raises(ValueError):
        run_certificates(["nope"])


def test_run_certificates_parallel_jobs():
    certs = run_certificates(["degenerate_R", "degenerate_RT"], seed=1,
                             jobs=2, samples=40)
    assert all(c.status == SUPPORTED for c in certs)


def test_process_pool_never_exceeds_the_claims(monkeypatch):
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # the pool is imported where it is used, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(certificates, "_run_claim", lambda argv: argv[0])
    assert run_certificates(["degenerate_R", "hull_tables"],
                            jobs=64) == ["degenerate_R", "hull_tables"]
    assert run_certificates(list(CLAIMS), jobs=3) == list(CLAIMS)
    assert run_certificates(["degenerate_R"], jobs=8) == ["degenerate_R"]
    assert sizes == [2, 3]


def test_no_samples_supports_nothing():
    # with no tier-2 sample and a tier 1 too short to finish, a claim has no
    # evidence: INCONCLUSIVE (a finished tier 1 may still certify)
    for cert in run_certificates(seed=0, timeout=0.05, samples=0):
        assert cert.status in (INCONCLUSIVE, CERTIFIED), (cert.claim,
                                                          cert.status)
        assert cert.status != CERTIFIED or cert.tier1["completed"]
        parts = (cert.tier2.values() if cert.claim == "reflection_theorem"
                 else [cert.tier2])
        assert all(p["samples"] == 0 for p in parts), (cert.claim, cert.tier2)


def test_status_is_read_from_the_record():
    # every claim's status follows from its tier-1 verdict and the counts
    # its tier-2 record shows, so no violation fails a claim unseen
    verdicts = ("unit_basis", "relation_on_variety", "radical_member")
    certs = run_certificates(seed=3, samples=5)
    assert len(certs) == len(CLAIMS) == 16
    for cert in certs:
        tier1 = cert.tier1 or {}
        verdict = next((tier1[k] for k in verdicts if k in tier1), None)
        assert cert.status == _status(verdict, cert.tier1 is not None,
                                      *_tally(cert.tier2)), cert.claim
        assert _tally(cert.tier2)[0] > 0, cert.claim
        assert cert.status in (CERTIFIED, SUPPORTED), cert.claim


def test_all_claims_registered():
    assert set(CLAIMS) == {
        "converse_ptolemy", "parallelogram_case", "degenerate_R",
        "degenerate_RT", "reflection_theorem", "hull_tables",
        *(f"elim_{t}" for t in ELIM_TARGETS)}
