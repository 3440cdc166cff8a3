import json

import pytest

from quadkit import certificates
from quadkit.certificates import (CERTIFIED, CLAIMS, SUPPORTED, TIER2_ONLY,
                                  cert_converse_ptolemy, cert_degenerate_cases,
                                  cert_elimination_formula, cert_hull_tables,
                                  cert_parallelogram_case,
                                  cert_reflection_theorem, elimination_tier2,
                                  ELIM_TARGETS, oracle_hull, ptolemy_scheme,
                                  r_scheme, run_certificates, t_scheme)
from quadkit.geometry import QuadConfig, classify_hull, random_quad
from quadkit.radicals import RadicalValue


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if not k.endswith("_ms")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_schemes_have_expected_generators():
    for scheme, first in ((ptolemy_scheme(), "(u-a)^2 + v^2 - b^2"),
                          (r_scheme(), "(u-f)^2 + v^2 - a^2"),
                          (t_scheme(), "u^2 + v^2 - a^2")):
        assert len(scheme.generators) == 5
        from quadkit.poly import Polynomial
        assert scheme.generators[0] == Polynomial.parse(first, scheme.vars)


def test_scheme_cocircle_quartic_shape():
    q = ptolemy_scheme().cocircle()
    # quartic, and the v^2*z coefficient has magnitude 1 (times the a factor)
    assert q.total_degree() == 4
    vars_ = ptolemy_scheme().vars
    idx = {n: i for i, n in enumerate(vars_.names)}
    mono = [0] * len(vars_)
    mono[idx["a"]] = 1
    mono[idx["v"]] = 2
    mono[idx["z"]] = 1
    assert abs(q.terms[tuple(mono)]) == 1


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


def test_elimination_certificates_radical_route():
    for target in ("N_ptolemy", "M_T"):
        cert = cert_elimination_formula(target, seed=3, timeout=120,
                                        samples=30, literal_budget=0)
        assert cert.status == CERTIFIED, (target, cert.tier1)
        assert cert.tier1["method"] == "radical-membership"
        assert cert.tier1["relation_on_variety"] is True
        assert cert.tier2["mismatches"] == 0


def test_literal_elimination_is_opt_in():
    # skipped by default, with the reason recorded; a positive budget tries
    # it first (it times out here) and the radical route still certifies
    cert = cert_elimination_formula("dABD_T", seed=2, timeout=60, samples=5)
    assert cert.status == CERTIFIED
    assert "literal elimination skipped" in cert.tier1["note"]
    assert "elimination_attempt_ms" not in cert.tier1
    cert = cert_elimination_formula("dABD_T", seed=2, timeout=60, samples=5,
                                    literal_budget=0.3)
    assert cert.status == CERTIFIED, cert.tier1
    assert cert.tier1["method"] == "radical-membership"
    assert 250 <= cert.tier1["elimination_attempt_ms"] < 2000
    assert "note" not in cert.tier1


def test_all_elimination_targets_certify_symbolically():
    # the full sweep: every closed form is proven on the variety, not just
    # sampled (radical route; the literal elimination attempt is skipped)
    for target in ELIM_TARGETS:
        cert = cert_elimination_formula(target, seed=1, timeout=180,
                                        samples=10, literal_budget=0)
        assert cert.status == CERTIFIED, (target, cert.tier1)


def test_elimination_tier2_only_when_budget_zero():
    cert = cert_elimination_formula("dABD_R", seed=3, timeout=0, samples=25)
    assert cert.status == TIER2_ONLY
    assert cert.tier2["mismatches"] == 0
    assert cert.tier2["samples"] == 25


def test_closed_form_on_34_rectangle():
    # N = dABC * dACD = 12 * 12 on the 3-4 rectangle; the closed form gives
    # 144*6*8*6*8 / (4*24^2) = 144 as well
    from fractions import Fraction
    from quadkit.certificates import _elim_targets
    from quadkit.conditions import eval_poly_on_sextuple
    from quadkit.geometry import signed_areas
    rect = QuadConfig.of((0, 0), (4, 0), (4, 3), (0, 3))
    ar = signed_areas(rect)
    n_val = ar.abc * ar.acd
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


def test_oracle_hull_agrees_on_known_shapes():
    sq = QuadConfig.of((0, 0), (1, 0), (1, 1), (0, 1))
    assert oracle_hull(sq) == classify_hull(sq)
    import random
    rng = random.Random(0)
    for _ in range(300):
        cfg = random_quad(rng, span=6, max_den=2)
        h1, h2 = classify_hull(cfg), oracle_hull(cfg)
        assert h1.kind == h2.kind


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


def test_all_claims_registered():
    assert set(CLAIMS) == {
        "converse_ptolemy", "parallelogram_case", "degenerate_R",
        "degenerate_RT", "reflection_theorem", "hull_tables",
        *(f"elim_{t}" for t in ELIM_TARGETS)}
