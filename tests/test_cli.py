import json

import pytest

from quadkit import certificates
from quadkit.cli import main

SQUARE = {"A": ["0", "0"], "B": ["1", "0"], "C": ["1", "1"], "D": ["0", "1"]}
FOLDED_RECT_SEXT = {"qa": "16", "qb": "9", "qc": "16", "qd": "9",
                    "qe": "25", "qf": "49/25"}


def _write(tmp_path, obj, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_classify_square_text(tmp_path, capsys):
    rc = main(["classify", _write(tmp_path, SQUARE)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "convex ABCD" in out
    assert "cyclic (concyclic or collinear), convex" in out


def test_classify_square_json(tmp_path, capsys):
    rc = main(["classify", _write(tmp_path, SQUARE), "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hull"]["boundary"] == "ABCD"
    signs = {r["condition"]: r["sign"] for r in report["conditions"]}
    assert signs["P"] == 0 and signs["Q"] == 1 and signs["CM"] == 0


def test_classify_folded_rectangle_sextuple(tmp_path, capsys):
    rc = main(["classify", _write(tmp_path, FOLDED_RECT_SEXT),
               "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    signs = {r["condition"]: r["sign"] for r in report["conditions"]}
    assert signs["R"] == 0 and signs["K"] == 0 and signs["P"] == 1
    assert any("supplementary" in v for v in report["verdicts"])
    assert report["cm"] == "0"


def test_classify_rejects_coincident_points(tmp_path, capsys):
    bad = dict(SQUARE, B=SQUARE["A"])
    rc = main(["classify", _write(tmp_path, bad)])
    assert rc == 1
    assert "coincident" in capsys.readouterr().err


def test_classify_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["classify", str(path)]) == 1
    assert main(["classify", str(tmp_path / "missing.json")]) == 1


def test_verify_identities(capsys):
    rc = main(["verify-identities"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "11/11" in out
    rc = main(["verify-identities", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] == report["total"] == 11


def test_generate_cyclic_deterministic(capsys):
    rc = main(["generate", "cyclic", "--count", "3", "--seed", "7"])
    first = capsys.readouterr().out
    assert rc == 0
    lines = first.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        signs = {r["condition"]: r["sign"] for r in rec["condition_signs"]}
        assert signs["P"] == 0
    rc = main(["generate", "cyclic", "--count", "3", "--seed", "7"])
    assert capsys.readouterr().out == first  # byte-identical given the seed


def test_generate_folded_and_reflected(capsys):
    rc = main(["generate", "folded", "--count", "1", "--seed", "3"])
    rec = json.loads(capsys.readouterr().out)
    signs = {r["condition"]: r["sign"] for r in rec["condition_signs"]}
    assert rc == 0 and signs["R"] == 0 and signs["P"] == 1
    rc = main(["generate", "reflected", "--count", "1", "--seed", "3"])
    rec = json.loads(capsys.readouterr().out)
    signs = {r["condition"]: r["sign"] for r in rec["condition_signs"]}
    assert rc == 0 and signs["R_T"] == 0


def test_generate_concave_kite_hull(capsys):
    rc = main(["generate", "tilted_kite", "--concave", "--count", "2",
               "--seed", "11"])
    out = capsys.readouterr().out
    assert rc == 0
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert rec["hull"]["kind"] == "concave3"
        signs = {r["condition"]: r["sign"] for r in rec["condition_signs"]}
        assert signs["R_T"] == 0 and signs["K_T"] == 0


def test_generate_rejects_bad_count(capsys):
    assert main(["generate", "cyclic", "--count", "0"]) == 1


def test_prove_text_and_exit_codes(capsys):
    rc = main(["prove", "degenerate_R", "degenerate_RT", "--samples", "60"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SUPPORTED" in out and "0 failed" in out


def test_prove_json(capsys):
    rc = main(["prove", "hull_tables", "--samples", "800", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report[0]["claim"] == "hull_tables"
    assert report[0]["status"] == "SUPPORTED"
    assert report[0]["tier2"]["mismatches"] == 0


def test_prove_unknown_claim(capsys):
    assert main(["prove", "definitely_not_a_claim"]) == 1


def test_prove_failed_certificate_exit_code(capsys, monkeypatch):
    def fake(seed=0, timeout=600.0, samples=None):
        return certificates.Certificate("hull_tables", "forced", "FAILED")
    monkeypatch.setitem(certificates.CLAIMS, "hull_tables", fake)
    assert main(["prove", "hull_tables"]) == 2


def test_render_svg(tmp_path, capsys):
    rc = main(["render-svg", _write(tmp_path, SQUARE)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("<svg") and "</svg>" in out
    rc = main(["render-svg", _write(tmp_path, FOLDED_RECT_SEXT)])
    assert rc == 1


def test_usage_error_is_input_error(capsys):
    assert main(["classify"]) == 1
    assert main(["not-a-command"]) == 1


@pytest.mark.parametrize("bad", [
    dict(SQUARE, C=["1/0", "1"]), dict(SQUARE, C=[True, "1"]),
    dict(SQUARE, C=[None, "1"]), dict(SQUARE, C=[[1, 2], "1"]),
    dict(FOLDED_RECT_SEXT, qf="49/0")])
def test_classify_rejects_bad_coordinate(tmp_path, capsys, bad):
    assert main(["classify", _write(tmp_path, bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--timeout", "-1"], ["--timeout", "inf"],
                                   ["--timeout", "nan"], ["--jobs", "0"],
                                   ["--samples", "-1"]])
def test_prove_rejects_bad_budget(capsys, flags):
    assert main(["prove", "converse_ptolemy", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_prove_tier1_respects_timeout(capsys):
    # every tier-1 attempt together stays within --timeout (plus slack for
    # the deadline checks), with no floor on the radical-membership slice
    rc = main(["prove", "elim_dABD_R", "--timeout", "0.2", "--samples", "0",
               "--format", "json"])
    assert rc == 0
    tier1 = json.loads(capsys.readouterr().out)[0]["tier1"]
    spent = sum(tier1.get(k, 0) for k in (
        "elapsed_ms", "elimination_attempt_ms", "radical_attempt_ms"))
    assert spent < 500, tier1
    assert "literal elimination skipped" in tier1["note"]
