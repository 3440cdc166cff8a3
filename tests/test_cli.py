import hashlib
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from quadkit import certificates
from quadkit.cli import _condition_rows, _verdicts, main
from quadkit.geometry import (cocircularity, config_to_obj, gen_cyclic,
                              gen_folded, gen_reflected, gen_tilted_kite,
                              random_quad, sextuple_to_obj)

SRC = Path(__file__).resolve().parent.parent / "src"
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


def test_classify_loads_no_process_pool(tmp_path):
    # only prove --jobs N with N > 1 uses a pool; a fresh classify must not
    # pay for importing multiprocessing or concurrent.futures
    probe = (
        "import sys, quadkit\n"
        "from quadkit.cli import main\n"
        f"assert main(['classify', {_write(tmp_path, SQUARE)!r}, "
        "'--format', 'json']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]", done.stdout


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
    assert not any("non-cyclic" in v for v in report["verdicts"])
    assert report["cm"] == "0"


def _cyclic_and_noncyclic(verdicts):
    return (any("non-cyclic" in v for v in verdicts)
            and any(v.startswith("cyclic") for v in verdicts))


@pytest.mark.parametrize("config", [
    # the folded 3-4 rectangle, on the circle about (2, 3/2)
    {"A": ["0", "0"], "B": ["4", "0"], "C": ["4", "3"],
     "D": ["72/25", "-21/25"]},
    # right angles at B and D, on the unit circle
    {"A": ["-1", "0"], "B": ["0", "1"], "C": ["1", "0"],
     "D": ["3/5", "4/5"]},
])
def test_concyclic_supplementary_is_not_called_non_cyclic(tmp_path, capsys,
                                                          config):
    assert main(["classify", _write(tmp_path, config), "--format", "json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert "supplementary angles CDA + CBA = pi" in verdicts
    assert any(v.startswith("cyclic with diagonals") for v in verdicts)
    assert not _cyclic_and_noncyclic(verdicts), verdicts


def test_generated_folded_records_never_both_cyclic_and_non_cyclic(capsys):
    assert main(["generate", "folded", "--seed", "2", "--count", "3"]) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert any(v.startswith("cyclic") for v in records[2]["verdicts"])
    assert not any(_cyclic_and_noncyclic(r["verdicts"]) for r in records)


def test_concyclic_folded_draws_keep_supplementary_without_non_cyclic():
    # by Ptolemy, four concyclic points make P, P_T or Q_T vanish
    concyclic = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for _ in range(250):
            cfg = gen_folded(rng)
            if cocircularity(cfg) == 0:
                concyclic.append(_verdicts(_condition_rows(cfg.sextuple())))
    assert concyclic
    for verdicts in concyclic:
        assert not any("non-cyclic" in v for v in verdicts), verdicts
        assert "supplementary angles CDA + CBA = pi" in verdicts, verdicts


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
    # nesting deeper than the recursion limit of the JSON decoder
    path.write_text("[" * 200000, encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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


@pytest.mark.parametrize("family, digest", [
    (["cyclic"],
     "add7011fefb7eeffe6aadf8bfb05260ae22c3fe6bd2dcc3096c561e8ad4fa9d8"),
    (["tilted_kite"],
     "fb1d7442c4a4bb717b19f97ae4ad3fab6191f731b8e03c408a5bb76fe20489be"),
    (["tilted_kite", "--concave"],
     "be1654bcc58108ab5d10ce2952698869991bc3beed70139541f23a7a4d7f249e"),
    (["folded"],
     "947376da6f9f5c6a93f0c133663b246ba07718f94b26e425e3ef72c313ab6d6d"),
    (["reflected"],
     "6e2b6be409a183d700cd228dd8e7dbdfe2937e7ccd85b98cb69bfeec6ff6f9db"),
], ids=["cyclic", "tilted_kite", "tilted_kite-concave", "folded", "reflected"])
def test_generate_jsonl_pinned(capsys, family, digest):
    # sha256 of the JSONL, recorded before the unit-circle map and the
    # reflection moved to integers
    assert main(["generate", *family, "--count", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_generate_rejects_bad_count(capsys):
    assert main(["generate", "cyclic", "--count", "0"]) == 1


@pytest.mark.parametrize("argv, option", [
    (["folded", "--concave"], "--concave"),
    (["cyclic", "--concave"], "--concave"),
    (["reflected", "--concave"], "--concave"),
    (["tilted_kite", "--order", "ABCD"], "--order"),
    (["folded", "--order", "ACBD"], "--order"),
    (["reflected", "--order", "ABCD"], "--order"),
], ids=["folded-concave", "cyclic-concave", "reflected-concave",
        "tilted_kite-order", "folded-order", "reflected-order"])
def test_generate_rejects_options_its_family_does_not_take(capsys, argv,
                                                           option):
    assert main(["generate", *argv, "--count", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and option in err


def test_generate_cyclic_order_defaults_to_abcd(capsys):
    assert main(["generate", "cyclic", "--count", "2", "--seed", "4"]) == 0
    default = capsys.readouterr().out
    assert main(["generate", "cyclic", "--order", "ABCD", "--count", "2",
                 "--seed", "4"]) == 0
    assert capsys.readouterr().out == default
    assert main(["generate", "cyclic", "--order", "ACBD", "--count", "2",
                 "--seed", "4"]) == 0
    assert capsys.readouterr().out != default


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


@pytest.mark.parametrize("argv", [
    # stopped mid-stream by a print, and at the final flush
    ["generate", "cyclic", "--count", "200", "--seed", "1"],
    ["render-svg", "-"]], ids=["generate", "render-svg"])
def test_closed_output_pipe_exits_without_traceback(argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen([sys.executable, "-m", "quadkit.cli", *argv],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the command has read its input or written
    _, err = proc.communicate(json.dumps(SQUARE).encode(), timeout=60)
    assert b"Traceback" not in err, err.decode()
    assert not err and proc.returncode == 141


def test_usage_error_is_input_error(capsys):
    assert main(["classify"]) == 1
    assert main(["not-a-command"]) == 1


@pytest.mark.parametrize("bad", [
    dict(SQUARE, C=["1/0", "1"]), dict(SQUARE, C=[True, "1"]),
    dict(SQUARE, C=[None, "1"]), dict(SQUARE, C=[[1, 2], "1"]),
    dict(FOLDED_RECT_SEXT, qf="49/0"), dict(FOLDED_RECT_SEXT, qa=1.5)])
def test_classify_rejects_bad_coordinate(tmp_path, capsys, bad):
    assert main(["classify", _write(tmp_path, bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    # the error names the bad entry: its vertex, or its squared distance
    key = next(k for k, v in bad.items()
               if v != {**SQUARE, **FOLDED_RECT_SEXT}[k])
    assert (f"coordinate of {key} " if key in "ABCD"
            else f"squared distance {key} ") in err, err


@pytest.mark.parametrize("hostile", [
    # squared distances of up to 60 digits
    {"A": ["1e30", "0"], "B": ["1", "0"], "C": ["0", "1"], "D": ["2", "3"]},
    # qa is the product of two 16-digit primes
    {"qa": "3000000000000148000000000001369", "qb": "2", "qc": "3",
     "qd": "5", "qe": "7", "qf": "11"}])
def test_classify_refuses_unfactorable_input_in_bounded_time(tmp_path, capsys,
                                                             hostile):
    def expire(signum, frame):
        raise AssertionError("classify ran past 2 s")
    path = _write(tmp_path, hostile)
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        rc = main(["classify", path])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Pollard rho" in err


@pytest.mark.parametrize("oversized", [
    # squared distances of about 2660 bits
    {"A": ["1e400", "0"], "B": ["1", "0"], "C": ["0", "1"], "D": ["2", "3"]},
    # 31-digit numerators over eight distinct 31-digit denominators
    {"A": ["1234567890123456789012345678901/9876543210987654321098765432117",
           "3141592653589793238462643383279/2718281828459045235360287471353"],
     "B": ["1618033988749894848204586834365/1414213562373095048801688724209",
           "1732050807568877293527446341505/2236067977499789696409173668731"],
     "C": ["2645751311064590590501615753639/3316624790355399849114932736671",
           "3605551275463989293119221267470/4123105625617660599821704512667"],
     "D": ["4358898943540673552236981983859/4795831523312719541597438064162",
           "5196152422706632045595400574131/5567764362830021938826443066541"]}])
def test_classify_refuses_oversized_input_at_once(tmp_path, capsys,
                                                  oversized):
    # a composite too long for Pollard rho is refused before rho starts
    def expire(signum, frame):
        raise AssertionError("classify ran past 0.5 s")
    path = _write(tmp_path, oversized)
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        rc = main(["classify", path])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Pollard rho takes at most" in err


@pytest.mark.parametrize("exponent", ["1e2000", "1e4000", "1e10000",
                                      "1e10000000"])
def test_long_number_input_exits_at_once(tmp_path, capsys, exponent):
    # neither a primality test on a 13191-bit number nor Fraction's
    # expansion of ten million digits runs before the refusal
    def expire(signum, frame):
        raise AssertionError("classify ran past 0.5 s")
    path = _write(tmp_path, {"A": [exponent, "0"], "B": ["1", "0"],
                             "C": ["0", "1"], "D": ["2", "3"]})
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        rc = main(["classify", path])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("x", [["1e400", "0"], ["-1e308", "0"]])
def test_render_svg_refuses_coordinates_beyond_float(tmp_path, capsys, x):
    # 1e400 is no float; -1e308 is, but its span to B = (1e308, 0) is not
    huge = {"A": x, "B": ["1e308", "0"], "C": ["0", "1"], "D": ["2", "3"]}
    assert main(["render-svg", _write(tmp_path, huge)]) == 1
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
    # the tier-1 attempt stays within --timeout (plus slack for the deadline
    # checks)
    rc = main(["prove", "elim_dABD_R", "--timeout", "0.2", "--samples", "0",
               "--format", "json"])
    assert rc == 0
    tier1 = json.loads(capsys.readouterr().out)[0]["tier1"]
    assert tier1["elapsed_ms"] < 500, tier1


def _drop_ms(obj):
    if isinstance(obj, dict):
        return {k: _drop_ms(v) for k, v in obj.items() if not k.endswith("_ms")}
    if isinstance(obj, list):
        return [_drop_ms(v) for v in obj]
    return obj


@pytest.mark.parametrize("flags, digest", [
    (["--samples", "10"],
     "5a04c0e62bd7b2f28ac65f424d47f3552f68289bfea8eae5e7971c5c76e3dbf5"),
    (["--samples", "5", "--timeout", "0"],
     "e347518da795c7bc8a257590857359aa4b1793694d106cd997935411d2e9be6a"),
], ids=["samples-10", "samples-5-timeout-0"])
def test_prove_records_pinned(capsys, flags, digest):
    # all 16 records with their timings dropped: statuses, tier-1 verdicts,
    # ideals and every tier-2 count
    assert main(["prove", "--format", "json", *flags]) == 0
    records = _drop_ms(json.loads(capsys.readouterr().out))
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest, flags


def _pinned_inputs():
    rng = random.Random(8)
    items = []
    for _ in range(3):
        items += [config_to_obj(random_quad(rng)),
                  config_to_obj(random_quad(rng, span=1000, max_den=100)),
                  config_to_obj(gen_cyclic(rng, "ADCB")),
                  config_to_obj(gen_folded(rng)),
                  config_to_obj(gen_reflected(rng)),
                  config_to_obj(gen_tilted_kite(rng, convex=False)),
                  sextuple_to_obj(random_quad(rng).sextuple())]
    return items


def test_classify_json_output_pinned(tmp_path, capsys):
    # sha256 of the concatenated reports, recorded before classify moved to
    # integer signs and per-sextuple class roots: the output is unchanged
    digest = hashlib.sha256()
    for i, obj in enumerate(_pinned_inputs()):
        assert main(["classify", _write(tmp_path, obj, f"{i}.json"),
                     "--format", "json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "3cfb2d27ac888b4d329886a6d497eac035138c743abaaa0f9f7b0d8da7d87da1")


def test_parser_reuse_leaks_no_values(tmp_path, capsys):
    # the parser is built once per process: one call's values must not
    # become the defaults of the next
    assert main(["classify"]) == 1
    assert main(["classify", _write(tmp_path, SQUARE)]) == 0
    assert main(["generate", "cyclic", "--count", "1", "--seed", "5"]) == 0
    capsys.readouterr()
    assert main(["generate", "cyclic", "--count", "1"]) == 0
    default = capsys.readouterr().out
    assert main(["generate", "cyclic", "--count", "1", "--seed", "5"]) == 0
    assert capsys.readouterr().out != default
    assert main(["generate", "cyclic", "--count", "1", "--seed", "0"]) == 0
    assert capsys.readouterr().out == default
