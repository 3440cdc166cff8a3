"""Command-line interface: classify, verify-identities, prove, generate,
render-svg.

Exit codes: 0 success (and no FAILED certificate), 1 input error, 2 at least
one certificate FAILED, 141 (128 + SIGPIPE) if the reader closes the output
pipe early.  All JSON output is key-sorted; rationals are printed as "p/q"
strings, never floats, so same seed + same command means byte-identical
output for the deterministic commands.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from functools import cache

from . import conditions
from .certificates import CLAIMS, DEFAULT_TIMEOUT, FAILED, run_certificates
from .conditions import CONDITION_NAMES, eval_condition
from .geometry import (SQ_DIST_NAMES, classify_hull, config_from_obj,
                       config_svg, config_to_obj, gen_cyclic, gen_folded,
                       gen_reflected, gen_tilted_kite, sextuple_from_obj,
                       sextuple_to_obj)


class CliError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors (exit 1)
        raise CliError(message)


def _read_input(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"malformed JSON input: {exc}") from exc


def _load_config_or_sextuple(obj):
    if isinstance(obj, dict) and all(k in obj for k in "ABCD"):
        cfg = config_from_obj(obj)
        if not cfg.distinct():
            raise CliError("coincident points in configuration")
        return cfg, cfg.sextuple()
    if isinstance(obj, dict) and all(k in obj for k in SQ_DIST_NAMES):
        return None, sextuple_from_obj(obj)
    raise CliError("input must contain vertices A..D or squared "
                   "distances qa..qf")


def _condition_rows(d) -> list[dict]:
    rows = []
    for name in CONDITION_NAMES:
        value = eval_condition(name, d)
        rows.append({"condition": name, "value": str(value),
                     "sign": value.sign()})
    return rows


def _verdicts(rows: list[dict]) -> list[str]:
    sign = {r["condition"]: r["sign"] for r in rows}
    if sign["CM"] != 0:
        return ["not planar (CM != 0): planar verdicts not applicable"]
    out = []
    if sign["P"] == 0:
        out.append("cyclic (concyclic or collinear), convex")
    if sign["R"] == 0 and sign["P"] > 0:
        # four concyclic points make P, P_T or Q_T vanish (Ptolemy)
        out.append("supplementary angles CDA + CBA = pi"
                   + (", non-cyclic" if sign["P_T"] and sign["Q_T"] else ""))
    if sign["R_T"] == 0:
        out.append("tilted kite (equal angles BAD and BCD)")
    if sign["Q_T"] == 0 and sign["P"] != 0:
        out.append("cyclic with diagonals a and c (ACBD-type order)")
    if sign["P_T"] == 0 and sign["P"] != 0:
        out.append("cyclic with diagonals b and d (ACDB-type order)")
    if not out:
        out.append("no special condition vanishes")
    return out


def cmd_classify(args) -> int:
    conditions.run_self_check()
    obj = _read_input(args.input)
    cfg, d = _load_config_or_sextuple(obj)
    rows = _condition_rows(d)
    report = {
        # the CM row's value is the Cayley-Menger determinant (a rational)
        "cm": rows[CONDITION_NAMES.index("CM")]["value"],
        "conditions": rows,
        "verdicts": _verdicts(rows),
    }
    if cfg is not None:
        hull = classify_hull(cfg)
        report["hull"] = {**asdict(hull), "text": str(hull)}
        report["input"] = config_to_obj(cfg)
    else:
        report["input"] = sextuple_to_obj(d)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        if cfg is not None:
            print(f"hull: {report['hull']['text']}")
        print(f"CM = {report['cm']}")
        sgn = {1: "> 0", 0: "= 0", -1: "< 0"}
        for r in rows:
            print(f"  {r['condition']:<4} {sgn[r['sign']]:<4} "
                  f"(value {r['value']})")
        for v in report["verdicts"]:
            print(f"verdict: {v}")
    return 0


def cmd_verify_identities(args) -> int:
    conditions.run_self_check()
    results = conditions.verify_all_identities()
    n_ok = sum(results.values())
    if args.format == "json":
        print(json.dumps({"identities": results,
                          "passed": n_ok, "total": len(results)},
                         sort_keys=True))
    else:
        for name, ok in results.items():
            print(f"{name:<6} {'PASS' if ok else 'FAIL'}")
        print(f"{n_ok}/{len(results)} identities expand to zero")
    return 0 if n_ok == len(results) else 2


def cmd_prove(args) -> int:
    if not (math.isfinite(args.timeout) and args.timeout >= 0):
        raise CliError("--timeout must be a finite number >= 0")
    if args.jobs < 1:
        raise CliError("--jobs must be >= 1")
    if args.samples is not None and args.samples < 0:
        raise CliError("--samples must be >= 0")
    conditions.run_self_check()
    claims = args.claims
    if not claims or claims == ["all"]:
        claims = None
    certs = run_certificates(claims, seed=args.seed, timeout=args.timeout,
                             jobs=args.jobs, samples=args.samples)
    if args.format == "json":
        print(json.dumps([c.to_obj() for c in certs], sort_keys=True))
    else:
        width = max(len(c.claim) for c in certs)
        for c in certs:
            print(f"{c.claim:<{width}}  {c.status:<10} {c.elapsed_ms:>7} ms")
            for note in c.notes:
                print(f"{'':<{width}}  note: {note}")
        n_failed = sum(1 for c in certs if c.status == FAILED)
        print(f"{len(certs)} certificates, {n_failed} failed")
    return 2 if any(c.status == FAILED for c in certs) else 0


_FAMILIES = ("cyclic", "tilted_kite", "folded", "reflected")


def cmd_generate(args) -> int:
    if args.count < 1:
        raise CliError("--count must be >= 1")
    if args.order is not None and args.family != "cyclic":
        raise CliError("--order applies only to the cyclic family")
    if args.concave and args.family != "tilted_kite":
        raise CliError("--concave applies only to the tilted_kite family")
    conditions.run_self_check()
    import random
    rng = random.Random(args.seed)
    for i in range(args.count):
        if args.family == "cyclic":
            cfg = gen_cyclic(rng, args.order or "ABCD")
        elif args.family == "tilted_kite":
            cfg = gen_tilted_kite(rng, convex=not args.concave)
        elif args.family == "folded":
            cfg = gen_folded(rng)
        else:
            cfg = gen_reflected(rng)
        d = cfg.sextuple()
        hull = classify_hull(cfg)
        rows = [{"condition": name, "sign": eval_condition(name, d).sign()}
                for name in CONDITION_NAMES]
        record = {
            "family": args.family,
            "index": i,
            "config": config_to_obj(cfg),
            "squared_distances": sextuple_to_obj(d),
            "hull": asdict(hull),
            "condition_signs": rows,
            "verdicts": _verdicts(rows),
        }
        print(json.dumps(record, sort_keys=True))
    return 0


def cmd_render_svg(args) -> int:
    obj = _read_input(args.input)
    cfg, _ = _load_config_or_sextuple(obj)
    if cfg is None:
        raise CliError("render-svg needs vertex coordinates, not a sextuple")
    print(config_svg(cfg))
    return 0


@cache  # one parser per process, built on first use and not at import
def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="quadkit",
        description="Exact toolkit for cyclic quadrilaterals, tilted kites "
                    "and their polynomial conditions")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="hull + condition signs + verdicts")
    c.add_argument("input", help="config JSON path, or - for stdin")
    c.add_argument("--format", choices=("json", "text"), default="text")
    c.set_defaults(fn=cmd_classify)

    v = sub.add_parser("verify-identities",
                       help="expand the eleven polynomial identities")
    v.add_argument("--format", choices=("json", "text"), default="text")
    v.set_defaults(fn=cmd_verify_identities)

    pr = sub.add_parser("prove", help="run machine certificates")
    pr.add_argument("claims", nargs="*",
                    help=f"claim names (default: all). Known: {', '.join(CLAIMS)}")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                    help="tier-1 budget of each symbolic claim, seconds; 0 "
                         f"skips tier 1 (default {DEFAULT_TIMEOUT:g})")
    pr.add_argument("--jobs", type=int, default=1,
                    help="run certificates in N parallel processes")
    pr.add_argument("--samples", type=int, default=None,
                    help="override sampling-tier sizes")
    pr.add_argument("--format", choices=("json", "text"), default="text")
    pr.set_defaults(fn=cmd_prove)

    g = sub.add_parser("generate", help="emit configuration families as JSONL")
    g.add_argument("family", choices=_FAMILIES)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--order", help="cyclic family: vertex order (default ABCD)")
    g.add_argument("--concave", action="store_true",
                   help="tilted_kite family: request concave instances")
    g.add_argument("--format", choices=("json",), default="json")
    g.set_defaults(fn=cmd_generate)

    r = sub.add_parser("render-svg", help="draw a configuration as SVG")
    r.add_argument("input", help="config JSON path, or - for stdin")
    r.set_defaults(fn=cmd_render_svg)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return status
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the shutdown flush then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
