"""Out-of-package tracing for the quadkit benchmark.

The tracer wraps public quadkit functions from outside the package.  Callers
inside quadkit import names with ``from .x import y``, so every function is
rebound in each module namespace (and in the certificate registry) that holds
a reference to it; ``uninstall`` restores the originals.

Two kinds of probe:

* span probes record (id, name, start, end, parent, op, status) for coarse
  calls -- a Groebner run, a generator call, one ``cli.main`` -- and keep the
  spans in memory until ``write_spans`` is called at the end of the run;
* leaf probes only count calls and add up time, for functions called millions
  of times (monomial ops, polynomial and radical arithmetic).  Their time is
  subtracted from the enclosing span's duration to give its self time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

_pc = time.perf_counter

# (module, function) pairs traced as spans.
SPAN_PROBES = {
    "groebner": ("buchberger", "normal_form", "divmod_multi", "s_polynomial",
                 "elimination_ideal", "radical_membership",
                 "ideal_membership"),
    "conditions": ("eval_poly_on_sextuple", "run_self_check",
                   "verify_identity"),
    "geometry": ("gen_cyclic", "gen_collinear_inorder", "gen_folded",
                 "gen_reflected", "gen_tilted_kite", "random_quad",
                 "classify_hull", "cayley_menger", "reflect_over_line"),
    "certificates": ("run_certificates", "cert_converse_ptolemy",
                     "cert_elimination_formula", "cert_parallelogram_case",
                     "cert_degenerate_cases", "cert_reflection_theorem",
                     "cert_hull_tables", "elimination_tier2", "oracle_hull"),
    "cli": ("main",),
}

GENERATORS_OTHER = frozenset({
    "geometry.gen_cyclic", "geometry.gen_collinear_inorder",
    "geometry.gen_folded", "geometry.gen_reflected", "geometry.random_quad"})
GENERATORS = GENERATORS_OTHER | {"geometry.gen_tilted_kite"}

POLY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__", "__pow__")
RADICAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__neg__", "__pow__", "__truediv__",
               "__rtruediv__", "inverse")


@dataclass
class _Leaf:
    calls: int = 0
    seconds: float = 0.0   # outermost calls of the group only
    depth: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    leaves: dict = field(default_factory=dict)
    op: int = -1
    op_spans: frozenset = frozenset()   # span names that start a new op
    _op_depth: int = 0
    _stack: list = field(default_factory=list)
    _leaf_depth: int = 0
    _undo: list = field(default_factory=list)

    # -- probes ---------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def probe(*args, **kwargs):
            parent = stack[-1] if stack else None
            opens_op = name in self.op_spans and self._op_depth == 0
            if opens_op:
                self.op += 1
            self._op_depth += name in self.op_spans
            frame = [len(spans) + len(stack), _pc(), 0.0]
            stack.append(frame)
            saved_depth, self._leaf_depth = self._leaf_depth, 0
            status, note = "ok", None
            try:
                result = fn(*args, **kwargs)
                if name == "groebner.buchberger":
                    note = (len(result), result.is_unit())
                return result
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                end = _pc()
                stack.pop()
                self._op_depth -= name in self.op_spans
                self._leaf_depth = saved_depth
                if parent is not None:
                    parent[2] += end - frame[1]
                spans.append((frame[0], name, frame[1], end,
                              parent[0] if parent else None, self.op,
                              status, frame[2], note))
        probe.__wrapped__ = fn
        return probe

    def _leaf(self, group: str, fn, timed: bool = True):
        leaf = self.leaves.setdefault(group, _Leaf())
        stack = self._stack

        if not timed:
            def counter(*args):
                leaf.calls += 1
                return fn(*args)
            counter.__wrapped__ = fn
            return counter

        def probe(*args, **kwargs):
            leaf.calls += 1
            outer = leaf.depth == 0
            top = self._leaf_depth == 0
            leaf.depth += 1
            self._leaf_depth += 1
            t0 = _pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _pc() - t0
                leaf.depth -= 1
                self._leaf_depth -= 1
                if outer:
                    leaf.seconds += dt
                if top and stack:
                    stack[-1][2] += dt
        probe.__wrapped__ = fn
        return probe

    # -- installation ---------------------------------------------------------

    def _rebind_everywhere(self, original, wrapper, modules) -> None:
        """Point every module-level name bound to `original` at `wrapper`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((setattr, mod, attr, original))

    def _wrap_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import importlib
        import sys
        from quadkit import certificates, groebner, poly, radicals

        traced = {m: importlib.import_module(f"quadkit.{m}")
                  for m in SPAN_PROBES}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "quadkit" or n.startswith("quadkit.")]
        for mod_name, names in SPAN_PROBES.items():
            mod = traced[mod_name]
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._span(f"{mod_name}.{fname}", original)
                self._rebind_everywhere(original, wrapper, modules)
                for claim, fn in list(certificates.CLAIMS.items()):
                    if fn is original:
                        certificates.CLAIMS[claim] = wrapper
                        self._undo.append((dict.__setitem__,
                                           certificates.CLAIMS, claim,
                                           original))
        # monomial ops as called from the Groebner engine only
        for fname in ("mono_mul", "mono_div", "mono_divides", "mono_lcm"):
            self._wrap_attr(groebner, fname,
                            self._leaf("poly.mono", getattr(groebner, fname)))
        self._wrap_attr(poly.MonomialOrder, "key",
                        self._leaf("poly.order_key",
                                   poly.MonomialOrder.key, timed=False))
        for op in POLY_OPS:
            self._wrap_attr(poly.Polynomial, op,
                            self._leaf("poly.arith",
                                       poly.Polynomial.__dict__[op]))
        for op in RADICAL_OPS:
            self._wrap_attr(radicals.RadicalValue, op,
                            self._leaf("radicals.arith",
                                       radicals.RadicalValue.__dict__[op]))
        for attr, group in (("sign", "radicals.sign"),
                            ("interval", "radicals.interval")):
            self._wrap_attr(radicals.RadicalValue, attr,
                            self._leaf(group,
                                       radicals.RadicalValue.__dict__[attr]))
        for fname, group in (("sqrt_rational", "radicals.sqrt"),
                             ("factorize", "radicals.factorize")):
            original = getattr(radicals, fname)
            self._rebind_everywhere(original, self._leaf(group, original),
                                    modules)

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, attr, original = self._undo.pop()
            setter(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_spans(self, fh, phase: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "status",
                "child_s", "note")
        for span in self.spans:
            fh.write(json.dumps({"phase": phase, **dict(zip(keys, span))})
                     + "\n")


def layer_metrics(tracer: Tracer, setup: Tracer, records: list,
                  factorize_info: tuple, claims: tuple
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans, leaf counters and returned
    certificate records of the traced passes, and the traced set-up."""
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
    names = {span[0]: span[1] for span in tracer.spans}

    def total(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def self_time(name):
        return sum(s[3] - s[2] - s[7] for s in by_name.get(name, ()))

    def leaf(group):
        return tracer.leaves.get(group, _Leaf())

    def share(num, den):
        return num / den if den else 0.0

    bb = by_name.get("groebner.buchberger", [])
    done = [s[8] for s in bb if s[6] == "ok"]
    timeouts = [s for s in bb if s[6] == "GroebnerTimeout"]
    kites = by_name.get("geometry.gen_tilted_kite", [])
    kite_ids = {s[0] for s in kites}
    hulls_in_kites = sum(1 for s in by_name.get("geometry.classify_hull", ())
                         if s[4] in kite_ids)
    kites_ok = sum(1 for s in kites if s[6] == "ok")
    gen_other = sum(s[3] - s[2] for name in GENERATORS_OTHER
                    for s in by_name.get(name, ())
                    if names.get(s[4]) not in GENERATORS)
    cli_calls = by_name.get("cli.main", [])
    hits, misses = factorize_info
    sign_calls = leaf("radicals.sign").calls

    t1 = t2 = lit = 0
    for rec in records:
        tier1 = rec.tier1 or {}
        lit += tier1.get("elimination_attempt_ms", 0)
        t1 += (tier1.get("elapsed_ms", 0) + tier1.get("elimination_attempt_ms", 0)
               + tier1.get("radical_attempt_ms", 0))
        # sampling-only records keep their time in elapsed_ms alone
        tier2 = rec.tier2 or {}
        t2 += tier2["elapsed_ms"] if "elapsed_ms" in tier2 else rec.elapsed_ms
    per_claim = {c: 0.0 for c in claims}
    for rec in records:
        if rec.claim in per_claim:
            per_claim[rec.claim] += rec.elapsed_ms / 1000

    out = {
        "poly.mono_calls": (leaf("poly.mono").calls, "count"),
        "poly.mono_s": (leaf("poly.mono").seconds, "s"),
        "poly.order_key_calls": (leaf("poly.order_key").calls, "count"),
        "poly.arith_s": (leaf("poly.arith").seconds, "s"),
        "groebner.buchberger_calls": (len(bb), "count"),
        "groebner.buchberger_s": (self_time("groebner.buchberger"), "s"),
        "groebner.unit_share": (share(sum(1 for n in done if n[1]),
                                      len(done)), "share"),
        "groebner.basis_len": (share(sum(n[0] for n in done), len(done)),
                               "count"),
        "groebner.timeout_calls": (len(timeouts), "count"),
        "groebner.timeout_s": (sum(s[3] - s[2] for s in timeouts), "s"),
        "groebner.normal_form_calls": (len(by_name.get("groebner.normal_form",
                                                       ())), "count"),
        "groebner.normal_form_s": (total("groebner.normal_form"), "s"),
        "groebner.radical_membership_s": (total("groebner.radical_membership"),
                                          "s"),
        "groebner.elimination_ideal_s": (total("groebner.elimination_ideal"),
                                         "s"),
        "radicals.sqrt_calls": (leaf("radicals.sqrt").calls, "count"),
        "radicals.sqrt_s": (leaf("radicals.sqrt").seconds, "s"),
        "radicals.factorize_s": (leaf("radicals.factorize").seconds, "s"),
        "radicals.factorize_hit_share": (share(hits, hits + misses), "share"),
        "radicals.sign_calls": (sign_calls, "count"),
        "radicals.sign_s": (leaf("radicals.sign").seconds, "s"),
        "radicals.interval_per_sign": (share(leaf("radicals.interval").calls,
                                             sign_calls), "count"),
        "radicals.arith_s": (leaf("radicals.arith").seconds, "s"),
        "conditions.eval_calls": (len(by_name.get(
            "conditions.eval_poly_on_sextuple", ())), "count"),
        "conditions.eval_s": (total("conditions.eval_poly_on_sextuple"), "s"),
        "conditions.self_check_s": (sum(
            s[3] - s[2] for s in setup.spans
            if s[1] == "conditions.run_self_check"), "s"),
        "geometry.kite_calls": (len(kites), "count"),
        "geometry.kite_ms": (share(1000 * total("geometry.gen_tilted_kite"),
                                   len(kites)), "ms"),
        "geometry.kite_accept_share": (share(kites_ok, hulls_in_kites),
                                       "share"),
        "geometry.gen_other_s": (gen_other, "s"),
        "geometry.hull_calls": (len(by_name.get("geometry.classify_hull", ())),
                                "count"),
        "geometry.hull_s": (total("geometry.classify_hull"), "s"),
        "certificates.tier1_s": (t1 / 1000, "s"),
        "certificates.literal_attempt_s": (lit / 1000, "s"),
        "certificates.tier2_s": (t2 / 1000, "s"),
        **{f"certificates.{c}_s": (v, "s") for c, v in per_claim.items()},
        "certificates.oracle_hull_s": (total("certificates.oracle_hull"), "s"),
        "cli.calls": (len(cli_calls), "count"),
        "cli.self_ms": (share(1000 * self_time("cli.main"), len(cli_calls)),
                        "ms"),
    }
    return out
