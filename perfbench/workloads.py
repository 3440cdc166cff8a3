"""The four benchmark workloads.

A run calls ``prepare`` once (untimed: reset the ``factorize`` cache and,
for classify, warm it up), then for each pass ``inputs`` builds the pass's
inputs from the seed (untimed), ``run`` is the timed pass and ``check``
verifies its outputs exactly (untimed).  ``min_passes`` passes are always
run; a traced run repeats exactly those.  ``run`` times each op on its own and calls ``tick``
between ops, where the host-speed probe may run.  It calls quadkit through
module attributes only, so the tracer's wrappers see every call the pass
makes.

Why these workloads:

* certify  -- the ``quadkit prove --timeout 30 --samples 20`` call on five
  claims covering all three coordinate schemes and both slack powers.
  Groebner and poly do almost all the work, mostly on the unit-basis
  short-circuit, plus the literal-elimination budget burn that ``prove``
  users pay.
* basis    -- twelve bases computed to completion (elimination ideals and
  full reduced bases), which never hit {1}: the pair loop, basis reduction
  and the Fraction tail reduction are on the clock.
* sample   -- tier-2 exact sampling only: configuration generators, exact
  radical evaluation and hull classification, no Groebner.
* classify -- interactive ``quadkit classify`` latency, one closed-loop
  client over distinct inputs; the only workload led by radicals,
  conditions and cli.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from quadkit import certificates, cli, conditions, geometry, groebner, radicals
from quadkit.poly import GREVLEX

CERTIFY_CLAIMS = ("converse_ptolemy", "elim_N_R", "elim_dBCD_R",
                  "elim_dABD_T", "parallelogram_case")


def subseed(seed: int, name: str, k: int) -> int:
    """Independent, reproducible seed for pass k of a workload."""
    return random.Random(f"{seed}/{name}/{k}").getrandbits(32)


def _drop_timings(obj):
    """Outputs without their wall-clock fields, for exact comparison."""
    if isinstance(obj, dict):
        return {k: _drop_timings(v) for k, v in obj.items()
                if not k.endswith("_ms")}
    if isinstance(obj, list):
        return [_drop_timings(v) for v in obj]
    return obj


@dataclass
class PassResult:
    op_seconds: list
    budget_seconds: list          # per op: time spent waiting out a budget
    outputs: list                 # compared exactly between traced/untraced
    records: list = field(default_factory=list)  # Certificate records
    values: list = field(default_factory=list)   # other raw results


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def expect(self, ok: bool, what: str, weight: int = 1) -> None:
        if not ok:
            self.failed += weight
            self.problems.append(what)


class Workload:
    """Defaults: a sub-seed per pass as input, an emptied ``factorize``
    cache before the first pass, nothing to do between ops."""

    name = ""
    min_passes = 1

    @staticmethod
    def tick() -> None:
        pass

    def inputs(self, seed: int, k: int):
        return subseed(seed, self.name, k)

    def prepare(self, seed: int) -> None:
        radicals.factorize.cache_clear()

    def close(self) -> None:
        pass


class Certify(Workload):
    name = "certify"
    OP_SPANS = frozenset({"certificates.cert_converse_ptolemy",
                          "certificates.cert_elimination_formula",
                          "certificates.cert_parallelogram_case"})

    def __init__(self, tiny: bool):
        self.claims = ("converse_ptolemy", "elim_dABD_T") if tiny else CERTIFY_CLAIMS
        self.timeout = 6.0 if tiny else 30.0
        self.samples = 5 if tiny else 20

    def run(self, inp) -> PassResult:
        # one claim per call: with jobs=1 run_certificates runs the list in
        # this same sequence, and the probe can sample between claims
        ops, recs = [], []
        for claim in self.claims:
            self.tick()
            t0 = perf_counter()
            recs += certificates.run_certificates(
                [claim], seed=inp, timeout=self.timeout, jobs=1,
                samples=self.samples)
            ops.append(perf_counter() - t0)
        # a timed-out literal elimination runs until its deadline whatever
        # the host speed
        budget = [((r.tier1 or {}).get("elimination_attempt_ms", 0)
                   + (r.tier1 or {}).get("radical_attempt_ms", 0)) / 1000
                  for r in recs]
        return PassResult(ops, budget,
                          [_drop_timings(r.to_obj()) for r in recs], recs)

    def check(self, inp, res: PassResult) -> Check:
        chk = Check(attempted=len(self.claims))
        chk.expect([r.claim for r in res.records] == list(self.claims),
                   "claims out of order")
        for rec in res.records:
            bad = {k: v for k, v in (rec.tier2 or {}).items()
                   if ("violations" in k or "mismatches" in k) and v}
            chk.expect(rec.status == certificates.CERTIFIED and not bad,
                       f"{rec.claim}: {rec.status} {bad}")
        return chk


class Basis(Workload):
    name = "basis"
    SCHEMES = (("ptolemy_scheme", "P"), ("r_scheme", "R"), ("t_scheme", "R_T"))
    DROP = ("u", "v", "w", "z")
    OP_SPANS = frozenset({"groebner.elimination_ideal", "groebner.buchberger"})

    def __init__(self, tiny: bool):
        self.min_passes = 2
        self.schemes = self.SCHEMES[1:2] if tiny else self.SCHEMES
        self.cm = conditions.condition_poly("CM").monic(GREVLEX)
        self.reference: dict = {}

    def inputs(self, seed: int, k: int):
        """One elimination and one full basis per scheme, generators
        shuffled; two passes make the twelve bases."""
        rng = random.Random(subseed(seed, self.name, k))
        jobs = []
        for builder, cond in self.schemes:
            scheme = getattr(certificates, builder)()
            full = list(scheme.generators) + [
                conditions.condition_poly(cond).on_vars(scheme.vars)]
            for kind, gens in (("elim", scheme.generators), ("full", full)):
                gens = list(gens)
                rng.shuffle(gens)
                jobs.append((scheme.name, kind, gens))
        return jobs

    def run(self, inp) -> PassResult:
        ops, bases = [], []
        for _, kind, gens in inp:
            self.tick()
            t0 = perf_counter()
            if kind == "elim":
                basis = groebner.elimination_ideal(gens, self.DROP)
            else:
                basis = groebner.buchberger(gens, GREVLEX).generators
            ops.append(perf_counter() - t0)
            bases.append(basis)
        texts = [[g.to_text(GREVLEX) for g in b] for b in bases]
        return PassResult(ops, [0.0] * len(ops), texts, values=bases)

    def check(self, inp, res: PassResult) -> Check:
        chk = Check(attempted=len(inp))
        for (scheme, kind, gens), basis, texts in zip(inp, res.values,
                                                      res.outputs):
            ref = self.reference.setdefault((scheme, kind), texts)
            ok = texts == ref
            if kind == "elim":
                ok = ok and len(basis) == 1 and basis[0].monic(GREVLEX) == self.cm
            else:
                ok = ok and all(groebner.normal_form(g, basis, GREVLEX).is_zero
                                for g in gens)
            chk.expect(ok, f"{scheme} {kind} basis wrong")
        return chk


class Sample(Workload):
    name = "sample"
    OP_SPANS = frozenset({"certificates.elimination_tier2",
                          "certificates.cert_reflection_theorem",
                          "certificates.cert_hull_tables",
                          "certificates.cert_degenerate_cases"})

    def __init__(self, tiny: bool):
        self.min_passes = 1 if tiny else 4
        # a quarter of the sampling in each pass: four passes make
        # elimination_tier2 at 200 samples, reflection at 100, hull tables
        # at 20000 and each degenerate family at 200
        (self.n_elim, self.n_refl, self.n_hull,
         self.n_degen) = (5, 5, 200, 20) if tiny else (50, 25, 5000, 50)

    def run(self, inp) -> PassResult:
        seed, ops, out = inp, [], []
        calls = (
            lambda: certificates.elimination_tier2(
                certificates.ELIM_TARGETS, samples=self.n_elim, seed=seed),
            lambda: certificates.cert_reflection_theorem(seed=seed,
                                                         samples=self.n_refl),
            lambda: certificates.cert_hull_tables(seed=seed,
                                                  samples=self.n_hull),
            lambda: certificates.cert_degenerate_cases("R", seed=seed,
                                                       samples=self.n_degen),
            lambda: certificates.cert_degenerate_cases("R_T", seed=seed,
                                                       samples=self.n_degen),
        )
        for call in calls:
            self.tick()
            t0 = perf_counter()
            out.append(call())
            ops.append(perf_counter() - t0)
        tier2, recs = out[0], out[1:]
        return PassResult(ops, [0.0] * len(ops), [_drop_timings(tier2)]
                          + [_drop_timings(r.to_obj()) for r in recs], recs)

    def check(self, inp, res: PassResult) -> Check:
        chk = Check()
        tier2 = res.outputs[0]
        for target in certificates.ELIM_TARGETS:
            st = tier2[target]
            chk.attempted += st["samples"]
            chk.expect(st["samples"] == self.n_elim,
                       f"{target}: {st['samples']} samples",
                       abs(self.n_elim - st["samples"]))
            chk.expect(not (st["mismatches"] or st["sign_violations"]),
                       f"{target}: {st}",
                       st["mismatches"] + st["sign_violations"])
        refl, hull, *degen = res.records
        for part, st in refl.tier2.items():
            chk.attempted += st["samples"]
            chk.expect(st["samples"] == self.n_refl,
                       f"reflection {part}: {st['samples']} samples",
                       abs(self.n_refl - st["samples"]))
            chk.expect(not st["violations"], f"reflection {part}: {st}",
                       st["violations"])
        st = hull.tier2
        chk.attempted += st["samples"]
        seen = sum(st["kinds"].values()) + st["unrealizable_patterns"]
        chk.expect(st["samples"] == self.n_hull and seen == self.n_hull,
                   f"hull tables: {seen} of {self.n_hull} classified",
                   abs(self.n_hull - seen))
        chk.expect(not (st["mismatches"] or st["unrealizable_patterns"]),
                   f"hull tables: {st}",
                   st["mismatches"] + st["unrealizable_patterns"])
        for rec in degen:
            st = rec.tier2
            chk.attempted += st["samples"]
            # coincident-point draws are skipped, so counts may fall short of
            # the request but must match the per-case tally
            chk.expect(0 < st["samples"] <= self.n_degen
                       and st["samples"] == sum(st["by_case"].values()),
                       f"{rec.claim}: sample count {st}")
            chk.expect(not st["violations"], f"{rec.claim}: {st}",
                       st["violations"])
        for rec in res.records:
            chk.expect(rec.status == certificates.SUPPORTED,
                       f"{rec.claim}: {rec.status}")
        return chk


# One 40-slot block of the classify input mix: 40% small random quads, 30%
# family configurations, 10% squared-distance sextuples, 20% wide quads.
_CLASSIFY_MIX = (("small",) * 16
                 + ("cyclic", "folded", "reflected", "kite") * 3
                 + ("sextuple",) * 4 + ("wide",) * 8)
_FAMILY_ZERO = {"cyclic": "P", "folded": "R", "reflected": "R_T", "kite": "R_T"}


def _classify_input(kind: str, rng: random.Random):
    if kind == "small":
        return geometry.random_quad(rng)
    if kind == "wide":
        # largest size at which every input completes; see README
        return geometry.random_quad(rng, span=100, max_den=30)
    if kind == "sextuple":
        return geometry.random_quad(rng).sextuple()
    if kind == "cyclic":
        # both orientations of the order in which P (Ptolemy) vanishes
        return geometry.gen_cyclic(rng, rng.choice(("ABCD", "ADCB")))
    if kind == "folded":
        return geometry.gen_folded(rng)
    if kind == "reflected":
        return geometry.gen_reflected(rng)
    return geometry.gen_tilted_kite(rng, convex=rng.random() < 0.5)


def _to_json(item) -> str:
    if isinstance(item, geometry.DistSextuple):
        return json.dumps(geometry.sextuple_to_obj(item), sort_keys=True)
    return json.dumps(geometry.config_to_obj(item), sort_keys=True)


def _hulls_agree(report: dict, oracle) -> bool:
    if report["kind"] != oracle.kind:
        return False
    if oracle.kind == "convex4":
        return geometry.same_cycle(report["boundary"], oracle.boundary)
    if oracle.kind == "concave3":
        return (report["interior"] == oracle.interior
                and geometry.same_cycle(report["boundary"], oracle.boundary))
    if oracle.kind == "collinear3":
        return report["triple"] == oracle.triple
    return True


class Classify(Workload):
    name = "classify"
    OP_SPANS = frozenset({"cli.main"})

    def __init__(self, tiny: bool, workdir: Path):
        # 30 passes of 40 calls: p99 has 12 calls beyond it
        self.min_passes = 2 if tiny else 30
        self.warm: list | None = None
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.seen: set[str] = set()
        self.n_files = 0

    def _batch(self, rng: random.Random) -> list:
        """One block of the mix as (kind, item, path), every input distinct
        from all others of the run."""
        kinds = list(_CLASSIFY_MIX)
        rng.shuffle(kinds)
        batch = []
        for kind in kinds:
            while True:
                item = _classify_input(kind, rng)
                text = _to_json(item)
                if text not in self.seen:
                    break
            self.seen.add(text)
            path = self.workdir / f"{self.n_files}.json"
            self.n_files += 1
            path.write_text(text, encoding="utf-8")
            batch.append((kind, item, str(path)))
        return batch

    def inputs(self, seed: int, k: int):
        return self._batch(random.Random(subseed(seed, self.name, k)))

    @staticmethod
    def _call(path: str) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["classify", path, "--format", "json"])
        return rc, buf.getvalue()

    def prepare(self, seed: int) -> None:
        if self.warm is None:
            self.warm = self._batch(random.Random(subseed(seed, "warm", 0)))
        super().prepare(seed)
        for _, _, path in self.warm:
            self._call(path)

    def run(self, inp) -> PassResult:
        ops, outputs = [], []
        for _, _, path in inp:
            self.tick()
            t0 = perf_counter()
            out = self._call(path)
            ops.append(perf_counter() - t0)
            outputs.append(out)
        return PassResult(ops, [0.0] * len(ops), outputs)

    def check(self, inp, res: PassResult) -> Check:
        chk = Check(attempted=len(inp))
        for (kind, item, path), (rc, text) in zip(inp, res.outputs):
            if rc != 0:
                chk.expect(False, f"{path}: exit {rc}")
                continue
            report = json.loads(text)
            signs = {r["condition"]: r["sign"] for r in report["conditions"]}
            ok = len(signs) == len(conditions.CONDITION_NAMES)
            if kind == "sextuple":
                ok = ok and "hull" not in report and report["cm"] == "0"
            else:
                ok = ok and _hulls_agree(report["hull"],
                                         certificates.oracle_hull(item))
            if kind in _FAMILY_ZERO:
                ok = ok and signs[_FAMILY_ZERO[kind]] == 0
            chk.expect(ok, f"{path} ({kind}): wrong report")
        return chk

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, tiny: bool, workdir: Path):
    if name == "classify":
        return Classify(tiny, workdir)
    return {"certify": Certify, "basis": Basis, "sample": Sample}[name](tiny)
