"""The workloads: their seeded inputs, their op and the check of its output.

An op calls only public functions of ``spherical_pi`` (passed in as the
module ``sp``); its output is checked afterwards, outside the timed
region, against the answers from :mod:`gen`.  ``span`` is
:func:`spans.no_span` in the untraced run and ``Tracer.span`` in the
traced one.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, replace
from typing import Any, Callable

import gen
from gen import CHARACTERISTICS, Item

# catalog.run_entry and the oracle are probed on items up to this rank:
# the first costs four reports, the second grows as 2^rank
SMALL_RANK = 10
PROBE_MODULUS = 2


@dataclass(frozen=True)
class Case:
    """An item ready to run: its document text and, for small ranks, its
    ``spherical_pi.CatalogEntry`` carrying our expectations."""

    item: Item
    text: str
    entry: Any


def catalog_entry(sp, item: Item):
    expected = {}
    for p in CHARACTERISTICS:
        (z0, f0), (z1, f1) = item.pi(p)
        expected[p] = (sp.ExpectedPi(z0, tuple(f0)), sp.ExpectedPi(z1, tuple(f1)))
    return sp.CatalogEntry(item.name, item.text, expected)


def make_cases(sp, items: list[Item]) -> list[Case]:
    return [
        Case(item, item.text, catalog_entry(sp, item) if item.rank <= SMALL_RANK else None)
        for item in items
    ]


# --- checks ----------------------------------------------------------------

def _quotient(div: int, factors: list[int]) -> dict:
    return {"divisible_rank": div, "invariant_factors": list(factors)}


def check_report(item: Item, text: str, p: int) -> list[str]:
    """Differences between a structured report and the expected answers."""
    got = json.loads(text)
    (z0, f0), (z1, f1) = item.pi(p)
    want = {
        "label": item.name,
        "p": p,
        "saturation_quotient": _quotient(*item.saturation),
        "ambient_saturation_quotient": _quotient(0, item.ambient),
        "pi0": {"zhat_rank": z0, "invariant_factors": f0, "p": p},
        "pi1": {"zhat_rank": z1, "invariant_factors": f1, "p": p},
    }
    problems = [
        f"{item.name} p={p} {key}: got {got.get(key)!r}, want {value!r}"
        for key, value in want.items()
        if got.get(key) != value
    ]
    given = got.get("input", {})
    for key in ("lattice", "colors"):
        if given.get(key) != item.doc[key]:
            problems.append(f"{item.name}: input {key} does not round-trip")
    if given.get("root_datum") != item.explicit_root_datum:
        problems.append(f"{item.name}: input root datum does not round-trip")
    levels = {v["check"]: v for v in got.get("validation", [])}
    if set(levels) != {"embedding-rank", "coroot-span", "char-exponent"}:
        problems.append(f"{item.name}: validation checks {sorted(levels)}")
        return problems
    span = levels["coroot-span"]
    want_level = "warn" if item.flagged else "pass"
    if span["level"] != want_level:
        problems.append(f"{item.name}: coroot-span is {span['level']}, want {want_level}")
    elif item.flagged and [int(x) for x in re.findall(r"\d+", span["message"])] != item.flagged:
        problems.append(f"{item.name}: coroot-span flags the wrong indices")
    for check in ("embedding-rank", "char-exponent"):
        if levels[check]["level"] != "pass":
            problems.append(f"{item.name}: {check} is {levels[check]['level']}")
    return problems


def torsion_histogram(diag: list[int], modulus: int) -> dict[int, int]:
    """Elements of each exact order in the modulus-torsion of prod Z/d_i.

    A zero d_i is a copy of Q/Z, whose modulus-torsion is Z/modulus.  The
    count of elements of order dividing e is prod gcd(c_i, e) over the
    torsion components c_i; Moebius inversion over the divisors of the
    modulus gives the exact orders.
    """
    comps = [math.gcd(d, modulus) if d else modulus for d in diag]
    divs = [e for e in range(1, modulus + 1) if modulus % e == 0]
    dividing = {e: math.prod(math.gcd(c, e) for c in comps) for e in divs}
    exact: dict[int, int] = {}
    for e in divs:
        exact[e] = dividing[e] - sum(exact[d] for d in divs if d < e and e % d == 0)
    return {e: c for e, c in exact.items() if c}


def check_quotient(item: Item, q, what: str) -> list[str]:
    got = (q.divisible_rank, list(q.invariant_factors))
    want = (item.saturation[0], item.saturation[1]) if what == "color" else (0, item.ambient)
    return [] if got == want else [f"{item.name}: {what} quotient {got}, want {want}"]


def check_torsion(item: Item, sample, match, modulus: int) -> list[str]:
    problems = []
    want = torsion_histogram(item.diag, modulus)
    if len(sample.elements) != sum(want.values()):
        problems.append(
            f"{item.name}: {len(sample.elements)} torsion elements, want {sum(want.values())}"
        )
    if dict(sample.order_histogram) != want:
        problems.append(f"{item.name}: order histogram {sample.order_histogram}, want {want}")
    if not match.ok:
        problems.append(f"{item.name}: structure_match failed: {match.mismatches}")
    return problems


# --- ops -------------------------------------------------------------------

def report_op(sp, case: Case, span: Callable) -> list[str]:
    """parse -> full_report -> serialize_report(structured)."""
    with span("documents.parse"):
        sd = sp.parse(case.text)
    with span("spherical.full_report"):
        report = sp.full_report(sd)
    with span("documents.serialize"):
        return [sp.serialize_report(report, format="structured")]


def check_report_op(case: Case, out: list[str]) -> list[str]:
    return check_report(case.item, out[0], case.item.doc["p"])


def sweep_op(sp, case: Case, span: Callable) -> tuple:
    """catalog.run_entry over every p, then a structured report at each p."""
    with span("catalog.run_entry"):
        runs = sp.run_entry(case.entry)
    with span("documents.parse"):
        base = sp.parse(case.text)
    texts = []
    for p in sp.CHARACTERISTICS:
        sd = base.with_char_exponent(p)
        with span("spherical.full_report"):
            report = sp.full_report(sd)
        with span("documents.serialize"):
            texts.append(sp.serialize_report(report, format="structured"))
    return runs, texts


def check_runs(item: Item, runs) -> list[str]:
    problems = []
    if [run.p for run in runs] != list(CHARACTERISTICS):
        return [f"{item.name}: run_entry covered p = {[run.p for run in runs]}"]
    for run in runs:
        (z0, f0), (z1, f1) = item.pi(run.p)
        got = ((run.pi0.zhat_rank, list(run.pi0.invariant_factors)),
               (run.pi1.zhat_rank, list(run.pi1.invariant_factors)))
        if not run.ok or got != ((z0, f0), (z1, f1)):
            problems.append(f"{item.name} p={run.p}: run_entry gave {got}")
    return problems


def check_sweep_op(case: Case, out: tuple) -> list[str]:
    runs, texts = out
    problems = check_runs(case.item, runs)
    if len(texts) != len(CHARACTERISTICS):
        problems.append(f"{case.item.name}: {len(texts)} reports, one per p expected")
    for p, text in zip(CHARACTERISTICS, texts):
        problems += check_report(case.item, text, p)
    return problems


def oracle_op(sp, case: Case, span: Callable) -> tuple:
    """parse -> dual_saturation -> enumerate_torsion -> structure_match."""
    with span("documents.parse"):
        sd = sp.parse(case.text)
    with span("lattices.dual_saturation", matrix="F"):
        _, q = sp.dual_saturation(sd.rank, sd.colors)
    with span("oracle.enumerate", points=case.item.modulus**sd.rank):
        sample = sp.enumerate_torsion(sd.colors, case.item.modulus)
    with span("oracle.structure_match"):
        match = sp.structure_match(sample, q, case.item.modulus)
    return q, sample, match


def check_oracle_op(case: Case, out: tuple) -> list[str]:
    q, sample, match = out
    return check_quotient(case.item, q, "color") + check_torsion(
        case.item, sample, match, case.item.modulus
    )


def canonical(out: Any) -> str:
    """Text of an op's output that the report digest covers."""
    if isinstance(out, list):
        return "".join(out)
    if isinstance(out[0], tuple):  # sweep: (runs, texts)
        return "".join(out[1])
    q, sample, match = out
    return json.dumps({
        "quotient": [q.divisible_rank, list(q.invariant_factors)],
        "elements": [list(e) for e in sample.elements],
        "match": match.ok,
    }, sort_keys=True)


# --- the traced run's per-layer probe --------------------------------------

def cert_bits(res) -> int:
    return max((abs(x).bit_length() for m in (res.U, res.V) for row in m.entries
                for x in row), default=0)


def probe(sp, case: Case, span: Callable, in_op: set[tuple]) -> tuple[list[str], int]:
    """Call each public layer on one item, one call per span.

    Returns the problems found and the largest certificate entry in bits.
    A layer the op itself called (``in_op`` holds the (name, matrix) pairs
    of the op's spans) is not probed again, so its spans come from the op
    alone.
    """
    item = case.item
    sd = sp.parse(case.text)
    f, e = sd.colors, sd.lattice_embedding
    if ("spherical.full_report", None) not in in_op:
        with span("spherical.full_report"):
            report = sp.full_report(sd)
        with span("documents.serialize"):
            sp.serialize_report(report, format="structured")
    with span("root_data.restrict_coroots"):
        sp.restrict_coroots(sd.root_datum, e)
    with span("spherical.validate"):
        sp.validate(sd)
    with span("spherical.color_saturation"):
        _, q1 = sp.color_saturation(sd)
    with span("spherical.ambient_saturation"):
        _, q0 = sp.ambient_color_saturation(sd)
    with span("spherical.pi0"):
        sp.pi0_p_prime(sd)
    with span("spherical.pi1"):
        sp.pi1_p_prime(sd)
    for p in CHARACTERISTICS:
        with span("lattices.p_prime_part"):
            sp.p_prime_part(q1, p)
        with span("lattices.p_prime_part"):
            sp.p_prime_part(q0, p)
    fe = sp.stack_rows(f, e)
    bits = 0
    for tag, m in (("F", f), ("FE", fe), ("E", e)):
        with span("intmat.snf", matrix=tag):
            res = sp.snf(m)
        bits = max(bits, cert_bits(res))
    for tag, m in (("F", f), ("FE", fe)):
        if ("lattices.dual_saturation", tag) not in in_op:
            with span("lattices.dual_saturation", matrix=tag):
                sp.dual_saturation(sd.rank, m)
    problems = check_quotient(item, q1, "color") + check_quotient(item, q0, "ambient")
    if item.rank <= SMALL_RANK and ("catalog.run_entry", None) not in in_op:
        with span("catalog.run_entry"):
            runs = sp.run_entry(case.entry)
        problems += check_runs(item, runs)
    if item.rank <= SMALL_RANK and ("oracle.enumerate", None) not in in_op:
        with span("oracle.enumerate", points=PROBE_MODULUS**item.rank):
            sample = sp.enumerate_torsion(f, PROBE_MODULUS)
        with span("oracle.structure_match"):
            match = sp.structure_match(sample, q1, PROBE_MODULUS)
        problems += check_torsion(item, sample, match, PROBE_MODULUS)
    return problems, bits


# --- the workloads ---------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random], list[Item]]
    op: Callable
    check: Callable

    def items(self, seed: int, index: int) -> list[Item]:
        """Input set ``index`` of the pool drawn from ``seed``, in seeded order."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        items = self.build(rng)
        rng.shuffle(items)
        return items


LADDER = (("A", 8), ("A", 20), ("A", 40), ("B", 30), ("C", 30), ("D", 30),
          ("D", 31), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
SMALL_GROUPS = tuple(
    [("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(3, 7)] + [("D", n) for n in range(4, 7)]
    + [("E", 6), ("F", 4), ("G", 2)]
)


def _ladder(rng: random.Random) -> list[Item]:
    items = []
    for series, n in LADDER:
        items.append(gen.group_case(rng, series, n))
        if series == "A":
            items.append(gen.group_case(rng, series, n, twin=True))
    return items


# m = r, m > r and m < r at each rank; rank 20 also gets m = r +- r/10, so
# that the median op falls inside a class of five items and stays steady
DENSE_SHAPES = ((10, 10), (10, 12), (10, 8),
                (20, 20), (20, 24), (20, 16), (20, 22), (20, 18),
                (30, 30), (30, 36), (30, 24))


def _dense(rng: random.Random) -> list[Item]:
    items = []
    for r, m in DENSE_SHAPES:
        item = gen.planted(rng, f"r{r}m{m}", r, m, bound=2)
        items.append(_at_p(item, rng.choice(CHARACTERISTICS)))
    return items


def _at_p(item: Item, p: int) -> Item:
    return replace(item, doc=dict(item.doc, p=p))


# (rank, colors, mix bound) of the planted p_sweep data; the color-heavy
# last one costs about four rank-6 group cases, so the tail percentile
# measures that op and not the odd slow sample among many equal ones
SWEEP_PLANTED = ((2, 1, 2), (3, 3, 2), (4, 5, 2), (5, 4, 2), (6, 6, 2), (6, 8, 2),
                 (6, 48, 3))


def _sweep(rng: random.Random) -> list[Item]:
    items = gen.catalog_items()
    items += [gen.group_case(rng, series, n) for series, n in SMALL_GROUPS]
    items += [gen.planted(rng, f"r{r}m{m}", r, m, bound)
              for r, m, bound in SWEEP_PLANTED]
    return items


# (rank, modulus, planted color diagonal); the diagonals are fixed so that
# every seed enumerates the same number of torsion elements, and a
# diagonal shorter than the rank leaves divisible directions
ORACLE_SHAPES = (
    (3, 60, [2, 6, 12]), (3, 60, [4, 10]),
    (4, 20, [2, 4, 5, 10]), (4, 20, [2, 4, 10]),
    (6, 7, [1, 7, 1, 7, 2, 3]), (6, 7, [7, 1, 2, 7, 1]),
)


def _oracle(rng: random.Random) -> list[Item]:
    items = []
    for r, modulus, diag in ORACLE_SHAPES:
        m = len(diag)
        item = gen.planted(rng, f"r{r}m{m}N{modulus}", r, m, bound=1, color_diag=diag)
        items.append(replace(item, modulus=modulus))
    return items


# the reason for each workload is given in BENCHMARK.json and bench/README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("group_ladder", _ladder, report_op, check_report_op),
        Workload("planted_dense", _dense, report_op, check_report_op),
        Workload("p_sweep", _sweep, sweep_op, check_sweep_op),
        Workload("oracle_check", _oracle, oracle_op, check_oracle_op),
    )
}
