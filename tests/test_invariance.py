"""Metamorphic invariances of whole documents.

Each test rewrites a document as a user could, parses the result, and
compares its report with the one the original predicts: the two
quotients before the p'-extraction and the level of every validation
check.  The rewrites act on the document's JSON, so they share no code
with any kernel.  They run on every catalog document and on the seeded
random documents of ``tests/make_golden.py``.
"""

import json
import random
from collections import defaultdict

import pytest

from make_golden import random_documents
from spherical_pi.catalog import catalog
from spherical_pi.documents import document_dict, dumps_document, parse
from spherical_pi.lattices import FinGenAbQuotient
from spherical_pi.root_data import RootDatum
from spherical_pi.spherical import PASS, WARN, full_report
from spherical_pi.verify import product


def documents():
    """(name, text) of every catalog document and seeded random document."""
    docs = [(entry.name, entry.document) for entry in catalog()]
    docs += [(f"random_{i}", text) for i, (_, text) in enumerate(random_documents())]
    return docs


DOCUMENTS = documents()


def explicit(text):
    """The document as a dict whose root datum is written explicitly."""
    return document_dict(parse(text))


def outcome(doc):
    """The quotients and validation levels of a document given as a dict."""
    report = full_report(parse(dumps_document(doc)))
    levels = tuple((o.check, o.level) for o in report.validation)
    return report.saturation_quotient, report.ambient_saturation_quotient, levels


def times(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular_pair(rng, n):
    """A random unimodular n x n matrix and its inverse.

    Each elementary row operation on ``a`` is undone by the inverse
    column operation on ``inverse``, so ``a @ inverse`` stays the identity.
    """
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [row[:] for row in a]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            a[i] = [-x for x in a[i]]
            for row in inverse:
                row[i] = -row[i]
        else:
            q = rng.choice((-2, -1, 1, 2))
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
            for row in inverse:
                row[j] -= q * row[i]
    return a, inverse


def change_character_basis(doc, rng):
    """The same datum in the character-lattice basis changed by a random A.

    Characters (roots and weight generators) go to A times themselves, and
    cocharacters (coroots) to themselves times A^-1, so every pairing and
    every restricted coroot is unchanged.
    """
    rd = doc["root_datum"]["explicit"]
    d = rd["rank"]
    a, inverse = unimodular_pair(rng, d)
    assert times(a, inverse) == [[int(i == j) for j in range(d)] for i in range(d)]

    def character(v):
        return [sum(x * y for x, y in zip(row, v)) for row in a]

    def cocharacter(v):
        return [sum(x * y for x, y in zip(v, col)) for col in zip(*inverse)]

    out = json.loads(json.dumps(doc))
    out_rd = out["root_datum"]["explicit"]
    out_rd["simple_roots"] = [character(v) for v in rd["simple_roots"]]
    out_rd["simple_coroots"] = [cocharacter(v) for v in rd["simple_coroots"]]
    out["lattice"] = [character(v) for v in doc["lattice"]]
    return out


def direct_sum(a, b):
    """The document of the direct sum of two data given as dicts."""
    ra, rb = (doc["root_datum"]["explicit"] for doc in (a, b))
    rd = product(
        RootDatum(ra["rank"], ra["simple_roots"], ra["simple_coroots"]),
        RootDatum(rb["rank"], rb["simple_roots"], rb["simple_coroots"]),
    )
    da, db = ra["rank"], rb["rank"]
    wa, wb = len(a["lattice"]), len(b["lattice"])
    return {
        "label": f"{a['label']}+{b['label']}",
        "p": a["p"],
        "root_datum": {
            "explicit": {
                "rank": rd.rank,
                "simple_roots": [list(v) for v in rd.simple_roots],
                "simple_coroots": [list(v) for v in rd.simple_coroots],
            }
        },
        "lattice": [v + [0] * db for v in a["lattice"]]
        + [[0] * da + v for v in b["lattice"]],
        "colors": [row + [0] * wb for row in a["colors"]]
        + [[0] * wa + row for row in b["colors"]],
    }


def prime_power_parts(n):
    """{p: e} with n = prod p**e, by trial division."""
    parts = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            parts[p] = parts.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        parts[n] = parts.get(n, 0) + 1
    return parts


def product_quotient(x, y):
    """The quotient x + y, its factors normalized to a divisibility chain.

    The k-th largest factor of the chain is the product, over the primes,
    of the k-th largest power of the prime among all the factors.
    """
    powers = defaultdict(list)
    for d in x.invariant_factors + y.invariant_factors:
        for p, e in prime_power_parts(d).items():
            powers[p].append(p**e)
    length = max(map(len, powers.values()), default=0)
    chain = [1] * length
    for ladder in powers.values():
        for k, q in enumerate(sorted(ladder, reverse=True)):
            chain[length - 1 - k] *= q
    return FinGenAbQuotient(x.divisible_rank + y.divisible_rank, tuple(chain))


def test_prime_power_parts_and_chains():
    assert prime_power_parts(1) == {}
    assert prime_power_parts(360) == {2: 3, 3: 2, 5: 1}
    assert product_quotient(
        FinGenAbQuotient(1, (2, 12)), FinGenAbQuotient(0, (3, 15))
    ) == FinGenAbQuotient(1, (3, 6, 60))


@pytest.mark.parametrize("draw", range(2))
def test_character_basis_change(draw):
    rng = random.Random(f"character basis {draw}")
    for name, text in DOCUMENTS:
        doc = explicit(text)
        assert outcome(change_character_basis(doc, rng)) == outcome(doc), name


def test_direct_sum():
    rng = random.Random("direct sum")
    levels = set()
    for name, text in DOCUMENTS:
        other, other_text = rng.choice(DOCUMENTS)
        a, b = explicit(text), explicit(other_text)
        sat_a, amb_a, levels_a = outcome(a)
        sat_b, amb_b, levels_b = outcome(b)
        worst = {
            check: WARN if WARN in (la, lb) else PASS
            for (check, la), (_, lb) in zip(levels_a, levels_b)
        }
        sat, amb, levels_ab = outcome(direct_sum(a, b))
        assert sat == product_quotient(sat_a, sat_b), (name, other)
        assert amb == product_quotient(amb_a, amb_b), (name, other)
        assert levels_ab == tuple(worst.items()), (name, other)
        levels.add(worst["coroot-span"])
    # both verdicts of the coroot-span check are exercised
    assert levels == {PASS, WARN}
