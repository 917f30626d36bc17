"""Group arithmetic read off the `multiples` table, against the loops it replaced.

`AbelianGroup` reads orders, multiples and the exponent off one table of
multiples, and `generating_family` reads spans and expressions off the sums
over a grid of coefficients.  The oracles below are the repeated-addition
loops, the breadth-first span and the `itertools.product` expression loop
they ran before; both must agree on every group `group_from_affine` gives on
the data files, on the hom groups of the zoo pairs, and on the one-element
group.
"""

import itertools
import math
from functools import lru_cache
from pathlib import Path

from adual import affine, core, homgroups, textio, zoo

DATA = Path(__file__).resolve().parents[1] / "data"

# ---------------------------------------------------------------------------
# Oracles: the loops the table replaced
# ---------------------------------------------------------------------------


def loop_order(G, x):
    acc, order = x, 1
    while acc != G.neutral:
        acc = G.add(acc, x)
        order += 1
    return order


def loop_multiple(G, x, k):
    acc = G.neutral
    for _ in range(k % math.lcm(*(loop_order(G, y) for y in range(G.size)))):
        acc = G.add(acc, x)
    return acc


def bfs_span(G, gens):
    members = {G.neutral}
    frontier = [G.neutral]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.add(x, g)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return members


def oracle_family(G):
    """(generators, orders, expressions) by the greedy loop over the BFS span."""
    orders = [loop_order(G, x) for x in range(G.size)]
    gens = []
    span = bfs_span(G, gens)
    while len(span) < G.size:
        best = max((x for x in range(G.size) if x not in span), key=lambda x: (orders[x], -x))
        gens.append(best)
        span = bfs_span(G, gens)
    gen_orders = tuple(orders[g] for g in gens)
    expressions = {}
    for coeffs in itertools.product(*(range(o) for o in gen_orders)):
        x = G.neutral
        for u, g in zip(coeffs, gens):
            for _ in range(u):
                x = G.add(x, g)
        expressions.setdefault(x, tuple(coeffs))
    return tuple(gens), gen_orders, expressions


# ---------------------------------------------------------------------------
# The groups
# ---------------------------------------------------------------------------


def affine_groups():
    """(label, group) for every neutral of every affine data algebra."""
    out = []
    for name in ("z2", "z3", "z4", "v4", "z6", "z4aff"):
        doc = textio.parse_document((DATA / f"{name}.alg").read_text())
        (A,) = doc.algebras.values()
        t = affine.find_affine_term(A)
        out += [(f"{name}+^{c}", affine.group_from_affine(t, c)) for c in range(A.size)]
    return out


ALGEBRAS = {A.name: A for A in (zoo.cyclic_group(n) for n in (2, 3, 4, 6))}
ALGEBRAS["v4"] = zoo.klein_group()


@lru_cache(maxsize=None)
def hk_groups():
    """(label, group) for the hom group at the first and last base hom of each zoo pair."""
    terms = {name: affine.find_affine_term(A) for name, A in ALGEBRAS.items()}
    out = []
    for (a, A), (s, S) in itertools.product(ALGEBRAS.items(), repeat=2):
        homs = core.enumerate_homs(A, S)
        for i in sorted({0, len(homs) - 1}):
            group = homgroups.build_hk_group(A, S, terms[a], terms[s], homs[i], homs)
            out.append((f"hk({a},{s},h{i})", group))
    return tuple(out)


GROUPS = affine_groups() + [("trivial", affine.AbelianGroup(1, 0, (0,)))]


def all_groups():
    return GROUPS + list(hk_groups())


# ---------------------------------------------------------------------------
# The differential tests
# ---------------------------------------------------------------------------


def test_the_zoo_hom_groups_include_nontrivial_ones():
    orders = sorted({G.size for _, G in hk_groups()})
    assert orders[0] == 1 and orders[-1] >= 8


def test_multiples_orders_and_exponent_match_repeated_addition():
    for label, G in all_groups():
        orders = [loop_order(G, x) for x in range(G.size)]
        assert G.exponent == math.lcm(*orders), label
        assert list(G.orders) == orders, label
        assert G.multiples.shape == (G.exponent, G.size), label
        assert not G.multiples.flags.writeable
        for m in range(G.exponent):
            assert G.multiples[m].tolist() == [loop_multiple(G, x, m) for x in range(G.size)], label
        neg = G.as_algebra("g").op("neg")
        assert [G.add(x, neg(x)) for x in range(G.size)] == [G.neutral] * G.size, label


def test_multiple_matches_repeated_addition_for_every_sign():
    for label, G in all_groups():
        for k in range(-2 * G.exponent - 1, 2 * G.exponent + 2):
            for x in range(G.size):
                assert G.multiple(x, k) == loop_multiple(G, x, k), (label, x, k)


def test_generating_family_matches_the_span_loop():
    for label, G in all_groups():
        family = homgroups.generating_family(G)
        assert (family.generators, family.orders, family.expressions) == oracle_family(G), label


def test_the_table_is_kept_once_as_a_read_only_array():
    for label, G in all_groups():
        assert G.np_add_table.dtype.name == "int64" and not G.np_add_table.flags.writeable
        assert G.add_table == tuple(G.np_add_table.tolist()), label
    # a read-only int64 array that owns its data is shared; anything else is copied
    table = affine.AbelianGroup(2, 0, [0, 1, 1, 0]).np_add_table
    assert affine.AbelianGroup(2, 0, table).np_add_table is table
    writable = table.copy()
    assert affine.AbelianGroup(2, 0, writable).np_add_table is not writable
