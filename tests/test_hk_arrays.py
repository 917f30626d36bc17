"""The hom group on Hom(A^2, S) as one table, against the tuple loop it replaced.

`build_hk_group` keeps the maps f: A^2 -> S with f(x, x) = k(x) as the rows
of one int64 array, and its addition table, restriction embedding and base
change checks are gathers of t_S's table over those rows.  The oracle below
is the map-by-map tuple loop it ran before; both must give the same group
and fail on the same corrupted t_S with the same error; each error of the
restriction embedding is reached once.  Both take Hom(A, S) from the
caller and refuse one that misses the diagonal of a map of Hom(A^2, S).
`Homomorphism` keeps its values once, as a read-only int64 array.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adual import affine, core, homgroups, zoo

# ---------------------------------------------------------------------------
# Oracle: the tuple loop build_hk_group ran before
# ---------------------------------------------------------------------------


def oracle_hk(A, S, t_A, t_S, k, homs, budget=core.DEFAULT_BUDGET):
    """(elements as tuples, neutral index, flat add table), checked map by map; `homs` is Hom(A, S)."""
    if not (core._same_tables(k.domain, A) and core._same_tables(k.codomain, S)):
        raise ValueError("base morphism must go from A to S")
    square = core.power_algebra(A, 2, budget)
    homs2 = core.enumerate_homs(square, S, budget)
    diag = [x * A.size + x for x in range(A.size)]
    elements = tuple(
        h.mapping for h in homs2 if all(h.mapping[diag[x]] == k(x) for x in range(A.size))
    )
    kbar = tuple(k(c % A.size) for c in range(square.size))
    if kbar not in elements:
        raise ValueError("the neutral candidate kbar is not a homomorphism: k is invalid")
    neutral = elements.index(kbar)
    index = {m: i for i, m in enumerate(elements)}
    add_table = []
    for f in elements:
        for g in elements:
            s = tuple(t_S(f[u], kbar[u], g[u]) for u in range(square.size))
            if s not in index:
                raise ValueError("hom set not closed under the pointwise term")
            add_table.append(index[s])
    try:
        G = affine.AbelianGroup(len(elements), neutral, add_table)
    except ValueError as e:
        raise core.VerificationError(f"the hom set is not an Abelian group: {e}") from None

    oracle_restriction(A, t_A, t_S, k, elements, neutral, G.add, budget)

    # base change f |-> t_S(f, kbar, jbar) onto the fiber of every j
    fibers = {}
    for h in homs2:
        fibers.setdefault(tuple(h.mapping[d] for d in diag), set()).add(h.mapping)
    if not set(fibers) <= {j.mapping for j in homs}:
        raise core.VerificationError("a map of Hom(A^2, S) has a diagonal outside Hom(A, S)")
    for j in homs:
        jbar = tuple(j(c % A.size) for c in range(square.size))
        other = fibers.get(j.mapping, set())
        phi = {}
        for f in elements:
            img = tuple(t_S(f[u], kbar[u], jbar[u]) for u in range(square.size))
            if img not in other:
                raise core.VerificationError("base change leaves the target hom set")
            phi[f] = img
        if not (len(set(phi.values())) == len(elements) == len(other)):
            raise core.VerificationError("not bijective")
        for f in elements:
            back = tuple(t_S(phi[f][u], jbar[u], kbar[u]) for u in range(square.size))
            if back != f:
                raise core.VerificationError("base change composed with its inverse is not the identity")
    return elements, neutral, tuple(add_table)


def oracle_restriction(A, t_A, t_S, k, elements, neutral, add, budget=core.DEFAULT_BUDGET):
    """The restriction f |-> f(a, .) into Hom((A,+^a), (S,+^{k(a)})), checked map by map.

    `elements` are the group's maps as tuples, `neutral` the index of kbar
    and `add(i, j)` the index of the sum.
    """
    a = 0
    ga = affine.group_from_affine(t_A, a).as_algebra(f"{A.name}+^{a}")
    gs = affine.group_from_affine(t_S, k(a)).as_algebra(f"{k.codomain.name}+^{k(a)}")
    K = {h.mapping for h in core.enumerate_homs(ga, gs, budget)}
    restricted = []
    for f in elements:
        fa = tuple(f[a * A.size + x] for x in range(A.size))
        if fa not in K:
            raise core.VerificationError("restriction is not a group homomorphism")
        restricted.append(fa)
    if len(set(restricted)) != len(restricted):
        raise core.VerificationError("restriction not injective")
    for i, fa in enumerate(restricted):
        if fa == k.mapping and i != neutral:
            raise core.VerificationError("kernel of the restriction is larger than {kbar}")
    for i in range(len(elements)):
        for j in range(len(elements)):
            rhs = tuple(t_S(restricted[i][x], k(x), restricted[j][x]) for x in range(A.size))
            if restricted[add(i, j)] != rhs:
                raise core.VerificationError("restriction is not additive")


def outcome(build, A, S, t_A, t_S, k, homs=None):
    """The group as (elements, neutral, add table), or the type and message of its error.

    `homs` is the Hom(A, S) handed to `build`, the searched one by default.
    """
    try:
        result = build(A, S, t_A, t_S, k, core.enumerate_homs(A, S) if homs is None else homs)
    except (ValueError, core.VerificationError) as e:
        return type(e), str(e)
    if isinstance(result, homgroups.HkGroup):
        assert result.elements.dtype == np.int64 and not result.elements.flags.writeable
        return tuple(map(tuple, result.elements.tolist())), result.neutral, result.add_table
    return result


ALGEBRAS = {A.name: A for A in (zoo.cyclic_group(n) for n in (2, 3, 4, 6))}
ALGEBRAS["v4"] = zoo.klein_group()
TERMS = {name: affine.find_affine_term(A) for name, A in ALGEBRAS.items()}


@pytest.mark.parametrize("a", list(ALGEBRAS))
@pytest.mark.parametrize("s", list(ALGEBRAS))
def test_hk_group_matches_the_tuple_loop(a, s):
    A, S = ALGEBRAS[a], ALGEBRAS[s]
    homs = core.enumerate_homs(A, S)
    for k in {homs[0], homs[-1]}:
        args = (A, S, TERMS[a], TERMS[s], k)
        expected = outcome(oracle_hk, *args)
        assert outcome(homgroups.build_hk_group, *args) == expected
        assert isinstance(expected[1], int)  # a group, not an error


SMALL = [("z2", "z2"), ("z2", "z4"), ("z3", "z3"), ("z4", "z2"), ("z4", "z4"), ("v4", "z2"), ("z2", "v4")]


@st.composite
def corrupted_cases(draw):
    """(A, S, t_A, t_S with 1-3 cells changed, k)."""
    a, s = draw(st.sampled_from(SMALL))
    A, S = ALGEBRAS[a], ALGEBRAS[s]
    k = draw(st.sampled_from(core.enumerate_homs(A, S)))
    table = list(TERMS[s].table)
    for _ in range(draw(st.integers(1, 3))):
        table[draw(st.integers(0, len(table) - 1))] = draw(st.integers(0, S.size - 1))
    return A, S, TERMS[a], core.Operation("t", 3, S.size, table), k


@given(corrupted_cases())
@settings(max_examples=150)
def test_hk_group_fails_on_a_corrupted_term_like_the_tuple_loop(case):
    assert outcome(homgroups.build_hk_group, *case) == outcome(oracle_hk, *case)


def test_base_change_names_a_missing_or_surplus_target_map(v4):
    t = TERMS["v4"]
    homs = core.enumerate_homs(v4, v4)
    G = homgroups.build_hk_group(v4, v4, t, t, homs[0], homs)
    homs2 = core.hom_table(core.enumerate_homs(G.square, v4), G.square.size)
    js = core.hom_table(homs, v4.size)
    with pytest.raises(core.VerificationError, match="leaves the target hom set"):
        homgroups._verify_base_change(G, homs2[:-1], js)
    surplus = homs2[-1].copy()
    surplus[1] = (surplus[1] + 1) % 4  # off the diagonal, so in the same fiber
    with pytest.raises(core.VerificationError, match="not bijective"):
        homgroups._verify_base_change(G, np.vstack([homs2, surplus]), js)


@pytest.mark.parametrize("a, s", [("v4", "v4"), ("z4", "z2"), ("z2", "z6"), ("z6", "z6")])
def test_hom_a_s_with_one_hom_missing_is_refused_like_the_tuple_loop(a, s):
    A, S = ALGEBRAS[a], ALGEBRAS[s]
    homs = core.enumerate_homs(A, S)
    expected = (core.VerificationError, "a map of Hom(A^2, S) has a diagonal outside Hom(A, S)")
    for missing in range(len(homs)):
        given = homs[:missing] + homs[missing + 1 :]
        args = (A, S, TERMS[a], TERMS[s], homs[0])
        assert outcome(homgroups.build_hk_group, *args, given) == outcome(oracle_hk, *args, given) == expected


@pytest.mark.parametrize("a, s", [("v4", "v4"), ("z4", "z2"), ("z2", "z6")])
def test_index_of_matches_a_dict_of_rows(a, s):
    A, S = ALGEBRAS[a], ALGEBRAS[s]
    homs = core.enumerate_homs(A, S)
    H = homgroups.build_hk_group(A, S, TERMS[a], TERMS[s], homs[-1], homs)
    rng = np.random.default_rng(7)
    changed = H.elements[rng.integers(0, H.size, 40)].copy()
    cells = rng.integers(0, H.square.size, 40)
    changed[np.arange(40), cells] = (changed[np.arange(40), cells] + rng.integers(0, 2, 40)) % S.size
    maps = np.concatenate([H.elements[::-1], changed, rng.integers(0, S.size, (20, H.square.size))])
    oracle = {tuple(row): i for i, row in enumerate(H.elements.tolist())}
    assert H.index_of(maps).tolist() == [oracle.get(tuple(row), -1) for row in maps.tolist()]


def test_index_of_finds_elements_and_rejects_other_maps(v4):
    t = affine.find_affine_term(v4)
    homs = core.enumerate_homs(v4, v4)
    H = homgroups.build_hk_group(v4, v4, t, t, homs[1], homs)
    assert H.index_of(H.elements).tolist() == list(range(H.size))
    # equal to an element on the generators of v4^2, but not elsewhere
    cell = max(set(range(H.square.size)) - set(H.square.generating_set))
    outside = H.elements[[0]].copy()
    outside[0, cell] = (outside[0, cell] + 1) % 4
    assert H.index_of(outside).tolist() == [-1]


# ---------------------------------------------------------------------------
# The three errors of the restriction embedding, each against the tuple loop
# ---------------------------------------------------------------------------

XOR = core.Operation("t", 3, 4, [x ^ y ^ z for x, y, z in itertools.product(range(4), repeat=3)])


def test_restriction_from_another_group_is_no_group_hom(z4):
    # t_A = x xor y xor z is the affine term of V4 on the universe of Z4, and
    # the restrictions, endomorphisms of Z4, are not homs from (A, xor)
    args = (z4, z4, XOR, TERMS["z4"], core.Homomorphism(z4, z4, range(4)))
    expected = (core.VerificationError, "restriction is not a group homomorphism")
    assert outcome(homgroups.build_hk_group, *args) == outcome(oracle_hk, *args) == expected


def test_restriction_that_misses_a_cell_is_not_injective():
    # A is a set: every map with f(x, x) = x is a hom A^2 -> A, and f(0, .) misses f(1, 0)
    A = core.FiniteAlgebra("set2", 2, [])
    t = core.Operation("t", 3, 2, [(x + y + z) % 2 for x, y, z in itertools.product(range(2), repeat=3)])
    args = (A, A, t, t, core.Homomorphism(A, A, [0, 1]))
    expected = (core.VerificationError, "restriction not injective")
    assert outcome(homgroups.build_hk_group, *args) == outcome(oracle_hk, *args) == expected


def test_restriction_kernel_larger_than_the_neutral(z4, monkeypatch):
    # No term reaches this check: kbar restricts to k, so a second map in the
    # kernel breaks injectivity first.  So the rows of kbar and of the next map
    # are swapped in the element table once the neutral index is found.
    t, k = TERMS["z4"], core.Homomorphism(z4, z4, range(4))
    elements, neutral, add_table = oracle_hk(z4, z4, t, t, k, core.enumerate_homs(z4, z4))
    m, other = len(elements), (neutral + 1) % len(elements)
    order = list(range(m))
    order[neutral], order[other] = other, neutral

    class Swapped(homgroups.HkGroup):
        def __init__(self, *args):
            *head, rows, neutral_index, add = args
            super().__init__(*head, rows[order], neutral_index, add)

    monkeypatch.setattr(homgroups, "HkGroup", Swapped)
    message = "kernel of the restriction is larger than {kbar}"
    assert outcome(homgroups.build_hk_group, z4, z4, t, t, k) == (core.VerificationError, message)
    swapped = [elements[i] for i in order]
    with pytest.raises(core.VerificationError) as e:
        oracle_restriction(z4, t, t, k, swapped, neutral, lambda i, j: add_table[i * m + j])
    assert str(e.value) == message


_RESTRICTION_UNDER_OPTIMIZE = """
import itertools
import sys

from adual import affine, core, homgroups, zoo

if __debug__ or not sys.flags.optimize:
    sys.exit("not running under -O")
z4 = zoo.cyclic_group(4)
xor = core.Operation("t", 3, 4, [x ^ y ^ z for x, y, z in itertools.product(range(4), repeat=3)])
t = affine.find_affine_term(z4)
try:
    homgroups.build_hk_group(z4, z4, xor, t, core.Homomorphism(z4, z4, range(4)), core.enumerate_homs(z4, z4))
except core.VerificationError as e:
    print(f"VerificationError: {e}")
"""


def test_restriction_from_another_group_fails_under_optimize(under_optimize):
    out = under_optimize(_RESTRICTION_UNDER_OPTIMIZE)
    assert out == "VerificationError: restriction is not a group homomorphism\n", out


_MISSING_HOM_UNDER_OPTIMIZE = """
import sys

from adual import affine, core, homgroups, zoo

if __debug__ or not sys.flags.optimize:
    sys.exit("not running under -O")
v4 = zoo.klein_group()
t = affine.find_affine_term(v4)
homs = core.enumerate_homs(v4, v4)
try:
    homgroups.build_hk_group(v4, v4, t, t, homs[0], homs[:-1])
except core.VerificationError as e:
    print(f"VerificationError: {e}")
"""


def test_hom_a_s_with_one_hom_missing_is_refused_under_optimize(under_optimize):
    out = under_optimize(_MISSING_HOM_UNDER_OPTIMIZE)
    assert out == "VerificationError: a map of Hom(A^2, S) has a diagonal outside Hom(A, S)\n", out


# ---------------------------------------------------------------------------
# Homomorphism: one read-only int64 array
# ---------------------------------------------------------------------------


def _build(domain, codomain, values):
    try:
        h = core.Homomorphism(domain, codomain, values)
    except ValueError as e:
        return type(e), str(e)
    assert h.np_mapping.dtype == np.int64 and not h.np_mapping.flags.writeable
    return h.mapping, h.np_mapping.tolist(), hash(h), h


@pytest.mark.parametrize(
    "values",
    [
        (0, 3, 2, 1),  # a homomorphism
        (0, 1, 2),  # too short
        (0, 1, 2, 4),  # outside the codomain
        (0, 1, 2, 2),  # not a homomorphism
        (0, 1, 2, 10**20),  # beyond int64
        (0, 1, 2, -(10**20)),
    ],
)
def test_homomorphism_from_list_tuple_or_array_agree(z4, values):
    built = [_build(z4, z4, kind(values)) for kind in (list, tuple, np.array)]
    assert built[0] == built[1] == built[2]
    if isinstance(built[0][0], tuple):
        assert built[0][0] == values and all(type(v) is int for v in built[0][0])
    else:
        assert built[0][0] is ValueError


def test_homomorphism_keeps_no_tuple_until_it_is_read(z4):
    h = core.Homomorphism(z4, z4, (0, 3, 2, 1))
    assert "mapping" not in vars(h) and not hasattr(h, "_np")
    assert h(1) == 3 and h.mapping == (0, 3, 2, 1)


def test_read_only_owning_arrays_are_shared_and_others_copied(z4):
    owned = np.array([0, 3, 2, 1])
    owned.setflags(write=False)
    writable = np.array([0, 3, 2, 1])
    view = np.array([0, 3, 2, 1, 0])[:4]
    view.setflags(write=False)
    assert np.shares_memory(core.Homomorphism(z4, z4, owned).np_mapping, owned)
    for other in (writable, view):
        assert not np.shares_memory(core.Homomorphism(z4, z4, other).np_mapping, other)

    add = z4.op("add").np_table.copy()
    add.setflags(write=False)
    assert np.shares_memory(core.Operation("add", 2, 4, add).np_table, add)
    writable, view = add.copy(), np.concatenate([add, add])[:16]
    view.setflags(write=False)
    for other in (writable, view):
        assert not np.shares_memory(core.Operation("add", 2, 4, other).np_table, other)


def test_extend_partial_map_returns_the_accepted_hom(z4, z2):
    hom = core.extend_partial_map(z4, z4, {1: 3})
    assert isinstance(hom, core.Homomorphism) and hom.domain is hom.codomain is z4
    assert hom.mapping == (0, 3, 2, 1) and not hom.np_mapping.flags.writeable
    assert core.extend_partial_map(z2, z4, {1: 1}) is None  # 1 + 1 = 0 fails


@pytest.mark.parametrize("partial", [{2: 1}, {}, {1: 3, 2: 2}])
def test_extend_partial_map_takes_exactly_the_generating_set(z4, partial):
    assert z4.generating_set == (1,)
    with pytest.raises(ValueError, match=r"not the generating set \(1,\) of z4"):
        core.extend_partial_map(z4, z4, partial)


# ---------------------------------------------------------------------------
# The new gathers under python -O
# ---------------------------------------------------------------------------

_UNDER_OPTIMIZE = """
import sys

from adual import affine, core, homgroups, zoo

if __debug__ or not sys.flags.optimize:
    sys.exit("not running under -O")
A = zoo.cyclic_group(int(sys.argv[1]))
t = affine.find_affine_term(A)
table = list(t.table)
cell, value = int(sys.argv[3]), int(sys.argv[4])
table[cell] = value
homs = core.enumerate_homs(A, A)
try:
    homgroups.build_hk_group(A, A, t, core.Operation("t", 3, A.size, table), homs[int(sys.argv[2])], homs)
except (core.VerificationError, ValueError) as e:
    print(f"{type(e).__name__}: {e}")
"""


@pytest.mark.parametrize(
    "case, message",
    [
        # t(0, 0, 0) = 1 on Z4: the pointwise sums leave the hom set
        (("4", "3", "0", "1"), "ValueError: hom set not closed under the pointwise term"),
        # t(1, 1, 0) = 1 on Z2, over k = 0: the base change back misses the identity
        (("2", "0", "6", "1"), "VerificationError: base change composed with its inverse"),
    ],
)
def test_hk_gathers_fail_under_optimize(under_optimize, case, message):
    out = under_optimize(_UNDER_OPTIMIZE, *case)
    assert out.startswith(message), out


_CANDIDATES_UNDER_OPTIMIZE = """
import sys

from adual import core, zoo

if __debug__ or not sys.flags.optimize:
    sys.exit("not running under -O")
z2, z4 = zoo.cyclic_group(2), zoo.cyclic_group(4)
# 1 -> 1 fills the table [0, 1], which breaks 1 + 1 = 0
print(core.extend_partial_map(z2, z4, {1: 1}), [h.mapping for h in core.enumerate_homs(z2, z4)])
"""


def test_non_hom_candidates_are_rejected_under_optimize(under_optimize):
    out = under_optimize(_CANDIDATES_UNDER_OPTIMIZE)
    assert out == "None [(0, 0), (0, 2)]\n"
