"""The one Abelian group check, against the loop it replaced.

`AbelianGroup` checks a binary table over the whole table at once.  The
oracle below is the element-by-element loop that each of three callers used
to run on its own.  Every caller keeps its own failure mode: ValueError from
the type itself, AffineStructureError from `group_from_affine`,
VerificationError from `build_hk_group` and False from the group-mode probe
of `hom`.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from adual import affine, core, homgroups, zoo


def loop_failure(n, e, table):
    """The first failed axiom, by the element loop, or None for an Abelian group."""

    def add(i, j):
        return table[i * n + j]

    for i in range(n):
        if add(i, e) != i or add(e, i) != i:
            return "neutral"
        if all(add(i, j) != e for j in range(n)):
            return "inverse"
        for j in range(n):
            if add(i, j) != add(j, i):
                return "commutative"
            for l in range(n):
                if add(add(i, j), l) != add(i, add(j, l)):
                    return "associative"
    return None


def group_table(moduli):
    elements = list(itertools.product(*(range(m) for m in moduli)))
    index = {x: i for i, x in enumerate(elements)}
    return [index[tuple((a + b) % m for a, b, m in zip(x, y, moduli))] for x in elements for y in elements]


ABELIAN = {1: [()], 2: [(2,)], 3: [(3,)], 4: [(4,), (2, 2)]}


@st.composite
def binary_tables(draw):
    """(size, neutral, table): a relabeled group of 1-4 elements, maybe corrupted."""
    n = draw(st.integers(1, 4))
    base = group_table(draw(st.sampled_from(ABELIAN[n])))
    perm = draw(st.permutations(range(n)))
    table = [0] * (n * n)
    for x, y in itertools.product(range(n), repeat=2):
        table[perm[x] * n + perm[y]] = perm[base[x * n + y]]
    for _ in range(draw(st.integers(0, 2))):
        table[draw(st.integers(0, n * n - 1))] = draw(st.integers(0, n - 1))
    neutral = draw(st.sampled_from([perm[0], draw(st.integers(0, n - 1))]))
    return n, neutral, table


def _is_group(n, e, table):
    try:
        affine.AbelianGroup(n, e, table)
    except ValueError:
        return False
    return True


def _affine_term(n, c, table):
    """A ternary table with t(x,c,y) = x + y and t(c,x,c) = an inverse of x where one exists."""
    values = [0] * n**3
    for x, y, z in itertools.product(range(n), repeat=3):
        if y == c:
            values[(x * n + y) * n + z] = table[x * n + z]
        elif x == z == c:
            values[(x * n + y) * n + z] = next((j for j in range(n) if table[y * n + j] == c), 0)
    return core.Operation("t", 3, n, values)


# (size, neutral, table, the axiom that fails first)
BROKEN = [
    (2, 0, [0, 0, 0, 0], "not neutral"),
    (2, 1, [0, 0, 0, 1], "no inverse"),
    (3, 0, [0, 1, 2, 1, 0, 1, 2, 2, 0], "not commutative"),
    (3, 0, [0, 1, 2, 1, 0, 0, 2, 0, 0], "not associative"),
    (2, 0, [0, 1, 1, 2], "not a binary operation"),
]


@pytest.mark.parametrize("n, e, table, message", BROKEN)
def test_each_broken_axiom_is_named(n, e, table, message):
    with pytest.raises(ValueError, match=message):
        affine.AbelianGroup(n, e, table)


@given(binary_tables())
@settings(max_examples=300)
def test_group_check_matches_the_loop(case):
    n, e, table = case
    assert _is_group(n, e, table) == (loop_failure(n, e, table) is None)


@given(binary_tables())
@settings(max_examples=150)
def test_group_from_affine_fails_exactly_with_the_loop(case):
    n, c, table = case
    t = _affine_term(n, c, table)
    if loop_failure(n, c, table) is None:
        assert affine.group_from_affine(t, c).add_table == tuple(table)
    else:
        with pytest.raises(affine.AffineStructureError):
            affine.group_from_affine(t, c)


@given(binary_tables())
@settings(max_examples=150)
def test_hom_group_probe_fails_exactly_with_the_loop(case):
    n, _, table = case
    A = core.FiniteAlgebra("g", n, [core.Operation("add", 2, n, table)])
    expected = any(loop_failure(n, e, table) is None for e in range(n))
    assert homgroups._has_abelian_group_op(A) == expected


# the hk group of each order 1-4, as (A, S, k)
HK = {
    1: (zoo.cyclic_group(2), zoo.cyclic_group(3), (0, 0)),
    2: (zoo.cyclic_group(2), zoo.cyclic_group(2), (0, 1)),
    3: (zoo.cyclic_group(3), zoo.cyclic_group(3), (0, 1, 2)),
    4: (zoo.cyclic_group(4), zoo.cyclic_group(4), (0, 1, 2, 3)),
}


@given(binary_tables())
@settings(max_examples=100)
def test_hk_group_fails_exactly_with_the_loop(case):
    n, e, table = case
    A, S, k = HK[n]
    t_A, t_S = affine.find_affine_term(A), affine.find_affine_term(S)

    class Replaced(homgroups.HkGroup):
        def __init__(self, *args):
            super().__init__(*args[:-2], e, table)

    with pytest.MonkeyPatch.context() as mp:
        # only the axiom check runs on the replaced table
        mp.setattr(homgroups, "HkGroup", Replaced)
        mp.setattr(homgroups, "_verify_restriction_embedding", lambda *args: None)
        mp.setattr(homgroups, "_verify_base_change", lambda *args: None)
        build = lambda: homgroups.build_hk_group(A, S, t_A, t_S, core.Homomorphism(A, S, k), core.enumerate_homs(A, S))
        if loop_failure(n, e, table) is None:
            assert build().add_table == tuple(table)
        else:
            with pytest.raises(core.VerificationError):
                build()
