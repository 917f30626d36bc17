import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adual import core, zoo


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def brute_force_subuniverses(A):
    """All nonempty closed subsets by filtering every subset; |A| <= 12 only."""
    out = []
    for mask in range(1, 2**A.size):
        subset = [x for x in range(A.size) if mask >> x & 1]
        sset = set(subset)
        closed = all(
            o(*args) in sset
            for o in A.ops
            for args in itertools.product(subset, repeat=o.arity)
        )
        if closed:
            out.append(tuple(subset))
    out.sort(key=lambda c: (len(c), c))
    return out


def brute_force_homs(A, B):
    out = []
    for mapping in itertools.product(range(B.size), repeat=A.size):
        try:
            out.append(core.Homomorphism(A, B, mapping))
        except ValueError:
            pass
    out.sort(key=lambda h: h.mapping)
    return out


def brute_force_congruences(A):
    """Every partition of the universe that all operations preserve."""

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    out = set()
    for classes in partitions(list(range(A.size))):
        cong = core.Congruence.from_classes(A.size, classes)
        try:
            core.verify_congruence(A, cong)
        except ValueError:
            continue
        out.add(cong)
    return out


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# ---------------------------------------------------------------------------
# operations and algebras
# ---------------------------------------------------------------------------


def test_operation_validation():
    with pytest.raises(ValueError):
        core.Operation("bad", 1, 2, [0, 2])
    with pytest.raises(ValueError):
        core.Operation("bad", 2, 2, [0, 1, 0])
    o = core.Operation("add", 2, 3, [(i + j) % 3 for i in range(3) for j in range(3)])
    assert o(1, 2) == 0


def test_duplicate_op_names_rejected():
    ops = [core.Operation("f", 0, 2, [0]), core.Operation("f", 1, 2, [0, 1])]
    with pytest.raises(ValueError):
        core.FiniteAlgebra("bad", 2, ops)


def test_power_identity_case(z2):
    P = core.power_algebra(z2, 1)
    assert P.size == 2
    assert P.op("add").table == z2.op("add").table


def test_power_coordinatewise(z2, z3):
    P = core.power_algebra(z2, 2)
    # (0,1) + (1,1) = (1,0): codes 1 + 3 = 2
    assert P.op("add")(1, 3) == 2
    P3 = core.power_algebra(z3, 2)
    # (1,1) + (1,1) = (2,2): codes 4 + 4 = 8
    assert P3.op("add")(4, 4) == 8


def test_power_budget():
    z2 = zoo.cyclic_group(2)
    with pytest.raises(core.BudgetExceededError) as e:
        core.power_algebra(z2, 30, budget=10**6)
    assert e.value.count == 2**30


def test_encode_decode_roundtrip():
    for code in range(81):
        assert core.encode_tuple(core.decode_code(code, [3] * 4), 3) == code


def test_encode_tuple_on_arrays_matches_scalars():
    rows = np.array(list(itertools.product(range(3), repeat=4)))
    assert core.encode_tuple(rows.T, 3).tolist() == [core.encode_tuple(t, 3) for t in rows]


@settings(max_examples=60)
@given(
    members=st.sets(st.integers(0, 10**7), max_size=40),
    queries=st.lists(st.integers(0, 2 * 10**7), max_size=40),
)
def test_sorted_member_matches_a_set(members, queries):
    queries += list(members)[:5]  # random queries almost never hit a member
    sorted_codes = np.array(sorted(members), dtype=np.int64)
    got = core.sorted_member(sorted_codes, np.array(queries, dtype=np.int64).reshape(-1, 1))
    assert got.shape == (len(queries), 1)
    assert got.ravel().tolist() == [q in members for q in queries]


def test_sorted_member_on_scalars_and_shapes():
    codes = np.array([1, 3, 5])
    assert core.sorted_member(codes, 3) and not core.sorted_member(codes, 4)
    assert core.sorted_member(codes, 9).shape == ()
    assert not core.sorted_member(codes[:0], 3)
    queries = np.array([[0, 1], [5, 6], [3, 3]])
    got = core.sorted_member(codes, queries)
    assert got.shape == (3, 2) and got.tolist() == [[False, True], [True, False], [True, True]]


# ---------------------------------------------------------------------------
# generated subuniverses
# ---------------------------------------------------------------------------


def test_generated_subuniverse_examples(z4):
    assert core.generated_subuniverse(z4, {2}) == (0, 2)
    assert core.generated_subuniverse(z4, {1}) == (0, 1, 2, 3)
    assert core.generated_subuniverse(z4, range(4)) == (0, 1, 2, 3)


def test_generated_subuniverse_empty_seed(z4, semilattice):
    # constants generate from the empty seed; without constants it is an error
    assert core.generated_subuniverse(z4, []) == (0,)
    with pytest.raises(ValueError):
        core.generated_subuniverse(semilattice, [])


@settings(max_examples=60)
@given(seed=st.sets(st.integers(0, 5)), extra=st.sets(st.integers(0, 5)))
def test_generated_subuniverse_monotone_idempotent(seed, extra):
    z6 = zoo.cyclic_group(6)
    small = core.generated_subuniverse(z6, seed)
    large = core.generated_subuniverse(z6, seed | extra)
    assert set(small) <= set(large)
    assert core.generated_subuniverse(z6, small) == small


# ---------------------------------------------------------------------------
# subuniverse enumeration
# ---------------------------------------------------------------------------


def test_enumerate_subuniverses_z2_as_power(z2):
    rels = core.enumerate_subuniverses(core.power_algebra(z2, 1))
    assert [r.tuples for r in rels] == [((0,),), ((0,), (1,))]


@pytest.mark.parametrize("maker", [zoo.cyclic_group(4), zoo.klein_group()])
def test_enumeration_matches_subset_filter(maker):
    assert core.subuniverse_carriers(maker) == brute_force_subuniverses(maker)


def test_enumeration_matches_subset_filter_on_powers(z2, z3):
    P = core.power_algebra(z2, 3)
    assert core.subuniverse_carriers(P) == brute_force_subuniverses(P)
    P2 = core.power_algebra(z3, 2)
    assert core.subuniverse_carriers(P2) == brute_force_subuniverses(P2)


def test_subuniverse_counts_gaussian(z2, z3):
    # subuniverses of (Z_p)^n are the subspaces of an n-dim space over F_p
    for A, q, n, expected in ((z2, 2, 4, 67), (z2, 2, 5, 374), (z3, 3, 4, 212)):
        assert sum(gaussian_binomial(n, k, q) for k in range(n + 1)) == expected
        P = core.power_algebra(A, n)
        assert len(core.subuniverse_carriers(P)) == expected


def z4_affine():
    """<Z4; x - y + z>: no constants and one ternary operation."""
    table = [(x - y + z) % 4 for x, y, z in itertools.product(range(4), repeat=3)]
    return core.FiniteAlgebra("z4aff", 4, [core.Operation("t", 3, 4, table)])


INTERVAL_CASES = {
    "z2^3": lambda: core.power_algebra(zoo.cyclic_group(2), 3),
    "z3^2": lambda: core.power_algebra(zoo.cyclic_group(3), 2),
    "z4^2": lambda: core.power_algebra(zoo.cyclic_group(4), 2),
    "v4^2": lambda: core.power_algebra(zoo.klein_group(), 2),
    "z4aff^2": lambda: core.power_algebra(z4_affine(), 2),
    "z6": lambda: zoo.cyclic_group(6),
    "meet2^2": lambda: core.power_algebra(zoo.two_element_semilattice(), 2),
    "s3": zoo.symmetric_group_3,
}


@pytest.mark.parametrize("name", INTERVAL_CASES)
def test_interval_matches_the_filtered_lattice(name):
    A = INTERVAL_CASES[name]()
    lattice = core.subuniverse_carriers(A)

    def oracle(S):
        return [c for c in lattice if set(S) <= set(c)]

    assert core.subuniverse_carriers(A, above=()) == lattice
    for S in lattice:
        assert core.subuniverse_carriers(A, above=S) == oracle(S)
    # an unclosed seed gives the interval above the subuniverse it generates
    unclosed = 0
    for seed in itertools.combinations(range(A.size), 2):
        closure = core.generated_subuniverse(A, seed)
        if closure != seed:
            unclosed += 1
            assert core.subuniverse_carriers(A, above=seed) == oracle(closure)
    assert unclosed


def test_interval_refuses_a_code_outside_the_universe_before_any_closure(monkeypatch):
    P = core.power_algebra(zoo.cyclic_group(2), 3)

    def refuse(*a, **k):
        raise AssertionError("closure run before the code check")

    monkeypatch.setattr(core, "closed_product_subset", refuse)
    for code in (-1, 8):
        with pytest.raises(ValueError, match=f"code {code} outside the universe 0..7"):
            core.subuniverse_carriers(P, above=[0, code])


def test_interval_budget_refusal_comes_before_the_code_check():
    P = core.power_algebra(zoo.cyclic_group(2), 3)
    with pytest.raises(core.BudgetExceededError, match="refused to materialize 8 elements"):
        core.subuniverse_carriers(P, budget=7, above=[8])


def test_every_enumerated_subuniverse_is_closed(z4):
    P = core.power_algebra(z4, 2)
    for carrier in core.subuniverse_carriers(P):
        cset = set(carrier)
        for o in P.ops:
            for args in itertools.product(carrier, repeat=o.arity):
                assert o(*args) in cset


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------


def test_hom_examples(z2, z4):
    homs = core.enumerate_homs(z2, z4)
    assert [h.mapping for h in homs] == [(0, 0), (0, 2)]
    homs44 = core.enumerate_homs(z4, z4)
    assert [h.mapping for h in homs44] == [
        (0, 0, 0, 0),
        (0, 1, 2, 3),
        (0, 2, 0, 2),
        (0, 3, 2, 1),
    ]


def test_identity_is_always_a_hom(z6):
    maps = [h.mapping for h in core.enumerate_homs(z6, z6)]
    assert tuple(range(6)) in maps


@pytest.mark.parametrize(
    "pair",
    [
        (zoo.cyclic_group(2), zoo.cyclic_group(4)),
        (zoo.cyclic_group(4), zoo.cyclic_group(4)),
        (zoo.cyclic_group(3), zoo.cyclic_group(3)),
        (zoo.klein_group(), zoo.cyclic_group(2)),
        (zoo.cyclic_group(2), zoo.klein_group()),
        (zoo.two_element_semilattice(), zoo.two_element_semilattice()),
    ],
)
def test_enumerate_homs_matches_brute_force(pair):
    A, B = pair
    assert [h.mapping for h in core.enumerate_homs(A, B)] == [
        h.mapping for h in brute_force_homs(A, B)
    ]


def test_hom_budget_hint(z2, z4):
    # Z2^4 needs four generators, whose 4**4 = 256 images into Z4 exceed the budget
    P = core.power_algebra(z2, 4)
    with pytest.raises(core.BudgetExceededError) as e:
        core.enumerate_homs(P, z4, budget=100)
    assert e.value.count == 256
    assert "generating set" in str(e.value)


def test_hom_verification_rejects_non_hom(z4):
    with pytest.raises(ValueError):
        core.Homomorphism(z4, z4, (0, 1, 2, 2))


def test_hom_signature_mismatch_names_both_signatures(z2, semilattice):
    with pytest.raises(ValueError, match="signature mismatch") as e:
        core.Homomorphism(z2, semilattice, (0, 1))
    assert str(z2.signature()) in str(e.value) and str(semilattice.signature()) in str(e.value)
    assert z2.signature() == (("add", 2), ("neg", 1), ("zero", 0))


def test_hom_equality_compares_tables_not_names():
    # two algebras named "A" on {0, 1}: f is the identity on one, constant on the other
    identity = core.FiniteAlgebra("A", 2, [core.Operation("f", 1, 2, (0, 1))])
    constant = core.FiniteAlgebra("A", 2, [core.Operation("f", 1, 2, (0, 0))])
    point = core.FiniteAlgebra("B", 1, [core.Operation("f", 1, 1, (0,))])
    h, k = core.Homomorphism(identity, point, (0, 0)), core.Homomorphism(constant, point, (0, 0))
    assert h != k and len({h, k}) == 2
    assert core.Homomorphism(identity, identity, (0, 1)) != core.Homomorphism(constant, constant, (0, 1))
    # the same tables under another name give an equal hom
    renamed = core.FiniteAlgebra("C", 2, [core.Operation("f", 1, 2, (0, 1))])
    same = core.Homomorphism(renamed, point, (0, 0))
    assert h == same and hash(h) == hash(same)


# ---------------------------------------------------------------------------
# compatible relations
# ---------------------------------------------------------------------------


def test_diagonal_always_compatible(z2):
    assert core.is_compatible_relation(z2, core.diagonal_relation(2, 2))


def test_compatibility_against_exhaustive_oracle(z2, z4):
    def oracle(A, R):
        return all(
            tuple(o(*(row[c] for row in combo)) for c in range(R.arity)) in R
            for o in A.ops
            for combo in itertools.product(R.tuples, repeat=o.arity)
        )

    # the subgroup {0} x Z2 is compatible
    r = core.Relation(2, 2, [(0, 0), (0, 1)])
    assert oracle(z2, r) and core.is_compatible_relation(z2, r)
    # a diagonal coset misses (0,0), hence is not a subuniverse
    r2 = core.Relation(2, 4, [(x, (x + 2) % 4) for x in range(4)])
    assert not oracle(z4, r2) and not core.is_compatible_relation(z4, r2)
    # not closed under addition
    r3 = core.Relation(2, 2, [(0, 0), (1, 0), (0, 1)])
    assert not oracle(z2, r3) and not core.is_compatible_relation(z2, r3)
    # graph of an automorphism is compatible
    r4 = core.Relation(2, 4, [(x, (3 * x) % 4) for x in range(4)])
    assert oracle(z4, r4) and core.is_compatible_relation(z4, r4)


def test_compatibility_mismatch_errors(z2, z4):
    with pytest.raises(ValueError):
        core.is_compatible_relation(z2, core.diagonal_relation(4, 2))
    with pytest.raises(ValueError):
        core.Relation(0, 2, [()])


def test_empty_relation_rejected():
    with pytest.raises(ValueError):
        core.Relation(2, 2, [])
    with pytest.raises(ValueError):
        core.Relation.from_codes([], 2, 2)


@given(st.integers(1, 4), st.integers(1, 3), st.data())
@settings(max_examples=60)
def test_relation_from_codes_matches_tuples(size, arity, data):
    codes = data.draw(st.lists(st.integers(0, size**arity - 1), min_size=1, max_size=12))
    tuples = [core.decode_code(c, [size] * arity) for c in codes]
    R = core.Relation.from_codes(np.array(codes), size, arity)
    assert R == core.Relation(arity, size, tuples)
    assert all(type(v) is int for t in R.tuples for v in t)
    assert len(R) == len(set(codes)) and list(R.codes()) == sorted(set(codes))


def test_relation_from_codes_rejects_codes_outside_the_universe():
    for bad in ([0, 9], [-1, 3], [27]):
        with pytest.raises(ValueError, match="outside universe"):
            core.Relation.from_codes(bad, 3, 2)
    with pytest.raises(ValueError):
        core.Relation.from_codes([0], 3, 0)


# ---------------------------------------------------------------------------
# congruences and quotients
# ---------------------------------------------------------------------------


def test_congruence_canonical_ids():
    c = core.Congruence(4, (7, 3, 7, 3))
    assert c.class_of == (0, 1, 0, 1)
    assert c.classes() == ((0, 2), (1, 3))


def test_con_lattice_matches_partition_filter(z4, z6, v4, s3, semilattice):
    for A in (z4, z6, v4, s3, semilattice):
        assert set(core.con_lattice(A)) == brute_force_congruences(A)


def test_quotient_examples(z4):
    mod2 = core.Congruence.from_classes(4, [[0, 2], [1, 3]])
    Q, proj = core.quotient_algebra(z4, mod2)
    assert Q.size == 2
    assert proj.mapping == (0, 1, 0, 1)
    assert Q.op("add").table == (0, 1, 1, 0)
    # identity congruence: bijective projection
    Q2, proj2 = core.quotient_algebra(z4, core.Congruence.identity(4))
    assert Q2.size == 4 and sorted(proj2.mapping) == [0, 1, 2, 3]
    # full congruence: one-element algebra
    Q3, _ = core.quotient_algebra(z4, core.Congruence.full(4))
    assert Q3.size == 1


def test_quotient_projection_kernel(z6):
    mod3 = core.congruence_generated_by(z6, [(0, 3)])
    Q, proj = core.quotient_algebra(z6, mod3)
    assert np.unique(proj.np_mapping).size == Q.size  # onto
    assert core.Congruence(z6.size, proj.mapping) == mod3  # its kernel


def test_non_congruence_rejected(z4):
    bad = core.Congruence.from_classes(4, [[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        core.verify_congruence(z4, bad)


def test_principal_congruences(z4):
    assert core.principal_congruence(z4, 0, 2).classes() == ((0, 2), (1, 3))
    assert core.principal_congruence(z4, 0, 1).num_classes == 1
