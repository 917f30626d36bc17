import ast
import functools
import tracemalloc
from math import comb, gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adual import affine, core, duality as du, textio, zoo
from adual.subcong import SubalgebraWitness
from test_subcong import affine_algebras


# ---------------------------------------------------------------------------
# The brute-force method: every index tuple and every candidate map, listed
# as a grid.  It is the oracle for the prefix joins in `duality` and for the
# complete-mode interpolation.
# ---------------------------------------------------------------------------


@functools.cache
def relation_codes(rel, size):
    """The sorted codes of a relation's tuples, first coordinate most significant.

    Cached, since every subalgebra checks the same alter ego; callers only read it.
    """
    weights = size ** np.arange(rel.arity - 1, -1, -1, dtype=np.int64)
    return np.sort(np.array(rel.tuples, dtype=np.int64).reshape(len(rel), rel.arity) @ weights)


def brute_dual_of(B, ego, budget=core.DEFAULT_BUDGET):
    B_alg = B.as_algebra()
    homs = tuple(core.enumerate_homs(B_alg, ego.base, budget))
    h = len(homs)
    size = ego.base.size
    values = np.array([hom.mapping for hom in homs], dtype=np.int64)  # (h, |B|)
    lifted = []
    grids = {}  # per arity: every index tuple, and its codes at every point of B
    for rel in ego.relations:
        r = rel.arity
        if h**r > budget:
            raise core.BudgetExceededError(h**r, budget, hint="lifted relation tuples")
        if r not in grids:
            mesh = np.meshgrid(*([np.arange(h)] * r), indexing="ij")
            tuples_idx = np.stack([g.ravel() for g in mesh], axis=1)  # (h**r, r)
            codes = np.zeros((len(tuples_idx), values.shape[1]), dtype=np.int64)
            for i in range(r):
                codes = codes * size + values[tuples_idx[:, i]]
            grids[r] = tuples_idx, codes
        tuples_idx, codes = grids[r]
        rel_codes = relation_codes(rel, size)
        pos = np.minimum(np.searchsorted(rel_codes, codes), rel_codes.size - 1)
        lifted.append(tuples_idx[(rel_codes[pos] == codes).all(axis=1)])
    return du.DualStructure(B_alg, homs, ego, tuple(lifted))


def brute_double_dual(D, budget=core.DEFAULT_BUDGET):
    h = len(D.homs)
    size = D.ego.base.size
    count = size**h
    if count > budget:
        raise core.BudgetExceededError(count, budget, hint="double dual candidate maps")
    grids = np.meshgrid(*([np.arange(size)] * h), indexing="ij")
    candidates = np.stack([g.ravel() for g in grids], axis=1)  # (count, h) lexicographic
    alive = np.ones(count, dtype=bool)
    order = sorted(range(len(D.lifted)), key=lambda i: len(D.lifted[i]))
    for i in order:
        tuples_idx = D.lifted[i]
        if len(tuples_idx) == 0 or not alive.any():
            continue
        rel = D.ego.relations[i]
        r = rel.arity
        rel_codes = relation_codes(rel, size)
        live = np.flatnonzero(alive)
        phi = candidates[live]
        keep = np.ones(live.size, dtype=bool)
        chunk = max(1, 2_000_000 // max(1, live.size))
        for start in range(0, len(tuples_idx), chunk):
            block = tuples_idx[start : start + chunk]
            codes = np.zeros((live.size, len(block)), dtype=np.int64)
            for j in range(r):
                codes = codes * size + phi[:, block[:, j]]
            pos = np.searchsorted(rel_codes, codes)
            pos[pos >= rel_codes.size] = rel_codes.size - 1
            keep &= (rel_codes[pos] == codes).all(axis=1)
            if not keep.any():
                break
        alive[live[~keep]] = False
    return [tuple(int(v) for v in candidates[i]) for i in np.flatnonzero(alive)]


def assert_matches_brute_force(B, ego):
    fast = du.dual_of(B, ego)
    slow = brute_dual_of(B, ego)
    assert fast.homs == slow.homs
    assert len(fast.lifted) == len(slow.lifted) == len(ego.relations)
    for a, b in zip(fast.lifted, slow.lifted):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert du.double_dual(fast) == brute_double_dual(slow)
    return fast


def listed_ego(A, N):
    """The complete alter ego with its relations listed: Sub(A^N), enumerated.

    `build_alter_ego` only counts them, so the oracles that read relations
    use this one.
    """
    return du.AlterEgo(A, tuple(core.enumerate_subuniverses(core.power_algebra(A, N))), N)


def counted_twin(listed):
    """The same alter ego counted, not listed: decided by interpolation, not lifted."""
    return du.AlterEgo(listed.base, (), listed.arity, count=len(listed.relations))


def every_subalgebra(A, k_max):
    for k in range(1, k_max + 1):
        P = A if k == 1 else core.power_algebra(A, k)
        for carrier in core.subuniverse_carriers(P):
            yield SubalgebraWitness(P, carrier)


@pytest.mark.parametrize("n, k_max", [(2, 3), (3, 2)])
def test_prefix_join_matches_brute_force_on_every_subalgebra(n, k_max):
    A = zoo.cyclic_group(n)
    ego = listed_ego(A, 4)
    for B in every_subalgebra(A, k_max):
        assert_matches_brute_force(B, ego)


def test_prefix_join_matches_brute_force_on_diagonal_only_ego(z2):
    ego = du.build_alter_ego(z2, 4, relations=[core.diagonal_relation(2, 4)])
    for B in every_subalgebra(z2, 2):
        assert_matches_brute_force(B, ego)
    report = du.evaluate_subalgebra(SubalgebraWitness(z2, (0, 1)), ego, 1)
    assert report.missing == ((1, 0), (1, 1))


def test_prefix_join_with_an_empty_lifted_relation():
    # f = (0 1)(2 3 4): no hom from the 2-cycle {0,1} lands in the 3-cycle,
    # so the unary relation {2,3,4} lifts to nothing on B = {0,1}
    U = core.FiniteAlgebra("u5", 5, [core.Operation("f", 1, 5, [1, 0, 3, 4, 2])])
    rels = [core.Relation(1, 5, [(x,) for x in c]) for c in ((0, 1), (2, 3, 4), range(5))]
    ego = du.build_alter_ego(U, 1, relations=rels)
    D = assert_matches_brute_force(SubalgebraWitness(U, (0, 1)), ego)
    assert [len(t) for t in D.lifted] == [2, 0, 2]
    assert du.double_dual(D) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_prefix_join_on_one_element_subalgebra(z3):
    ego = listed_ego(z3, 4)
    D = assert_matches_brute_force(SubalgebraWitness(core.power_algebra(z3, 2), (0,)), ego)
    assert [t.tolist() for t in D.lifted[:1]] == [[[0, 0, 0, 0]]]


def test_prefix_join_with_no_relations(z2):
    ego = du.AlterEgo(z2, (), 4)
    D = assert_matches_brute_force(SubalgebraWitness(core.power_algebra(z2, 2), (0, 1, 2, 3)), ego)
    assert len(du.double_dual(D)) == 2**4


_Z2_EGO = listed_ego(zoo.cyclic_group(2), 4)
_Z2_SUBALGEBRAS = list(every_subalgebra(zoo.cyclic_group(2), 3))


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(
    picks=st.sets(st.integers(0, len(_Z2_EGO.relations) - 1), max_size=6),
    which=st.integers(0, len(_Z2_SUBALGEBRAS) - 1),
)
def test_prefix_join_matches_brute_force_on_random_relation_subsets(picks, which):
    relations = [_Z2_EGO.relations[i] for i in sorted(picks)]
    ego = du.build_alter_ego(_Z2_EGO.base, 4, relations=relations)
    assert_matches_brute_force(_Z2_SUBALGEBRAS[which], ego)


def _needs(B, ego):
    """The largest grid the brute-force method lists on B."""
    h = len(core.enumerate_homs(B.as_algebra(), ego.base))
    return max(h**ego.arity, ego.base.size**h, len(B.carrier) * ego.base.size)


def test_budget_never_refuses_what_brute_force_finishes(z2, z3):
    for A, k_max in ((z2, 3), (z3, 2)):
        ego = listed_ego(A, 4)
        for B in every_subalgebra(A, k_max):
            budget = _needs(B, ego)
            slow = brute_double_dual(brute_dual_of(B, ego, budget), budget)
            assert du.double_dual(du.dual_of(B, ego, budget), budget) == slow
            assert du.double_dual(du.dual_of(B, counted_twin(ego), budget), budget) == slow


def test_budget_refuses_before_allocating(z3):
    B = SubalgebraWitness(core.power_algebra(z3, 3), tuple(range(27)))
    full = du.AlterEgo(z3, (core.full_relation(3, 4),), 4)  # lifts to all 27**4 tuples
    free = du.AlterEgo(z3, (), 4)  # every map Hom(B, A) -> A survives
    D = du.dual_of(B, free)
    for call, count, width in (
        (lambda budget: du.dual_of(B, full, budget), 27**4, 4),
        (lambda budget: du.double_dual(D, budget), 3**11, 11),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(core.BudgetExceededError) as info:
                call(count - 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.count == count
        assert peak < count * width * 8  # the refused rows were never built
    assert len(du.dual_of(B, full, 27**4).lifted[0]) == 27**4


# ---------------------------------------------------------------------------
# Complete mode decides the double dual by N-local interpolation; every
# lifted tuple of every compatible N-ary relation is the oracle.
# ---------------------------------------------------------------------------

ALGEBRAS = {
    "z2": zoo.cyclic_group(2),
    "z3": zoo.cyclic_group(3),
    "z4": zoo.cyclic_group(4),
    "meet2": zoo.two_element_semilattice(),
    "s3": zoo.symmetric_group_3(),
}


def lifted_double_dual(slow, budget=core.DEFAULT_BUDGET):
    """The double dual of `brute_dual_of`'s structure: every lifted tuple checked.

    The candidate maps are listed when they fit the budget.  Otherwise the
    brute-force lifts go through the lifted-tuple path of `double_dual`,
    which the tests above check against that listing.
    """
    if slow.ego.base.size ** len(slow.homs) <= budget:
        return brute_double_dual(slow, budget)
    return du.double_dual(slow, budget)


def outcome(call):
    """The result of `call`, or the count of the budget refusal it raised."""
    try:
        return call()
    except core.BudgetExceededError as e:
        return ("refused", e.count)


def assert_interpolation_matches(B, ego):
    """The complete-mode double dual of B against the brute-force lifts; returns it."""
    slow = brute_dual_of(B, ego)
    D = du.dual_of(B, counted_twin(ego))  # no lifts: interpolation
    assert D.homs == slow.homs and D.lifted == ()
    fast = outcome(lambda: du.double_dual(D))
    assert fast == outcome(lambda: lifted_double_dual(slow)), B.carrier
    return fast


@pytest.mark.parametrize(
    "name, k_max, N",
    [
        ("z2", 3, 4),
        ("z3", 2, 4),
        ("meet2", 2, 4),
        ("meet2", 3, 1),
        ("meet2", 3, 2),
        ("s3", 2, 1),
        ("s3", 2, 2),
        ("z4", 2, 1),
        ("z4", 2, 2),
    ],
)
def test_interpolation_matches_lifted_relations_on_every_subalgebra(name, k_max, N):
    A = ALGEBRAS[name]
    ego = listed_ego(A, N)
    unhit = 0
    for B in every_subalgebra(A, k_max):
        fast = assert_interpolation_matches(B, ego)
        unhit += isinstance(fast, list) and len(fast) > len(B.carrier)
    # a forced small N leaves maps that no element of B evaluates to
    assert (unhit > 0) == (N < 4)


def test_interpolation_with_fewer_homs_than_n(z2, z3):
    # with h = |Hom(B, A)| < N the one set of all h homs pins phi to e(B)
    for A in (z2, z3):
        ego = listed_ego(A, 4)
        for B in (
            SubalgebraWitness(A, (0,)),
            SubalgebraWitness(A, tuple(range(A.size))),
            SubalgebraWitness(core.power_algebra(A, 2), (0,)),
        ):
            D = du.dual_of(B, counted_twin(ego))
            assert len(D.homs) < 4 and D.lifted == ()
            images = sorted(tuple(column) for column in D.values.T.tolist())
            assert du.double_dual(D) == assert_interpolation_matches(B, ego) == images


def test_informative_pair_z2_power_four(z2):
    # k = N: the first pair where the double dual could exceed e(B)
    reports = du.verify_duality(z2, k_max=4)
    assert du.arity_bound(z2) == 4 and len(reports) == 90
    assert all(r.bijective and r.double_dual_size == r.b_size for r in reports)


def test_refused_interpolation_step_allocates_nothing(z3):
    B = SubalgebraWitness(core.power_algebra(z3, 3), tuple(range(27)))
    D = du.dual_of(B, du.build_alter_ego(z3, 4))
    j = 20
    count = comb(j, 3) * 27  # the projection codes of step j: 30,780
    with pytest.raises(core.BudgetExceededError) as info:
        du.double_dual(D, count - 1)
    assert info.value.count == count and "projection codes" in str(info.value)
    D.values  # the hom value table exists before any step
    for budget in (count - 1, count):
        step = du._interpolation_constraints(D, budget)
        tracemalloc.start()
        try:
            if budget < count:
                with pytest.raises(core.BudgetExceededError):
                    step(j)
            else:
                step(j)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if budget < count:
            assert peak < count  # under a byte per refused code
        else:
            assert peak >= count * 8  # the admitted step holds its codes


_UNDER_OPTIMIZE = """
import sys
from adual import core, duality as du, zoo
from adual.subcong import SubalgebraWitness

if __debug__ or not sys.flags.optimize:
    sys.exit("not running under -O")
mode, corruption = sys.argv[1:]
honest_double_dual, honest_homs, honest_dual_of = du.double_dual, du.enumerate_homs, du.dual_of
lifts = []
def dual_of(B, ego, budget):
    D = honest_dual_of(B, ego, budget)
    lifts.append(sum(len(t) for t in D.lifted))
    return D
du.dual_of = dual_of
if corruption == "escaped":  # drop the image of 0 from the double dual
    du.double_dual = lambda D, budget: honest_double_dual(D, budget)[1:]
else:  # keep only the zero hom, so both points of B evaluate alike
    du.enumerate_homs = lambda B, A, budget: honest_homs(B, A, budget)[:1]
z2 = zoo.cyclic_group(2)
ego = du.build_alter_ego(z2, 4)
if mode == "partial":
    ego = du.build_alter_ego(z2, 4, relations=core.enumerate_subuniverses(core.power_algebra(z2, 4)))
    if len(ego.relations) != 67:
        sys.exit("partial mode lists the wrong relations")
try:
    du.evaluate_subalgebra(SubalgebraWitness(z2, (0, 1)), ego, 1)
except core.VerificationError as e:
    print("VerificationError:", e)
print("lifted", len(lifts), sum(lifts))
"""


@pytest.mark.parametrize(
    "corruption, mode",
    [
        pytest.param(corruption, mode, id=corruption + ("" if mode == "complete" else "-" + mode))
        for corruption in ("escaped", "not injective")
        for mode in ("complete", "partial")
    ],
)
def test_evaluation_checks_run_under_optimize(under_optimize, corruption, mode):
    out = under_optimize(_UNDER_OPTIMIZE, mode, corruption)
    error, lifted = out.splitlines()
    assert error.startswith("VerificationError:") and corruption in error, out
    # the corruptions sit in the hom list and the engine that both modes share;
    # both modes take one dual, and only the listed relations lift any tuple
    label, calls, tuples = lifted.split()
    assert (label, calls) == ("lifted", "1") and (int(tuples) > 0) == (mode == "partial"), out


def test_arity_bound_values(z2, z4):
    assert du.arity_bound(z2) == 4
    assert du.arity_bound(z4) == 9
    assert du.arity_bound(zoo.cyclic_group(12)) == 9
    assert du.arity_bound(zoo.cyclic_group(3)) == 4
    one = core.FiniteAlgebra("one", 1, [core.Operation("c", 0, 1, [0])])
    assert du.arity_bound(one) == 4


def test_alter_ego_counts(z2, z3):
    for A, N, count in ((z2, 4, 67), (z3, 4, 212), (z2, 1, 2)):
        ego = du.build_alter_ego(A, N)
        assert ego.complete and ego.relations == () and ego.count == count
        assert len(core.enumerate_subuniverses(core.power_algebra(A, N))) == count


def test_alter_ego_relations_all_compatible(z2):
    relations = core.enumerate_subuniverses(core.power_algebra(z2, 4))
    assert len(relations) == 67
    assert all(core.is_compatible_relation(z2, r) for r in relations)


def test_alter_ego_checks_compatibility_within_the_callers_budget(z2):
    full = core.full_relation(2, 10)  # its pairs under add: 1024**2 > 10**6
    with pytest.raises(core.BudgetExceededError):
        du.AlterEgo(z2, (full,), 10)
    with pytest.raises(core.BudgetExceededError):
        du.build_alter_ego(z2, 10, relations=[full])
    assert du.AlterEgo(z2, (full,), 10, budget=2_000_000).relations == (full,)
    assert du.build_alter_ego(z2, 10, budget=2_000_000, relations=[full]).relations == (full,)


def test_partial_mode(z2):
    diag = core.diagonal_relation(2, 4)
    ego = du.build_alter_ego(z2, 4, relations=[diag])
    assert not ego.complete
    with pytest.raises(ValueError):
        du.build_alter_ego(z2, 4, relations=[core.diagonal_relation(2, 3)])


def test_incompatible_alter_ego_relation_rejected(z2):
    bad = core.Relation(4, 2, [(0, 0, 0, 1)])
    with pytest.raises(ValueError):
        du.AlterEgo(z2, (bad,), 4)


def test_dual_of_whole_algebra(z2):
    ego = listed_ego(z2, 4)
    D = du.dual_of(SubalgebraWitness(z2, (0, 1)), ego)
    assert sorted(h.mapping for h in D.homs) == [(0, 0), (0, 1)]
    assert len(du.double_dual(D)) == 2


def test_dual_of_singleton(z2):
    ego = listed_ego(z2, 4)
    D = du.dual_of(SubalgebraWitness(z2, (0,)), ego)
    assert len(D.homs) == 1
    assert len(du.double_dual(D)) == 1


def test_dual_of_square(z2):
    ego = listed_ego(z2, 4)
    P = core.power_algebra(z2, 2)
    D = du.dual_of(SubalgebraWitness(P, tuple(range(4))), ego)
    # the four linear functionals
    assert len(D.homs) == 4
    assert len(du.double_dual(D)) == 4


def test_verify_duality_z2(z2):
    reports = du.verify_duality(z2, k_max=2)
    assert len(reports) == 2 + 5
    assert all(r.bijective for r in reports)
    assert all(r.double_dual_size == r.b_size for r in reports)


def test_verify_duality_z3(z3):
    reports = du.verify_duality(z3, k_max=2)
    assert all(r.bijective for r in reports)


def test_negative_control_diagonal_only(z2):
    ego = du.build_alter_ego(z2, 4, relations=[core.diagonal_relation(2, 4)])
    reports = du.verify_duality(z2, k_max=1, ego=ego)
    failing = [r for r in reports if not r.bijective]
    assert failing
    assert failing[0].missing  # a concrete unhit map is reported


def test_adding_relations_never_grows_double_dual(z2):
    full_ego = listed_ego(z2, 4)
    small_ego = du.build_alter_ego(z2, 4, relations=[core.diagonal_relation(2, 4)])
    B = SubalgebraWitness(z2, (0, 1))
    small = len(du.double_dual(du.dual_of(B, small_ego)))
    big = len(du.double_dual(du.dual_of(B, full_ego)))
    assert big <= small


def test_one_element_subalgebra_has_singleton_double_dual(z3):
    ego = listed_ego(z3, 4)
    P = core.power_algebra(z3, 2)
    D = du.dual_of(SubalgebraWitness(P, (0,)), ego)
    assert len(du.double_dual(D)) == 1


def test_consistency_with_entailment(z2, terms):
    # when every compatible relation on the checked powers is certified from
    # the alter-ego relations plus the affine operation, the duality check
    # must pass on those powers
    from adual import entailment as ent

    ego = listed_ego(z2, 4)
    pool = set(ego.relations)
    all_certified = True
    for k in (1, 2):
        P = core.power_algebra(z2, k)
        for R in core.enumerate_subuniverses(P):
            res = ent.reduce_to_bounded_arity(z2, terms["z2"], R, 3)
            all_certified = all_certified and all(
                b in pool for b in res.bounded_premises
            )
    assert all_certified
    reports = du.verify_duality(z2, k_max=2, ego=ego)
    assert all(r.bijective for r in reports)


def test_evaluation_map_injective_everywhere(z3):
    ego = listed_ego(z3, 4)
    for k in (1, 2):
        P = core.power_algebra(z3, k)
        for carrier in core.subuniverse_carriers(P):
            D = du.dual_of(SubalgebraWitness(P, carrier), ego)
            images = set()
            for x in range(D.algebra.size):
                images.add(tuple(h(x) for h in D.homs))
            assert len(images) == len(carrier)


# ---------------------------------------------------------------------------
# The complete alter ego is counted, by the subgroup formula where it
# applies; FCbO on the power algebra is the oracle.
# ---------------------------------------------------------------------------


def _from_data(name):
    text = (Path(__file__).resolve().parents[1] / "data" / f"{name}.alg").read_text()
    return next(iter(textio.parse_document(text).algebras.values()))


def _z4_with_triple():
    # t and x -> 3x: g = gcd(4, s_t - 1, 3 - 1) = gcd(4, 0, 2) = 2
    z4 = zoo.cyclic_group(4)
    t = core.Operation("t", 3, 4, affine.find_affine_term(z4).table)
    return core.FiniteAlgebra("z4t3", 4, [t, core.Operation("triple", 1, 4, [0, 3, 2, 1])])


def _v4_with_rotation():
    # the automorphism (1 2 3) of V4 is no integer multiple: the coefficient check fails
    v4 = zoo.klein_group()
    return core.FiniteAlgebra("v4rot", 4, [*v4.ops, core.Operation("rot", 1, 4, [0, 2, 3, 1])])


def enumerated_count(A, N):
    return len(core.subuniverse_carriers(core.power_algebra(A, N)))


@pytest.mark.parametrize(
    "A, powers, cosets",
    [
        (zoo.cyclic_group(2), (1, 2, 3, 4), False),
        (zoo.cyclic_group(3), (1, 2, 3, 4), False),
        (zoo.cyclic_group(4), (1, 2, 3), False),
        (zoo.klein_group(), (1, 2), False),
        (zoo.cyclic_group(6), (1, 2), False),
        (_from_data("z4aff"), (1, 2), True),
    ],
    ids=["z2", "z3", "z4", "v4", "z6", "z4aff"],
)
def test_subgroup_formula_matches_fcbo(A, powers, cosets, monkeypatch):
    G, flag = du.subgroup_formula(A)
    assert G.size == A.size and flag == cosets
    expected = {N: enumerated_count(A, N) for N in powers}

    def refuse(*args, **kwargs):
        raise AssertionError("the formula enumerated a power")

    monkeypatch.setattr(du, "power_algebra", refuse)
    monkeypatch.setattr(du, "subuniverse_carriers", refuse)
    assert {N: du.relation_count(A, N, (G, flag)) for N in powers} == expected
    assert {N: du.build_alter_ego(A, N).count for N in powers} == expected


@pytest.mark.parametrize(
    "A, powers, found",
    [
        (zoo.two_element_semilattice(), (1, 2, 3, 4), None),
        (zoo.symmetric_group_3(), (1, 2), None),
        (_z4_with_triple(), (1, 2, 3), 2),
        (_v4_with_rotation(), (1, 2), None),
    ],
    ids=["meet2", "s3", "z4-triple", "v4-rotation"],
)
def test_relation_count_falls_back_to_enumeration(A, powers, found, monkeypatch):
    structure = du.affine_gcd(A)
    assert (None if structure is None else structure[1]) == found
    assert du.subgroup_formula(A) is None
    calls = []
    monkeypatch.setattr(du, "subuniverse_carriers", lambda *a: calls.append(a) or core.subuniverse_carriers(*a))
    for N in powers:
        assert du.relation_count(A, N, du.subgroup_formula(A)) == enumerated_count(A, N)
    assert len(calls) == len(powers)


def _z4_bent():
    # f(0, y) = 3y and f(x, 0) = 3x, so both unary parts pass, but f(1, 1) = 1 is not 3 + 3
    z4 = zoo.cyclic_group(4)
    f = core.Operation("f", 2, 4, [3 * (x + y) % 4 if 0 in (x, y) else 1 for x in range(4) for y in range(4)])
    return core.FiniteAlgebra("z4f", 4, [*z4.ops, f])


def _z4_with_one():
    z4 = zoo.cyclic_group(4)
    return core.FiniteAlgebra("z4c", 4, [*z4.ops, core.Operation("one", 0, 4, [1])])


def test_affine_gcd_checks_every_cell(z4, monkeypatch):
    bent = _z4_bent()
    assert affine.find_affine_term(bent) is None
    # only a wrong term search could pass such an f on: the table check still stops it
    monkeypatch.setattr(du, "find_affine_term", lambda A, budget: affine.find_affine_term(z4))
    assert du.affine_gcd(z4)[1] == 1
    assert du.affine_gcd(bent) is None
    monkeypatch.undo()
    two = _z4_with_one()
    assert du.affine_gcd(two) is None  # constants 0 and 1
    assert du.relation_count(two, 2, du.subgroup_formula(two)) == enumerated_count(two, 2)


def oracle_affine_gcd(A, budget=core.DEFAULT_BUDGET):
    """Oracle for `affine_gcd` that does not read `operation_parts`.

    It builds the group of neutral e, reads each m_i off the unary slice
    f(e, .., x, .., e) and checks the combination over the whole table.
    """
    try:
        t = du.find_affine_term(A, budget)
    except core.BudgetExceededError:
        return None
    constants = set(A.constants())
    if t is None or len(constants) > 1:
        return None
    e = constants.pop() if constants else 0
    G = affine.group_from_affine(t, e)
    n, multiples = A.size, G.multiples
    add = G.np_add_table.reshape(n, n)
    g = G.exponent
    for f in A.ops:
        table = f.np_table.reshape((n,) * f.arity)
        combination = np.int64(e)
        coefficients = 0
        for i in range(f.arity):
            unary = table[(e,) * i + (slice(None),) + (e,) * (f.arity - i - 1)]
            m = np.flatnonzero((multiples == unary).all(axis=1))
            if not m.size:
                return None
            coefficients += int(m[0])
            axis = [1] * f.arity
            axis[i] = n
            combination = add[combination, multiples[m[0]].reshape(axis)]
        if not (combination == table).all():
            return None
        g = gcd(g, coefficients - 1)
    return G, g


def assert_affine_gcd_matches_the_oracle(A):
    summary = lambda found: found and (found[0].size, found[0].exponent, found[1])
    assert summary(du.affine_gcd(A)) == summary(oracle_affine_gcd(A)), A


@pytest.mark.parametrize(
    "make", [_v4_with_rotation, _z4_with_triple, _z4_bent, _z4_with_one], ids=["v4-rotation", "z4-triple", "z4f", "z4c"]
)
def test_affine_gcd_matches_the_oracle_on_the_fixed_algebras(make, monkeypatch):
    A = make()
    assert_affine_gcd_matches_the_oracle(A)
    if A.name == "z4f":  # a term search that passed f on is still stopped by the table check
        monkeypatch.setattr(du, "find_affine_term", lambda B, budget: affine.find_affine_term(zoo.cyclic_group(4)))
        assert du.affine_gcd(A) is None and oracle_affine_gcd(A) is None


@settings(max_examples=80)
@given(affine_algebras())
def test_affine_gcd_matches_the_oracle_on_affine_and_random_operations(A):
    assert_affine_gcd_matches_the_oracle(A)


def test_an_ego_listing_part_of_its_count_is_refused(z2):
    relations = listed_ego(z2, 4).relations
    for k in (1, 2, 66):
        with pytest.raises(ValueError, match=f"lists {k} of its 67 relations"):
            du.AlterEgo(z2, relations[:k], 4, count=67)
    with pytest.raises(ValueError, match="lists 2 of its 1 relations"):
        du.AlterEgo(z2, relations[:2], 4, count=1)


def test_dual_of_a_counted_ego_lifts_nothing(z2):
    ego = du.build_alter_ego(z2, 4)
    D = du.dual_of(SubalgebraWitness(z2, (0, 1)), ego)
    assert ego.complete and D.lifted == ()
    assert du.double_dual(D) == [(0, 0), (0, 1)]


def test_a_directly_built_subset_ego_is_lifted(z2):
    # the diagonal alone, listed, is the same partial ego however it is built
    diagonal = core.diagonal_relation(2, 4)
    direct = du.verify_duality(z2, 1, ego=du.AlterEgo(z2, (diagonal,), 4))
    built = du.verify_duality(z2, 1, ego=du.build_alter_ego(z2, 4, relations=[diagonal]))
    assert direct == built
    assert [r.missing for r in direct] == [((1,),), ((1, 0), (1, 1))]
    assert not any(r.bijective for r in direct)


def test_verify_duality_refuses_k_max_below_one(z2):
    for k_max in (0, -3):
        with pytest.raises(ValueError, match=f"k_max must be >= 1, got {k_max}"):
            du.verify_duality(z2, k_max)


# ---------------------------------------------------------------------------
# `verify_duality` decides each B once up to isomorphism; sending every B
# through `evaluate_subalgebra` is the oracle.
# ---------------------------------------------------------------------------


def every_report(A, k_max, ego):
    """The report of every B <= A^k, k <= k_max, each evaluated directly."""
    return [
        du.evaluate_subalgebra(SubalgebraWitness(P, carrier), ego, k)
        for k in range(1, k_max + 1)
        for P in [core.power_algebra(A, k)]
        for carrier in core.subuniverse_carriers(P)
    ]


def deletion_image(carrier, size, k):
    """The image of the carrier under the first coordinate deletion injective on it, or None."""
    if k == 1:
        return None
    rows = []
    for code in carrier:
        digits = []
        for _ in range(k):
            code, digit = divmod(code, size)
            digits.insert(0, digit)
        rows.append(digits)
    for i in range(k):
        image = {sum(d * size**e for e, d in enumerate(reversed(r[:i] + r[i + 1 :]))) for r in rows}
        if len(image) == len(rows):
            return tuple(sorted(image))
    return None


def _ego(A, arity):
    """The complete ego of `arity` (None: the default), or the diagonal-only partial ego."""
    if arity == "diagonal":
        return du.build_alter_ego(A, 4, relations=[core.diagonal_relation(A.size, 4)])
    return du.build_alter_ego(A, du.arity_bound(A) if arity is None else arity)


@pytest.mark.parametrize(
    "name, arity, k_max, derived, failing_images",
    [
        ("z2", None, 4, 85, 0),
        ("z3", None, 2, 5, 0),
        ("z4", None, 2, 10, 0),
        ("v4", None, 1, 0, 0),
        ("z6", None, 2, 18, 0),
        ("meet2", None, 3, 75, 0),
        ("z4aff", 2, 2, 64, 0),
        ("s3", 2, 2, 34, 0),
        ("meet2", 2, 3, 63, 12),
        ("z6", 2, 2, 18, 0),
        ("z4", 2, 2, 10, 0),
        ("z2", 2, 3, 12, 7),
        ("z2", "diagonal", 2, 0, 4),
    ],
)
def test_reports_match_evaluating_every_subalgebra(name, arity, k_max, derived, failing_images, count_calls):
    A = ALGEBRAS[name] if name in ALGEBRAS else _from_data(name)
    ego = _ego(A, arity)
    expected = every_report(A, k_max, ego)
    calls = count_calls(du.evaluate_subalgebra)
    got = du.verify_duality(A, k_max, ego=ego)
    assert [r.lines() for r in got] == [r.lines() for r in expected]
    # the report of each B's image one power down, for the B with an injective deletion
    by_carrier = {(r.power, r.carrier): r for r in expected}
    images = {}
    for r in expected:
        image = deletion_image(r.carrier, A.size, r.power)
        if image is not None:
            images[r.power, r.carrier] = by_carrier[r.power - 1, image]
    # B is evaluated directly exactly when it has no such image or its image failed
    direct = [(k, B.carrier) for B, _, k, *_ in calls]
    assert direct == [key for key in by_carrier if key not in images or not images[key].bijective]
    assert len(expected) - len(direct) == derived
    # the redundant B whose image failed, each checked directly
    assert sum(not image.bijective for image in images.values()) == failing_images


_EMPTY_LOOKUP = """
import sys
from adual import core, duality as du, zoo

if __debug__ or not sys.flags.optimize:
    sys.exit("not running under -O")
honest = du.subuniverse_carriers
# level 1 lists no carrier, so level 2 finds none of its images there
du.subuniverse_carriers = lambda P, budget: [] if P.size == 2 else honest(P, budget)
try:
    du.verify_duality(zoo.cyclic_group(2), 2)
except core.VerificationError as e:
    print("VerificationError:", e)
"""


def test_an_image_missing_from_the_level_below_is_refused_under_optimize(under_optimize):
    out = under_optimize(_EMPTY_LOOKUP)
    assert out == "VerificationError: the image [0] of carrier [0] is no subuniverse of A^1\n", out


# ---------------------------------------------------------------------------
# The lower-arity FAILs, pinned exactly, with one extra map checked apart from
# `duality`: against every binary compatible relation lifted over Hom(B, A)
# ---------------------------------------------------------------------------

DATA = Path(__file__).resolve().parents[1] / "data"


def failing_reports(name, capsys):
    """Exit code and the (carrier, extra maps) of each NOT surjective B of
    `adual duality NAME --arity 2 --max-power 2`, read off its stdout."""
    from adual import cli

    code = cli.main(["duality", str(DATA / f"{name}.alg"), "--arity", "2", "--max-power", "2"])
    failing = []
    for block in capsys.readouterr().out.split("\n\n"):  # one block per B
        if "evaluation map: NOT surjective" in block:
            carrier = block.split("carrier [")[1].split("]")[0]
            maps = [
                ast.literal_eval(line.split("not hit: ")[1])
                for line in block.splitlines()
                if "extra double-dual map not hit: " in line
            ]
            failing.append((tuple(map(int, carrier.split(", "))), maps))
    return code, failing


def check_extra_map(A, carrier, phi):
    """phi preserves every binary compatible relation lifted over Hom(B, A) and is no evaluation."""
    P = core.power_algebra(A, 2)
    B = SubalgebraWitness(P, carrier).as_algebra()
    homs = core.hom_table(core.enumerate_homs(B, A), B.size)  # row i: the values of hom i on B
    phi = np.array(phi)
    assert phi.shape == (len(homs),)
    assert not (homs.T == phi).all(axis=1).any(), "phi is an evaluation"
    for R in core.enumerate_subuniverses(P):
        inside = np.zeros(A.size**2, dtype=bool)
        inside[R.codes()] = True
        # (h_i, h_j) lies in the lift of R iff (h_i(b), h_j(b)) is in R for every b of B
        lifted = inside[homs[:, None, :] * A.size + homs[None, :, :]].all(axis=2)
        assert inside[phi[:, None] * A.size + phi[None, :]][lifted].all(), f"phi breaks the lift of {R}"


@pytest.mark.parametrize(
    "name, failing_count, first_extra",
    [
        ("z2", 1, (0, 0, 0, 1)),
        ("z4", 5, (0, 0, 0, 2)),
        ("z6", 10, (0, 0, 0, 3)),
        ("meet2", 1, (0, 0, 1, 1, 1)),
        ("s3", 18, (0, 0, 0, 0, 0, 1, 0, 2, 0, 5)),
        ("z4aff", 11, (0, 0, 0, 2, 1, 1, 1, 3, 0, 2, 2, 2, 1, 3, 3, 3)),
    ],
)
def test_lower_arity_fails_are_pinned(name, failing_count, first_extra, capsys):
    code, failing = failing_reports(name, capsys)
    assert code == 1
    assert len(failing) == failing_count
    A = textio.parse_document((DATA / f"{name}.alg").read_text()).algebras[name]
    for carrier, maps in failing:
        assert maps, carrier
        for phi in maps:
            check_extra_map(A, carrier, phi)
    carrier, (phi, *_) = failing[0]
    assert phi == first_extra
    if any(o.arity == 0 for o in A.ops):  # every hom fixes the constant 0, which B holds
        with pytest.raises(AssertionError, match="is an evaluation"):
            check_extra_map(A, carrier, (0,) * len(phi))  # evaluation at the neutral element
    with pytest.raises(AssertionError, match="breaks the lift"):
        check_extra_map(A, carrier, (1,) + (0,) * (len(phi) - 1))  # moves only where hom 0 sits
