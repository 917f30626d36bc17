import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adual import affine, cli, core, entailment, subcong, textio, zoo

DATA = Path(__file__).resolve().parents[1] / "data"


def least_congruence_collapsing(A, carrier):
    """Oracle: scan the whole congruence lattice for the least one collapsing B."""
    best = None
    for cong in core.con_lattice(A):
        if all(cong.related(a, b) for a in carrier for b in carrier):
            if best is None or cong.refines(best):
                best = cong
    return best


def term_theta(t, carrier):
    """Oracle: {(x, y) : t(x, y, b) in X for every b in X}, for an affine term t and X = carrier.

    The term formula for theta_X, with no congruence generation.  The
    relation must be an equivalence relation: the kernel of x -> its first
    related element.
    """
    n = t.base_size
    member = np.isin(np.arange(n), carrier)
    related = member[t.np_table.reshape(n, n, n)[:, :, list(carrier)]].all(axis=2)
    first = related.argmax(axis=1)
    assert np.array_equal(related, first[:, None] == first[None, :])
    return core.Congruence(n, first)


def test_witness_validation(z4):
    with pytest.raises(ValueError):
        subcong.SubalgebraWitness(z4, (1, 3))  # not closed (misses 0)
    with pytest.raises(ValueError):
        subcong.SubalgebraWitness(z4, ())
    w = subcong.SubalgebraWitness(z4, (2, 0))
    assert w.carrier == (0, 2)


def test_theta_examples(z4, v4):
    th = subcong.theta_of_subalgebra(z4, subcong.SubalgebraWitness(z4, (0, 2)))
    assert th == core.Congruence.from_classes(4, [[0, 2], [1, 3]])
    full = subcong.theta_of_subalgebra(z4, subcong.SubalgebraWitness(z4, (0, 1, 2, 3)))
    assert full.num_classes == 1
    # {(0,0),(1,0)} in the Klein group: collapse by second coordinate
    thv = subcong.theta_of_subalgebra(v4, subcong.SubalgebraWitness(v4, (0, 2)))
    assert thv == core.Congruence.from_classes(4, [[0, 2], [1, 3]])


def test_theta_rejects_witness_of_another_algebra_under_the_same_name(z4, relabeled):
    # in Z4 with 0 and 1 swapped, {1} holds the zero and is closed; in Z4 it is not
    other = relabeled(z4, (1, 0, 2, 3))
    witness = subcong.SubalgebraWitness(other, (1,))
    with pytest.raises(ValueError, match="does not live"):
        subcong.theta_of_subalgebra(z4, witness)
    # the same tables under another name are the same algebra
    twin = core.FiniteAlgebra("twin", 4, z4.ops)
    theta = subcong.theta_of_subalgebra(z4, subcong.SubalgebraWitness(twin, (0,)))
    assert theta.is_identity()


def test_theta_equals_least_collapsing_congruence(z4, z6, v4):
    # the generated congruence agrees with a full lattice scan
    for A in (z4, z6, v4):
        for carrier in core.subuniverse_carriers(A):
            th = subcong.theta_of_subalgebra(A, subcong.SubalgebraWitness(A, carrier))
            assert th == least_congruence_collapsing(A, carrier)


def test_theta_independent_of_term_choice(z2, z3, v4):
    # there is a single affine element in these clones, so identity is forced;
    # the scan means no other clone element could yield a different theta
    for A in (z2, z3, v4):
        clone = affine.ternary_term_clone(A)
        good = [
            core.Operation("t", 3, A.size, tab)
            for tab in clone
            if affine.is_malcev(core.Operation("t", 3, A.size, tab))
            and affine.commutes_with_algebra(core.Operation("t", 3, A.size, tab), A)
        ]
        assert len(good) == 1
        for carrier in core.subuniverse_carriers(A):
            theta = subcong.theta_of_subalgebra(A, subcong.SubalgebraWitness(A, carrier))
            assert {term_theta(t, carrier) for t in good} == {theta}


def test_c_of_congruence_examples(z4):
    B = subcong.SubalgebraWitness(z4, (0, 2))
    mod2 = core.Congruence.from_classes(4, [[0, 2], [1, 3]])
    assert subcong.c_of_congruence(z4, B, mod2).carrier == (0, 2)
    assert subcong.c_of_congruence(z4, B, core.Congruence.full(4)).carrier == (0, 1, 2, 3)


def test_c_of_congruence_at_theta_recovers_carrier(z4, z6):
    for A in (z4, z6):
        for carrier in core.subuniverse_carriers(A):
            B = subcong.SubalgebraWitness(A, carrier)
            th = subcong.theta_of_subalgebra(A, B)
            assert subcong.c_of_congruence(A, B, th).carrier == carrier


def test_c_of_congruence_precondition(z4):
    B = subcong.SubalgebraWitness(z4, (0, 2))
    with pytest.raises(ValueError) as e:
        subcong.c_of_congruence(z4, B, core.Congruence.identity(4))
    assert "pair" in str(e.value)


def test_galois_z4_origin(z4):
    (report,) = subcong.verify_galois(z4, [(0,)])
    assert report.passed
    assert report.subalgebras_above == 3
    assert report.congruences_above == 3


def test_galois_trivial_top(z2):
    (report,) = subcong.verify_galois(z2, [(0, 1)])
    assert report.passed
    assert report.subalgebras_above == 1 and report.congruences_above == 1


def test_galois_klein(v4):
    (report,) = subcong.verify_galois(v4, [(0,)])
    assert report.passed
    assert report.subalgebras_above == 5 and report.congruences_above == 5


def test_galois_computes_each_theta_and_c_once(count_calls, capsys):
    # one job checks every carrier B against one Sub(A), one Con(A) and one
    # theta_X per X, and computes C(alpha, B) once per B and alpha
    fns = (core.subuniverse_carriers, core.con_lattice, subcong.theta_of_subalgebra, subcong.c_of_congruence)
    subs = {
        name: core.subuniverse_carriers(textio.parse_document((DATA / f"{name}.alg").read_text()).algebras[name])
        for name in ("v4", "z6")
    }
    calls = {fn.__name__: count_calls(fn) for fn in fns}
    for name in ("v4", "z6"):
        for seen in calls.values():
            seen.clear()
        assert cli.main(["galois", str(DATA / f"{name}.alg")]) == 0
        assert capsys.readouterr().out.count("galois: PASS") == len(subs[name])
        assert len(calls["subuniverse_carriers"]) == len(calls["con_lattice"]) == 1
        assert sorted(B.carrier for _, B in calls["theta_of_subalgebra"]) == sorted(subs[name])
        pairs = [(B.carrier, alpha) for _, B, alpha in calls["c_of_congruence"]]
        assert len(pairs) == len(set(pairs))


def test_galois_monotonicity(z6):
    carriers = core.subuniverse_carriers(z6)
    for c1 in carriers:
        for c2 in carriers:
            if set(c1) <= set(c2):
                th1 = subcong.theta_of_subalgebra(z6, subcong.SubalgebraWitness(z6, c1))
                th2 = subcong.theta_of_subalgebra(z6, subcong.SubalgebraWitness(z6, c2))
                assert th1.refines(th2)


def test_meet_irreducibles_examples(z2, z4):
    assert [w.carrier for w in subcong.meet_irreducibles(z4)] == [(0,), (0, 2)]
    assert [w.carrier for w in subcong.meet_irreducibles(z2)] == [(0,)]
    P = core.power_algebra(z2, 2)
    # the coatoms of the 5-element subgroup lattice
    assert [w.carrier for w in subcong.meet_irreducibles(P)] == [
        (0, 1),
        (0, 2),
        (0, 3),
    ]


@pytest.mark.parametrize("base, n", [(2, 3), (4, 2)])
def test_meet_irreducibles_above_match_the_filtered_list(base, n):
    P = core.power_algebra(zoo.cyclic_group(base), n)
    full = [w.carrier for w in subcong.meet_irreducibles(P)]
    for R in core.subuniverse_carriers(P):  # every compatible relation of arity n
        got = [w.carrier for w in subcong.meet_irreducibles(P, above=R)]
        assert got == [c for c in full if set(R) <= set(c)]


def pairwise_meet_irreducibles(A, budget=core.DEFAULT_BUDGET, above=None):
    """Oracle: the carriers of `meet_irreducibles` by the loop it ran before, a new set per carrier per pair."""
    carriers = core.subuniverse_carriers(A, budget, above=above)
    out = []
    for c in carriers:
        cset = set(c)
        larger = [set(d) for d in carriers if cset < set(d)]
        if larger and set.intersection(*larger) > cset:
            out.append(c)
    return out


# the 6-ary ones over z3 are left out: listing the interval above the diagonal alone takes 8 s
@pytest.mark.parametrize("base, n", [(b, n) for b, top in ((2, 6), (3, 5)) for n in range(2, top + 1)])
def test_meet_irreducibles_above_diagonals_and_spans_match_the_pairwise_loop(base, n):
    P = core.power_algebra(zoo.cyclic_group(base), n)
    ramp = core.encode_tuple([i % base for i in range(n)], base)
    pair = core.encode_tuple([int(i < 2) for i in range(n)], base)
    for above in (core.diagonal_relation(base, n).codes(), [ramp], [ramp, pair]):
        got = [w.carrier for w in subcong.meet_irreducibles(P, above=above)]
        assert got == pairwise_meet_irreducibles(P, above=above), list(above)


ZOO = {
    A.name: A
    for A in (
        *(zoo.cyclic_group(n) for n in (2, 3, 4, 6)),
        zoo.klein_group(),
        zoo.symmetric_group_3(),
        zoo.two_element_semilattice(),
        zoo.direct_product(zoo.cyclic_group(2), zoo.cyclic_group(4)),
        core.power_algebra(zoo.cyclic_group(2), 4),
        core.power_algebra(zoo.cyclic_group(3), 3),
        core.power_algebra(zoo.two_element_semilattice(), 3),
        textio.parse_document((DATA / "z4aff.alg").read_text()).algebras["z4aff"],
    )
}


@pytest.mark.parametrize("name", list(ZOO))
def test_meet_irreducibles_of_every_zoo_algebra_match_the_pairwise_loop(name):
    A = ZOO[name]
    assert [w.carrier for w in subcong.meet_irreducibles(A)] == pairwise_meet_irreducibles(A)


def test_kernel_quotient_examples(z4, v4):
    kt = subcong.kernel_quotient(z4, subcong.SubalgebraWitness(z4, (0, 2)))
    assert kt.quotient.size == 2
    assert kt.projection.mapping == (0, 1, 0, 1)
    assert kt.point == 0
    # B = {0}: quotient is Z4 itself, which is subdirectly irreducible
    kt2 = subcong.kernel_quotient(z4, subcong.SubalgebraWitness(z4, (0,)))
    assert kt2.quotient.size == 4 and kt2.point == 0
    # Klein group component
    ktv = subcong.kernel_quotient(v4, subcong.SubalgebraWitness(v4, (0, 2)))
    assert ktv.quotient.size == 2


def test_kernel_quotient_rejects_non_meet_irreducible(z4, v4):
    with pytest.raises(ValueError):
        subcong.kernel_quotient(z4, subcong.SubalgebraWitness(z4, (0, 1, 2, 3)))
    with pytest.raises(ValueError):
        # {0} in the Klein group is the meet of the three lines
        subcong.kernel_quotient(v4, subcong.SubalgebraWitness(v4, (0,)))


def test_kernel_quotient_refuses_its_pair_codes_before_generating(z2, z4, monkeypatch, count_calls):
    def refuse(*args):
        raise AssertionError("a congruence was generated before the budget check")

    B = subcong.SubalgebraWitness(z4, (0, 2))
    for module in (core, subcong):
        monkeypatch.setattr(module, "congruence_generated_by", refuse)
    with pytest.raises(core.BudgetExceededError) as info:
        subcong.kernel_quotient(z4, B, 15)
    assert info.value.count == 16 and "pair codes" in str(info.value)
    monkeypatch.undo()
    assert subcong.kernel_quotient(z4, B, 16).quotient.size == 2
    # the reduction hands its own budget down
    calls = count_calls(subcong.kernel_quotient)
    entailment.reduce_to_bounded_arity(z2, affine.find_affine_term(z2), core.diagonal_relation(2, 3), 3, 5000)
    assert calls and all(budget == 5000 for *_, budget in calls)


def test_quotient_by_meet_irreducible_is_subdirectly_irreducible(z6):
    for w in subcong.meet_irreducibles(z6):
        kt = subcong.kernel_quotient(z6, w)
        nontrivial = [c for c in core.con_lattice(kt.quotient) if not c.is_identity()]
        monolith = nontrivial[0]
        for c in nontrivial[1:]:
            monolith = monolith.meet(c)
        assert not monolith.is_identity()


@pytest.mark.parametrize("name", ["z4", "v4", "z6", "z2^2"])
def test_kernel_quotient_refuses_exactly_the_carriers_meet_irreducibles_omits(name, z2, z4, v4, z6):
    A = {"z4": z4, "v4": v4, "z6": z6, "z2^2": core.power_algebra(z2, 2)}[name]
    irreducible = {w.carrier for w in subcong.meet_irreducibles(A)}
    refused = set()
    for carrier in core.subuniverse_carriers(A):
        try:
            kt = subcong.kernel_quotient(A, subcong.SubalgebraWitness(A, carrier))
        except ValueError:
            refused.add(carrier)
            continue
        assert tuple(x for x in range(A.size) if kt.projection(x) == kt.point) == carrier
    assert refused == set(core.subuniverse_carriers(A)) - irreducible
    assert irreducible and refused


def _differential_algebra(name, z2, z4, v4, z6):
    if name == "z4aff":
        path = DATA / "z4aff.alg"
        return textio.parse_document(path.read_text(), source=str(path)).algebras["z4aff"]
    return {"z4": z4, "v4": v4, "z6": z6, "z2^2": core.power_algebra(z2, 2)}[name]


def assert_theta_matches_the_term_formula(A):
    t = affine.find_affine_term(A)
    assert t is not None
    for carrier in core.subuniverse_carriers(A):
        theta = subcong.theta_of_subalgebra(A, subcong.SubalgebraWitness(A, carrier))
        assert theta == term_theta(t, carrier), (A, carrier)


@pytest.mark.parametrize("name", ["z4", "v4", "z6", "z2^2", "z4aff"])
def test_theta_is_the_congruence_generated_by_the_carrier_square(name, z2, z4, v4, z6):
    # in an affine algebra theta_X = Cg(X x X) is the term formula's congruence
    assert_theta_matches_the_term_formula(_differential_algebra(name, z2, z4, v4, z6))


def test_theta_matches_the_term_formula_on_the_affine_data_files():
    checked = 0
    for path in sorted(DATA.glob("*.alg")):
        for A in textio.parse_document(path.read_text()).algebras.values():
            if affine.find_affine_term(A) is not None:
                assert_theta_matches_the_term_formula(A)
                checked += 1
    assert checked == 6  # all but meet2 and s3


@st.composite
def affine_algebras(draw):
    """x - y + z over Z_n or Z2^2, 0-2 constants and operations of arity 0-3.

    Each operation is sum(a_i * x_i) + c with integer a_i, sum(alpha_i(x_i)) + c
    with endomorphisms alpha_i (2x2 matrices over GF(2) on Z2^2, codes 2*u + v),
    or, one time in five, a random table.  The ternary x - y + z keeps the
    affine term in the clone and the clone search short, so an algebra with
    no random table is affine.
    """
    klein = draw(st.booleans())
    n = 4 if klein else draw(st.integers(2, 6))
    plus = (lambda x, y: x ^ y) if klein else (lambda x, y: (x + y) % n)
    minus = (lambda x, y: x ^ y) if klein else (lambda x, y: (x - y) % n)
    times = (lambda a, x: x if a % 2 else 0) if klein else (lambda a, x: a * x % n)

    def endo():
        if not klein or draw(st.booleans()):
            a = draw(st.integers(0, n - 1))
            return lambda x: times(a, x)
        m = draw(st.lists(st.integers(0, 1), min_size=4, max_size=4))
        return lambda x: 2 * ((m[0] * (x >> 1) + m[1] * (x & 1)) % 2) + (m[2] * (x >> 1) + m[3] * (x & 1)) % 2

    grid = lambda arity: itertools.product(range(n), repeat=arity)
    ops = [core.Operation("m", 3, n, [plus(minus(x, y), z) for x, y, z in grid(3)])]
    values = draw(st.lists(st.integers(0, n - 1), max_size=2))
    if draw(st.booleans()):  # often one value, so that not every pair of constants differs
        values = values[:1] * len(values)
    ops += [core.Operation(f"c{i}", 0, n, [v]) for i, v in enumerate(values)]
    for i, arity in enumerate(draw(st.lists(st.integers(0, 3), max_size=3))):
        if draw(st.integers(0, 4)) == 0:
            table = draw(st.lists(st.integers(0, n - 1), min_size=n**arity, max_size=n**arity))
        else:
            parts, c = [endo() for _ in range(arity)], draw(st.integers(0, n - 1))
            table = []
            for args in grid(arity):
                value = c
                for f, x in zip(parts, args):
                    value = plus(value, f(x))
                table.append(value)
        ops.append(core.Operation(f"o{i}", arity, n, table))
    return core.FiniteAlgebra("aff", n, ops)


@settings(max_examples=60)
@given(affine_algebras())
def test_theta_matches_the_term_formula_on_affine_algebras(A):
    assume(affine.find_affine_term(A) is not None)
    assert_theta_matches_the_term_formula(A)


@pytest.mark.parametrize("name", ["z4", "v4", "z6", "z2^2", "z4aff"])
def test_the_term_of_each_quotient_is_the_image_of_the_term(name, z2, z4, v4, z6):
    # the affine term found on S is the one t induces: f(t(x,y,z)) = t_S(fx,fy,fz)
    A = _differential_algebra(name, z2, z4, v4, z6)
    t = affine.find_affine_term(A)
    x, y, z = core.decode_code(np.arange(A.size**3), [A.size] * 3)
    for w in subcong.meet_irreducibles(A):
        kt = subcong.kernel_quotient(A, w)
        f, t_S = kt.projection.np_mapping, affine.find_affine_term(kt.quotient)
        assert t_S is not None
        assert np.array_equal(f[t.np_table], t_S.np_table[core.encode_tuple((f[x], f[y], f[z]), kt.quotient.size)])


def test_kernel_quotient_on_s3(s3):
    # without a term, a non-affine algebra reaches the preimage check
    for carrier in ((0, 1), (0, 2), (0, 5)):  # the non-normal subgroups
        with pytest.raises(ValueError, match=rf"carrier \[{carrier[0]}, {carrier[1]}\]"):
            subcong.kernel_quotient(s3, subcong.SubalgebraWitness(s3, carrier))
    kt = subcong.kernel_quotient(s3, subcong.SubalgebraWitness(s3, (0, 3, 4)))  # A3
    assert (kt.quotient.size, kt.point) == (2, 0)
    assert tuple(np.flatnonzero(kt.projection.np_mapping == 0)) == (0, 3, 4)


# Each verify_galois check made to fail on data/z2.alg above B = {0}, where
# the real maps pair {0} with the identity I and {0, 1} with the total T.
_I, _T = core.Congruence(2, (0, 1)), core.Congruence(2, (0, 0))
_SWAP = {(0,): (0, 1), (0, 1): (0,)}


def _theta_identity(mp):
    mp.setattr(subcong, "theta_of_subalgebra", lambda A, B: _I)


def _theta_total(mp):
    mp.setattr(subcong, "theta_of_subalgebra", lambda A, B: _T)


def _maps_swapped(mp):
    # theta and C stay mutually inverse, but theta sends {0} <= {0, 1} to T, I
    theta, c = subcong.theta_of_subalgebra, subcong.c_of_congruence
    witness = lambda A, carrier: subcong.SubalgebraWitness(A, _SWAP[carrier])
    mp.setattr(subcong, "theta_of_subalgebra", lambda A, B: theta(A, witness(A, B.carrier)))
    mp.setattr(subcong, "c_of_congruence", lambda A, B, alpha: witness(A, c(A, B, alpha).carrier))


def _all_refine(mp):
    # T refines I, but C(T, B) = {0, 1} is not inside C(I, B) = {0}
    mp.setattr(core.Congruence, "refines", lambda self, other: True)


@pytest.mark.parametrize(
    "patch, counterexample",
    [
        (_theta_identity, "theta(C(alpha,B)) != alpha for alpha=((0, 1),)"),
        (_theta_total, "C(theta_X,B) != X for X=[0]"),
        (_maps_swapped, "theta not isotone at [0] <= [0, 1]"),
        (_all_refine, "C(.,B) not isotone"),
    ],
)
def test_galois_reports_each_counterexample(patch, counterexample, monkeypatch, capsys):
    patch(monkeypatch)
    assert cli.main(["galois", str(DATA / "z2.alg"), "--carrier", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"counterexample: {counterexample}" in lines
    assert "galois: FAIL" in lines and lines[-1] == "GALOIS FAIL"
