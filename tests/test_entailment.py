import itertools

import pytest
from hypothesis import given, settings, strategies as st

from adual import affine, core, entailment as ent, textio, zoo


def preserves(table, arity, size, R):
    """Independent preservation oracle used to cross-check the refuter."""
    members = set(R.tuples)
    for combo in itertools.product(R.tuples, repeat=arity):
        image = []
        for c in range(R.arity):
            idx = 0
            for row in combo:
                idx = idx * size + row[c]
            image.append(table[idx])
        if tuple(image) not in members:
            return False
    return True


def refute_oracle(A, premises, target, max_arity):
    """The refuter as a loop over maps, one `preserves` call per relation and map."""
    rels = [ent._as_relation(p) for p in premises]
    target = ent._as_relation(target)
    checked = 0
    for m in range(1, max_arity + 1):
        for table in itertools.product(range(A.size), repeat=A.size**m):
            checked += 1
            if all(preserves(table, m, A.size, R) for R in rels) and not preserves(
                table, m, A.size, target
            ):
                return table, m, checked
    return None, max_arity, checked


@pytest.fixture
def exhaustive_oracles(monkeypatch):
    """Checks a reduction's factor maps and premises on the full power, where that fits.

    Every g must be a Homomorphism on A^(N+1) and every bounded premise must
    pass `is_compatible_relation`, the checks the reduction makes on the
    smaller power A^(a+1) instead.  Returns the number of checks made.
    """
    made = []
    real = ent.factor_morphism

    def recording(*args, **kwargs):
        fac = real(*args, **kwargs)
        made.append(fac)
        return fac

    monkeypatch.setattr(ent, "factor_morphism", recording)

    def check(A, res):
        checks = 0
        for fac in made:
            try:
                P = core.power_algebra(A, fac.inner_arity)
            except core.BudgetExceededError:
                continue
            core.Homomorphism(P, fac.g.reduced.codomain, fac.g.mapping)
            checks += 1
        for B in res.bounded_premises:
            try:
                assert core.is_compatible_relation(A, B)
            except core.BudgetExceededError:
                continue
            checks += 1
        made.clear()
        return checks

    return check


def certified(conclusion, node, **fields):
    """The certificate of `node` with the stated conclusion, checked by replay."""
    cert = ent.EntailmentCertificate(conclusion=conclusion, derivation=node, **fields)
    assert ent.verify_certificate(cert)
    return cert


def replay(node):
    return ent.replay_certificate(ent.EntailmentCertificate(conclusion=None, derivation=node))


def test_intersection_rule(z2):
    r1 = core.Relation(2, 2, [(0, 0), (1, 1)])
    r2 = core.Relation(2, 2, [(0, 0), (1, 1), (0, 1)])
    cert = certified(r1, ent.Intersection(2, 2, (ent.Premise(r1), ent.Premise(r2))))
    assert cert.premises == (r1, r2)


def test_preimage_rule_doubling(z4, terms):
    # R = graph of addition, terms (x1, x1, x2): the relation 2x = y
    graph = core.graph_relation(z4.op("add"))
    terms_list = (
        affine.projection_term(2, 0),
        affine.projection_term(2, 0),
        affine.projection_term(2, 1),
    )
    doubling = core.Relation(2, 4, [(0, 0), (1, 2), (2, 0), (3, 2)])
    cert = certified(doubling, ent.TermPreimage(terms_list, ent.Premise(graph)), term_op=terms["z4"])
    # the affine operation is part of the premises
    assert any(isinstance(p, core.Operation) for p in cert.premises)


def composition_tree_certificate(z4):
    """{(x, y) : x + y = 0} over Z4, the preimage of {0} under a composition tree."""
    tree = ent.TermTree(2, ("add", (("proj", 0), ("proj", 1))))
    zero = core.Relation(1, 4, [(0,)])
    return certified(
        core.Relation(2, 4, [(0, 0), (1, 3), (2, 2), (3, 1)]),
        ent.TermPreimage((tree,), ent.Premise(zero)),
        extra_ops=(z4.op("add"),),
    )


def test_preimage_rule_with_composition_tree(z4):
    cert = composition_tree_certificate(z4)
    assert cert.premises == (core.Relation(1, 4, [(0,)]),)


def test_strip_rule(z2):
    S = core.Relation(3, 2, [(0, 1, 1), (1, 0, 0)])
    certified(core.Relation(2, 2, [(0, 1), (1, 0)]), ent.StripPadding(ent.Premise(S)))
    with pytest.raises(ValueError):
        replay(ent.StripPadding(ent.Premise(core.Relation(2, 2, [(0, 1)]))))


def test_graph_rule(z2):
    graph = core.graph_relation(z2.op("add"))
    certified(z2.op("add"), ent.GraphToOperation(ent.Premise(graph), name="add"))
    with pytest.raises(ValueError):
        replay(ent.GraphToOperation(ent.Premise(core.Relation(2, 2, [(0, 0), (0, 1)]))))


def test_rules_preserve_compatibility(z2, terms):
    # rules applied to compatible relations give compatible relations
    d = core.diagonal_relation(2, 2)
    full = core.full_relation(2, 2)
    value = replay(ent.Intersection(2, 2, (ent.Premise(d), ent.Premise(full))))
    assert core.is_compatible_relation(z2, value)
    padded = ent.pad_relation(d, 4)
    value = replay(ent.StripPadding(ent.Premise(ent.pad_relation(d, 3))))
    assert core.is_compatible_relation(z2, value)
    assert core.is_compatible_relation(z2, padded)


def certificate_premises(derivation, term_op=None):
    """Premise leaves of a derivation, plus the affine operation when it is used.

    The two walkers that listed a certificate's premises before they were read
    off its tree; the oracle of `EntailmentCertificate.premises`.
    """

    def leaves(node):
        if isinstance(node, ent.Premise):
            yield node.value
        elif isinstance(node, ent.Intersection):
            for c in node.children:
                yield from leaves(c)
        elif isinstance(node, (ent.TermPreimage, ent.StripPadding, ent.GraphToOperation)):
            yield from leaves(node.child)

    def uses_affine(node):
        if isinstance(node, ent.TermPreimage):
            if any(isinstance(t, affine.AffineTerm) for t in node.terms):
                return True
            return uses_affine(node.child)
        if isinstance(node, ent.Intersection):
            return any(uses_affine(c) for c in node.children)
        if isinstance(node, (ent.StripPadding, ent.GraphToOperation)):
            return uses_affine(node.child)
        return False

    premises = tuple(leaves(derivation))
    if term_op is not None and uses_affine(derivation):
        premises = premises + (term_op,)
    return premises


def test_premises_match_the_walker_oracle(z2, z3, z4, terms):
    certs = []
    reductions = {
        z2: (3, [core.diagonal_relation(2, 3), core.Relation(2, 2, [(0, 0), (1, 1)]), core.full_relation(2, 2)]),
        z3: (2, [core.diagonal_relation(3, 2), core.Relation(2, 3, [(x, 2 * x % 3) for x in range(3)])]),
        z4: (3, [core.Relation(2, 4, [(x, 3 * x % 4) for x in range(4)]), core.Relation(1, 4, [(0,), (2,)])]),
    }
    for A, (N, relations) in reductions.items():
        for R in relations:
            cert = ent.reduce_to_bounded_arity(A, terms[A.name], R, N).certificate
            assert cert.premises[-1:] == ((terms[A.name],) if len(R) < A.size**R.arity else ())
            certs.append((A.name, cert))
    for A, N in ((z2, 4), (z2, 6), (z4, 9)):
        cert = ent.eliminate_t(A, terms[A.name], N)
        # t is set but no preimage reads it, so it is not a premise
        assert cert.term_op is not None and len(cert.premises) == 1
        certs.append((A.name, cert))
    certs.append(("z4", composition_tree_certificate(z4)))
    # the reductions repeat one premise; here the order of distinct leaves shows
    full, graph = core.full_relation(4, 2), core.graph_relation(z4.op("add"))
    x, y = affine.projection_term(2, 0), affine.projection_term(2, 1)
    doubling = core.Relation(2, 4, [(a, 2 * a % 4) for a in range(4)])
    nested = ent.Intersection(4, 2, (
        ent.Premise(full),
        ent.Intersection(4, 2, (ent.TermPreimage((x, x, y), ent.Premise(graph)),)),
        ent.Premise(doubling),
    ))
    cert = certified(doubling, nested, term_op=terms["z4"])
    assert cert.premises == (full, graph, doubling, terms["z4"])
    certs.append(("z4", cert))
    for name, cert in certs:
        back = textio.parse_document(textio.serialize_certificate(cert, "c", name)).certificates[0][2]
        for c in (cert, back):
            assert c.premises == certificate_premises(c.derivation, c.term_op)
        assert back.premises == cert.premises


def test_refuter_finds_first_canonical_witness(z2):
    out = ent.refute_entailment(
        z2, [core.diagonal_relation(2, 2)], core.graph_relation(z2.op("add")), 2
    )
    assert out.refuted
    # x -> x + 1 is the first table preserving the diagonal but not the graph
    assert out.witness.arity == 1 and out.witness.table == (1, 0)
    assert preserves(out.witness.table, 1, 2, core.diagonal_relation(2, 2))
    assert not preserves(out.witness.table, 1, 2, core.graph_relation(z2.op("add")))


def test_refuter_self_entailment(z2):
    r = core.Relation(2, 2, [(0, 0), (1, 1)])
    out = ent.refute_entailment(z2, [r], r, 2)
    assert not out.refuted
    assert "nothing is proved" in out.message()


def test_refuter_budget_reports_count(z4):
    with pytest.raises(core.BudgetExceededError) as e:
        ent.refute_entailment(
            z4, [core.diagonal_relation(4, 2)], core.diagonal_relation(4, 2), 2
        )
    assert e.value.count == 4**16


def test_eliminate_t_shapes(z2, z4, terms):
    cert = ent.eliminate_t(z2, terms["z2"], 4)
    assert cert.premises[0].arity == 4
    assert isinstance(cert.derivation, ent.GraphToOperation)
    assert ent.verify_certificate(cert)

    cert6 = ent.eliminate_t(z2, terms["z2"], 6)
    assert cert6.premises[0].arity == 6
    strips = 0
    node = cert6.derivation.child
    while isinstance(node, ent.StripPadding):
        strips += 1
        node = node.child
    assert strips == 2
    assert ent.verify_certificate(cert6)

    cert9 = ent.eliminate_t(z4, terms["z4"], 9)
    assert cert9.premises[0].arity == 9
    assert ent.verify_certificate(cert9)

    with pytest.raises(ValueError):
        ent.eliminate_t(z2, terms["z2"], 3)


def test_reduce_diagonal_z2_cube(z2, terms, exhaustive_oracles):
    res = ent.reduce_to_bounded_arity(z2, terms["z2"], core.diagonal_relation(2, 3), 1)
    assert exhaustive_oracles(z2, res) == 6
    assert len(res.bounded_premises) == 3
    assert all(b.arity == 2 for b in res.bounded_premises)
    assert ent.verify_certificate(res.certificate)


def test_reduce_full_relation_has_no_components(z2, terms, exhaustive_oracles):
    full = core.full_relation(2, 2)
    res = ent.reduce_to_bounded_arity(z2, terms["z2"], full, 3)
    assert exhaustive_oracles(z2, res) == 0
    assert res.bounded_premises == ()
    assert ent.verify_certificate(res.certificate)


def test_reduce_rejects_incompatible_input(z2, terms):
    bad = core.Relation(2, 2, [(0, 1)])
    with pytest.raises(ValueError):
        ent.reduce_to_bounded_arity(z2, terms["z2"], bad, 3)


def test_pipeline_correctness_all_small_relations(z2, terms, exhaustive_oracles):
    # every compatible relation of arity <= 3 over the two-element group,
    # certified from 4-ary premises and replayed bit-exactly
    t2 = terms["z2"]
    for arity in (1, 2, 3):
        P = core.power_algebra(z2, arity)
        for R in core.enumerate_subuniverses(P):
            res = ent.reduce_to_bounded_arity(z2, t2, R, 3)
            assert exhaustive_oracles(z2, res) == 2 * len(res.bounded_premises)
            assert all(b.arity == 4 for b in res.bounded_premises)
            assert all(core.is_compatible_relation(z2, b) for b in res.bounded_premises)
            assert ent.replay_certificate(res.certificate) == R


def test_reduce_z4_through_arity_ten(z4, terms, exhaustive_oracles):
    # a meet-irreducible binary relation pushed through the theorem-size bound
    R = core.Relation(2, 4, [(x, (3 * x) % 4) for x in range(4)])
    res = ent.reduce_to_bounded_arity(z4, terms["z4"], R, 9, budget=2_200_000)
    assert exhaustive_oracles(z4, res) == 0  # neither Z4^10 nor B x B fits
    assert len(res.bounded_premises) == 1
    assert res.bounded_premises[0].arity == 10
    assert ent.verify_certificate(res.certificate, budget=2_200_000)


def test_certified_relations_never_refuted_against_their_premises(z2, terms, exhaustive_oracles):
    t2 = terms["z2"]
    R = core.diagonal_relation(2, 3)
    res = ent.reduce_to_bounded_arity(z2, t2, R, 3)
    assert exhaustive_oracles(z2, res) == 6
    premises = list(res.bounded_premises) + [t2]
    out = ent.refute_entailment(z2, premises, R, 2)
    assert not out.refuted


@settings(max_examples=25)
@given(
    size=st.sampled_from([2, 3]),
    data=st.data(),
)
def test_refuter_matches_the_map_by_map_loop(size, data):
    A = zoo.cyclic_group(size)
    max_arity = 3 if size == 2 else 2

    def relation():
        arity = data.draw(st.integers(1, 2 if size == 3 else 3))
        tuples = list(itertools.product(range(size), repeat=arity))
        return core.Relation(arity, size, data.draw(st.sets(st.sampled_from(tuples), min_size=1)))

    premises = [relation() for _ in range(data.draw(st.integers(0, 2)))]
    target = relation()
    out = ent.refute_entailment(A, premises, target, max_arity)
    table, arity, checked = refute_oracle(A, premises, target, max_arity)
    assert out.maps_checked == checked
    assert out.searched_arity == arity
    if table is None:
        assert out.witness is None
    else:
        assert (out.witness.arity, out.witness.table) == (arity, table)


def test_refuter_refuses_argument_grids_over_budget(z2):
    full = core.full_relation(2, 3)  # 8 rows: 64 argument pairs at arity 2
    out = ent.refute_entailment(z2, [full], full, 1, budget=16)
    assert not out.refuted and out.maps_checked == 4
    with pytest.raises(core.BudgetExceededError) as e:
        ent.refute_entailment(z2, [full], full, 2, budget=16)
    assert e.value.count == 64


def test_refuter_names_a_relation_over_another_universe(z2):
    # a relation over three elements used to index past z2's tables: IndexError
    other, diagonal = core.full_relation(3, 2), core.diagonal_relation(2, 2)
    message = "relation over universe of size 3, algebra z2 has size 2"
    with pytest.raises(ValueError, match=message):
        core.is_compatible_relation(z2, other)
    for premises, target in (([other], diagonal), ([diagonal], other), ([diagonal, other], diagonal)):
        with pytest.raises(ValueError, match=message):
            ent.refute_entailment(z2, premises, target, 1)


def test_reduction_enumerates_only_the_interval_above_the_relation(z4, terms, monkeypatch):
    """z4 sum2 of the golden cases: 65 closures; listing all of Sub(Z4^3) took 800."""
    R = core.Relation(3, 4, [(x, y, (x + y) % 4) for x in range(4) for y in range(0, 4, 2)])
    calls = []
    real = core.closed_product_subset
    monkeypatch.setattr(core, "closed_product_subset", lambda *a, **k: calls.append(1) or real(*a, **k))
    ent.reduce_to_bounded_arity(z4, terms["z4"], R, 2)
    assert len(calls) == 65


@pytest.mark.parametrize("n, components", [(3, 3), (4, 7), (5, 15)])
def test_reduction_searches_each_quotient_term_once(n, components, z2, terms, count_calls):
    """All components of the n-ary diagonal over z2 quotient to Z2, so one term search serves them."""
    calls = count_calls(affine.find_affine_term)
    res = ent.reduce_to_bounded_arity(z2, terms["z2"], core.diagonal_relation(2, n), 2)
    assert len(res.bounded_premises) == components
    assert len(calls) == 1 and calls[0][0].size == 2
    assert ent.verify_certificate(res.certificate)


def test_reduction_searches_distinct_quotients_apart(z4, terms, count_calls, monkeypatch):
    """z4 sum2 of the golden cases: one term search per distinct quotient of the components."""
    R = core.Relation(3, 4, [(x, y, (x + y) % 4) for x in range(4) for y in range(0, 4, 2)])
    quotients, real = [], ent.kernel_quotient
    monkeypatch.setattr(ent, "kernel_quotient", lambda *a: quotients.append(real(*a)) or quotients[-1])
    searched = count_calls(affine.find_affine_term)
    ent.reduce_to_bounded_arity(z4, terms["z4"], R, 2)
    distinct = []
    for kt in quotients:
        if not any(core._same_tables(kt.quotient, Q) for Q in distinct):
            distinct.append(kt.quotient)
    assert len(distinct) < len(quotients)
    assert [S for S, *_ in searched] == distinct


_UNDER_OPTIMIZE = """
import sys

from adual import affine, core, entailment, factorize, zoo

if __debug__ or not sys.flags.optimize:
    sys.exit("not running under -O")
z2 = zoo.cyclic_group(2)
t = affine.find_affine_term(z2)
if sys.argv[1] == "g table":  # one value of g is flipped
    real = factorize._g_values
    factorize._g_values = lambda *a: [1 - real(*a)[0]] + real(*a)[1:]
elif sys.argv[1] == "meet":  # only one of the three meet-irreducibles above the diagonal is listed
    real = entailment.meet_irreducibles
    entailment.meet_irreducibles = lambda *a, **k: real(*a, **k)[:1]
else:  # no affine term is found on the quotient
    entailment.find_affine_term = lambda S, budget: None
try:
    entailment.reduce_to_bounded_arity(z2, t, core.diagonal_relation(2, 3), 1)
except core.VerificationError as e:
    print("VerificationError:", e)
"""


@pytest.mark.parametrize(
    "corruption, message",
    [
        ("g table", "not a homomorphism"),
        ("meet", "meet-irreducible decomposition failed"),
        ("quotient term", "has no affine term"),
    ],
)
def test_reduction_checks_run_under_optimize(under_optimize, corruption, message):
    out = under_optimize(_UNDER_OPTIMIZE, corruption)
    assert out.startswith("VerificationError:") and message in out, out
