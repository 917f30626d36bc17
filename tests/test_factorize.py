import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from adual import affine, core, factorize as fz, homgroups as hg, zoo


def family_for(A, S, t_A, t_S, f, n):
    k = core.Homomorphism(
        A, S, [f(core.encode_tuple((x,) * n, A.size)) for x in range(A.size)]
    )
    group = hg.build_hk_group(A, S, t_A, t_S, k)
    return hg.generating_family(group)


def g_oracle(A, t_S, f, family):
    """g by its defining formula over all N generators, padding included."""
    n = f.domain.power_of.exponent if f.domain.power_of else 1
    k_map = [f(core.encode_tuple((x,) * n, A.size)) for x in range(A.size)]
    gens = [family.group.elements[g] for g in family.generators]
    term = affine.AffineTerm((1, -1) * len(gens) + (1,))
    table = []
    for ys in itertools.product(range(A.size), repeat=len(gens) + 1):
        z = ys[-1]
        args = [v for h, y in zip(gens, ys) for v in (h[y * A.size + z], h[z * A.size + z])]
        table.append(affine.eval_affine_combination(term, t_S, 0, args + [k_map[z]]))
    return table


def check_against_oracles(A, S, t_A, t_S, f, family, fac):
    """g against its formula and, on A^(N+1) when that fits, as a Homomorphism;
    then the identity f = g(p_1, .., p_{N+1}) on every input of f."""
    assert fac.g.mapping.tolist() == g_oracle(A, t_S, f, family)
    try:
        P = core.power_algebra(A, fac.inner_arity)
    except core.BudgetExceededError:
        P = None
    if P is not None:
        core.Homomorphism(P, S, fac.g.mapping)
    n = f.domain.power_of.exponent if f.domain.power_of else 1
    for code in range(f.domain.size):
        xs = core.decode_code(code, [A.size] * n)
        image = [affine.eval_affine_combination(term, t_A, 0, xs) for term in fac.terms]
        assert fac.g(core.encode_tuple(image, A.size)) == f(code)


def test_sum_of_five_over_z2(z2, terms):
    t2 = terms["z2"]
    P5 = core.power_algebra(z2, 5)
    f = core.Homomorphism(P5, z2, [bin(c).count("1") % 2 for c in range(32)])
    fam = family_for(z2, z2, t2, t2, f, 5)
    fac = fz.factor_morphism(z2, z2, t2, t2, f, fam)
    check_against_oracles(z2, z2, t2, t2, f, fam, fac)
    assert fac.inner_arity == 2
    # p1 evaluates to the full sum over Z2, p2 is the first projection
    assert tuple(c % 2 for c in fac.terms[0].coeffs) == (1, 1, 1, 1, 1)
    assert fac.terms[1].coeffs == (1, 0, 0, 0, 0)
    # g(y, z) = y
    assert fac.g.mapping.tolist() == [0, 0, 1, 1]


def test_projection_over_z4(z4, terms):
    t4 = terms["z4"]
    P2 = core.power_algebra(z4, 2)
    f = core.Homomorphism(P2, z4, [c // 4 for c in range(16)])
    fam = family_for(z4, z4, t4, t4, f, 2)
    fac = fz.factor_morphism(z4, z4, t4, t4, f, fam)
    # the first slot carries the identity coordinate, the second the neutral
    assert fac.coefficient_matrix == ((1, 0),)
    for code in range(16):
        image = core.encode_tuple(
            [affine.eval_affine_combination(term, t4, 0, core.decode_code(code, [4] * 2))
             for term in fac.terms],
            4,
        )
        assert fac.g(image) == f(code)


def test_single_variable_morphism(z4, terms):
    t4 = terms["z4"]
    f = core.Homomorphism(z4, z4, (0, 3, 2, 1))
    fam = family_for(z4, z4, t4, t4, f, 1)
    fac = fz.factor_morphism(z4, z4, t4, t4, f, fam)
    assert fac.inner_arity == fam.size + 1
    check_against_oracles(z4, z4, t4, t4, f, fam, fac)


def test_every_term_is_a_morphism(z2, terms):
    t2 = terms["z2"]
    P3 = core.power_algebra(z2, 3)
    for f in core.enumerate_homs(P3, z2):
        fam = family_for(z2, z2, t2, t2, f, 3)
        fac = fz.factor_morphism(z2, z2, t2, t2, f, fam)
        for term in fac.terms:
            # evaluating the term over the power gives a verified homomorphism
            table = [
                affine.eval_affine_combination(term, t2, 0, core.decode_code(c, [2] * 3))
                for c in range(8)
            ]
            core.Homomorphism(P3, z2, table)


def test_padded_family_and_mixed_signature(z2, z4, terms):
    t2, t4 = terms["z2"], terms["z4"]
    P3 = core.power_algebra(z4, 3)
    f = core.enumerate_homs(P3, z2)[3]
    fam = family_for(z4, z2, t4, t2, f, 3)
    fac = fz.factor_morphism(z4, z2, t4, t2, f, fam.padded(4))
    assert fac.inner_arity == 5
    for code in range(64):
        image = core.encode_tuple(
            [affine.eval_affine_combination(term, t4, 0, core.decode_code(code, [4] * 3))
             for term in fac.terms],
            4,
        )
        assert fac.g(image) == f(code)


def test_wrong_family_rejected(z2, z4, terms):
    t2, t4 = terms["z2"], terms["z4"]
    P2 = core.power_algebra(z4, 2)
    homs = core.enumerate_homs(P2, z4)
    f = next(h for h in homs if h.mapping[5] != h.mapping[0])
    other = next(
        h
        for h in homs
        if h.mapping != f.mapping
        and any(h(core.encode_tuple((x, x), 4)) != f(core.encode_tuple((x, x), 4)) for x in range(4))
    )
    fam = family_for(z4, z4, t4, t4, other, 2)
    with pytest.raises(ValueError):
        fz.factor_morphism(z4, z4, t4, t4, f, fam)


def test_tiny_budget_refuses_before_allocating(z2, terms):
    # g is verified on Z2^2, whose 16-cell table of add exceeds a budget of 8
    t2 = terms["z2"]
    P4 = core.power_algebra(z2, 4)
    f = core.Homomorphism(P4, z2, [bin(c).count("1") % 2 for c in range(16)])
    fam = family_for(z2, z2, t2, t2, f, 4)
    tracemalloc.start()
    try:
        with pytest.raises(core.BudgetExceededError) as e:
            fz.factor_morphism(z2, z2, t2, t2, f, fam, budget=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.count == 16 and "table of add" in str(e.value)
    assert peak < 64 * 1024
    # the domain of g itself is refused first
    with pytest.raises(core.BudgetExceededError) as e:
        fz.factor_morphism(z2, z2, t2, t2, f, fam.padded(3), budget=8)
    assert e.value.count == 16 and "domain of g" in str(e.value)


def test_domain_power_compared_by_tables_not_names(z2, terms, relabeled):
    t2 = terms["z2"]
    parity = [bin(c).count("1") % 2 for c in range(8)]
    f = core.Homomorphism(core.power_algebra(z2, 3), z2, parity)
    fam = family_for(z2, z2, t2, t2, f, 3)
    # twin is z2 with 0 and 1 swapped, under the same name, so twin^3 claims
    # to be a power of z2; g is parity read through the swap
    twin_cube = core.power_algebra(relabeled(z2, (1, 0)), 3)
    assert twin_cube.power_of == f.domain.power_of
    g = core.Homomorphism(twin_cube, z2, [parity[7 - c] for c in range(8)])
    with pytest.raises(ValueError, match="morphism domain is not z2\\^3"):
        fz.factor_morphism(z2, z2, t2, t2, g, fam)
    assert fz.factor_morphism(z2, z2, t2, t2, f, fam).inner_arity == 2


def test_bogus_g_rejected_by_the_exact_check(z2, terms, monkeypatch):
    t2 = terms["z2"]
    P3 = core.power_algebra(z2, 3)
    f = core.Homomorphism(P3, z2, [bin(c).count("1") % 2 for c in range(8)])
    fam = family_for(z2, z2, t2, t2, f, 3)
    real = fz._g_values
    # not a homomorphism: g(0, 0) is no longer the constant
    monkeypatch.setattr(fz, "_g_values", lambda *a: [1 - real(*a)[0]] + real(*a)[1:])
    with pytest.raises(core.VerificationError, match="not a homomorphism"):
        fz.factor_morphism(z2, z2, t2, t2, f, fam)
    # a homomorphism, but the wrong one: g(y, z) = z
    monkeypatch.setattr(fz, "_g_values", lambda *a: [0, 1, 0, 1])
    with pytest.raises(core.VerificationError, match="factorization identity failed"):
        fz.factor_morphism(z2, z2, t2, t2, f, fam)


def test_exchange_identity_checked_on_large_domains(monkeypatch):
    # f(x, y) = x + y on Z17^2: 289 inputs times 17 values of z, above the
    # 4096 cells up to which the identity used to be checked
    A = zoo.cyclic_group(17)
    t = core.Operation("t", 3, 17, [(x - y + z) % 17 for x, y, z in itertools.product(range(17), repeat=3)])
    P = core.power_algebra(A, 2)
    f = core.Homomorphism(P, A, [(c // 17 + c % 17) % 17 for c in range(P.size)])
    fam = family_for(A, A, t, t, f, 2)
    fac = fz.factor_morphism(A, A, t, t, f, fam)
    check_against_oracles(A, A, t, t, f, fam, fac)
    # the first inner term doubled: still a homomorphism, but not the term
    real = fz._inner_maps

    def corrupted(*args):
        maps = real(*args)
        maps[0] = core.Homomorphism(P, A, [2 * v % 17 for v in maps[0].mapping])
        return maps

    monkeypatch.setattr(fz, "_inner_maps", corrupted)
    with pytest.raises(core.VerificationError, match="exchange identity failed"):
        fz.factor_morphism(A, A, t, t, f, fam)


def is_hom(domain, codomain, mapping):
    try:
        core.Homomorphism(domain, codomain, mapping)
    except ValueError:
        return False
    return True


@settings(max_examples=60)
@given(
    size=st.sampled_from([2, 3]),
    coordinates=st.sets(st.integers(0, 2), min_size=1),
    data=st.data(),
)
def test_factor_map_is_a_homomorphism_exactly_when_its_reduction_is(size, coordinates, data):
    # the projection pi: A^3 -> A^len(coordinates) is an onto homomorphism, so
    # g = reduced o pi is one exactly when reduced is, and g^-1(c) is
    # compatible exactly when reduced^-1(c) is
    A = zoo.cyclic_group(size)
    coordinates = sorted(coordinates)
    P = core.power_algebra(A, len(coordinates))
    homs = [h.mapping for h in core.enumerate_homs(P, A)]
    tables = st.lists(st.integers(0, size - 1), min_size=P.size, max_size=P.size)
    values = list(data.draw(st.one_of(st.sampled_from(homs), tables)))
    lifted = [
        values[core.encode_tuple([digits[i] for i in coordinates], size)]
        for digits in itertools.product(range(size), repeat=3)
    ]
    reduced_is_hom = is_hom(P, A, values)
    assert is_hom(core.power_algebra(A, 3), A, lifted) == reduced_is_hom
    if reduced_is_hom:
        g = fz.FactorMap(3, coordinates, core.Homomorphism(P, A, values))
        assert g.mapping.tolist() == lifted
    c = values[0]
    b_hat = core.Relation.from_codes([x for x, v in enumerate(values) if v == c], size, len(coordinates))
    B = core.Relation.from_codes([x for x, v in enumerate(lifted) if v == c], size, 3)
    assert core.is_compatible_relation(A, B) == core.is_compatible_relation(A, b_hat)
