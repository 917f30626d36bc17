import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from adual import affine, core, factorize as fz, homgroups as hg, zoo


def g_oracle(A, t_S, f, family):
    """g by its defining formula over all N generators, padding included."""
    n = f.domain.power_of.exponent
    k_map = [f(core.encode_tuple((x,) * n, A.size)) for x in range(A.size)]
    gens = [family.group.elements[g] for g in family.generators]
    term = affine.AffineTerm((1, -1) * len(gens) + (1,))
    table = []
    for ys in itertools.product(range(A.size), repeat=len(gens) + 1):
        z = ys[-1]
        args = [v for h, y in zip(gens, ys) for v in (h[y * A.size + z], h[z * A.size + z])]
        table.append(affine.eval_affine_combination(term, t_S, 0, args + [k_map[z]]))
    return table


def check_against_oracles(A, S, t_A, t_S, f, fac):
    """The family against the greedy family of the group on k = f(x, .., x),
    g against its formula and, on A^(N+1) when that fits, as a Homomorphism;
    then the identity f = g(p_1, .., p_{N+1}) on every input of f."""
    n = f.domain.power_of.exponent
    k = core.Homomorphism(A, S, [f(core.encode_tuple((x,) * n, A.size)) for x in range(A.size)])
    family = hg.generating_family(hg.build_hk_group(A, S, t_A, t_S, k, core.enumerate_homs(A, S)))
    assert fac.family.generators[: family.size] == family.generators
    assert set(fac.family.generators[family.size :]) <= {family.group.neutral}
    assert fac.g.mapping.tolist() == g_oracle(A, t_S, f, fac.family)
    try:
        P = core.power_algebra(A, fac.inner_arity)
    except core.BudgetExceededError:
        P = None
    if P is not None:
        core.Homomorphism(P, S, fac.g.mapping)
    for code in range(f.domain.size):
        xs = core.decode_code(code, [A.size] * n)
        image = [affine.eval_affine_combination(term, t_A, 0, xs) for term in fac.terms]
        assert fac.g(core.encode_tuple(image, A.size)) == f(code)


def test_sum_of_five_over_z2(z2, terms):
    t2 = terms["z2"]
    P5 = core.power_algebra(z2, 5)
    f = core.Homomorphism(P5, z2, [bin(c).count("1") % 2 for c in range(32)])
    fac = fz.factor_morphism(z2, z2, t2, t2, f)
    check_against_oracles(z2, z2, t2, t2, f, fac)
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
    fac = fz.factor_morphism(z4, z4, t4, t4, f)
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
    fac = fz.factor_morphism(z4, z4, t4, t4, f)
    assert fac.inner_arity == fac.family.size + 1
    check_against_oracles(z4, z4, t4, t4, f, fac)


def test_every_term_is_a_morphism(z2, terms):
    t2 = terms["z2"]
    P3 = core.power_algebra(z2, 3)
    for f in core.enumerate_homs(P3, z2):
        fac = fz.factor_morphism(z2, z2, t2, t2, f)
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
    fac = fz.factor_morphism(z4, z2, t4, t2, f, 4)
    assert fac.inner_arity == 5
    check_against_oracles(z4, z2, t4, t2, f, fac)
    for code in range(64):
        image = core.encode_tuple(
            [affine.eval_affine_combination(term, t4, 0, core.decode_code(code, [4] * 3))
             for term in fac.terms],
            4,
        )
        assert fac.g(image) == f(code)


def test_generators_below_the_family_size_rejected(z2, z4, terms):
    # f(x, y) = x + y from Z4^2 onto Z2 needs a family of one generator
    t2, t4 = terms["z2"], terms["z4"]
    P2 = core.power_algebra(z4, 2)
    f = core.Homomorphism(P2, z2, [(c // 4 + c % 4) % 2 for c in range(16)])
    assert fz.factor_morphism(z4, z2, t4, t2, f).family.size == 1
    with pytest.raises(ValueError, match=r"N=0 is below the generating-family size 1 needed for a quotient of z4\^2"):
        fz.factor_morphism(z4, z2, t4, t2, f, 0)


def test_tiny_budget_refuses_before_allocating(z2, terms):
    # the hom group lives on Z2^2, whose 16-cell table of add exceeds a
    # budget of 8, and so does g, which is verified on Z2^2 too
    t2 = terms["z2"]
    P4 = core.power_algebra(z2, 4)
    f = core.Homomorphism(P4, z2, [bin(c).count("1") % 2 for c in range(16)])
    # with 3 generators, the 16-code domain of g, Z2^4, is refused before the hom group is built
    for generators, hint in ((None, "table of add"), (3, "domain of g")):
        tracemalloc.start()
        try:
            with pytest.raises(core.BudgetExceededError) as e:
                fz.factor_morphism(z2, z2, t2, t2, f, generators, budget=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.value.count == 16 and hint in str(e.value)
        assert peak < 64 * 1024


def test_domain_power_compared_by_tables_not_names(z2, terms, relabeled):
    t2 = terms["z2"]
    parity = [bin(c).count("1") % 2 for c in range(8)]
    f = core.Homomorphism(core.power_algebra(z2, 3), z2, parity)
    # twin is z2 with 0 and 1 swapped, under the same name, so twin^3 claims
    # to be a power of z2 by name and size; g is parity read through the swap
    twin_cube = core.power_algebra(relabeled(z2, (1, 0)), 3)
    twin = twin_cube.power_of.base
    assert (twin.name, twin.size, twin_cube.power_of.exponent) == ("z2", 2, 3)
    assert not core._same_tables(twin, z2)
    g = core.Homomorphism(twin_cube, z2, [parity[7 - c] for c in range(8)])
    with pytest.raises(ValueError, match="morphism domain is not z2\\^3"):
        fz.factor_morphism(z2, z2, t2, t2, g)
    assert fz.factor_morphism(z2, z2, t2, t2, f).inner_arity == 2


def test_bogus_g_rejected_by_the_exact_check(z2, terms, monkeypatch):
    t2 = terms["z2"]
    P3 = core.power_algebra(z2, 3)
    f = core.Homomorphism(P3, z2, [bin(c).count("1") % 2 for c in range(8)])
    real = fz._g_values
    # not a homomorphism: g(0, 0) is no longer the constant
    monkeypatch.setattr(fz, "_g_values", lambda *a: [1 - real(*a)[0]] + real(*a)[1:])
    with pytest.raises(core.VerificationError, match="not a homomorphism"):
        fz.factor_morphism(z2, z2, t2, t2, f)
    # a homomorphism, but the wrong one: g(y, z) = z
    monkeypatch.setattr(fz, "_g_values", lambda *a: [0, 1, 0, 1])
    with pytest.raises(core.VerificationError, match="factorization identity failed"):
        fz.factor_morphism(z2, z2, t2, t2, f)


def test_exchange_identity_checked_on_large_domains(monkeypatch):
    # f(x, y) = x + y on Z17^2: 289 inputs times 17 values of z, above the
    # 4096 cells up to which the identity used to be checked
    A = zoo.cyclic_group(17)
    t = core.Operation("t", 3, 17, [(x - y + z) % 17 for x, y, z in itertools.product(range(17), repeat=3)])
    P = core.power_algebra(A, 2)
    f = core.Homomorphism(P, A, [(c // 17 + c % 17) % 17 for c in range(P.size)])
    fac = fz.factor_morphism(A, A, t, t, f)
    check_against_oracles(A, A, t, t, f, fac)
    # the first inner term doubled: still a homomorphism, but not the term
    real = fz._inner_maps

    def corrupted(*args):
        maps = real(*args)
        maps[0] = core.Homomorphism(P, A, [2 * v % 17 for v in maps[0].mapping])
        return maps

    monkeypatch.setattr(fz, "_inner_maps", corrupted)
    with pytest.raises(core.VerificationError, match="exchange identity failed"):
        fz.factor_morphism(A, A, t, t, f)


_UNDER_OPTIMIZE = """
import sys

from adual import affine, core, factorize, zoo

if __debug__ or not sys.flags.optimize:
    sys.exit("not running under -O")
z2 = zoo.cyclic_group(2)
t = affine.find_affine_term(z2)
f = core.Homomorphism(core.power_algebra(z2, 3), z2, [bin(c).count("1") % 2 for c in range(8)])
if sys.argv[1] == "g table":  # one value of g is flipped
    real = factorize._g_values
    factorize._g_values = lambda *a: [1 - real(*a)[0]] + real(*a)[1:]
elif sys.argv[1] == "wrong g":  # a homomorphism, but g(y, z) = z
    factorize._g_values = lambda *a: [0, 1, 0, 1]
else:  # the first inner term is the constant 0 map
    real = factorize._inner_maps
    def corrupted(*args):
        maps = real(*args)
        maps[0] = core.Homomorphism(maps[0].domain, z2, [0] * 8)
        return maps
    factorize._inner_maps = corrupted
try:
    factorize.factor_morphism(z2, z2, t, t, f)
except core.VerificationError as e:
    print("VerificationError:", e)
"""


@pytest.mark.parametrize(
    "corruption, message",
    [
        ("g table", "not a homomorphism"),
        ("inner map", "exchange identity failed"),
        ("wrong g", "factorization identity failed"),
    ],
)
def test_factorization_checks_run_under_optimize(under_optimize, corruption, message):
    out = under_optimize(_UNDER_OPTIMIZE, corruption)
    assert out.startswith("VerificationError:") and message in out, out


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


def test_factor_morphism_searches_hom_a_s_and_hom_a2_s_once(z2, count_calls):
    t = affine.find_affine_term(z2)
    cube = core.power_algebra(z2, 3)
    f = core.Homomorphism(cube, z2, [bin(x).count("1") % 2 for x in range(8)])  # parity
    searches = count_calls(core.enumerate_homs)
    fac = fz.factor_morphism(z2, z2, t, t, f)
    assert fac.inner_arity == 2
    searched = [(D.power_of.base.name, D.power_of.exponent, C.name) for D, C, *_ in searches]
    assert searched == [("z2", 1, "z2"), ("z2", 2, "z2")]
