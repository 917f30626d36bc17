import itertools

import pytest

from adual import affine, core, factorize as fz, homgroups as hg, zoo


def family_for(A, S, t_A, t_S, f, n):
    k = core.Homomorphism(
        A, S, [f(core.encode_tuple((x,) * n, A.size)) for x in range(A.size)]
    )
    group = hg.build_hk_group(A, S, t_A, t_S, k)
    return hg.generating_family(group)


def test_sum_of_five_over_z2(z2, terms):
    t2 = terms["z2"]
    P5 = core.power_algebra(z2, 5)
    f = core.Homomorphism(P5, z2, [bin(c).count("1") % 2 for c in range(32)])
    fam = family_for(z2, z2, t2, t2, f, 5)
    fac = fz.factor_morphism(z2, z2, t2, t2, f, fam)
    assert fac.mode == "exhaustive"
    assert fac.inner_arity == 2
    # p1 evaluates to the full sum over Z2, p2 is the first projection
    assert tuple(c % 2 for c in fac.terms[0].coeffs) == (1, 1, 1, 1, 1)
    assert fac.terms[1].coeffs == (1, 0, 0, 0, 0)
    # g(y, z) = y
    assert fac.g.mapping == (0, 0, 1, 1)


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
    assert fac.mode == "exhaustive"


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


def test_sampled_mode_on_tiny_budget(z2, terms):
    t2 = terms["z2"]
    P4 = core.power_algebra(z2, 4)
    f = core.Homomorphism(P4, z2, [bin(c).count("1") % 2 for c in range(16)])
    fam = family_for(z2, z2, t2, t2, f, 4)
    fac = fz.factor_morphism(z2, z2, t2, t2, f, fam, budget=8, seed=7)
    assert fac.mode == "sampled" and fac.seed == 7


def test_large_power_morphism_spot_check(z2, terms):
    # a bogus mapping must fail the sampled homomorphism check
    bad = fz.LargePowerMorphism(z2, 3, z2, tuple([0] * 7 + [1]))
    with pytest.raises(ValueError):
        bad.spot_check(samples=500, seed=1)
