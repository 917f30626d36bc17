import itertools

import pytest

from adual import affine, core, homgroups as hg, zoo


def test_prime_signatures():
    assert hg.prime_signature(4).factorization == ((2, 2),)
    assert hg.prime_signature(12).factorization == ((2, 2), (3, 1))
    assert hg.prime_signature(1).factorization == ()
    assert hg.prime_signature(360).value == 360
    with pytest.raises(ValueError):
        hg.prime_signature(0)


def test_hom_count_bounds():
    # group mode: prime-wise alpha*beta; abelian mode: (alpha+1)*beta
    assert hg.hom_count_bound(4, 4, "group") == 16
    assert hg.hom_count_bound(2, 4, "group") == 4
    assert hg.hom_count_bound(2, 3, "group") == 1
    assert hg.hom_count_bound(2, 3, "abelian") == 3
    assert hg.hom_count_bound(6, 4, "abelian") == 2 ** (2 * 2)


def test_divisibility_examples(z2, z3, z4):
    r = hg.hom_divisibility_check(z4, z4, len(core.enumerate_homs(z4, z4)), "group")
    assert (r.computed, r.bound, r.passed) == (4, 16, True)
    r = hg.hom_divisibility_check(z2, z4, len(core.enumerate_homs(z2, z4)), "group")
    assert (r.computed, r.bound, r.passed) == (2, 4, True)
    r = hg.hom_divisibility_check(z2, z3, len(core.enumerate_homs(z2, z3)), "group")
    assert (r.computed, r.bound, r.passed) == (1, 1, True)


def test_divisibility_mode_preconditions(semilattice, z2):
    with pytest.raises(ValueError):
        hg.hom_divisibility_check(semilattice, z2, 2, "abelian")
    with pytest.raises(ValueError):
        hg.hom_divisibility_check(semilattice, z2, 2, "group")


def test_generating_family_sizes(z4, v4, terms):
    G4 = affine.group_from_affine(terms["z4"], 0)
    fam = hg.generating_family(G4)
    assert fam.size == 1 and fam.orders == (4,)
    Gv = affine.group_from_affine(terms["v4"], 0)
    famv = hg.generating_family(Gv)
    assert famv.size == 2 and famv.orders == (2, 2)
    trivial = affine.AbelianGroup(1, 0, (0,))
    ft = hg.generating_family(trivial)
    assert ft.size == 0 and ft.expressions == {0: ()}


def test_generating_family_expressions_reconstruct(z6, terms):
    G = affine.group_from_affine(terms["z6"], 0)
    fam = hg.generating_family(G)
    for x, coeffs in fam.expressions.items():
        acc = G.neutral
        for u, g in zip(coeffs, fam.generators):
            acc = G.add(acc, G.multiple(g, u))
        assert acc == x
    assert fam.size <= hg.prime_signature(6).max_exponent()


def test_generating_family_padding(z4, terms):
    G = affine.group_from_affine(terms["z4"], 0)
    fam = hg.generating_family(G).padded(3)
    assert fam.size == 3
    assert all(u[1:] == (0, 0) for u in fam.expressions.values())
    with pytest.raises(ValueError):
        fam.padded(1)


def test_decompose_in_group(z4, terms):
    G = affine.group_from_affine(terms["z4"], 0)
    fam = hg.generating_family(G)
    assert hg.decompose_in_group(fam, G.neutral) == (0,)
    assert hg.decompose_in_group(fam, fam.generators[0]) == (1,)
    doubled = G.add(fam.generators[0], fam.generators[0])
    assert hg.decompose_in_group(fam, doubled) == (2,)
    with pytest.raises(ValueError):
        hg.decompose_in_group(fam, 99)


def _hk(A, S, terms_by_name, k_mapping):
    k = core.Homomorphism(A, S, k_mapping)
    return hg.build_hk_group(
        A, S, terms_by_name[A.name], terms_by_name[S.name], k, core.enumerate_homs(A, S)
    )


def test_hk_group_z2_identity(z2, terms):
    H = _hk(z2, z2, terms, (0, 1))
    # maps f(x,y) = ax + by with a + b = 1: the two projections
    assert sorted(H.elements.tolist()) == [[0, 0, 1, 1], [0, 1, 0, 1]]
    assert H.elements[H.neutral].tolist() == [0, 1, 0, 1]  # kbar(x,y) = y
    assert H.size == 2


def test_hk_group_z4_identity(z4, terms):
    H = _hk(z4, z4, terms, (0, 1, 2, 3))
    assert H.size == 4
    fam = hg.generating_family(H)
    assert fam.size == 1 and fam.orders == (4,)


def test_hk_group_mixed_trivial(z2, z3, terms):
    H = _hk(z2, z3, terms, (0, 0))
    assert H.size == 1


def test_hk_kernel_of_restriction_is_neutral_only(z4, terms):
    # the only element restricting to k on {0} x A is kbar itself
    H = _hk(z4, z4, terms, (0, 1, 2, 3))
    hits = [
        i
        for i, f in enumerate(H.elements)
        if all(f[0 * 4 + x] == H.k(x) for x in range(4))
    ]
    assert hits == [H.neutral]


def test_hk_base_change_isomorphism(z4, terms):
    # groups over different base morphisms have equal order; the explicit
    # base-change maps are verified inside the constructor, compare sizes here
    sizes = set()
    homs = core.enumerate_homs(z4, z4)
    for k in homs:
        H = hg.build_hk_group(z4, z4, terms["z4"], terms["z4"], k, homs)
        sizes.add(H.size)
    assert sizes == {4}


def test_hk_group_enumerates_homs_on_the_square_once(v4, terms, monkeypatch):
    # the base-change check takes Hom(A, S) from its caller and each j's
    # fiber from the one list of Hom(A^2, S)
    real = hg.enumerate_homs
    domains = []

    def counting(A, B, *args, **kwargs):
        domains.append(A.name)
        return real(A, B, *args, **kwargs)

    monkeypatch.setattr(hg, "enumerate_homs", counting)
    homs = real(v4, v4)
    H = hg.build_hk_group(v4, v4, terms["v4"], terms["v4"], homs[1], homs)
    assert H.size == 16
    assert domains == ["v4^2"]


def test_hk_invalid_base_morphism(z4, terms):
    with pytest.raises(ValueError):
        _hk(z4, z4, terms, (0, 3, 2, 2))


def test_hk_base_morphism_compared_by_tables_not_names(z4, terms, relabeled):
    twin = relabeled(z4, (1, 0, 2, 3))  # also named z4; its zero is 1
    assert twin.name == z4.name and twin.ops != z4.ops
    k = core.Homomorphism(twin, z4, (1, 0, 2, 3))  # the isomorphism back to z4
    with pytest.raises(ValueError, match="base morphism"):
        hg.build_hk_group(z4, z4, terms["z4"], terms["z4"], k, core.enumerate_homs(z4, z4))
    hg.build_hk_group(twin, z4, affine.find_affine_term(twin), terms["z4"], k, core.enumerate_homs(twin, z4))


def test_cardinal_has_bound_and_family(z2, z3, z4, z6, v4, terms):
    algebras = (z2, z3, z4, z6, v4)
    for A in algebras:
        for S in algebras:
            homs = core.enumerate_homs(A, S)
            if not homs:
                continue
            H = hg.build_hk_group(A, S, terms[A.name], terms[S.name], homs[0], homs)
            bound = hg.hom_count_bound(A.size, S.size, "group")
            assert bound % H.size == 0, (A.name, S.name)
            fam = hg.generating_family(H)
            sig_a = hg.prime_signature(A.size)
            sig_s = hg.prime_signature(S.size)
            cap = max(
                (
                    sig_a.exponent_of(p) * sig_s.exponent_of(p)
                    for p, _ in sig_a.factorization
                ),
                default=0,
            )
            assert fam.size <= cap or H.size == 1


def test_cardinal_si_bound(z2, z4, z6):
    assert hg.cardinal_si_bound(z4) == 16
    assert hg.cardinal_si_bound(z2) == 2
    assert hg.cardinal_si_bound(z6) == 6


def test_kearnes_examples(z2, z4):
    r = hg.kearnes_divisibility_check(z4, z2)
    assert (r.computed, r.bound, r.passed) == (2, 4, True)
    assert hg.kearnes_divisibility_check(z4, z4).passed
    assert hg.kearnes_divisibility_check(z2, z2).passed


_UNDER_OPTIMIZE = """
import sys

from adual import affine, core, homgroups, zoo

if __debug__ or not sys.flags.optimize:
    sys.exit("not running under -O")


class Corrupted(homgroups.HkGroup):
    \"\"\"The group with one entry of its addition table changed: i + i for some i not neutral.\"\"\"

    def __init__(self, *args):
        *rest, neutral, add_table = args
        size = len(rest[-1])
        table = list(add_table)
        i = (neutral + 1) % size
        table[i * size + i] = (table[i * size + i] + 1) % size
        super().__init__(*rest, neutral, table)


homgroups.HkGroup = Corrupted
z4 = zoo.cyclic_group(4)
t = affine.find_affine_term(z4)
try:
    homgroups.build_hk_group(z4, z4, t, t, core.Homomorphism(z4, z4, range(4)), core.enumerate_homs(z4, z4))
except core.VerificationError as e:
    print("VerificationError:", e)
"""


def test_group_checks_run_under_optimize(under_optimize):
    out = under_optimize(_UNDER_OPTIMIZE)
    assert out.startswith("VerificationError:"), out
