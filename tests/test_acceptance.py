"""Acceptance suite: seven end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Expected
values are frozen from independent oracles: modular arithmetic for term
tables, Gaussian binomials for subuniverse counts, brute-force map filters
for refutation, and exact cardinality equality for the duality check.
"""

import itertools
import random
import time

import pytest

from adual import (
    affine,
    core,
    duality,
    entailment,
    factorize,
    homgroups,
    subcong,
    zoo,
)

ALGEBRAS = {
    "z2": zoo.cyclic_group(2),
    "z3": zoo.cyclic_group(3),
    "z4": zoo.cyclic_group(4),
    "v4": zoo.klein_group(),
    "z6": zoo.cyclic_group(6),
}


def _report(n, label, detail=""):
    print(f"ACCEPTANCE {n} {label}: PASS" + (f" ({detail})" if detail else ""))


def test_criterion_1_affine_detection():
    start = time.monotonic()
    for name, A in ALGEBRAS.items():
        t = affine.find_affine_term(A)
        assert t is not None, name
        if name == "v4":
            oracle = [
                x ^ y ^ z for x in range(4) for y in range(4) for z in range(4)
            ]
        else:
            n = A.size
            oracle = [
                (x - y + z) % n
                for x in range(n)
                for y in range(n)
                for z in range(n)
            ]
        assert t.table == tuple(oracle), name
    assert affine.find_affine_term(zoo.two_element_semilattice()) is None
    assert affine.find_affine_term(zoo.symmetric_group_3()) is None
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(1, "affine detection", f"{elapsed:.2f}s for 7 algebras")


def test_criterion_2_galois_correspondence():
    checked = 0
    for name, A in ALGEBRAS.items():
        assert affine.find_affine_term(A) is not None
        for report in subcong.verify_galois(A):
            assert report.passed, (name, report.carrier, report.counterexample)
            checked += 1
    _report(2, "galois correspondence", f"{checked} subalgebras")


def test_criterion_3_counting():
    names = list(ALGEBRAS)
    terms = {n: affine.find_affine_term(ALGEBRAS[n]) for n in names}
    pairs = 0
    for a in names:
        for b in names:
            A, B = ALGEBRAS[a], ALGEBRAS[b]
            count = len(core.enumerate_homs(A, B))
            for mode in ("group", "abelian"):
                rep = homgroups.hom_divisibility_check(A, B, count, mode)
                assert rep.passed, (a, b, mode, rep.computed, rep.bound)
            pairs += 1

    hk_checked = 0
    for a in names:
        for s in names:
            A, S = ALGEBRAS[a], ALGEBRAS[s]
            homs = core.enumerate_homs(A, S)
            if not homs:
                continue
            H = homgroups.build_hk_group(A, S, terms[a], terms[s], homs[0], homs)
            bound = homgroups.hom_count_bound(A.size, S.size, "group")
            assert bound % H.size == 0, (a, s)
            fam = homgroups.generating_family(H)
            sig_a = homgroups.prime_signature(A.size)
            sig_s = homgroups.prime_signature(S.size)
            cap = max(
                (
                    sig_a.exponent_of(p) * sig_s.exponent_of(p)
                    for p, _ in sig_a.factorization
                ),
                default=0,
            )
            assert fam.size <= max(cap, 0), (a, s, fam.size, cap)
            hk_checked += 1

    si_checked = 0
    for a in names:
        A = ALGEBRAS[a]
        bound = homgroups.cardinal_si_bound(A)
        for n in (1, 2):
            P = core.power_algebra(A, n)
            for w in subcong.meet_irreducibles(P):
                kt = subcong.kernel_quotient(P, w)
                assert bound % kt.quotient.size == 0, (a, n, kt.quotient.size)
                si_checked += 1
    _report(
        3,
        "counting bounds",
        f"{pairs} hom pairs, {hk_checked} hom groups, {si_checked} SI quotients",
    )


def test_criterion_4_factorization():
    z2, z4 = ALGEBRAS["z2"], ALGEBRAS["z4"]
    t = {"z2": affine.find_affine_term(z2), "z4": affine.find_affine_term(z4)}
    rng = random.Random(0)
    total = 0
    for a, s in itertools.product(("z2", "z4"), repeat=2):
        A, S = ALGEBRAS[a], ALGEBRAS[s]
        for n in range(1, 5):
            P = core.power_algebra(A, n)
            homs = core.enumerate_homs(P, S)
            if a == "z4" and len(homs) > 100:
                homs = rng.sample(homs, 100)
            for f in homs:
                fac = factorize.factor_morphism(A, S, t[a], t[s], f)
                # the identity f = g(p_1, .., p_{N+1}), recomputed on every input
                for code in range(f.domain.size):
                    xs = core.decode_code(code, [A.size] * n)
                    image = [affine.eval_affine_combination(p, t[a], 0, xs) for p in fac.terms]
                    assert fac.g(core.encode_tuple(image, A.size)) == f(code)
                total += 1
    _report(4, "factorization identity", f"{total} morphisms, all exact")


def test_criterion_5_entailment_pipeline():
    z2 = ALGEBRAS["z2"]
    t = affine.find_affine_term(z2)
    relations = core.enumerate_subuniverses(core.power_algebra(z2, 4))
    premise_pool = set(relations)
    assert len(premise_pool) == 67 == duality.build_alter_ego(z2, 4).count

    certified = []
    for arity in (1, 2, 3):
        P = core.power_algebra(z2, arity)
        for R in core.enumerate_subuniverses(P):
            res = entailment.reduce_to_bounded_arity(z2, t, R, 3)
            for b in res.bounded_premises:
                assert b.arity == 4
                assert b in premise_pool
            assert entailment.replay_certificate(res.certificate) == R
            certified.append(R)
    assert len(certified) == 23

    t_cert = entailment.eliminate_t(z2, t, 4)
    assert t_cert.premises[0] in premise_pool
    assert entailment.verify_certificate(t_cert)

    premises = list(relations) + [t]
    for R in certified:
        outcome = entailment.refute_entailment(z2, premises, R, 2)
        assert not outcome.refuted, R
    _report(
        5,
        "entailment pipeline",
        f"{len(certified)} relations certified from 4-ary premises, none refuted",
    )


def test_criterion_6_duality_desk_scale():
    start = time.monotonic()
    for name, expected in (("z2", 67), ("z3", 212)):
        A = ALGEBRAS[name]
        assert duality.arity_bound(A) == 4
        ego = duality.build_alter_ego(A, 4)
        assert ego.count == expected
        assert len(core.enumerate_subuniverses(core.power_algebra(A, 4))) == expected
        reports = duality.verify_duality(A, k_max=2, ego=ego)
        for r in reports:
            assert r.bijective, (name, r.carrier, r.double_dual_size, r.b_size)
            assert r.double_dual_size == r.b_size
    # negative control: the diagonal alone does not dualize
    z2 = ALGEBRAS["z2"]
    diag_ego = duality.build_alter_ego(z2, 4, relations=[core.diagonal_relation(2, 4)])
    control = duality.verify_duality(z2, k_max=1, ego=diag_ego)
    assert any(not r.bijective for r in control)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    _report(6, "duality at desk scale", f"{elapsed:.2f}s, negative control fails")


def test_criterion_7_bound_formula():
    values = {}
    for size in (2, 4, 12):
        A = zoo.cyclic_group(size)
        values[size] = duality.arity_bound(A)
    assert values == {2: 4, 4: 9, 12: 9}
    _report(7, "arity bound formula", "N(2,4,12) = 4,9,9")
