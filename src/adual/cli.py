"""Command-line entry point: one binary with verb-style subcommands.

Reports go to standard output, diagnostics to standard error.  Exit codes:
0 for PASS/INFO, 1 for FAIL, 2 for input errors, 3 for a refused budget.
Output is deterministic for fixed inputs, seed and budget, except for the
time field in the duality summary line.
All input files of a job, option files included, are parsed in order into one document.

A job computes each object it needs once and passes it down: the argument
parser is built once per process, at import; `hom` enumerates Hom(A, B)
once and hands its size to both divisibility checks; `galois` computes
Sub(A), Con(A) and theta_X for every X in Sub(A) once, in one
`subcong.verify_galois` call, and checks every carrier against them.
"""

from __future__ import annotations

import argparse
import sys
import time

from .core import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    ParseError,
    enumerate_homs,
    enumerate_subuniverses,
    power_algebra,
)
from . import affine, duality, entailment, factorize, homgroups, subcong, textio

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load(paths, budget, doc=None):
    """Parse the files at `paths`, in order, into `doc` (a new Document if None)."""
    doc = textio.Document() if doc is None else doc
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            textio.parse_document(fh.read(), source=path, doc=doc, budget=budget)
    return doc


def _first_algebra(doc, path):
    if not doc.algebras:
        raise ValueError(f"no algebra block found in {path}")
    return next(iter(doc.algebras.values()))


def _relations_over(doc, A, start=0):
    """The relations of `doc` from index `start` on; each must name the algebra A."""
    entries = doc.relations[start:]
    for (name, alg_name, _), (source, line) in zip(entries, doc.relation_lines[start:]):
        if alg_name != A.name:
            raise ParseError(f"relation {name} is not over {A.name}", source, line, alg_name)
    return [R for _, _, R in entries]


def _at_least_one(args, *options):
    """Refuse, as an input error, a value below 1 given to any of `options`."""
    for option in options:
        value = getattr(args, option)
        if value is not None and value < 1:
            raise ValueError(f"--{option.replace('_', '-')} must be >= 1, got {value}")


def _header(args):
    print(f"# adual {args.verb} seed={args.seed} budget={args.budget}")


def _need_term(A, budget):
    t = affine.find_affine_term(A, budget)
    if t is None:
        print(f"FAIL: {A.name} has no affine term")
    return t


def _need_terms(A, S, budget):
    """The affine terms of A and S, searched once when S is A."""
    t_A = _need_term(A, budget)
    return t_A, t_A if S is A else _need_term(S, budget)


def cmd_check_abelian(args):
    doc = _load(args.files, args.budget)
    A = _first_algebra(doc, args.files[0])
    _header(args)
    t = _need_term(A, args.budget)
    if t is None:
        return EXIT_FAIL
    print(f"PASS: {A.name} is affine")
    print(textio.serialize_term_dump(t, A.name), end="")
    return EXIT_PASS


def cmd_bound(args):
    doc = _load(args.files, args.budget)
    A = _first_algebra(doc, args.files[0])
    _header(args)
    print(f"N = {duality.arity_bound(A)}")
    return EXIT_PASS


def cmd_sub(args):
    _at_least_one(args, "max_power")
    doc = _load(args.files, args.budget)
    A = _first_algebra(doc, args.files[0])
    _header(args)
    P = A if args.max_power == 1 else power_algebra(A, args.max_power, args.budget)
    rels = enumerate_subuniverses(P, args.budget)
    for i, r in enumerate(rels):
        print(textio.serialize_relation(r, f"s{i}", A.name), end="")
    print(f"count {len(rels)}")
    return EXIT_PASS


def cmd_galois(args):
    doc = _load(args.files, args.budget)
    A = _first_algebra(doc, args.files[0])
    _header(args)
    if _need_term(A, args.budget) is None:  # the correspondence is checked on affine algebras
        return EXIT_FAIL
    carriers = None
    if args.carrier:
        carriers = [tuple(int(v) for v in args.carrier.replace(",", " ").split())]
    reports = subcong.verify_galois(A, carriers, args.budget)
    for report in reports:
        for line in report.lines():
            print(line)
        print()
    ok = all(report.passed for report in reports)
    print("GALOIS " + ("PASS" if ok else "FAIL"))
    return EXIT_PASS if ok else EXIT_FAIL


def _two_algebras(doc, what):
    names = list(doc.algebras)
    if not names:
        raise ValueError(f"{what} needs two algebras")
    if len(names) == 1:
        return doc.algebras[names[0]], doc.algebras[names[0]]
    return doc.algebras[names[0]], doc.algebras[names[1]]


def cmd_hom(args):
    doc = _load(args.files, args.budget)
    A, B = _two_algebras(doc, "hom")
    _header(args)
    homs = enumerate_homs(A, B, args.budget)
    for i, h in enumerate(homs):
        print(textio.serialize_hom(h, f"h{i}"), end="")
    print(f"count {len(homs)}")
    ok = True
    for mode in ("group", "abelian"):
        try:
            report = homgroups.hom_divisibility_check(A, B, len(homs), mode, args.budget)
        except ValueError as e:
            print(f"{mode} mode: not applicable ({e})")
            continue
        for line in report.lines():
            print(line)
        ok = ok and report.passed
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_hk(args):
    doc = _load(args.files, args.budget)
    A, S = _two_algebras(doc, "hk")
    _header(args)
    t_A, t_S = _need_terms(A, S, args.budget)
    if t_A is None or t_S is None:
        return EXIT_FAIL
    homs = enumerate_homs(A, S, args.budget)
    if not homs:
        print(f"INFO: no morphism {A.name} -> {S.name}; the hom group is undefined")
        return EXIT_PASS
    k = homs[0]
    group = homgroups.build_hk_group(A, S, t_A, t_S, k, homs, args.budget)
    family = homgroups.generating_family(group)
    bound = homgroups.hom_count_bound(A.size, S.size, "group")
    print(f"base morphism k: {list(k.mapping)}")
    print(f"group order {group.size}, divides {bound}: {bound % group.size == 0}")
    print(f"generating family size {family.size}")
    for i, g in enumerate(family.generators):
        print(f"generator {i}: {group.elements[g].tolist()} (order {family.orders[i]})")
    ok = bound % group.size == 0
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_factorize(args):
    doc = _load(args.files, args.budget)
    if not doc.homs:
        raise ValueError("no hom block found")
    name, f = doc.homs[0]
    A = f.domain.power_of.base
    S = f.codomain
    _header(args)
    t_A, t_S = _need_terms(A, S, args.budget)
    if t_A is None or t_S is None:
        return EXIT_FAIL
    fac = factorize.factor_morphism(A, S, t_A, t_S, f, budget=args.budget)
    print(f"factorization of {name} through power {fac.inner_arity}")
    for j, term in enumerate(fac.terms):
        print(f"term p{j + 1}: " + " ".join(str(c) for c in term.coeffs))
    for j, row in enumerate(fac.coefficient_matrix):
        print(f"coefficients u_{j + 1}: " + " ".join(str(u) for u in row))
    print(textio.serialize_map("g", A.name, fac.inner_arity, S.name, fac.g.mapping), end="")
    print(f"identity verified: exhaustive (seed {args.seed})")
    print("FACTORIZE PASS")
    return EXIT_PASS


def cmd_entail(args):
    _at_least_one(args, "arity")
    doc = _load(args.files, args.budget)
    if not doc.relations:
        raise ValueError("no relation block found")
    rel_name, alg_name, R = doc.relations[0]
    A = doc.algebras[alg_name]
    _header(args)
    t = _need_term(A, args.budget)
    if t is None:
        return EXIT_FAIL
    N = duality.arity_bound(A) - 1 if args.arity is None else args.arity
    result = entailment.reduce_to_bounded_arity(A, t, R, N, args.budget)
    print(textio.serialize_certificate(result.certificate, f"{rel_name}-cert", A.name), end="")
    print(f"premises {len(result.bounded_premises)} of arity <= {N + 1}")
    print("ENTAIL PASS")
    return EXIT_PASS


def cmd_refute(args):
    _at_least_one(args, "arity")
    doc = _load(args.files + [args.premises, args.target], args.budget)
    if not doc.relations:
        raise ValueError("need premise and target relations")
    A = doc.algebras[doc.relations[-1][1]]
    *premises, target = _relations_over(doc, A)
    _header(args)
    outcome = entailment.refute_entailment(A, premises, target, args.arity, args.budget)
    print(outcome.message())
    if outcome.refuted:
        print("witness table: " + " ".join(str(v) for v in outcome.witness.table))
        print("REFUTED")
    else:
        print("NO-WITNESS")
    return EXIT_PASS


def cmd_replay(args):
    doc = _load(args.files, args.budget)
    if not doc.certificates:
        raise ValueError("no cert block found")
    _header(args)
    ok = True
    for name, alg_name, cert in doc.certificates:
        good = entailment.verify_certificate(cert, args.budget)
        print(f"cert {name}: " + ("PASS" if good else "FAIL"))
        ok = ok and good
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_duality(args):
    _at_least_one(args, "max_power", "arity")
    doc = _load(args.files, args.budget)
    A = _first_algebra(doc, args.files[0])
    relations = None
    if args.partial_relations:
        start = len(doc.relations)
        _load([args.partial_relations], args.budget, doc)
        relations = _relations_over(doc, A, start)
    _header(args)
    N = duality.arity_bound(A) if args.arity is None else args.arity
    formula = None if relations is not None else duality.subgroup_formula(A, args.budget)
    if args.max_power >= 3:
        ego_cost = f"{A.size ** N} alter-ego codes"
        if formula is not None:
            ego_cost = "the alter ego counted by the subgroup formula"
        print(
            f"# cost estimate: enumerating Sub({A.name}^{args.max_power}) over "
            f"{A.size ** args.max_power} elements and {ego_cost}",
            file=sys.stderr,
        )
    start = time.monotonic()
    if relations is None:  # counted with the formula the estimate checked
        ego = duality.AlterEgo(A, (), N, count=duality.relation_count(A, N, formula, args.budget))
    else:
        ego = duality.build_alter_ego(A, N, args.budget, relations=relations)
    reports = duality.verify_duality(A, args.max_power, args.budget, ego=ego)
    elapsed = time.monotonic() - start
    for r in reports:
        for line in r.lines():
            print(line)
        print()
    verdict = "PASS" if all(r.bijective for r in reports) else "FAIL"
    mode = "" if ego.complete else " partial"
    print(
        f"DUALITY {verdict} k_max={args.max_power} relations={ego.count}"
        f"{mode} time={elapsed:.2f}s"
    )
    return EXIT_PASS if verdict == "PASS" else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adual",
        description="compute with finite affine algebras: terms, congruence "
        "correspondence, hom groups, factorization, entailment, duality",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("files", nargs="+", help="input files")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)
        return p

    add("check-abelian", cmd_check_abelian, help="find the affine term or fail")
    add("bound", cmd_bound, help="the relation arity bound for the dualizing structure")
    p = add("sub", cmd_sub, help="enumerate subuniverses of a power")
    p.add_argument("--max-power", type=int, default=1)
    p = add("galois", cmd_galois, help="verify the subalgebra/congruence correspondence")
    p.add_argument("--carrier", help="restrict to one carrier, e.g. '0,2'")
    add("hom", cmd_hom, help="enumerate homs and check divisibility bounds")
    add("hk", cmd_hk, help="the group on diagonal-fixed homs of the square")
    add("factorize", cmd_factorize, help="factor a morphism through a bounded power")
    p = add("entail", cmd_entail, help="certificate for a relation from bounded premises")
    p.add_argument("--arity", type=int, help="generating bound N (premises get arity N+1)")
    p = add("refute", cmd_refute, help="search for a map violating a target")
    p.add_argument("--premises", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--arity", type=int, default=2)
    add("replay", cmd_replay, help="re-execute certificates and compare")
    p = add("duality", cmd_duality, help="desk-scale duality check on bounded powers")
    p.add_argument("--max-power", type=int, default=2)
    p.add_argument("--arity", type=int, help="override the alter-ego arity")
    p.add_argument("--partial-relations", help="file of relations for partial mode")
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
