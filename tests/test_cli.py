import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from adual import affine, cli, core, duality, textio, zoo

from conftest import serialize_algebra

DATA = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for A in (
        zoo.cyclic_group(2),
        zoo.cyclic_group(4),
        zoo.cyclic_group(12),
        zoo.two_element_semilattice(),
    ):
        p = tmp_path / f"{A.name}.alg"
        p.write_text(serialize_algebra(A))
        paths[A.name] = str(p)
    return paths, tmp_path


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_verb(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["bound", paths["z4"]])
    assert code == 0
    assert "N = 9" in out
    code, out, _ = run(capsys, ["bound", paths["z12"]])
    assert "N = 9" in out


def test_check_abelian_verb(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["check-abelian", paths["meet2"]])
    assert code == 1
    assert "no affine term" in out
    code, out, _ = run(capsys, ["check-abelian", paths["z4"]])
    assert code == 0
    assert "op t 3" in out


def test_sub_verb(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["sub", paths["z2"], "--max-power", "2"])
    assert code == 0
    assert "count 5" in out
    # the subspaces of F_2^5 and F_3^4
    code, out, _ = run(capsys, ["sub", paths["z2"], "--max-power", "5"])
    assert code == 0 and out.endswith("count 374\n")
    code, out, _ = run(capsys, ["sub", str(DATA / "z3.alg"), "--max-power", "4"])
    assert code == 0 and out.endswith("count 212\n")


Z4AFF = str(DATA / "z4aff.alg")


def test_ternary_algebra_verbs(capsys):
    """The affine reduct <Z4; x-y+z>: one ternary operation, no constants."""
    code, out, _ = run(capsys, ["sub", Z4AFF])
    assert code == 0 and out.endswith("count 7\n")
    code, out, _ = run(capsys, ["sub", Z4AFF, "--max-power", "2"])
    assert code == 0 and out.endswith("count 75\n")
    code, out, _ = run(capsys, ["check-abelian", Z4AFF])
    term = " ".join(str((x - y + z) % 4) for x, y, z in itertools.product(range(4), repeat=3))
    assert code == 0
    assert out.splitlines()[1:] == ["PASS: z4aff is affine", "# affine term of z4aff", "op t 3", term]


def test_galois_verb(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["galois", paths["z4"]])
    assert code == 0
    assert "GALOIS PASS" in out
    code, out, _ = run(capsys, ["galois", paths["z4"], "--carrier", "0,2"])
    assert code == 0


def test_hom_and_hk_verbs(files, capsys):
    paths, _ = files
    code, out, _ = run(capsys, ["hom", paths["z2"], paths["z4"]])
    assert code == 0
    assert "count 2" in out and "verdict: PASS" in out
    code, out, _ = run(capsys, ["hk", paths["z4"]])
    assert code == 0
    assert "group order 4" in out


def test_hom_on_an_empty_hom_set_is_not_applicable(capsys, tmp_path):
    # s(x) = x + 1 admits no hom h: Z2 -> Z3, as h(0) = h(s(s(0))) = h(0) + 2
    def write(name, n, ops):
        x = range(n)
        tables = {
            "add 2": [(a + b) % n for a in x for b in x],
            "neg 1": [-a % n for a in x],
            "s 1": [(a + 1) % n for a in x],
            "t 3": [(a - b + c) % n for a in x for b in x for c in x],
        }
        blocks = "".join(f"op {op}\n" + " ".join(map(str, tables[op])) + "\n" for op in ops)
        path = tmp_path / f"{name}.alg"
        path.write_text(f"algebra {name}\nsize {n}\n" + blocks)
        return str(path)

    empty = "not applicable (Hom(A,B) is empty)"
    for ops, group_line in (
        (["s 1", "t 3"], "not applicable (group mode needs an explicit Abelian group operation)"),
        (["add 2", "neg 1", "s 1"], empty),
    ):
        code, out, err = run(capsys, ["hom", write("a", 2, ops), write("b", 3, ops)])
        assert code == 0 and err == "", err
        assert out.splitlines()[1:] == ["count 0", f"group mode: {group_line}", f"abelian mode: {empty}"]


def test_hom_searches_hom_a_b_once(count_calls, capsys):
    searches = count_calls(core.enumerate_homs)
    code, out, _ = run(capsys, ["hom", str(DATA / "z2.alg"), str(DATA / "z4.alg")])
    assert code == 0 and out.count("verdict: PASS") == 2
    assert len(searches) == 1


@pytest.mark.parametrize("a, s", [("z2", "z4"), ("v4", "z6"), ("z6", "z6"), ("z4", "v4")])
def test_hk_searches_hom_a_s_and_hom_a2_s_once(a, s, count_calls, capsys):
    # build_hk_group takes the Hom(A, S) that cmd_hk searched and searches only Hom(A^2, S)
    searches = count_calls(core.enumerate_homs)
    files = [str(DATA / f"{a}.alg")] + ([str(DATA / f"{s}.alg")] if s != a else [])
    code, out, _ = run(capsys, ["hk", *files])
    assert code == 0 and "generating family size" in out
    searched = [(D.power_of.base.name, D.power_of.exponent, C.name) for D, C, *_ in searches]
    assert searched == [(a, 1, s), (a, 2, s)]


def test_main_builds_no_parser_per_call(count_calls, capsys):
    builds = count_calls(cli.build_parser)
    for _ in range(2):
        assert run(capsys, ["bound", str(DATA / "z2.alg")])[0] == 0
    assert builds == []


def test_the_shared_parser_carries_nothing_from_one_call_to_the_next(capsys):
    # each stdout equals that of a fresh process, so no flag or default leaks
    jobs = [
        ["galois", str(DATA / "z4.alg"), "--carrier", "0,2"],
        ["galois", str(DATA / "z4.alg")],
        ["duality", str(DATA / "z2.alg"), "--max-power", "1", "--arity", "2"],
        ["duality", str(DATA / "z2.alg"), "--max-power", "1"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    untimed = lambda out: re.sub(r"time=\S+", "time=", out)
    outs = []
    for argv in jobs:
        outs.append(untimed(run(capsys, argv)[1]))
        fresh = subprocess.run(
            [sys.executable, "-m", "adual.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert outs[-1] == untimed(fresh.stdout), argv
    # each pair differs, so a value left over from the first call would show
    assert outs[0] != outs[1] and outs[2] != outs[3]


def test_no_affine_term_fails_once(capsys, tmp_path):
    code, out, _ = run(capsys, ["hk", str(DATA / "meet2.alg")])
    assert code == 1 and out.splitlines()[1:] == ["FAIL: meet2 has no affine term"]
    A = zoo.two_element_semilattice()
    first = core.Homomorphism(core.power_algebra(A, 2), A, [c // 2 for c in range(4)])
    hom_file = tmp_path / "first.hom"
    hom_file.write_text(serialize_algebra(A) + textio.serialize_hom(first, "first"))
    code, out, _ = run(capsys, ["factorize", str(hom_file)])
    assert code == 1 and out.splitlines()[1:] == ["FAIL: meet2 has no affine term"]


def test_hk_on_one_algebra_searches_its_term_once(capsys, monkeypatch):
    searched = []
    real = affine.find_affine_term
    monkeypatch.setattr(affine, "find_affine_term", lambda A, budget: searched.append(A.name) or real(A, budget))
    code, out, _ = run(capsys, ["hk", str(DATA / "z4.alg")])
    assert code == 0 and "group order 4" in out
    assert searched == ["z4"]


def test_factorize_entail_replay_refute(files, capsys, tmp_path):
    paths, _ = files
    z2 = zoo.cyclic_group(2)
    P3 = core.power_algebra(z2, 3)
    f = core.Homomorphism(P3, z2, [bin(c).count("1") % 2 for c in range(8)])
    hom_file = tmp_path / "parity.hom"
    hom_file.write_text(serialize_algebra(z2) + textio.serialize_hom(f, "parity"))
    code, out, _ = run(capsys, ["factorize", str(hom_file)])
    assert code == 0 and "FACTORIZE PASS" in out

    rel_file = tmp_path / "diag3.rel"
    rel_file.write_text(
        textio.serialize_relation(core.diagonal_relation(2, 3), "diag3", "z2")
    )
    code, out, _ = run(capsys, ["entail", paths["z2"], str(rel_file), "--arity", "3"])
    assert code == 0 and "ENTAIL PASS" in out
    cert_text = "\n".join(
        line for line in out.splitlines() if not line.startswith(("#", "premises", "ENTAIL"))
    )
    cert_file = tmp_path / "diag3.cert"
    cert_file.write_text(cert_text + "\n")
    code, out, _ = run(capsys, ["replay", str(cert_file)])
    assert code == 0 and "PASS" in out

    prem_file = tmp_path / "prem.rel"
    prem_file.write_text(
        textio.serialize_relation(core.diagonal_relation(2, 2), "diag2", "z2")
    )
    target_file = tmp_path / "target.rel"
    target_file.write_text(
        textio.serialize_relation(core.graph_relation(z2.op("add")), "gadd", "z2")
    )
    code, out, _ = run(
        capsys,
        [
            "refute",
            paths["z2"],
            "--premises",
            str(prem_file),
            "--target",
            str(target_file),
            "--arity",
            "2",
        ],
    )
    assert code == 0 and "REFUTED" in out


def test_entail_stdout_replays_as_is(files, capsys, tmp_path):
    paths, _ = files
    rel_file = tmp_path / "diag3.rel"
    rel_file.write_text(
        textio.serialize_relation(core.diagonal_relation(2, 3), "diag3", "z2")
    )
    code, entail_out, _ = run(capsys, ["entail", paths["z2"], str(rel_file), "--arity", "3"])
    assert code == 0
    assert re.search(r"\npremises \d+ of arity <= 4\nENTAIL PASS\n$", entail_out)
    cert_file = tmp_path / "diag3.cert"
    cert_file.write_text(entail_out)
    code, out, err = run(capsys, ["replay", str(cert_file)])
    assert code == 0, err
    assert "cert diag3-cert: PASS" in out


def test_duality_verb_and_determinism(files, capsys):
    paths, _ = files
    code, out1, _ = run(capsys, ["duality", paths["z2"], "--max-power", "2"])
    assert code == 0
    assert re.search(r"DUALITY PASS k_max=2 relations=67 time=\S+", out1)
    code, out2, _ = run(capsys, ["duality", paths["z2"], "--max-power", "2"])
    scrub = lambda s: re.sub(r"time=\S+", "time=_", s)
    assert scrub(out1) == scrub(out2)


def test_duality_passes_where_k_reaches_n(capsys):
    # N = 4 for both: z3 at k = 3 and z2 at k = 5, refused before interpolation
    for name, k, relations in (("z3", 3, 212), ("z2", 5, 67)):
        code, out, _ = run(capsys, ["duality", str(DATA / f"{name}.alg"), "--max-power", str(k)])
        assert code == 0
        assert re.search(rf"^DUALITY PASS k_max={k} relations={relations} time=", out, re.M)
        assert "NOT surjective" not in out


@pytest.mark.parametrize(
    "name, k, relations",
    [
        ("z4", 2, 22719469960557),
        ("v4", 1, 17741753171749626840952685),
        ("z6", 1, 14204),
        ("z4aff", 1, 16309103878554003),
    ],
)
def test_duality_counts_the_alter_ego_by_formula(capsys, name, k, relations):
    # k < N for all four, so these checks cannot fail; they show the pairs are reached
    code, out, _ = run(capsys, ["duality", str(DATA / f"{name}.alg"), "--max-power", str(k)])
    assert code == 0
    assert re.search(rf"^DUALITY PASS k_max={k} relations={relations} time=", out, re.M)
    assert "NOT surjective" not in out


def test_duality_z4aff_power_two_is_refused(capsys):
    code, out, err = run(capsys, ["duality", str(DATA / "z4aff.alg"), "--max-power", "2"])
    assert code == 3 and "DUALITY" not in out
    assert "refused to materialize 1007760 elements" in err and "projection codes" in err


def test_factorize_prints_g_and_refuses_what_it_cannot_verify(capsys, tmp_path):
    z2 = zoo.cyclic_group(2)
    P3 = core.power_algebra(z2, 3)
    f = core.Homomorphism(P3, z2, [bin(c).count("1") % 2 for c in range(8)])
    hom_file = tmp_path / "parity.hom"
    hom_file.write_text(serialize_algebra(z2) + textio.serialize_hom(f, "parity"))
    code, out, _ = run(capsys, ["factorize", str(hom_file), "--seed", "4"])
    assert code == 0
    assert out.splitlines()[1:] == [
        "factorization of parity through power 2",
        "term p1: -1 1 1",
        "term p2: 1 0 0",
        "coefficients u_1: 1 1 1",
        "hom g from z2 power 2 to z2",
        "m 0 0 1 1",
        "identity verified: exhaustive (seed 4)",
        "FACTORIZE PASS",
    ]
    # g: Z12^3 -> V4 depends on both generator coordinates, and the table of
    # add on Z12^3 has 1728^2 cells: refused, not spot-checked
    A, S = zoo.cyclic_group(12), zoo.klein_group()
    f = core.enumerate_homs(A, S)[-1]
    hom_file.write_text(
        serialize_algebra(A) + serialize_algebra(S) + textio.serialize_hom(f, "f")
    )
    code, out, err = run(capsys, ["factorize", str(hom_file)])
    assert code == 3 and "FACTORIZE" not in out
    assert "refused to materialize 2985984 elements" in err


def test_exit_codes_for_bad_input(files, capsys, tmp_path):
    paths, _ = files
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nsize nope\n")
    code, _, err = run(capsys, ["bound", str(bad)])
    assert code == 2
    assert "bad.alg" in err

    code, _, err = run(capsys, ["sub", paths["z4"], "--max-power", "12"])
    assert code == 3
    assert "budget" in err


def test_header_line(files, capsys):
    paths, _ = files
    _, out, _ = run(capsys, ["bound", paths["z4"], "--seed", "5", "--budget", "999"])
    assert out.splitlines()[0] == "# adual bound seed=5 budget=999"


def test_duality_power_three_prints_cost_estimate(files, capsys):
    paths, _ = files
    code, out, err = run(
        capsys, ["duality", paths["z2"], "--max-power", "3"]
    )
    assert code == 0
    assert "cost estimate" in err
    assert "subgroup formula" in err and "alter-ego codes" not in err
    assert "DUALITY PASS k_max=3" in out
    # meet2 has no affine term: its alter ego is enumerated over 2**2 codes
    code, out, err = run(
        capsys, ["duality", paths["meet2"], "--max-power", "3", "--arity", "2"]
    )
    assert "# cost estimate: enumerating Sub(meet2^3) over 8 elements and 4 alter-ego codes" in err


def test_duality_checks_the_subgroup_formula_once(count_calls, capsys):
    calls = count_calls(duality.subgroup_formula)
    assert cli.main(["duality", str(DATA / "z3.alg"), "--max-power", "3"]) == 0
    assert "counted by the subgroup formula" in capsys.readouterr().err
    assert len(calls) == 1


def test_partial_relations_file_needs_only_relation_blocks(capsys, tmp_path):
    rel = "relation d 4 over z2\nt 0 0 0 0\nt 1 1 1 1\n"
    alone, with_algebra = tmp_path / "d.rel", tmp_path / "d-alg.rel"
    alone.write_text(rel)
    with_algebra.write_text((DATA / "z2.alg").read_text() + rel)
    runs = []
    for path in (alone, with_algebra):
        argv = ["duality", str(DATA / "z2.alg"), "--max-power", "1", "--partial-relations", str(path)]
        code, out, err = run(capsys, argv)
        runs.append((code, re.sub(r"time=\S+", "time=_", out), err))
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 1 and out.endswith("DUALITY FAIL k_max=1 relations=1 partial time=_\n")


def _span(generators, modulus):
    """The subgroup of Z_modulus^n spanned by the digit strings `generators`."""
    vectors = [[int(d) for d in g] for g in generators]
    n = len(vectors[0])
    return sorted(
        {
            tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) % modulus for i in range(n))
            for coeffs in itertools.product(range(modulus), repeat=len(vectors))
        }
    )


@pytest.mark.parametrize(
    "name, generators",
    [("z2", ("1100001", "0110100", "0001110")), ("z4", ("1210", "0221")), ("z3", ("12001", "01120"))],
    ids=["z2^7", "z4^4", "z3^5"],
)
def test_entail_certifies_spans_whose_power_cubed_exceeds_the_budget(capsys, tmp_path, name, generators):
    # |A^n|^3 is 2,097,152 for Z2^7, 16,777,216 for Z4^4 and 14,348,907 for Z3^5
    rel = tmp_path / "r.rel"
    rows = _span(generators, int(name[1:]))
    header = f"relation r {len(generators[0])} over {name}\n"
    rel.write_text(header + "".join(f"t {' '.join(map(str, r))}\n" for r in rows))
    code, out, err = run(capsys, ["entail", str(DATA / f"{name}.alg"), str(rel), "--arity", "3"])
    assert code == 0 and out.endswith("ENTAIL PASS\n"), err
    cert = tmp_path / "r.cert"
    cert.write_text(out)
    code, out, err = run(capsys, ["replay", str(cert)])
    assert code == 0 and "cert r-cert: PASS" in out, err


def _over_v4(tmp_path):
    rel = tmp_path / "r.rel"
    rel.write_text("relation r 1 over v4\nt 0\nt 1\n")
    return str(rel)


def test_entail_takes_the_relation_over_the_algebra_it_names(capsys, tmp_path):
    rel = _over_v4(tmp_path)
    code, both, err = run(capsys, ["entail", str(DATA / "z4.alg"), str(DATA / "v4.alg"), rel, "--arity", "3"])
    assert code == 0, err
    code, alone, _ = run(capsys, ["entail", str(DATA / "v4.alg"), rel, "--arity", "3"])
    assert code == 0 and both == alone
    assert "cert r-cert over v4 base 4" in both


@pytest.mark.parametrize("verb", ["duality", "refute"])
def test_relations_over_another_algebra_are_located_input_errors(capsys, tmp_path, verb):
    rel = _over_v4(tmp_path)
    target = tmp_path / "target.rel"
    target.write_text("relation d 2 over z2\nt 0 0\nt 1 1\n")
    files = [str(DATA / "z2.alg"), str(DATA / "v4.alg")]
    if verb == "duality":
        argv = ["duality", *files, "--max-power", "1", "--partial-relations", rel]
    else:
        argv = ["refute", *files, "--premises", rel, "--target", str(target)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"input error: {rel}:1: relation r is not over z2 (near 'v4')" in err


@pytest.mark.parametrize(
    "verb, flags",
    [
        ("duality", ["--max-power", "0"]),
        ("duality", ["--max-power", "-3"]),
        ("duality", ["--arity", "0"]),
        ("entail", ["--arity", "0"]),
        ("refute", ["--arity", "0"]),
        ("sub", ["--max-power", "0"]),
    ],
)
def test_flag_values_below_one_are_input_errors(capsys, tmp_path, verb, flags):
    rel = tmp_path / "diag3.rel"
    rel.write_text(textio.serialize_relation(core.diagonal_relation(2, 3), "diag3", "z2"))
    inputs = {
        "duality": [str(DATA / "z2.alg")],
        "sub": [str(DATA / "z2.alg")],
        "entail": [str(DATA / "z2.alg"), str(rel)],
        "refute": [str(DATA / "z2.alg"), "--premises", str(rel), "--target", str(rel)],
    }[verb]
    code, out, err = run(capsys, [verb, *inputs, *flags])
    assert code == 2 and out == ""
    assert err == f"input error: {flags[0]} must be >= 1, got {flags[1]}\n"


def test_hom_power_domain_is_built_under_the_job_budget(capsys, tmp_path):
    # the table of add on Z2^10 has 1,048,576 cells, over the default budget
    mapping = " ".join(str(c >> 9) for c in range(1024))
    hom_file = tmp_path / "first.hom"
    hom_file.write_text((DATA / "z2.alg").read_text() + f"hom first from z2 power 10 to z2\nm {mapping}\n")
    code, _, err = run(capsys, ["factorize", str(hom_file)])
    assert code == 3 and "(budget 1000000); table of add on the power" in err
    code, out, err = run(capsys, ["factorize", str(hom_file), "--budget", "2000000"])
    assert code == 0 and out.endswith("FACTORIZE PASS\n"), err
