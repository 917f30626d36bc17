import pytest

from adual import affine, cli, core, entailment as ent, textio, zoo

from test_entailment import composition_tree_certificate


def test_algebra_round_trip(z4, z6, s3, semilattice):
    for A in (z4, z6, s3, semilattice):
        doc = textio.parse_document(textio.serialize_algebra(A))
        back = doc.algebras[A.name]
        assert back.size == A.size
        assert back.signature() == A.signature()
        for o in A.ops:
            assert back.op(o.name).table == o.table


def test_comments_and_wrapped_tables(z4):
    text = (
        "# a comment\n"
        "algebra z4\n"
        "size 4\n"
        "op add 2\n"
        "0 1 2 3 1 2 3 0\n"
        "2 3 0 1 3 0 1 2   # wrapped\n"
        "op neg 1\n"
        "0 3 2 1\n"
        "op zero 0\n"
        "0\n"
    )
    doc = textio.parse_document(text)
    assert doc.algebras["z4"].op("add").table == z4.op("add").table


def test_relation_round_trip(z4):
    R = core.Relation(2, 4, [(0, 0), (1, 3), (2, 2), (3, 1)])
    text = textio.serialize_algebra(z4) + textio.serialize_relation(R, "inv", "z4")
    doc = textio.parse_document(text)
    assert doc.relations == [("inv", "z4", R)]


def test_hom_round_trip_with_power_domain(z2):
    P = core.power_algebra(z2, 3)
    f = core.Homomorphism(P, z2, [bin(c).count("1") % 2 for c in range(8)])
    text = textio.serialize_algebra(z2) + textio.serialize_hom(f, "parity")
    doc = textio.parse_document(text)
    name, g = doc.homs[0]
    assert name == "parity" and g.mapping == f.mapping and g.domain.size == 8
    assert textio.serialize_hom(g, "parity") == textio.serialize_hom(f, "parity")


def test_congruence_round_trip(z4):
    c = core.Congruence.from_classes(4, [[0, 2], [1, 3]])
    text = textio.serialize_algebra(z4) + "cong mod2 over z4\nclass 0 2\nclass 1 3\n"
    doc = textio.parse_document(text)
    assert doc.congruences == [("mod2", "z4", c)]


def test_term_dump_parses_as_op_block(z4, terms):
    dump = textio.serialize_term_dump(terms["z4"], "z4")
    text = "algebra tdump\nsize 4\n" + "\n".join(dump.splitlines()[1:]) + "\n"
    doc = textio.parse_document(text)
    assert doc.algebras["tdump"].op("t").table == terms["z4"].table


def test_reduction_certificate_round_trip(z2, terms):
    res = ent.reduce_to_bounded_arity(z2, terms["z2"], core.diagonal_relation(2, 3), 3)
    s = textio.serialize_certificate(res.certificate, "diag3", "z2")
    name, alg, cert = textio.parse_document(s).certificates[0]
    assert (name, alg) == ("diag3", "z2")
    assert cert.conclusion == res.certificate.conclusion
    assert cert.premises == res.certificate.premises
    assert ent.verify_certificate(cert)
    assert textio.serialize_certificate(cert, "diag3", "z2") == s


def test_tuple_blocks_match_per_tuple_formatting(z4, terms, monkeypatch):
    # the premise of {(x, 3x)} over Z4 at N = 8 lists all 65,536 8-tuples
    R = core.Relation(2, 4, [(x, 3 * x % 4) for x in range(4)])
    res = ent.reduce_to_bounded_arity(z4, terms["z4"], R, 8)
    assert max(len(P) for P in res.bounded_premises) == 4**8
    relations = [R, core.Relation(1, 12, [(v,) for v in range(12)]), *res.bounded_premises]
    cert = textio.serialize_certificate(res.certificate, "x3", "z4")
    blocks = [textio.serialize_relation(P, "r", "a") for P in relations]

    def per_tuple(P, prefix):
        return [prefix + " ".join(str(v) for v in t) for t in P.tuples]

    monkeypatch.setattr(textio, "_tuple_lines", per_tuple)
    assert textio.serialize_certificate(res.certificate, "x3", "z4") == cert
    assert [textio.serialize_relation(P, "r", "a") for P in relations] == blocks


def test_operation_conclusion_certificate_round_trip(z4, terms):
    cert = ent.eliminate_t(z4, terms["z4"], 9)
    s = textio.serialize_certificate(cert, "t9", "z4")
    back = textio.parse_document(s).certificates[0][2]
    assert back.conclusion == cert.conclusion
    assert back.premises == cert.premises
    assert ent.verify_certificate(back)
    assert textio.serialize_certificate(back, "t9", "z4") == s


def test_tree_term_certificate_round_trip(z4, terms):
    cert = composition_tree_certificate(z4)
    assert ent.verify_certificate(cert)
    s = textio.serialize_certificate(cert, "tree", "z4")
    back = textio.parse_document(s).certificates[0][2]
    assert ent.verify_certificate(back) and back.conclusion == cert.conclusion


def test_entail_summary_lines_only_after_a_certificate(z2, terms):
    res = ent.reduce_to_bounded_arity(z2, terms["z2"], core.diagonal_relation(2, 3), 3)
    cert = textio.serialize_certificate(res.certificate, "diag3", "z2")
    summary = "premises 4 of arity <= 4\nENTAIL PASS\n"
    doc = textio.parse_document(cert + summary)
    assert [name for name, _, _ in doc.certificates] == ["diag3"]

    alg = textio.serialize_algebra(z2)
    rel = textio.serialize_relation(core.diagonal_relation(2, 3), "diag3", "z2")
    for text in (alg + summary, alg + rel + summary, summary + cert, "ENTAIL PASS\n" + cert):
        with pytest.raises(core.ParseError) as e:
            textio.parse_document(text)
        assert e.value.token in ("premises", "ENTAIL")


def test_parse_errors_cite_line_and_token():
    with pytest.raises(core.ParseError) as e:
        textio.parse_document("algebra x\nsize 2\nop f 1\n0 5\n", source="bad.alg")
    assert e.value.source == "bad.alg"
    assert e.value.line > 0

    with pytest.raises(core.ParseError) as e:
        textio.parse_document("widget w\n", source="w.alg")
    assert e.value.token == "widget"
    assert "w.alg:1" in str(e.value)

    with pytest.raises(core.ParseError) as e:
        textio.parse_document("relation r 2 over nowhere\nt 0 0\n")
    assert e.value.token == "nowhere"


def test_unknown_size_token():
    with pytest.raises(core.ParseError):
        textio.parse_document("algebra x\nsize two\n")


@pytest.mark.parametrize(
    "field, bad",
    [
        ("  affine-op 0 1 1 0 1 0 0 1", "  affine-op 0 1 1 0 1 0 x 1"),
        ("  neutral 0", "  neutral zero"),
        ("  conclusion relation 3", "  conclusion relation three"),
        ("    t 1 1 1", "    t 1 l 1"),
        ("    intersection 3", "    intersection 3.0"),
        ("        term 0 1 0", "        term 0 1 O"),
    ],
)
def test_certificate_integers_are_read_with_their_location(z2, terms, tmp_path, capsys, field, bad):
    res = ent.reduce_to_bounded_arity(z2, terms["z2"], core.diagonal_relation(2, 3), 3)
    text = textio.serialize_certificate(res.certificate, "diag3", "z2")
    lines = text.splitlines()
    at = lines.index(field)
    lines[at] = bad
    path = tmp_path / "bad.cert"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(core.ParseError) as e:
        textio.parse_document(path.read_text(), source=str(path))
    assert e.value.source == str(path)
    assert e.value.line == at + 1 and e.value.token in bad.split()
    assert cli.main(["replay", str(path)]) == 2
    assert f"{path}:{e.value.line}:" in capsys.readouterr().err


def test_certificate_values_outside_the_base_are_located(z2, terms, tmp_path, capsys):
    res = ent.reduce_to_bounded_arity(z2, terms["z2"], core.diagonal_relation(2, 3), 3)
    lines = textio.serialize_certificate(res.certificate, "diag3", "z2").splitlines()
    at = lines.index("  conclusion relation 3")
    assert lines[at + 2] == "    t 1 1 1"
    lines[at + 2] = "    t 1 1 5"
    path = tmp_path / "outside.cert"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(core.ParseError) as e:
        textio.parse_document(path.read_text(), source=str(path))
    assert (e.value.source, e.value.line) == (str(path), at + 1)
    assert "outside universe of size 2" in str(e.value)
    assert cli.main(["replay", str(path)]) == 2
    assert f"{path}:{at + 1}: tuple (1, 1, 5) outside universe" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, short",
    [
        ("  neutral 0", "  neutral"),
        ("  conclusion relation 3", "  conclusion relation"),
        ("  conclusion relation 3", "  conclusion"),
        ("    intersection 3", "    intersection"),
        ("  extra-op add 2 0 1 2 3 1 2 3 0 2 3 0 1 3 0 1 2", "  extra-op add"),
        ("  extra-op add 2 0 1 2 3 1 2 3 0 2 3 0 1 3 0 1 2", "  extra-op"),
        ("      premise relation 1", "      premise"),
        ("      term-tree 2 ( add ( proj 0 ) ( proj 1 ) )", "      term-tree 2 ("),
        ("      term-tree 2 ( add ( proj 0 ) ( proj 1 ) )", "      term-tree 2 ( add ( proj"),
        ("      term-tree 2 ( add ( proj 0 ) ( proj 1 ) )", "      term-tree 2"),
    ],
)
def test_certificate_rows_missing_a_token_are_located(z2, z4, terms, tmp_path, capsys, field, short):
    res = ent.reduce_to_bounded_arity(z2, terms["z2"], core.diagonal_relation(2, 3), 3)
    cert = composition_tree_certificate(z4)
    text = textio.serialize_certificate(res.certificate, "diag3", "z2") + textio.serialize_certificate(cert, "tree", "z4")
    lines = text.splitlines()
    at = lines.index(field)
    lines[at] = short
    path = tmp_path / "short.cert"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(core.ParseError) as e:
        textio.parse_document(path.read_text(), source=str(path))
    assert e.value.source == str(path)
    assert e.value.line == at + 1 and e.value.token == short.split()[-1]
    assert cli.main(["replay", str(path)]) == 2
    assert f"{path}:{e.value.line}:" in capsys.readouterr().err


@pytest.mark.parametrize("tag", ["t", "table"])
def test_certificate_rows_without_their_tag_are_located(z2, z4, terms, tmp_path, capsys, tag):
    # a premise row `q ..` is not a tuple, and a `junk` row is not part of an op table
    if tag == "t":
        res = ent.reduce_to_bounded_arity(z2, terms["z2"], core.diagonal_relation(2, 3), 3)
        lines = textio.serialize_certificate(res.certificate, "diag3", "z2").splitlines()
        at = lines.index("          t 0 0 1 0")
        lines[at] = "          q 0 0 1 0"
    else:
        lines = textio.serialize_certificate(ent.eliminate_t(z4, terms["z4"], 5), "t5", "z4").splitlines()
        at = lines.index("  conclusion op t 3") + 2
        lines.insert(at, "    junk 5 5 5")
    path = tmp_path / "untagged.cert"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["replay", str(path)]) == 2
    assert f"{path}:{at + 1}: expected a row starting with {tag} (near " in capsys.readouterr().err


Z2 = "algebra z2\nsize 2\nop add 2\n0 1 1 0\n"
Z4 = "algebra z4\nsize 4\nop add 2\n0 1 2 3 1 2 3 0 2 3 0 1 3 0 1 2\n"
CERT = "cert c over z2 base 2\n"


# (branch, text, line, message): one malformed input per parse error branch
MALFORMED = [
    ("eof", "algebra z2\n", 1, "unexpected end of input"),
    ("short", "algebra x\nsize 2\nop f 2\n0 1\n1\n", 3, "expected 4 values, got 3"),
    ("surplus", "algebra x\nsize 2\nop f 1\n0 1 1\n", 3, "1 surplus values"),
    ("indent", "  algebra x\n", 1, "unexpected indentation at top level"),
    ("algebra", "algebra x y\n", 1, "expected: algebra NAME"),
    ("size", "algebra x\nsiz 2\n", 2, "expected: size N"),
    ("op", "algebra x\nsize 2\nop f\n", 3, "expected: op NAME ARITY"),
    ("relation", Z2 + "relation r 2 on z2\n", 5, "expected: relation NAME ARITY over ALGEBRA"),
    ("hom", Z2 + "hom h from z2 to z2\n", 5, "expected: hom NAME from ALGEBRA power N to ALGEBRA"),
    ("cong", Z2 + "cong c z2\n", 5, "expected: cong NAME over ALGEBRA"),
    ("cert", "cert c over z2\n", 1, "expected: cert NAME over ALGEBRA base N"),
    ("t-row", Z2 + "relation r 2 over z2\nt 0 1\nt 0\n", 7, "tuple needs 2 entries"),
    ("m-row", Z2 + "hom h from z2 power 1 to z2\nn 0 1\n", 6, "expected a mapping row starting with m"),
    ("power", Z2 + "hom h from z2 power 0 to z2\nm 0\n", 5, "power exponent must be >= 1"),
    ("class-row", Z2 + "cong c over z2\nclass 0\nclass one\n", 7, "class entry: not an integer"),
    ("class-range", Z2 + "cong c over z2\nclass 0 1 5\n", 5, "element 5 outside the universe 0..1"),
    ("class-negative", Z2 + "cong c over z2\nclass 0\nclass -1\n", 5, "element -1 outside the universe 0..1"),
    ("class-twice", Z2 + "cong c over z2\nclass 0 1 1\n", 5, "element 1 occurs twice in the partition"),
    ("class-missing", Z2 + "cong c over z2\nclass 1\n", 5, "element 0 missing from the partition"),
    ("cong-op", Z4 + "cong bad over z4\nclass 0 1\nclass 2 3\n", 5, "partition not preserved by add at (1, 1)"),
    ("cert-t-row", CERT + "  conclusion relation 1\n    t 0\n    q 1\n", 4, "expected a row starting with t"),
    ("cert-t-width", CERT + "  conclusion relation 2\n    t 0 0\n    t 1\n", 4, "tuple needs 2 entries"),
    ("table-row", CERT + "  conclusion op f 1\n    table 0 1\n    junk 5 5 5\n", 4, "expected a row starting with table"),
    ("open", CERT + "  derivation\n    preimage\n      term-tree 2 add\n", 4, "expected ("),
    ("close-proj", CERT + "  derivation\n    preimage\n      term-tree 1 ( proj 0 0 )\n", 4, "expected )"),
    ("close-op", CERT + "  derivation\n    preimage\n      term-tree 1 ( f ( proj 0 ) 0 )\n", 4, "expected )"),
    ("field", CERT + "  widget 1\n", 2, "unknown certificate field"),
    ("incomplete", CERT + "  neutral 0\n", 1, "certificate needs a conclusion and a derivation"),
    ("value", CERT + "  conclusion widget\n", 2, "expected a relation or an op"),
    ("node-indent", CERT + "  derivation\n      premise relation 1\n", 3, "expected node at indent 4"),
    ("node", CERT + "  derivation\n    widget\n", 3, "unknown derivation node"),
]


@pytest.mark.parametrize("text, line, message", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_each_parse_error_names_file_and_line(text, line, message):
    with pytest.raises(core.ParseError) as e:
        textio.parse_document(text, source="bad.alg")
    assert (e.value.source, e.value.line) == ("bad.alg", line)
    assert str(e.value).startswith(f"bad.alg:{line}: ") and message in str(e.value)


def test_a_partition_the_operations_break_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text(Z4 + "cong bad over z4\nclass 0 1\nclass 2 3\n")
    assert cli.main(["bound", str(path)]) == 2
    assert f"{path}:5: partition not preserved by add at (1, 1)" in capsys.readouterr().err


def test_end_of_input_names_the_last_line(tmp_path, capsys):
    path = tmp_path / "eof.alg"
    path.write_text("# one algebra header\n\nalgebra z2\n")
    assert cli.main(["bound", str(path)]) == 2
    assert f"{path}:3: unexpected end of input" in capsys.readouterr().err
