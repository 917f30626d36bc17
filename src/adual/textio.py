"""Line-oriented text formats for algebras, relations, homs, congruences, certificates.

All formats are UTF-8 with '#' starting a comment line.  Operation tables
list whitespace-separated values in lexicographic argument order, first
argument most significant; values may wrap onto continuation lines, the
parser reads tokens until the expected count is reached.  Every serializer
output re-parses to an equal value.  The summary lines `adual entail` prints
after its certificate are skipped once a certificate has been read, so its
whole standard output replays; anywhere else they are unknown blocks.
Blocks are taken over the algebras they name; every value row carries its tag.
An algebra name may be defined again only with the same size and tables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    Operation,
    ParseError,
    Relation,
    _same_tables,
    decode_code,
    power_algebra,
    verify_congruence,
)
from .affine import AffineTerm, TermTree
from .entailment import (
    EntailmentCertificate,
    GraphToOperation,
    Intersection,
    Premise,
    StripPadding,
    TermPreimage,
)


@dataclass
class Document:
    """Everything parsed from the inputs of one job, in order of appearance."""

    algebras: dict = field(default_factory=dict)
    relations: list = field(default_factory=list)  # (name, algebra_name, Relation)
    relation_lines: list = field(default_factory=list)  # (source, line) of each relation header
    homs: list = field(default_factory=list)  # (name, Homomorphism)
    congruences: list = field(default_factory=list)  # (name, algebra_name, Congruence)
    certificates: list = field(default_factory=list)  # (name, algebra_name, cert)


class _Lines:
    def __init__(self, text, source, budget):
        self.source = source
        self.budget = budget
        self.rows = []
        for i, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].rstrip()
            if stripped.strip():
                indent = len(stripped) - len(stripped.lstrip())
                self.rows.append((i, indent, stripped.split()))
        self.pos = 0

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def next(self):
        row = self.peek()
        if row is None:  # at the end, the last line read is the last row
            raise ParseError("unexpected end of input", self.source, self.rows[-1][0])
        self.pos += 1
        return row

    def error(self, message, line, token=""):
        raise ParseError(message, self.source, line, token)

    def build(self, line, make, *args):
        """`make(*args)`, with its ValueError raised again as a ParseError at `line`."""
        try:
            return make(*args)
        except ValueError as e:
            self.error(str(e), line)

    def header(self, line, toks, shape):
        """The upper-case fields of `shape` read off `toks`; its lower-case words are literal."""
        words = shape.split()
        if len(toks) != len(words) or any(w.islower() and w != t for w, t in zip(words, toks)):
            self.error(f"expected: {shape}", line, " ".join(toks))
        return [t for w, t in zip(words, toks) if not w.islower()]

    def token(self, row, i, line, what):
        """Token `i` of `row`; otherwise a ParseError naming `what`, the line and the row's last token."""
        if i >= len(row):
            self.error(f"{what}: missing", line, row[-1])
        return row[i]

    def int_at(self, row, i, line, what):
        """Token `i` of `row` as an int, located like `token` and `integer`."""
        return self.integer(self.token(row, i, line, what), line, what)

    def integer(self, token, line, what):
        """`token` as an int; otherwise a ParseError naming `what`, the line and the token."""
        try:
            return int(token)
        except ValueError:
            self.error(f"{what}: not an integer", line, token)

    def tagged_rows(self, tag, what, indent=None, width=None):
        """The integer rows tagged `tag` that come next, untagged and `width` long if given:
        at the top level (`indent` None) while rows carry the tag, and under a
        certificate field at `indent` while rows are deeper, each with the tag."""
        rows = []
        while (nxt := self.peek()) is not None and (
            nxt[2][0] == tag if indent is None else nxt[1] > indent
        ):
            line, _, row = self.next()
            if row[0] != tag:
                self.error(f"expected a row starting with {tag}", line, row[0])
            if width is not None and len(row) != width + 1:
                self.error(f"tuple needs {width} entries", line, " ".join(row[1:]))
            rows.append([self.integer(v, line, what) for v in row[1:]])
        return rows


def _read_ints(lines, count, line_no, what, skip=0):
    """Collect `count` integers from the current row after its first `skip`
    tokens, consuming continuation rows as needed."""
    tokens = list(lines.rows[lines.pos - 1][2][skip:])
    while len(tokens) < count:
        nxt = lines.peek()
        if nxt is None:
            lines.error(f"{what}: expected {count} values, got {len(tokens)}", line_no)
        lines.next()
        tokens.extend(nxt[2])
    if len(tokens) > count:
        lines.error(f"{what}: {len(tokens) - count} surplus values", line_no, tokens[count])
    return [lines.integer(tok, line_no, what) for tok in tokens]


def parse_document(text, source="<input>", doc=None, budget=DEFAULT_BUDGET) -> Document:
    """Parse a multi-block text into `doc` (a new Document if None), hom powers under `budget`."""
    doc = Document() if doc is None else doc
    certificates_before = len(doc.certificates)
    lines = _Lines(text, source, budget)
    while lines.peek() is not None:
        line_no, indent, toks = lines.next()
        if indent != 0:
            lines.error("unexpected indentation at top level", line_no, toks[0])
        head = toks[0]
        if head in _BLOCKS:
            _BLOCKS[head](lines, doc, line_no, toks)
        elif len(doc.certificates) > certificates_before and _is_entail_summary(toks):
            continue
        else:
            lines.error("unknown block", line_no, head)
    return doc


def _is_entail_summary(toks):
    """True for the summary lines `adual entail` prints after its certificate."""
    return re.fullmatch(r"premises \d+ of arity <= \d+|ENTAIL PASS", " ".join(toks)) is not None


def _algebra_for(doc, lines, name, line_no):
    if name not in doc.algebras:
        lines.error("unknown algebra", line_no, name)
    return doc.algebras[name]


def _parse_algebra(lines, doc, line_no, toks):
    (name,) = lines.header(line_no, toks, "algebra NAME")
    size_line, _, size_toks = lines.next()
    (size,) = lines.header(size_line, size_toks, "size N")
    size = lines.integer(size, size_line, "size")
    ops = []
    while lines.peek() is not None and lines.peek()[2][0] == "op":
        op_line, _, op_toks = lines.next()
        op_name, arity = lines.header(op_line, op_toks, "op NAME ARITY")
        arity = lines.integer(arity, op_line, "arity")
        lines.next()  # first value row
        values = _read_ints(lines, size**arity, op_line, f"table of {op_name}")
        ops.append(lines.build(op_line, Operation, op_name, arity, size, values))
    A = lines.build(line_no, FiniteAlgebra, name, size, ops)
    if name not in doc.algebras:
        doc.algebras[name] = A
    elif not _same_tables(doc.algebras[name], A):
        lines.error("algebra already defined with other tables", line_no, name)


def _parse_relation(lines, doc, line_no, toks):
    name, arity, alg_name = lines.header(line_no, toks, "relation NAME ARITY over ALGEBRA")
    arity = lines.integer(arity, line_no, "arity")
    A = _algebra_for(doc, lines, alg_name, line_no)
    tuples = lines.tagged_rows("t", "tuple entry", width=arity)
    doc.relations.append((name, alg_name, lines.build(line_no, Relation, arity, A.size, tuples)))
    doc.relation_lines.append((lines.source, line_no))


def _parse_hom(lines, doc, line_no, toks):
    name, base_name, n, cod_name = lines.header(line_no, toks, "hom NAME from ALGEBRA power N to ALGEBRA")
    base = _algebra_for(doc, lines, base_name, line_no)
    cod = _algebra_for(doc, lines, cod_name, line_no)
    n = lines.integer(n, line_no, "power")
    domain = base if n == 1 else lines.build(line_no, power_algebra, base, n, lines.budget)
    row = lines.next()
    if row[2][0] != "m":
        lines.error("expected a mapping row starting with m", row[0], row[2][0])
    mapping = _read_ints(lines, domain.size, row[0], "mapping", skip=1)
    doc.homs.append((name, lines.build(line_no, Homomorphism, domain, cod, mapping)))


def _parse_cong(lines, doc, line_no, toks):
    name, alg_name = lines.header(line_no, toks, "cong NAME over ALGEBRA")
    A = _algebra_for(doc, lines, alg_name, line_no)
    classes = lines.tagged_rows("class", "class entry")
    partition = lines.build(line_no, Congruence.from_classes, A.size, classes)
    doc.congruences.append((name, alg_name, lines.build(line_no, verify_congruence, A, partition)))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _parse_sexpr(tokens, lines, line_no, before):
    """One term expression taken off the front of `tokens`; `before` is the token read last."""

    def take(after):
        if not tokens:
            lines.error("term expression ends early", line_no, after)
        return tokens.pop(0)

    tok = take(before)
    if tok != "(":
        lines.error("expected (", line_no, tok)
    head = take(tok)
    if head == "proj":
        index = take(head)
        idx = lines.integer(index, line_no, "proj index")
        if take(index) != ")":
            lines.error("expected )", line_no)
        return ("proj", idx)
    children = []
    while tokens and tokens[0] == "(":
        children.append(_parse_sexpr(tokens, lines, line_no, head))
    if take(head) != ")":
        lines.error("expected )", line_no)
    return (head, tuple(children))


def _serialize_sexpr(expr):
    if expr[0] == "proj":
        return f"( proj {expr[1]} )"
    name, children = expr
    inner = " ".join(_serialize_sexpr(c) for c in children)
    return f"( {name} {inner} )".replace("  ", " ")


def _parse_cert(lines, doc, line_no, toks):
    name, alg_name, base = lines.header(line_no, toks, "cert NAME over ALGEBRA base N")
    base = lines.integer(base, line_no, "base")
    term_op = None
    neutral = 0
    extra_ops = []
    conclusion = None
    derivation = None
    while lines.peek() is not None and lines.peek()[1] >= 2:
        row_line, indent, row = lines.next()
        key = row[0]
        if key == "affine-op":
            vals = _read_ints(lines, base**3, row_line, key, skip=1)
            term_op = lines.build(row_line, Operation, "t", 3, base, vals)
        elif key == "neutral":
            neutral = lines.int_at(row, 1, row_line, key)
        elif key == "extra-op":
            op_name = lines.token(row, 1, row_line, "extra-op name")
            arity = lines.int_at(row, 2, row_line, "extra-op arity")
            vals = _read_ints(lines, base**arity, row_line, f"extra-op {op_name}", skip=3)
            extra_ops.append(lines.build(row_line, Operation, op_name, arity, base, vals))
        elif key == "conclusion":
            conclusion = _parse_cert_value(lines, row, row_line, indent, base)
        elif key == "derivation":
            derivation = _parse_cert_node(lines, indent + 2, base)
        else:
            lines.error("unknown certificate field", row_line, key)
    if conclusion is None or derivation is None:
        lines.error("certificate needs a conclusion and a derivation", line_no)
    cert = EntailmentCertificate(
        conclusion=conclusion,
        derivation=derivation,
        term_op=term_op,
        neutral=neutral,
        extra_ops=tuple(extra_ops),
    )
    doc.certificates.append((name, alg_name, cert))


def _parse_cert_value(lines, row, row_line, indent, base):
    kind = lines.token(row, 1, row_line, f"{row[0]} kind")
    if kind == "relation":
        arity = lines.int_at(row, 2, row_line, "relation arity")
        tuples = lines.tagged_rows("t", "tuple entry", indent=indent, width=arity)
        return lines.build(row_line, Relation, arity, base, tuples)
    if kind == "op":
        op_name = lines.token(row, 2, row_line, "op name")
        arity = lines.int_at(row, 3, row_line, "op arity")
        rows = lines.tagged_rows("table", f"table of {op_name}", indent=indent)
        return lines.build(row_line, Operation, op_name, arity, base, [v for r in rows for v in r])
    lines.error("expected a relation or an op", row_line, kind)


def _parse_cert_node(lines, indent, base):
    row_line, row_indent, row = lines.next()
    if row_indent != indent:
        lines.error(f"expected node at indent {indent}", row_line, row[0])
    head = row[0]
    if head == "premise":
        value = _parse_cert_value(lines, row, row_line, indent, base)
        return Premise(value)
    if head == "intersection":
        arity = lines.int_at(row, 1, row_line, "intersection arity")
        children = []
        while lines.peek() is not None and lines.peek()[1] > indent:
            children.append(_parse_cert_node(lines, indent + 2, base))
        return Intersection(base, arity, tuple(children))
    if head == "preimage":
        terms = []
        while lines.peek() is not None and lines.peek()[1] > indent and lines.peek()[2][0] in (
            "term",
            "term-tree",
        ):
            t_line, _, trow = lines.next()
            if trow[0] == "term":
                terms.append(AffineTerm(tuple(lines.integer(v, t_line, "term coefficient") for v in trow[1:])))
            else:
                arity = lines.int_at(trow, 1, t_line, "term-tree arity")
                expr = _parse_sexpr(list(trow[2:]), lines, t_line, trow[1])
                terms.append(TermTree(arity, expr))
        child = _parse_cert_node(lines, indent + 2, base)
        return TermPreimage(tuple(terms), child)
    if head == "strip":
        return StripPadding(_parse_cert_node(lines, indent + 2, base))
    if head == "graph-to-op":
        op_name = row[1] if len(row) > 1 else "t"
        return GraphToOperation(_parse_cert_node(lines, indent + 2, base), name=op_name)
    lines.error("unknown derivation node", row_line, head)


_BLOCKS = {
    "algebra": _parse_algebra,
    "relation": _parse_relation,
    "hom": _parse_hom,
    "cong": _parse_cong,
    "cert": _parse_cert,
}


# ---------------------------------------------------------------------------
# Serializers
# ---------------------------------------------------------------------------


def serialize_relation(R: Relation, name, algebra_name) -> str:
    lines = [f"relation {name} {R.arity} over {algebra_name}", *_tuple_lines(R, "t ")]
    return "\n".join(lines) + "\n"


def _tuple_lines(R: Relation, prefix):
    """R's tuple lines, `prefix` then the values, as one string formatted in one pass."""
    line = prefix + " ".join(["%d"] * R.arity)
    values = np.stack(decode_code(R.codes(), [R.base_size] * R.arity), axis=1)
    return ["\n".join([line] * len(R)) % tuple(values.ravel().tolist())]


def serialize_hom(h: Homomorphism, name) -> str:
    power = h.domain.power_of
    return serialize_map(name, power.base.name, power.exponent, h.codomain.name, h.mapping)


def serialize_map(name, base, power, codomain, mapping) -> str:
    """A hom block for the map with value table `mapping` from base^power to codomain."""
    out = [
        f"hom {name} from {base} power {power} to {codomain}",
        "m " + " ".join(str(v) for v in mapping),
    ]
    return "\n".join(out) + "\n"


def serialize_term_dump(t: Operation, algebra_name) -> str:
    """The 3-dimensional table of an affine term as an op block."""
    out = [
        f"# affine term of {algebra_name}",
        "op t 3",
        " ".join(str(v) for v in t.table),
    ]
    return "\n".join(out) + "\n"


def serialize_certificate(cert: EntailmentCertificate, name, algebra_name) -> str:
    base = cert.conclusion.base_size
    out = [f"cert {name} over {algebra_name} base {base}"]
    if cert.term_op is not None:
        out.append("  affine-op " + " ".join(str(v) for v in cert.term_op.table))
        out.append(f"  neutral {cert.neutral}")
    for o in cert.extra_ops:
        out.append(f"  extra-op {o.name} {o.arity} " + " ".join(str(v) for v in o.table))
    out.extend(_serialize_cert_value(cert.conclusion, "conclusion", 2))
    out.append("  derivation")
    out.extend(_serialize_cert_node(cert.derivation, 4))
    return "\n".join(out) + "\n"


def _serialize_cert_value(value, label, indent):
    pad = " " * indent
    if isinstance(value, Relation):
        return [f"{pad}{label} relation {value.arity}", *_tuple_lines(value, f"{pad}  t ")]
    out = [f"{pad}{label} op {value.name} {value.arity}"]
    out.append(f"{pad}  table " + " ".join(str(v) for v in value.table))
    return out


def _serialize_cert_node(node, indent):
    pad = " " * indent
    if isinstance(node, Premise):
        return _serialize_cert_value(node.value, "premise", indent)
    if isinstance(node, Intersection):
        out = [f"{pad}intersection {node.arity}"]
        for c in node.children:
            out.extend(_serialize_cert_node(c, indent + 2))
        return out
    if isinstance(node, TermPreimage):
        out = [f"{pad}preimage"]
        for t in node.terms:
            if isinstance(t, AffineTerm):
                out.append(f"{pad}  term " + " ".join(str(v) for v in t.coeffs))
            else:
                out.append(f"{pad}  term-tree {t.arity} " + _serialize_sexpr(t.expr))
        out.extend(_serialize_cert_node(node.child, indent + 2))
        return out
    if isinstance(node, StripPadding):
        return [f"{pad}strip"] + _serialize_cert_node(node.child, indent + 2)
    if isinstance(node, GraphToOperation):
        return [f"{pad}graph-to-op {node.name}"] + _serialize_cert_node(
            node.child, indent + 2
        )
    raise TypeError(f"cannot serialize node {node!r}")
