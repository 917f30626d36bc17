"""The README's command-line examples against the parser and the data files."""

import re
import shlex
from pathlib import Path

import pytest

from adual import cli, core, textio

ROOT = Path(__file__).resolve().parents[1]


def _examples():
    """The `adual` lines of the code block under "## Command line"."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("adual ")]


def _argv(line):
    """The arguments of an example line, its comment dropped."""
    return shlex.split(line.split("#", 1)[0])[1:]


def _on_data_files(line):
    """True when every input file of the example is in data/."""
    args = cli.build_parser().parse_args(_argv(line))
    named = [getattr(args, flag, None) for flag in ("premises", "target", "partial_relations")]
    return all(path.startswith("data/") for path in [*args.files, *named] if path is not None)


EXAMPLES = _examples()


def test_text_formats_example_parses():
    # the block's hom reads z2, which data/z2.alg defines
    section = (ROOT / "README.md").read_text().split("## Text formats", 1)[1]
    block = section.split("```", 2)[1]
    doc = textio.parse_document((ROOT / "data" / "z2.alg").read_text(), source="data/z2.alg")
    textio.parse_document(block, source="README.md", doc=doc)
    assert list(doc.algebras) == ["z2", "z4"]
    assert [name for name, _, _ in doc.relations] == ["diag"]
    for _, algebra, relation in doc.relations:
        assert core.is_compatible_relation(doc.algebras[algebra], relation)
    assert [name for name, _ in doc.homs] == ["parity"]
    assert doc.congruences == [("mod2", "z4", core.Congruence.from_classes(4, [[0, 2], [1, 3]]))]


def test_every_example_parses():
    parser = cli.build_parser()
    assert len(EXAMPLES) >= 11
    for line in EXAMPLES:
        parser.parse_args(_argv(line))


def test_every_verb_has_an_example():
    parser = cli.build_parser()
    verbs = set(parser._subparsers._group_actions[0].choices)
    assert verbs == {_argv(line)[0] for line in EXAMPLES}


@pytest.mark.parametrize("line", [line for line in EXAMPLES if _on_data_files(line)])
def test_examples_on_data_files_exit_as_stated(line, monkeypatch, capsys):
    stated = re.search(r"\(exit (\d)\)", line)
    monkeypatch.chdir(ROOT)
    assert cli.main(_argv(line)) == (int(stated.group(1)) if stated else 0)
    capsys.readouterr()
