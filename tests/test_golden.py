"""Full stdout of the verbs over data/, against recorded sha256 digests.

Each case runs one verb in-process on the algebras in data/, with hom and
relation blocks written next to them where the verb needs one.  The replay
case reads the stdout of the entail case before it.  A digest that moves
means the output changed byte for byte, not just a count or a verdict.  The
duality summary line is compared without its `time=` field.
"""

import hashlib
import itertools
import re
from pathlib import Path

from adual import cli, textio

DATA = Path(__file__).resolve().parents[1] / "data"

AFFINE = ("z2", "z3", "z4", "v4", "z6", "z4aff")
PAIRS = (
    ("z2", "z4"), ("z4", "z2"), ("v4", "z4"), ("z4", "v4"), ("z3", "z6"), ("z6", "z2"), ("v4", "z6"),
)

# f: A^n -> S as (name, A, n, S, f on the coordinates x_1..x_n)
HOMS = (
    ("parity", "z2", 3, "z2", lambda xs: sum(xs) % 2),
    ("diff", "z4", 2, "z4", lambda xs: (xs[0] - xs[1]) % 4),
    ("lin", "z3", 3, "z3", lambda xs: (xs[0] + 2 * xs[2]) % 3),
    ("mod2", "z4", 2, "z2", lambda xs: (xs[0] + xs[1]) % 2),
)

# (name, algebra, tuples, --arity)
RELATIONS = (
    ("diag3", "z2", [(x, x, x) for x in range(2)], 3),
    ("sum0", "z2", [(x, y, (x + y) % 2) for x in range(2) for y in range(2)], 2),
    ("diag3", "z3", [(x, x, x) for x in range(3)], 2),
    ("even", "z4", [(x, y) for x in range(4) for y in range(4) if (x - y) % 2 == 0], 1),
    ("sum2", "z4", [(x, y, (x + y) % 4) for x in range(4) for y in range(0, 4, 2)], 2),
    ("diag7", "z2", [(x,) * 7 for x in range(2)], 3),
)


# (name, algebra, premise relations, target relation, --arity)
REFUTATIONS = (
    ("sum0-zero", "z2", [[(x, y, (x + y) % 2) for x in range(2) for y in range(2)]], [(0,)], 2),
    ("diag-zero", "z3", [[(x, x) for x in range(3)]], [(0,)], 2),
    ("order-sum", "meet2", [[(0, 0), (0, 1), (1, 1)]], [(0, 0), (0, 1), (1, 0)], 2),
    ("even-double", "z4", [[(x, y) for x in range(4) for y in range(4) if (x - y) % 2 == 0]],
     [(x, 2 * x % 4) for x in range(4)], 1),
    ("sum0-nand", "z2", [[(x, y, (x + y) % 2) for x in range(2) for y in range(2)]], [(0, 0), (0, 1), (1, 0)], 2),
)

# (algebra, --arity or None for the default, --max-power): the FAIL runs list
# the extra double-dual maps of subalgebras isomorphic to one of a lower power
DUALITY_RUNS = (
    ("z2", None, 4),
    ("z4aff", 2, 2),
    ("s3", 2, 2),
    ("meet2", 2, 3),
)

# relations of z3 for a partial-mode duality run at arity 2
PARTIAL_Z3 = (
    [(x, x) for x in range(3)],
    [(x, 2 * x % 3) for x in range(3)],
    [(0, 0)],
)


def data(name):
    return str(DATA / f"{name}.alg")


def _write_hom(tmp, name, a, n, s, f):
    text = (DATA / f"{a}.alg").read_text()
    size = textio.parse_document(text).algebras[a].size
    if s != a:
        text += (DATA / f"{s}.alg").read_text()
    mapping = " ".join(str(f(xs)) for xs in itertools.product(range(size), repeat=n))
    text += f"hom {name} from {a} power {n} to {s}\nm {mapping}\n"
    path = tmp / f"{name}.hom"
    path.write_text(text)
    return str(path)


def _relation_block(name, algebra, tuples):
    rows = "".join("t " + " ".join(map(str, t)) + "\n" for t in tuples)
    return f"relation {name} {len(tuples[0])} over {algebra}\n{rows}"


def _write_relation(tmp, name, algebra, tuples):
    path = tmp / f"{algebra}-{name}.rel"
    path.write_text(_relation_block(name, algebra, tuples))
    return str(path)


def outputs(tmp, capsys):
    """Case name -> (exit code, stdout) for every case, in a fixed order."""
    tmp = Path(tmp)
    out = {}

    def run(name, argv):
        code = cli.main(argv)
        out[name] = (code, capsys.readouterr().out)
        return out[name][1]

    for path in sorted(DATA.glob("*.alg")):
        run(f"check-abelian {path.stem}", ["check-abelian", str(path)])
    for a in AFFINE:
        run(f"hom {a}", ["hom", data(a)])
        run(f"hk {a}", ["hk", data(a)])
        run(f"galois {a}", ["galois", data(a)])
    for a, b in PAIRS:
        run(f"hom {a} {b}", ["hom", data(a), data(b)])
        run(f"hk {a} {b}", ["hk", data(a), data(b)])
    for name, a, n, s, f in HOMS:
        run(f"factorize {name}", ["factorize", _write_hom(tmp, name, a, n, s, f)])
    for name, a, tuples, arity in RELATIONS:
        rel = _write_relation(tmp, name, a, tuples)
        cert = tmp / f"{a}-{name}.cert"
        cert.write_text(run(f"entail {a} {name}", ["entail", data(a), rel, "--arity", str(arity)]))
        run(f"replay {a} {name}", ["replay", str(cert)])
    return out


def more_outputs(tmp, capsys):
    """Case name -> (exit code, stdout) for sub, bound, refute and duality."""
    tmp = Path(tmp)
    out = {}

    def run(name, argv):
        code = cli.main(argv)
        out[name] = (code, re.sub(r" time=\S+", "", capsys.readouterr().out))

    for path in sorted(DATA.glob("*.alg")):
        run(f"sub {path.stem}", ["sub", str(path), "--max-power", "2"])
        run(f"bound {path.stem}", ["bound", str(path)])
    for name, a, premises, target, arity in REFUTATIONS:
        p_path = tmp / f"{name}.premises"
        p_path.write_text("".join(_relation_block(f"p{i}", a, p) for i, p in enumerate(premises)))
        t_path = _write_relation(tmp, f"{name}-target", a, target)
        argv = ["refute", data(a), "--premises", str(p_path), "--target", t_path, "--arity", str(arity)]
        run(f"refute {name}", argv)
    for a in ("z2", "meet2"):
        run(f"duality {a}", ["duality", data(a), "--max-power", "2"])
    for a, arity, k in DUALITY_RUNS:
        flags = (["--arity", str(arity)] if arity else []) + ["--max-power", str(k)]
        run(" ".join(["duality", a, *flags]), ["duality", data(a), *flags])
    partial = tmp / "z3-partial.rel"
    text = (DATA / "z3.alg").read_text()
    partial.write_text(text + "".join(_relation_block(f"r{i}", "z3", r) for i, r in enumerate(PARTIAL_Z3)))
    run("duality z3 partial", ["duality", data("z3"), "--max-power", "2", "--arity", "2",
                               "--partial-relations", str(partial)])
    return out


def digests(cases):
    return {name: f"{code} " + hashlib.sha256(text.encode()).hexdigest() for name, (code, text) in cases.items()}


# exit code and sha256 of stdout, per case
GOLDEN = {
    "check-abelian meet2": "1 b27f4b91984aec96c2564a1a2f3a0a73734da497d8427b3aecf27e412b003970",
    "check-abelian s3": "1 ff7dccf7f42ab72d99a6aa534109f55135d2fad1f41062291b5add06417d6eb5",
    "check-abelian v4": "0 5ee7cdda30bc514d0f5707c9648cd7d52121b7e7e4b55a425cf0f185a35456d8",
    "check-abelian z2": "0 66c2fa8b83db0b63c43469583fb67283c21c79fa32ab23dab2d88a8c7eb2d7a0",
    "check-abelian z3": "0 9b09f7b4478a68505d11ac11207735f0f6e0b2ac6e0e39125ccc3dd6ae630be5",
    "check-abelian z4": "0 628a576257582de3d65c58a4fcac430d98058f44207774b485c4ddb055a78239",
    "check-abelian z4aff": "0 ab14fad90949e55071fc0afe40a8161cd95860feac8b4509de7490b37c8e1053",
    "check-abelian z6": "0 7cf82e4ccb2f382b26b4cbe8bd891f90a71e6f0c33515cb2661cfe55f54847f6",
    "hom z2": "0 12617b8f01615e4249818e5e40bd8997329fd0ad60263651bc9dfe0125343d5a",
    "hk z2": "0 84ddca0e9d1c13eec04e71a9bdd97f754f4e185e1703c8f4f3e677c8fb5063ba",
    "galois z2": "0 5059dedc63134f97cebf552b8702b5a2b67e1d15368a1d14259f0f3bf02f63e3",
    "hom z3": "0 70ad49e755feb5d834ddc93390db552bb95b3ac3f6b43fa5934669262cc01ab7",
    "hk z3": "0 75e5d6952fafd863c00816f7e3c1ae32329b74a3965b42695ed80d2393d49c05",
    "galois z3": "0 3c7ab721e193010f5a9dbeaff95aa33a9a6c30d3ee1e1dcb00487f092b2a7420",
    "hom z4": "0 1a56a33f0fcd02a405f9826bbaba3be56de1621aebd63f1851be986d59609d3e",
    "hk z4": "0 29e8177ee49a5b034b540d47367c121f3a0d010fa88a6ecd6f59b91efd57f848",
    "galois z4": "0 ebf3a115e7eb103506e50f2a012f0497da6ae1a74d2f78f4bfc9853697fba0a6",
    "hom v4": "0 d9eace38b1b869906d1307bcd9302f37c507a9154ebd136006fd7e6f3299953b",
    "hk v4": "0 7fc8f3150c150b8c7d44281a1483b31388caec89a39a46efaa9e44a1b2e99df9",
    "galois v4": "0 08e84dfd7195bf10c6f1666e1dae9acdae42cabb07d019529e1b495a16dca068",
    "hom z6": "0 4696e46f98ba2969971004a7feb7ff6b4c657804db55be35667597c902197a04",
    "hk z6": "0 c73aadbfce122faa00437946182ac43d714549480ffa1644f52f8749065a9437",
    "galois z6": "0 e2ab6cd1f9760820670a50e4dfa4d39de6302e0e9b92fca24db4273f78b4930d",
    "hom z4aff": "0 27cda59ba733dfe8c80c2a8a0a3c5394f2641f12efb0452067598d3f5f4a6ef2",
    "hk z4aff": "0 29e8177ee49a5b034b540d47367c121f3a0d010fa88a6ecd6f59b91efd57f848",
    "galois z4aff": "0 456bde8cbebe3163d1421d7b8de9f386f0a84fb92aa9f17c7bdd76432a952d60",
    "hom z2 z4": "0 9f60a8840dbad1ae6222dcb685ab17dbb63aacfce6984c9911b455cf7b1ec32d",
    "hk z2 z4": "0 020e249432c786a24b842c05260931997757174d0aaa8d6115cd822a1d150edf",
    "hom z4 z2": "0 a50930a856a6ff70878f24f83ddb38fef585ee85955761aec48aa3741d6619f3",
    "hk z4 z2": "0 6e0b9bc1740723a60446c45402643746ff7002716eeba21b0c943adc5999f512",
    "hom v4 z4": "0 d292e230334624fe80959dc8e37cdd5faf526ab85bdd6f84f134776eb4f36704",
    "hk v4 z4": "0 fab791a2f0febfb1f2fcbbc91dc383b72422f488a51619dc72ac3b1acf831e28",
    "hom z4 v4": "0 598d79e913e26c7e9a175fdc89cd22ce98623889875f5fd507e5d62d15dec7d3",
    "hk z4 v4": "0 5b933cea625cc6588e9bde5da8a272173169e09da1f48669bdf449c40d66ca04",
    "hom z3 z6": "0 641960d9647ced4305eae5df4bd577b28c988c766227b331fcd90e73ef6b91cd",
    "hk z3 z6": "0 4559d3e0f847b8b8bd69a625606491818b4540e4ca4e28c72c3e23f6ad05a5f3",
    "hom z6 z2": "0 613dce5335e5a5bb43a9e4bdbbb188239b221b21bbef2eb1e428ee1c719598e2",
    "hk z6 z2": "0 9617eac8002814bdf74d2720d3b6ffcd6dc9ef79d55fd3c409c7036d98b395ae",
    "hom v4 z6": "0 e576db25a3f24ef056171b782c75b59af43707d1bd9dcceae944dc54a70b0797",
    "hk v4 z6": "0 fe77bc36b26e8a39b99d3e6884d95ae4c23e19ff28823c4dc3e4c125aac091fb",
    "factorize parity": "0 a938c75cc2be11b163c25e020a05f16dbbe1cbe2ee88401aef8409d1e536b6d7",
    "factorize diff": "0 843529bc86fd3c670cd9cf241c72e533bfbfc7a28b8bbdb3e2aa40a19298aa80",
    "factorize lin": "0 5bb844ec1bcb3b3a07d83b9ca1e68859a02fe701a6c724bf0b175aa19688816a",
    "factorize mod2": "0 8ffdeeb722281c2cf6ccd665edcefd6002fa727e657f5fbdd89dbbdb070ad5c5",
    "entail z2 diag3": "0 ae72c43ab2ffb30f40633204b459aede764a0641db1e6fad2b9bc76abf00a2a3",
    "replay z2 diag3": "0 7aa599c78354a3ddd02dac0491e8b428f8eea784f803d79086325a50f6e792ad",
    "entail z2 sum0": "0 36e67a82463b20241243499ce14534c2e6ed59dab3b1972b98a93d6f805acc6d",
    "replay z2 sum0": "0 402dcfe90689728a2cd21627b22b662fd1ef406876fd3ec4761569957290ece4",
    "entail z3 diag3": "0 3a8ce2889cfc43f3514463aa86dc2afbfab846d78c1a42745f4c61410d41f240",
    "replay z3 diag3": "0 7aa599c78354a3ddd02dac0491e8b428f8eea784f803d79086325a50f6e792ad",
    "entail z4 even": "0 d55225b3a36565ba1c449d1bd554be7185c013e996dd0523ef4c5ae570a4bd4b",
    "replay z4 even": "0 de47482a96ffb8c7281339953e5cc19c0262aa0482c604f21df9bd6f28d82087",
    "entail z4 sum2": "0 e8fcbcf5c9e9a2eb5468fa378d1c590bf0c62386be744d57388d53ae53ae75a5",
    "replay z4 sum2": "0 44e09c482bad413cdb34cdff9a84d9e1c7562d50617710aa15a21b29821c7c51",
    "entail z2 diag7": "0 dac5d4f84295079952a1741634e67963c4ac221f945980224e39cf678c837277",
    "replay z2 diag7": "0 5a9489930281fe7472ed604be26937b84deff31330cfbc9c217183c7d0224ac2",
}


# exit code and sha256 of stdout with the time field removed, per case
GOLDEN_MORE = {
    "sub meet2": "0 0c9e60b00da034dd36a60bb35b8d79e8ff82cabde1283d8703d3fa7814257675",
    "bound meet2": "0 6249094713e6373d5f8b192f5c4e4c71d0ff07a95f054f0489e3da2a4ca2f296",
    "sub s3": "0 29141ba659b0668f6cdd09498032135b93d8b9965f018cdc9cc7dcf2b928fbe2",
    "bound s3": "0 6249094713e6373d5f8b192f5c4e4c71d0ff07a95f054f0489e3da2a4ca2f296",
    "sub v4": "0 61046b47f659b2aca25c522dcb3b1cc5ccd6c32a88678d5c6b04f3c745deb205",
    "bound v4": "0 b4efc6cd1e77c1b2bfc8bc294bd45618ba0f8e05b6807be2c97081201d244946",
    "sub z2": "0 710d013a8d33acce49012a5bec6bebbc7bc0e485223b854936099e7593d4aa3d",
    "bound z2": "0 6249094713e6373d5f8b192f5c4e4c71d0ff07a95f054f0489e3da2a4ca2f296",
    "sub z3": "0 c2c3c03c957df6db8babf35bd7667f7b0aac51e2a3cbf11b33f26d67043c4520",
    "bound z3": "0 6249094713e6373d5f8b192f5c4e4c71d0ff07a95f054f0489e3da2a4ca2f296",
    "sub z4": "0 934fa40855821b87063a5590072c422b0510edcda6a4445f2858bd2edfa87f6a",
    "bound z4": "0 b4efc6cd1e77c1b2bfc8bc294bd45618ba0f8e05b6807be2c97081201d244946",
    "sub z4aff": "0 b400c29a37394aca6ded693cca4910f0a284ed9c6994b9b8ff94c4020c23026f",
    "bound z4aff": "0 b4efc6cd1e77c1b2bfc8bc294bd45618ba0f8e05b6807be2c97081201d244946",
    "sub z6": "0 df036f06e97e1104edb89cf925de3e5b449e1f1159443e966b443406434c228a",
    "bound z6": "0 6249094713e6373d5f8b192f5c4e4c71d0ff07a95f054f0489e3da2a4ca2f296",
    "refute sum0-zero": "0 c76fda27344fc635fef4917d230ac93747b9f238e4222d6da169f80d6ece0519",
    "refute diag-zero": "0 bc89cfce326dd42c6e0142647005bcc15fe3dba12a03450e2916929faa5a48cb",
    "refute order-sum": "0 c8e73ab24fe4f1fb69b6d014934c10e6f2daac5158625914d38495e812c92e3c",
    "refute even-double": "0 7045cc474d7fc25a27465f0ba5eef54d1f1c34a7d2962c7b1d5017d9f7c2c06c",
    "refute sum0-nand": "0 240976a8d8b17aae989a93d6b3e59a84fdf447ad184a06cd6b7e1bdfa81fed26",
    "duality z2": "0 c480961affca828d481cc4b108c9d8c38fba8be36a51afbd528335c4ef05ad3e",
    "duality meet2": "0 a70d81fa5713ab90efd4ebc5a67892fac00ef6c89cd3d1b5faac76a7a50699ac",
    "duality z2 --max-power 4": "0 f3360bd81bc9d83f93622e7b7a6ab9fa4106eb1895883641110d4837451d2e94",
    "duality z4aff --arity 2 --max-power 2": "1 8f2f38e08fdcda4dce54878e5efa7baca4cf7faf45ee5c86126b60a0176ed45e",
    "duality s3 --arity 2 --max-power 2": "1 3c84da40d9f6b02b574d46d9fb396e40648a7b4c6312bd11da22570408cbb611",
    "duality meet2 --arity 2 --max-power 3": "1 4a4ffa788b5b2f4de27049105fc86f5793deea60f1885ba461ff3a4d340d6802",
    "duality z3 partial": "1 dbf70f82fe79cecaf7806faa289e38744a1abed619b90e7a15e78a01a3259e0d",
}


def test_stdout_matches_recorded_digests(tmp_path, capsys):
    assert digests(outputs(tmp_path, capsys)) == GOLDEN


def test_more_verbs_match_recorded_digests(tmp_path, capsys):
    assert digests(more_outputs(tmp_path, capsys)) == GOLDEN_MORE
