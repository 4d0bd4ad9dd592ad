"""Pinned CLI output: the sha256 of stdout and the exit code of fixed invocations.

A change that must not alter any printed system or verdict keeps every
hash. A change that does alter one on purpose re-records that hash and
says why.
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from crystalpoly import IndexSequence, SequenceCrystal, get_builtin, weight
from crystalpoly.cli import main

IOTA0 = ("--builtin", "a3", "--iota", "1 2 3 2 1 2")

# (argv, exit code, sha256 of stdout)
GOLDEN = [
    (("inequalities", *IOTA0, "--lambda", "0,1,0"), 0,
     "a5aaf00e785cd121e92edd4696dab3567b6158b669119eedec11543339c04e34"),
    (("inequalities", *IOTA0, "--lambda", "0,1,0", "--format", "json"), 0,
     "0e447f6500cc491233d73129b605d919cca0a7aa968f4c339deba1329c0ba1f5"),
    (("inequalities", *IOTA0, "--binf"), 0,
     "49cb7a9f2790bbf68c4172492301f9661830e10e870e62fe9d157f93ac4b6efe"),
    (("inequalities", *IOTA0, "--binf", "--format", "json"), 0,
     "4ff610ac089cf5172ca9488795d9cb651f67d6d02d9ffaad8c914314ea7c0792"),
    (("inequalities", "--builtin", "g2", "--binf"), 0,
     "9b7483fb638d9e84c5fdf92f3dfcb8e7d2f25c7cb9e2b9394000b58b364c7ba6"),
    (("inequalities", "--builtin", "g2", "--binf", "--format", "json"), 0,
     "bb5d6536f4f9f2239769a750b1ecaf060ee8431ada975c8e1ff231344e093f42"),
    (("inequalities", "--builtin", "a4", "--lambda", "1,0,1,0"), 0,
     "ebd9ff814cf9259e8409ff09dd6e2e7f8d2101c2f06dcbee812ef41ae09a8dda"),
    (("inequalities", "--builtin", "a4", "--lambda", "1,0,1,0", "--format", "json"), 0,
     "14406774103cda87386eb81ccff31e57aa35b28247283be73ca8ac3e1c76d52d"),
    (("inequalities", "--builtin", "a1tilde", "--lambda", "1,1", "--method", "rank2",
      "--window", "5"), 0,
     "110aef4f7069edd58c78fa404d1478468abdb41713cd81983d8bf44d549811a8"),
    (("inequalities", "--builtin", "a3", "--lambda", "1,0,1", "--method", "an"), 0,
     "1781efa68cd9ce81fa6e626581aac18fa15e774a75fe9ab48a9017293064ea30"),
    (("verify", *IOTA0, "--lambda", "0,1,0", "--depth", "6"), 4,
     "14e30e2b2e98d42713787766d14a797e34db6de371df027ddde30304430cb659"),
    (("verify", *IOTA0, "--binf", "--depth", "6"), 4,
     "c747994fe9a9f8cf247defebe983cfff739fb3ea9d8a26046a32a29d9a914b8e"),
    (("verify", "--builtin", "a3", "--lambda", "1,1,0", "--depth", "6"), 0,
     "24bcf3a64b4a05792499cfa51d0668819de48fad49717a4864cb8f046e47865e"),
    (("verify", "--builtin", "g2", "--lambda", "1,1", "--depth", "8", "--method", "rank2"), 0,
     "fa473e3f9b6388a8e86cd2f0e54908a851231df31ee3bdc089709a4521c53218"),
    (("graph", "--builtin", "a4", "--binf", "--depth", "6"), 0,
     "441c414b875542a528c6207df538f05a1bf31bf728b28cca18f7c39479f0623e"),
    (("graph", "--builtin", "a3", "--binf", "--depth", "4", "--format", "json"), 0,
     "13350ca1b9773a5ee5c5885a799ccba53ea62bc7e581b6b5cf6f55c21ce60252"),
    (("graph", "--builtin", "a4", "--lambda", "1,0,1,0", "--depth", "6"), 0,
     "2a82165be70ff6ae73c229b13f92e779794de46f93c34b3fa5693111241dcbd8"),
    (("graph", *IOTA0, "--lambda", "0,1,0", "--depth", "6", "--format", "dot"), 0,
     "ece63094281dddce6f125812e52c40fb56f3234e89ad530f6012b62e46a6181a"),
    (("graph", "--builtin", "a1tilde", "--binf", "--depth", "5"), 0,
     "f5e2e9f6cd9cab160575d01e328bf82f60ab03c7d648c6c7c01b02886c683bad"),
    (("graph", "--builtin", "a4", "--lambda", "1,1,1,1", "--depth", "8"), 0,
     "cae4fa597e1e42c25f62e6af6ca9d8aca4e0095465848bd4caee1ae69b40c22c"),
    (("graph", "--builtin", "a5", "--binf", "--depth", "4"), 0,
     "dfc55201467fe270bae0e51fc4287798c77cbb3bcc7fc737ddb0af90dfa3f262"),
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN,
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_cli_output_is_pinned(capsys, argv, code, digest):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def _a3_nodes(lam):
    """Depth-4 graph nodes on the a3 opening 1 2 3 1 2 1, as `graph --format json` lists them."""
    crystal = SequenceCrystal(
        get_builtin("a3").cartan, IndexSequence((1, 2, 3, 1, 2, 1), 3), lam)
    return [node.to_json_obj() for node in crystal.bfs(4).nodes]


def _rank2_words(seed=20240):
    rng = random.Random(seed)
    return [[[k, rng.randint(-4, 4)] for k in (1, 2, 1, 2, 1, 2)] for _ in range(24)]


A3_MAP = ("--builtin", "a3", "--iota", "1 2 3 1 2 1", "--i", "1", "--j", "2",
          "--window", "4,5,6")
G2_MAP = ("--i", "1", "--j", "2", "--window", "1,2,3,4,5,6")

# (elements, argv before --map-set, sha256 of stdout); every run exits 0.  A
# dict in the argv is a Cartan file's JSON, passed as the path of that file
MAP_SET_GOLDEN = {
    "a3-free": (lambda: _a3_nodes(None), A3_MAP,
                "333fd070a5a28d68e436f65ada914c01d90fda38450bf8442b6c57a950f898c6"),
    "a3-lambda-101": (lambda: _a3_nodes(weight(1, 0, 1)), A3_MAP,
                      "e4c3d28bb0abca64dc6be41c67916bc64a6abdfcf3c2355eaf4c14f65bea4a9e"),
    "g2-builtin": (_rank2_words, ("--builtin", "g2", *G2_MAP),
                   "1589c40667085ef29d1ae1f6d476ebb6056c43a0852cbfda52faacf927bf0f99"),
    # the pairing profiles (1, 3) and (3, 1) from a file; each digest is that
    # of the same words under the former spelling --c1 C1 --c2 C2
    "g2-cartan-file": (_rank2_words, ("--cartan-file", {"matrix": [[2, -1], [-3, 2]]}, *G2_MAP),
                       "1589c40667085ef29d1ae1f6d476ebb6056c43a0852cbfda52faacf927bf0f99"),
    "31-cartan-file": (lambda: _rank2_words(31),
                       ("--cartan-file", {"matrix": [[2, -3], [-1, 2]]}, *G2_MAP),
                       "4d4d7032e0f16f33d4ce044973da2a2f01647e585cae21e334c64c6952d0b7a8"),
}


@pytest.mark.parametrize("name", MAP_SET_GOLDEN)
def test_braid_map_set_is_pinned(tmp_path, capsys, name):
    elements, argv, digest = MAP_SET_GOLDEN[name]
    src = tmp_path / "elements.json"
    src.write_text(json.dumps(elements()))
    datum = tmp_path / "cartan.json"
    for arg in argv:
        if isinstance(arg, dict):
            datum.write_text(json.dumps(arg))
    argv = [str(datum) if isinstance(arg, dict) else arg for arg in argv]
    got = main(["braid", *argv, "--map-set", str(src)])
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


# sha256 per benchmark workload that `scripts/grid_digest.py` prints: every
# grid argv's exit code, stdout and stderr, braid fuzz seeds fixed to 1.  A
# declared change to a benchmark grid or to its recorded answers re-records it.
GRID_DIGESTS = {
    "braid-fuzz": "3e4e0064734a1d0ef8f43eae116df42d4095b1037db3f2fa7b516c7e517b1ec6",
    "closure": "d46b8e6f3fbadfd1c008acec025b83ba1e08251f94bfcee41d10e82e13302fcc",
    "verify": "b9855380e058967e175409074272f05d9355790c62805725be9e609ec4820fac",
}


def _grid_digest():
    path = Path(__file__).resolve().parent.parent / "scripts" / "grid_digest.py"
    spec = importlib.util.spec_from_file_location("grid_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(GRID_DIGESTS))
def test_benchmark_grids_answer_byte_for_byte_as_recorded(workload):
    total = hashlib.sha256()
    for _, digest in _grid_digest().workload_digests(workload):
        total.update(f"{digest}\n".encode())
    assert total.hexdigest() == GRID_DIGESTS[workload]
