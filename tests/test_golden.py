"""Pinned CLI output: the sha256 of stdout and the exit code of fixed invocations.

A change that must not alter any printed system or verdict keeps every
hash. A change that does alter one on purpose re-records that hash and
says why.
"""

import hashlib

import pytest

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
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN,
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_cli_output_is_pinned(capsys, argv, code, digest):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
