"""Golden outputs: the pinned output of each command and library probe, run as
a child process.

Each case starts ``python -m freecurves.cli ...``, or ``python -c`` with a
probe's source, in a fresh directory with ``PYTHONPATH`` at ``src`` and a
30 s limit.  It checks the exit status, then the stdout's sha256, its exact
text or its last line, plus the line count and stderr where given.  A digest
or text changes only when an output changes on purpose, and CHANGES.md says
why.  This is the one place the suite runs the CLI as a process, and the
workflow pins no output of its own.
"""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
from typing import Callable, NamedTuple

import pytest

from freecurves.modelio import fixture_path

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"

CLI = ("-m", "freecurves.cli")
MODEL = "{model}"  # in argv, the path of the case's generated model file

NODAL64 = "1/-5,4/3,0/2,4/-6,-3/-2,5/6,4/6,6/-3,5/6,4/-4,-5/0,1/-3,5/-6,-5/0,4/-6,-5/-4,-5/3,-6/3,-2/-3,2/-3,-5/-6,6/1,0/-3,-2/5,-4/2,0/-1,2/-2,5/-1,5/1,2/-4,-6/-6,-3/1,-4/-3,-3/-6,4/-2,-3/4,-3/6,-6/5,6/-2,-5/-4,-2/-3,4/3,4/-3,4/-3,-4/3,-2/0,1/-2,5/-1,-4/-2,-4/-4,-2/-6,-4/-6,-5/-5,2/-6,-4/-1,2/-2,0/6,1/-6,4/1,-1/5,2/5,-6/-6,5/5,2/-1"
NODAL20 = ",".join(["20/-20"] * 10 + ["-20/20"] * 10)

# --- library probes, each given its input in argv -------------------------

PROBE64 = """
import sys
from freecurves.nodal import degbd_profile, parse_nodal_type, sharpness_witness
z = parse_nodal_type(sys.argv[1])
print(sharpness_witness(z, 32).total, degbd_profile(z)[31])
"""

# a rank-1,000 type: the bound at m = 500 and the sum of the whole profile
PROFILE1000 = """
import random
from freecurves.nodal import NodalType, degbd, degbd_profile
r = random.Random(1000)
z = NodalType((int(r.random() * 13) - 6, int(r.random() * 13) - 6) for _ in range(1000))
print(degbd(z, 500), sum(degbd_profile(z)))
"""

# a rank-30,000 type: the bound just below the top rank and at it
TOP30000 = """
import random
from freecurves.nodal import NodalType, degbd
r = random.Random(30000)
z = NodalType((int(r.random() * 13) - 6, int(r.random() * 13) - 6) for _ in range(30000))
print(degbd(z, 29990), degbd(z, 30000))
"""

# a rank-2,000 type at the middle m: 1,000 forward steps, then 999 dual ones
MIDDLE2000 = """
import random
from freecurves.nodal import NodalType, degbd
r = random.Random(2000)
z = NodalType((int(r.random() * 13) - 6, int(r.random() * 13) - 6) for _ in range(2000))
print(degbd(z, 1000), degbd(z, 1001))
"""

WITNESS64 = """
import sys
from freecurves.nodal import parse_nodal_type, sharpness_witness
print(sharpness_witness(parse_nodal_type(sys.argv[1]), 32).render())
"""

# validate checks coverage at the model's own rays and their pairwise sums,
# and its rays come from one double-description pass: an orthant of lattice
# rank 10, and one of rank 12 with the 12 redundant facets x_i + x_(i+1) >= 0
VALIDATE_ORTHANT = """
import sys
from fractions import Fraction
from freecurves.variety import Chamber, VarietyModel, validate
rho = int(sys.argv[1])
units = [tuple(int(i == j) for j in range(rho)) for i in range(rho)]
pairs = [tuple(int(j in (i, (i + 1) % rho)) for j in range(rho)) for i in range(rho)]
wall = (1, -1) + (0,) * (rho - 2)
half = [(2, (Fraction(1, 2),) * rho)]
chambers = [Chamber([w], half) for w in (wall, tuple(-c for c in wall))]
facets = units + pairs if sys.argv[2] == "pairs" else units
print(validate(VarietyModel(rho, 2, (1,) * rho, facets, chambers)).render())
"""

# esp's exit code, stdout and stderr over a grid of classes on every
# fixture, refusals (NotInNefCone, ZeroDegree) included
ESPGRID = """
import contextlib, io
from itertools import product
from freecurves import cli
grids = [("toy_rho1.json", [(c,) for c in range(-2, 21)])]
grids += [(name, list(product(range(-2, 7), repeat=2))) for name in ("toy_rho2.json", "pbundle.json")]
for name, classes in grids:
    for alpha in classes:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["esp", "--model", name, "--class=" + ",".join(map(str, alpha))])
        print(name, alpha, code, repr(out.getvalue()), repr(err.getvalue()))
"""

VALIDATE_FILE = """
import sys
from freecurves.modelio import load_model_file
from freecurves.variety import validate
print(validate(load_model_file(sys.argv[1]).model).render())
"""

# --- generated models -------------------------------------------------------


def _fixture(name):
    return json.loads(fixture_path(name).read_text(encoding="utf-8"))


def huge_rank():
    """toy_rho1 with a piece of rank 10^30: count reads only its slope."""
    d = _fixture("toy_rho1.json")
    d["dim"] = d["chambers"][0]["filtration"][0]["rank"] = 10**30
    return json.dumps(d)


def wedges64():
    """toy_rho2's quadrant in 64 wedges with one filtration; every wall class
    is held by two agreeing wedges."""
    d = _fixture("toy_rho2.json")
    f = [{"rank": 2, "slope_num": [1, 1], "slope_den": 2}]
    d["chambers"] = [{"facets": [[-i, 64 - i], [i + 1, i - 63]], "filtration": f} for i in range(64)]
    return json.dumps(d)


def wedges1():
    """The same filtration on one chamber without facets."""
    d = _fixture("toy_rho2.json")
    d["chambers"] = [{"facets": [], "filtration": [{"rank": 2, "slope_num": [1, 1], "slope_den": 2}]}]
    return json.dumps(d)


def rank3():
    """toy_rho2's two chambers lifted along a third coordinate, so the slice
    walk moves an outer prefix coordinate."""
    d = _fixture("toy_rho2.json")
    piece = lambda num: {"rank": 1, "slope_num": num, "slope_den": 4}
    d["rho"], d["minusK"] = 3, [1, 1, 1]
    d["nef"]["facets"] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    d["chambers"] = [
        {"facets": [[1, -1, 0]], "filtration": [piece([3, 1, 2]), piece([1, 3, 2])]},
        {"facets": [[-1, 1, 0]], "filtration": [piece([1, 3, 2]), piece([3, 1, 2])]},
    ]
    d["counting"]["beta"] = [1, 0, 2]
    return json.dumps(d)


def long_dim():
    """toy_rho1 with a dim of 4,301 digits, which the CLI must refuse."""
    text = fixture_path("toy_rho1.json").read_text(encoding="utf-8")
    return text.replace('"dim": 2,', f'"dim": 1{"0" * 4300},')


# --- the table --------------------------------------------------------------

# count at d = 500 and q = 10^9, built as text since N has 4,501 digits, past
# the int-to-str limit that the entry point lifts: N = q + ... + q^500, N_lib
# = q^3 + ... + q^500, ratio (Q + ... + Q^249) / (1 + ... + Q^249) for Q = q^2
Q1 = "0" * 17 + "1"
LAST500 = "\t".join(("500", "500", "498", "1" + "000000001" * 499 + "0" * 9,
                     "1" + "000000001" * 497 + "0" * 27, "1" + Q1 * 248 + "0" * 18 + "/1" + Q1 * 249))

# count at dmax 240 on 64 agreeing wedges prints the one-chamber output
WEDGES240 = "0f1f73b8ab2debf704d2ed03a0d6653f509744494af7473c3a6f71416b391a54"


class Case(NamedTuple):
    name: str
    argv: tuple
    model: Callable[[], str] | None = None
    status: int = 0
    sha256: str | None = None
    text: str | None = None
    last: str | None = None
    lines: int | None = None
    stderr: str | None = None  # a pattern searched line by line


CASES = [
    Case("sp-as-module", CLI + ("sp", "--type=4,3,3,2"), text="panel: 4/3,1,1,2/3  min_ratio: 2/3\n"),
    # degbd and its profile at rank 64 take augmenting paths and the witness
    # a DP over the summands; a labeling enumeration would not finish in
    # 30 s.  The witness is pinned by digest, so the labeling it chooses
    # cannot change, and probe-rank64 checks its total against the profile
    Case("degbd-rank64", CLI + ("degbd", f"--nodal={NODAL64}", "--m", "32"), text="-217\n"),
    Case("probe-rank64", ("-c", PROBE64, NODAL64), text="-217 -217\n"),
    Case("witness-rank64", ("-c", WITNESS64, NODAL64),
         sha256="5e7772eb8d8eaad2090825684baae3985de47047aacf26d26bebe5886add2673"),
    # the bound and the profile take augmenting paths, O(rank * min(m,
    # rank - m)) and O(rank^2); a table DP over side counts took over a
    # minute at rank 1,000
    Case("profile-rank1000", ("-c", PROFILE1000), text="-2739 -1755219\n"),
    # degbd takes the cheaper side, min(m, rank - m) steps: near the top
    # rank it steps on the dual type, and at the rank it reads the total
    # degree; taking every step forward, the two calls took over two minutes
    Case("degbd-top-rank30000", ("-c", TOP30000), text="254 374\n"),
    # one bound on each side of the switch between forward and dual steps,
    # both taken by the one loop of _bounds
    Case("degbd-middle-rank2000", ("-c", MIDDLE2000), text="-5646 -5646\n"),
    # the smoothing walk's cost stays proportional to its output; the
    # digests pin each listing in its order
    Case("smooth-sequential-rank20", CLI + ("smooth", f"--nodal={NODAL20}", "--sequential"),
         lines=26216, sha256="0febac5a10c17ca20f48121a1682516462a0d87708f4c26101e56a7842888ef9"),
    Case("smooth-rank9", CLI + ("smooth", "--nodal=1/2,6/1,1/2,3/-3,-4/6,2/1,4/3,6/-4,-5/1"),
         lines=20237, sha256="228373977150c4e53b50eb51292d4047e1bc769363fbccff8c68c2cd583b8afe"),
    Case("glue-dual", CLI + ("glue", "--type", "2,1,0", "--align", "dual"), text="2/0,1/1,0/2\n"),
    Case("balance-worst", CLI + ("balance", "--type", "2,1,0,-1,-2"),
         text="state 0: 2,1,0,-1,-2\nstate 1: 1,1,0,-1,-1\nstate 2: 0,0,0,0,0\n"
              "steps: 2\ncopies: 4\nconverged: true\n"),
    Case("balance-best", CLI + ("balance", "--type", "2,1,0,-1,-2", "--policy", "best"),
         text="state 0: 2,1,0,-1,-2\nstate 1: 0,0,0,0,0\nsteps: 1\ncopies: 2\nconverged: true\n"),
    # left-over arguments after a command go back to the top-level parser,
    # so the error names the program as that parser words it
    Case("balance-unrecognized-argument", CLI + ("balance", "--type=2,1,0", "--bogus"),
         status=2, text="", stderr=r"^freecurves: error: unrecognized arguments: --bogus\n\Z"),
    Case("validate-rank10", ("-c", VALIDATE_ORTHANT, "10", "units"), text="violations: 0\n"),
    Case("validate-rank12-24-facets", ("-c", VALIDATE_ORTHANT, "12", "pairs"), text="violations: 0\n"),
    Case("validate-rank3", ("-c", VALIDATE_FILE, MODEL), rank3, text="violations: 0\n"),
    Case("esp-pbundle", CLI + ("esp", "--model", "pbundle.json", "--class", "1,0"),
         text="esp: 3/2,3/2,2/3,2/3,2/3\nmin_entry: 2/3\ndegree: 10\nliberated_bound: -7/12\n"),
    Case("esp-grid", ("-c", ESPGRID),
         sha256="984c657d8e5c06c8c2a99f886b70a940b737bf9ac021f27ea46ab43832019194"),
    # esp lists one entry per summand, so it refuses a piece of rank 10^30
    # by name, where count reads only the piece's slope
    Case("esp-huge-rank", CLI + ("esp", "--model", MODEL, "--class", "3"), huge_rank,
         status=1, text="", stderr=r"^error: RankTooLarge: "),
    Case("esp-integer-past-digit-limit", CLI + ("esp", "--model", MODEL, "--class", "4"), long_dim,
         status=1, text="", stderr=r"ModelFormatError: .*4,300 digits"),
    Case("count-huge-rank", CLI + ("count", "--model", MODEL, "--dmax", "3"), huge_rank,
         last="3\t3\t0\t14\t0\t0"),
    Case("count-wedges64", CLI + ("count", "--model", MODEL, "--dmax", "240"), wedges64,
         sha256=WEDGES240),
    Case("count-wedges1", CLI + ("count", "--model", MODEL, "--dmax", "240"), wedges1,
         sha256=WEDGES240),
    Case("count-past-digit-limit",
         CLI + ("count", "--model", "toy_rho1.json", "--dmax", "500", "--q", "1000000000"),
         last=LAST500),
    # the counting core steps its table values by additions and its q^deg
    # weights once per degree, so dmax 960 (about 462k classes) takes about
    # a second; q = 5/2 and 7/3 give sums over q_den^top in lowest terms
    Case("count-q-7_3", CLI + ("count", "--model", "pbundle.json", "--dmax", "240", "--q", "7/3"),
         sha256="4c7ce0344e52932ef009221c2fe57ddab557efdfb5c7bde022f58644d78bb32b"),
    Case("check-dmax240", CLI + ("check", "--model", "toy_rho2.json", "--dmax", "240"),
         sha256="759fa1f4e47882c13e1da8171b5b2696615d53df0011176b7320fc9f4f4adce0"),
    Case("check-dmax480", CLI + ("check", "--model", "toy_rho2.json", "--dmax", "480"),
         sha256="d8ab99ea63461ad744f1100c6e57d3508490f31df9ed3f368e7a65aa0bc5b235"),
    Case("check-dmax960", CLI + ("check", "--model", "toy_rho2.json", "--dmax", "960"),
         sha256="46cba29f6969a2aed4728d52f3507873141e8b5d8bb921eb53369734faac11a9"),
    Case("check-q-5_2", CLI + ("check", "--model", "toy_rho2.json", "--dmax", "120", "--q", "5/2"),
         sha256="4967cebffbfe1db4eeb27222206213e8cf69d474bada4b5b9f0c767dfa569bdd"),
    Case("check-rank3", CLI + ("check", "--model", MODEL, "--dmax", "120"), rank3,
         sha256="016e97f0f44e04dc3f36ae6ac60c39064bf20ec7aa8b56daf7739e7e24916e68"),
]


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_golden(case, tmp_path):
    argv = case.argv
    if case.model is not None:
        path = tmp_path / "model.json"
        path.write_text(case.model(), encoding="utf-8")
        argv = tuple(str(path) if arg == MODEL else arg for arg in argv)
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        timeout=30,
    )
    out, err = proc.stdout.decode(), proc.stderr.decode()
    assert proc.returncode == case.status, err
    if case.sha256 is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == case.sha256
    if case.text is not None:
        assert out == case.text
    if case.last is not None:
        assert out.splitlines()[-1] == case.last
    if case.lines is not None:
        assert out.count("\n") == case.lines
    if case.stderr is not None:
        assert re.search(case.stderr, err, re.MULTILINE), err


def test_workflow_pins_no_output():
    """Every pinned output lives in the table above; the workflow runs it
    through the tier-1 command."""
    text = WORKFLOW.read_text(encoding="utf-8")
    marks = ("sha256sum", "python -c", "timeout 30", "$RUNNER_TEMP")
    assert [mark for mark in marks if mark in text] == []
    assert f"- run: {TIER1}\n" in text
    assert f"`{TIER1}`" in (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
