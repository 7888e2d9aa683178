"""Command-line surface and model-file loading."""

import contextlib
import io
import json
import os
import pathlib
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from freecurves import cli, modelio
from freecurves.cli import _parse_args, _parser, run
from freecurves.errors import (
    DomainError,
    ModelFormatError,
    NotInNefCone,
    ZeroDegree,
    exact_fraction,
)
from freecurves.modelio import fixture_path, load_model, load_model_file
from freecurves.nodal import parse_nodal_type
from freecurves.splitting import parse_splitting_type
from freecurves.variety import pbundle, read_class, toy_rho1, validate


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Argument lists holding one malformed integer token, each with the flag
# that carries it and the token.
MALFORMED_INTEGERS = {
    ("sp", "--type", "1_0,2"): ("--type", "1_0"),
    ("count", "--model", "toy_rho1.json", "--dmax", "0_3"): ("--dmax", "0_3"),
    ("degbd", "--nodal", "2/-1,-1/2", "--m", "\u0661"): ("--m", "\u0661"),
    ("esp", "--model", "toy_rho2.json", "--class", "1_0,0"): ("--class", "1_0"),
    ("glue", "--type", "2,1", "--align", "perm:0_2,1"): ("--align", "0_2"),
    ("balance", "--type", "1,1", "--max-steps", "\u0663"): ("--max-steps", "\u0663"),
    # an empty list item is an empty token, not skipped: 1,,0 is not 1,0
    ("esp", "--model", "toy_rho2.json", "--class", "1,,2"): ("--class", ""),
    ("sp", "--type", "1,,0"): ("--type", ""),
    ("sp", "--type=4,3,"): ("--type", ""),
    ("degbd", "--nodal=1/0,,0/1", "--m", "1"): ("--nodal", ""),
    ("glue", "--type", "2,1", "--align", "perm:1,,2"): ("--align", ""),
    # the perm: list and the class vector name the token too
    ("glue", "--type", "1,0", "--align", "perm:1,x"): ("--align", "x"),
    ("esp", "--model", "toy_rho2.json", "--class", "1,x"): ("--class", "x"),
}

# Malformed rationals for check, each with the integer token it fails on.
MALFORMED_FRACTIONS = {
    "--q=1_0/3": "1_0",
    "--q=\u0663": "\u0663",
    "--q=1e2": "1e2",
    "--q=1.5": "1.5",
    "--delta=0.5": "0.5",
}


class TestCommands:
    def test_sp(self, capsys):
        code, out, _ = invoke(capsys, "sp", "--type", "4,3,3,2")
        assert code == 0
        assert out == "panel: 4/3,1,1,2/3  min_ratio: 2/3\n"

    def test_sp_negative_slope(self, capsys):
        # a leading minus needs the = form, as usual for argparse values
        code, out, _ = invoke(capsys, "sp", "--type=-1,-2")
        assert code == 0
        assert out == "panel: 2/3,4/3  min_ratio: n/a\n"

    def test_sp_zero_slope_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "sp", "--type", "1,-1")
        assert code == 1
        assert "ZeroSlope" in err

    def test_degbd(self, capsys):
        code, out, _ = invoke(capsys, "degbd", "--nodal", "2/-1,-1/2", "--m", "1")
        assert code == 0
        assert out == "0\n"

    def test_degbd_out_of_range(self, capsys):
        code, _, err = invoke(capsys, "degbd", "--nodal", "2/-1,-1/2", "--m", "9")
        assert code == 1
        assert "OutOfRange" in err

    def test_smooth(self, capsys):
        code, out, _ = invoke(capsys, "smooth", "--nodal", "2/-1,-1/2")
        assert code == 0
        assert out == "2,0\n1,1\n"

    def test_smooth_sequential_filter(self, capsys):
        _, full, _ = invoke(capsys, "smooth", "--nodal", "3/-3,0/0,-3/3")
        _, seq, _ = invoke(
            capsys, "smooth", "--nodal", "3/-3,0/0,-3/3", "--sequential"
        )
        assert set(seq.splitlines()) < set(full.splitlines())
        assert "1,0,-1" in seq.splitlines()

    def test_glue_self_dual(self, capsys):
        code, out, _ = invoke(capsys, "glue", "--type", "2,1,0")
        assert code == 0
        assert out == "2/0,1/1,0/2\n"

    def test_glue_two_types_identity(self, capsys):
        code, out, _ = invoke(
            capsys, "glue", "--type", "2,1", "--type", "5,3", "--align", "identity"
        )
        assert code == 0
        assert out == "2/5,1/3\n"

    def test_glue_permutation(self, capsys):
        code, out, _ = invoke(
            capsys, "glue", "--type", "2,1", "--align", "perm:2,1"
        )
        assert code == 0
        assert out == "2/1,1/2\n"

    @pytest.mark.parametrize(
        "images, message",
        [
            ("0,1,2", "not a permutation of 1..3: (0, 1, 2)"),
            ("1,1,2", "not a permutation of 1..3: (1, 1, 2)"),
        ],
    )
    def test_glue_bad_permutation_names_one_based_input(self, capsys, images, message):
        code, out, err = invoke(
            capsys, "glue", "--type", "2,1,0", "--align", f"perm:{images}"
        )
        assert code == 2
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_glue_rank_mismatch(self, capsys):
        code, _, err = invoke(capsys, "glue", "--type", "1,0", "--type", "5,0,0")
        assert code == 1
        assert "RankMismatch" in err
        # a third type is a usage error, not a mismatch
        code, out, err = invoke(capsys, "glue", *["--type", "1,0"] * 3)
        assert (code, out) == (2, "")
        assert err == "usage error: glue takes one or two --type arguments\n"

    def test_glue_bad_alignment_names_the_choices(self, capsys):
        # argparse shows the reader's message, not its function's name
        with pytest.raises(SystemExit) as exc:
            run(["glue", "--type", "1,0", "--align", "bogus"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "freecurves glue: error: argument --align: bad alignment 'bogus';"
            " use dual, identity or perm:i1,i2,..."
        )

    def test_balance(self, capsys):
        code, out, _ = invoke(capsys, "balance", "--type", "2,1,0")
        assert code == 0
        assert out == (
            "state 0: 2,1,0\nstate 1: 2,2,2\nsteps: 1\ncopies: 2\nconverged: true\n"
        )

    def test_balance_policy_best(self, capsys):
        code, out, _ = invoke(
            capsys, "balance", "--type", "2,1,0,-1,-2", "--policy", "best"
        )
        assert code == 0
        assert "state 1: 0,0,0,0,0" in out

    def test_balance_has_no_sequential_switch(self, capsys):
        # balancing is defined for sequential types only, so the switch that
        # turned the rule off is gone and is an unknown argument
        with pytest.raises(SystemExit) as err:
            run(["balance", "--type=2,1,0", "--no-sequential"])
        assert err.value.code == 2
        assert "--no-sequential" in capsys.readouterr().err

    def test_balance_non_integer_slope(self, capsys):
        code, _, err = invoke(capsys, "balance", "--type", "1,0")
        assert code == 1
        assert "NonIntegerSlope" in err

    def test_esp(self, capsys):
        code, out, _ = invoke(
            capsys, "esp", "--model", "pbundle.json", "--class", "1,0"
        )
        assert code == 0
        assert out == (
            "esp: 3/2,3/2,2/3,2/3,2/3\n"
            "min_entry: 2/3\n"
            "degree: 10\n"
            "liberated_bound: -7/12\n"
        )

    def test_count_rho1(self, capsys):
        code, out, _ = invoke(
            capsys, "count", "--model", "toy_rho1.json", "--dmax", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "d\tpoints\tliberated\tN\tN_lib\tratio"
        assert lines[4].split("\t")[3] == "14"

    def test_count_with_piece_rank_past_index_size(self, capsys, tmp_path):
        # the certified bound needs only the least piece slope, so a piece
        # of rank 10^30 is never expanded into summands
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["dim"] = data["chambers"][0]["filtration"][0]["rank"] = 10**30
        path = tmp_path / "huge_rank.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(capsys, "count", "--model", str(path), "--dmax", "3")
        assert (code, err) == (0, "")
        _, plain, _ = invoke(capsys, "count", "--model", "toy_rho1.json", "--dmax", "3")
        rows = [line.split("\t") for line in out.splitlines()[2:]]
        plain_rows = [line.split("\t") for line in plain.splitlines()[2:]]
        assert [(r[0], r[1], r[3]) for r in rows] == [
            (r[0], r[1], r[3]) for r in plain_rows
        ]
        assert all((r[2], r[4], r[5]) == ("0", "0", "0") for r in rows)
        assert out.splitlines()[-1] == "3\t3\t0\t14\t0\t0"

    def test_esp_refuses_a_panel_of_rank_past_index_size(self, capsys, tmp_path):
        # esp lists one entry per summand, so a piece of rank 10^30 is a
        # named domain error, exit 1, not an OverflowError traceback
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["dim"] = data["chambers"][0]["filtration"][0]["rank"] = 10**30
        path = tmp_path / "huge_rank.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(capsys, "esp", "--model", str(path), "--class", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: RankTooLarge: panel of 10")

    @pytest.mark.parametrize(
        "cls, error",
        [
            ("-1", "NotInNefCone"),
            ("0", "ZeroDegree"),
            ("3", "NoChamber"),
        ],
    )
    def test_esp_errors_come_in_order(self, capsys, tmp_path, cls, error):
        # the one read of the class refuses it outside the nef cone, then at
        # degree 0, then in no chamber, all before the panel's RankTooLarge:
        # the one chamber of rank 10^30 holds only t <= 0
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["dim"] = data["chambers"][0]["filtration"][0]["rank"] = 10**30
        data["chambers"][0]["facets"] = [[-1]]
        path = tmp_path / "huge_rank_half.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(capsys, "esp", "--model", str(path), "--class", cls)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {error}: ")

    @pytest.mark.parametrize("name", ["toy_rho1.json", "toy_rho2.json", "pbundle.json"])
    def test_esp_matches_library(self, capsys, name):
        # the command prints the report's panel, degree and bound, or exits
        # 1 with the error the read raises, on every class of a box that
        # holds refusals outside the nef cone and at degree 0
        model = load_model_file(fixture_path(name)).model
        if model.rho == 1:
            classes = [(c,) for c in range(-1, 21)]
        else:
            classes = list(product(range(-1, 7), repeat=2))
        refused = set()
        for alpha in classes:
            try:
                report = read_class(model, alpha)
            except DomainError as exc:
                refused.add(type(exc))
                expected = (1, "", f"error: {type(exc).__name__}: {exc}\n")
            else:
                panel = report.panel()
                expected = (
                    0,
                    f"esp: {','.join(map(str, panel))}\n"
                    f"min_entry: {min(panel)}\n"
                    f"degree: {report.degree}\n"
                    f"liberated_bound: {report.bound()}\n",
                    "",
                )
            argv = ("esp", "--model", name, "--class=" + ",".join(map(str, alpha)))
            assert invoke(capsys, *argv) == expected, alpha
        assert refused == {NotInNefCone, ZeroDegree}

    def test_check_reports_threshold_degree(self, capsys):
        code, out, _ = invoke(
            capsys, "check", "--model", "toy_rho2.json", "--dmax", "45"
        )
        assert code == 0
        assert out.splitlines()[-1] == "# d0: 11"

    def test_check_is_count_plus_d0_line(self, capsys):
        _, count, _ = invoke(capsys, "count", "--model", "toy_rho2.json", "--dmax", "9")
        _, check, _ = invoke(capsys, "check", "--model", "toy_rho2.json", "--dmax", "9")
        assert check == count + "# d0: none\n"

    def test_model_path_and_fixture_name_agree(self, capsys, tmp_path):
        _, by_name, _ = invoke(
            capsys, "esp", "--model", "toy_rho2.json", "--class", "2,1"
        )
        _, by_path, _ = invoke(
            capsys,
            "esp",
            "--model",
            str(fixture_path("toy_rho2.json")),
            "--class",
            "2,1",
        )
        assert by_name == by_path

    def test_missing_model(self, capsys):
        code, _, err = invoke(capsys, "esp", "--model", "nope.json", "--class", "1,0")
        assert code == 1
        assert "not found" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.tsv"
        code, out, _ = invoke(
            capsys,
            "count",
            "--model",
            "toy_rho1.json",
            "--dmax",
            "2",
            "--out",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert "\t6\t" in target.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--model", "toy_rho1.json", "--dmax", "2", "--q=1/0"),
            ("check", "--model", "toy_rho1.json", "--dmax", "2", "--delta=1/0"),
        ],
    )
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(list(argv))
        assert err.value.code == 2
        assert "zero denominator in '1/0'" in capsys.readouterr().err

    def test_out_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.tsv"
        argv = ("count", "--model", "toy_rho1.json", "--dmax", "2", "--out", str(target))
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: FileNotFoundError: ")

    def test_model_naming_a_directory(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "esp", "--model", str(tmp_path), "--class", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: IsADirectoryError: ")

    def test_model_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = invoke(capsys, "esp", "--model", str(bad), "--class", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ModelFormatError: ")
        assert "not UTF-8" in err

    def test_deterministic_output(self, capsys):
        argv = ("check", "--model", "toy_rho2.json", "--dmax", "12")
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            run(["sp"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            run(["sp", "--type", "x,y"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", MALFORMED_INTEGERS)
    def test_malformed_integer_token_is_usage_error(self, capsys, argv):
        # int() alone would read 1_0 as 10 and Arabic-Indic digits as digits;
        # the message names the token, not the function that read it
        flag, token = MALFORMED_INTEGERS[argv]
        with pytest.raises(SystemExit) as err:
            run(list(argv))
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"freecurves {argv[0]}: error: argument {flag}: not an integer: {token!r}"
        )

    @pytest.mark.parametrize("flag", MALFORMED_FRACTIONS)
    def test_malformed_fraction_is_usage_error(self, capsys, flag):
        # Fraction(text) would read these as 10/3, 3, 100, 3/2 and 1/2
        with pytest.raises(SystemExit) as err:
            run(["check", "--model", "toy_rho1.json", "--dmax", "1", flag])
        assert err.value.code == 2
        name, token = flag.partition("=")[0], MALFORMED_FRACTIONS[flag]
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"freecurves check: error: argument {name}: not an integer: {token!r}"
        )

    @pytest.mark.parametrize(
        "argv, n_value",
        [(("--q=+3/2",), "3/2"), (("--q", " 2 "), "2"), (("--q", "6 / 4"), "3/2")],
    )
    def test_fraction_grammar(self, capsys, argv, n_value):
        code, out, _ = invoke(
            capsys, "count", "--model", "toy_rho1.json", "--dmax", "1", *argv
        )
        assert code == 0
        assert out.splitlines()[-1].split("\t")[3] == n_value

    def test_bad_max_steps_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "balance", "--type", "1,1", "--max-steps", "0")
        assert code == 2
        assert "usage error" in err

    def test_delta_override(self, capsys):
        code, out, _ = invoke(
            capsys,
            "check",
            "--model",
            "toy_rho2.json",
            "--dmax",
            "12",
            "--delta",
            "99/100",
        )
        assert code == 0
        assert out.splitlines()[-1] == "# d0: 5"


# One valid argument list per command, in the = and the space form, with an
# abbreviated option and --out among them.
VALID_ARGVS = [
    ["sp", "--type=4,3,3,2"],
    ["sp", "--ty", "2,1", "--out", "sp.txt"],
    ["degbd", "--nodal=2/-1,-1/2", "--m", "1"],
    ["smooth", "--nodal", "2/-1,-1/2", "--sequential"],
    ["glue", "--type=2,1,0", "--type", "1,1,1", "--align=perm:3,1,2"],
    ["glue", "--ty=2,1"],
    ["balance", "--ty=2,1,0", "--policy", "best", "--max-steps=3"],
    ["esp", "--model", "pbundle.json", "--class=1,0", "--out=esp.txt"],
    ["count", "--model=toy_rho1.json", "--dmax", "3", "--q=3/2", "--delta", "1/2"],
    ["check", "--model", "toy_rho2.json", "--dmax=5"],
]

# Argument lists the parsers refuse or answer with help, before or after a
# command name.
BAD_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["--out", "x", "sp"],
    ["balance", "-h"],
    ["balance", "--type=2,1,0", "--bogus"],
    ["balance", "--type=2,1,0", "stray"],
    ["balance", "--type=2,1,0", "--policy=middle"],
    ["degbd", "--nodal=1/1", "--m=x"],
    ["glue", "--type=1,0", "--align=bogus"],
    ["sp", "--type=1.5"],
    ["sp"],
    ["count", "--model", "toy_rho1.json"],
    ["count", "--model=toy_rho1.json", "--d=3"],
    ["sp", "--type=1", "--out"],
    ["sp", "--type=1", "--out", "x", "sp"],
]


def _parsed(parse, argv):
    """What ``parse(argv)`` gives: its namespace, or its exit code, stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestDispatch:
    """``run`` parses a named command with its subparser alone; the result
    must be what the top-level parser gives, namespace or error."""

    @pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
    def test_namespace_matches_top_level_parser(self, argv):
        parser, _ = _parser()
        got = _parsed(_parse_args, argv)
        assert got == _parsed(parser.parse_args, argv)
        assert got["command"] == argv[0]

    @pytest.mark.parametrize("argv", BAD_ARGVS, ids=" ".join)
    def test_refusal_matches_top_level_parser(self, argv):
        parser, _ = _parser()
        got = _parsed(_parse_args, argv)
        assert type(got) is tuple
        assert got == _parsed(parser.parse_args, argv)

    def test_leftover_arguments_name_the_program(self):
        code, _, err = _parsed(_parse_args, ["balance", "--type=2,1,0", "--bogus"])
        assert code == 2
        assert err.splitlines()[-1] == (
            "freecurves: error: unrecognized arguments: --bogus"
        )

    def test_exact_fraction_keeps_a_fraction(self):
        x = Fraction(3, 7)
        assert exact_fraction(x, "x") is x
        for bad in (True, 0.5, "1"):
            with pytest.raises(ValueError, match="an int, a Fraction"):
                exact_fraction(bad, "x")

    def test_fixture_path(self):
        here = pathlib.Path(modelio.__file__).resolve().parent
        assert fixture_path("toy_rho2.json") == here / "fixtures" / "toy_rho2.json"


class TestTextRoundTrips:
    def test_splitting_type(self):
        for text in ("4,3,3,2", "0", "-5,-5,2"):
            t = parse_splitting_type(text)
            assert parse_splitting_type(str(t)) == t

    def test_nodal_type(self):
        for text in ("2/-1,-1/2", "0/0", "3/4,-2/-2,1/0"):
            z = parse_nodal_type(text)
            assert parse_nodal_type(str(z)) == z


ESP_RHO1 = "esp: 1,1\nmin_entry: 1\ndegree: 4\nliberated_bound: 1/2\n"

# What ``esp --class 4`` prints for each --model, run from a directory that
# holds a regular file ``plainfile``, a symlink ``dangling.json`` to a
# missing file, a symlink ``loop.json`` to itself, a directory ``models``
# and ``toy_rho2.json`` holding toy_rho1's bytes, which shadows the fixture
# of that name, and ``bad.json``, which is not JSON.  Exit code, stdout and
# stderr were recorded when the CLI still tested for the file with
# ``Path.exists()`` before reading it.  The rows from "empty" on pin the
# names pathlib rewrites: it drops empty and "." parts.
MODEL_RESOLUTION = {
    "missing": (
        "nope.json",
        (1, "", "error: DomainError: model file not found: nope.json\n"),
    ),
    "under-a-file": (
        "plainfile/x.json",
        (1, "", "error: DomainError: model file not found: plainfile/x.json\n"),
    ),
    "dangling-symlink": (
        "dangling.json",
        (1, "", "error: DomainError: model file not found: dangling.json\n"),
    ),
    "symlink-loop": (
        "loop.json",
        (1, "", "error: DomainError: model file not found: loop.json\n"),
    ),
    "directory": (
        "models",
        (1, "", "error: IsADirectoryError: [Errno 21] Is a directory: 'models'\n"),
    ),
    "nul": (
        "a\x00b.json",
        (1, "", "error: DomainError: model file not found: a\x00b.json\n"),
    ),
    "unencodable": (
        "\ud800.json",
        (1, "", "error: DomainError: model file not found: \ud800.json\n"),
    ),
    "local-shadows-fixture": ("toy_rho2.json", (0, ESP_RHO1, "")),
    "fixture-name": ("toy_rho1.json", (0, ESP_RHO1, "")),
    "empty": ("", (1, "", "error: IsADirectoryError: [Errno 21] Is a directory: '.'\n")),
    "dot-slash-local": ("./toy_rho2.json", (0, ESP_RHO1, "")),
    "trailing-slash-local": ("toy_rho2.json/", (0, ESP_RHO1, "")),
    "trailing-slash-fixture": ("toy_rho1.json/.", (0, ESP_RHO1, "")),
    "trailing-slash-directory": (
        "models//",
        (1, "", "error: IsADirectoryError: [Errno 21] Is a directory: 'models'\n"),
    ),
    "dot-slash-malformed": (
        "./bad.json",
        (
            1,
            "",
            "error: ModelFormatError: bad.json: invalid JSON: "
            "Expecting value: line 1 column 1 (char 0)\n",
        ),
    ),
    "dot-dot-past-missing": (
        "nope/../toy_rho1.json",
        (1, "", "error: DomainError: model file not found: nope/../toy_rho1.json\n"),
    ),
}


class TestModelFiles:
    @pytest.mark.parametrize("case", list(MODEL_RESOLUTION))
    def test_model_resolution(self, tmp_path, monkeypatch, case):
        (tmp_path / "plainfile").write_bytes(b"")
        (tmp_path / "dangling.json").symlink_to("nowhere.json")
        (tmp_path / "loop.json").symlink_to("loop.json")
        (tmp_path / "models").mkdir()
        (tmp_path / "bad.json").write_bytes(b"not json")
        (tmp_path / "toy_rho2.json").write_bytes(
            fixture_path("toy_rho1.json").read_bytes()
        )
        monkeypatch.chdir(tmp_path)
        model, expected = MODEL_RESOLUTION[case]
        # text buffers, since capsys's cannot hold an unencodable name
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["esp", "--model", model, "--class", "4"])
        assert (code, out.getvalue(), err.getvalue()) == expected

    @pytest.mark.parametrize(
        "encoding, model, message",
        [
            ("utf-8", "\ud800.json", b"model file not found: \\ud800.json\n"),
            ("ascii", "\xe9.json", b"model file not found: \\xe9.json\n"),
        ],
    )
    def test_unencodable_name_escaped_on_a_strict_stream(
        self, tmp_path, monkeypatch, encoding, model, message
    ):
        # a stream that encodes strictly gets the name as backslash escapes,
        # as a process's own stderr writes it, and the exit code stays 1
        monkeypatch.chdir(tmp_path)
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(raw, encoding=encoding))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["esp", "--model", model, "--class", "1"])
        sys.stderr.flush()
        assert (code, out.getvalue()) == (1, "")
        assert raw.getvalue() == b"error: DomainError: " + message

    @pytest.mark.parametrize(
        "path, error",
        [(12345, TypeError), (b"toy_rho1.json", TypeError), ("a\x00b", ValueError)],
    )
    def test_load_model_file_refuses_what_path_refuses(self, path, error):
        # an int is not read as a file descriptor, nor bytes as a name
        with pytest.raises(error):
            pathlib.Path(path).read_bytes()
        with pytest.raises(error):
            load_model_file(path)

    def test_bundled_fixtures_load_and_validate(self):
        for name in ("pbundle.json", "toy_rho1.json", "toy_rho2.json"):
            loaded = load_model_file(fixture_path(name))
            assert validate(loaded.model).ok
            assert loaded.counting is not None

    def test_fixtures_match_builders(self):
        assert load_model_file(fixture_path("pbundle.json")).model == pbundle(
            3, 2, [3, 0, 0]
        )
        assert load_model_file(fixture_path("toy_rho1.json")).model == toy_rho1(1)

    def test_unknown_top_level_field_rejected(self):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["surprise"] = 1
        with pytest.raises(ModelFormatError) as err:
            load_model(data)
        assert "surprise" in str(err.value)

    def test_unknown_nested_field_rejected(self):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["chambers"][0]["filtration"][0]["color"] = "blue"
        with pytest.raises(ModelFormatError):
            load_model(data)

    def test_missing_field_rejected(self):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        del data["minusK"]
        with pytest.raises(ModelFormatError):
            load_model(data)

    def test_non_integer_entries_rejected(self):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["minusK"] = [1.5]
        with pytest.raises(ModelFormatError):
            load_model(data)
        data["minusK"] = [True]
        with pytest.raises(ModelFormatError):
            load_model(data)

    def test_eps_table_form(self):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["counting"]["eps"] = {"table": [[1, 1, 2], [5, 1, 4]]}
        loaded = load_model(data)
        assert loaded.counting.eps.value_at(4) == Fraction(1, 2)
        assert loaded.counting.eps.value_at(6) == Fraction(1, 4)

    def test_eps_table_must_start_at_or_below_one(self, capsys, tmp_path):
        # such a table used to load and then fail at d = 1 inside count
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["counting"]["eps"] = {"table": [[2, 1, 2]]}
        with pytest.raises(ModelFormatError, match="counting: "):
            load_model(data)
        path = tmp_path / "late_table.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(capsys, "count", "--model", str(path), "--dmax", "3")
        assert code == 1
        assert out == ""
        assert "ModelFormatError" in err and "start at d <= 1" in err

    @pytest.mark.parametrize("p_num, p_den", [(1, 1001), (1001, 1)])
    def test_eps_exponent_past_the_cap_refused(self, capsys, tmp_path, p_num, p_den):
        # the exponent's terms set the cost of every threshold test, so a
        # file may not make check run without bound through them
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["counting"]["eps"].update(p_num=p_num, p_den=p_den)
        with pytest.raises(ModelFormatError, match="counting: .*term above 1000"):
            load_model(data)
        path = tmp_path / "long_exponent.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(capsys, "check", "--model", str(path), "--dmax", "20")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ModelFormatError: ")
        assert "counting: power schedule exponent" in err

    def test_eps_exponent_at_the_cap_accepted(self, capsys, tmp_path):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["counting"]["eps"].update(p_num=1, p_den=1000)
        assert load_model(data).counting.eps.p == Fraction(1, 1000)
        path = tmp_path / "cap_exponent.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(capsys, "check", "--model", str(path), "--dmax", "20")
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("c_num, c_den", [(10**6 + 1, 1), (1, 10**6 + 1)])
    def test_eps_coefficient_past_the_cap_refused(self, capsys, tmp_path, c_num, c_den):
        # every threshold test raises c to p's denominator, so a file may
        # not make check run without bound through c either
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["counting"]["eps"].update(c_num=c_num, c_den=c_den)
        with pytest.raises(ModelFormatError, match="counting: .*term above 1000000"):
            load_model(data)
        path = tmp_path / "long_coefficient.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(capsys, "check", "--model", str(path), "--dmax", "20")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ModelFormatError: ")
        assert "counting: power schedule coefficient" in err

    @pytest.mark.parametrize("c_num, c_den", [(10**6, 1), (1, 10**6)])
    def test_eps_coefficient_at_the_cap_accepted(self, capsys, tmp_path, c_num, c_den):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["counting"]["eps"].update(c_num=c_num, c_den=c_den, p_den=1000)
        assert load_model(data).counting.eps.c == Fraction(c_num, c_den)
        path = tmp_path / "cap_coefficient.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(capsys, "check", "--model", str(path), "--dmax", "20")
        assert (code, err) == (0, "")
        assert out

    def test_counting_block_optional(self):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        del data["counting"]
        assert load_model(data).counting is None

    def test_counting_beta_length_checked(self):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        data["counting"]["beta"] = [0, 0]
        with pytest.raises(ModelFormatError):
            load_model(data)

    def test_count_requires_counting_block(self, capsys, tmp_path):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        del data["counting"]
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = invoke(capsys, "count", "--model", str(path), "--dmax", "2")
        assert code == 1
        assert "counting block" in err

    @pytest.mark.parametrize(
        "edit, argv, message",
        [
            pytest.param(
                lambda data: data["counting"].update(q_den=0),
                ["count", "--dmax", "2"],
                "counting.q_den must be positive",
                id="zero-q_den",
            ),
            pytest.param(
                lambda data: data["counting"].update(M=0),
                ["count", "--dmax", "2"],
                "counting: the xi bound must be positive",
                id="zero-M",
            ),
            pytest.param(
                lambda data: data["counting"].update(eps=[1, 2]),
                ["count", "--dmax", "2"],
                "counting.eps: expected an object",
                id="eps-list",
            ),
            pytest.param(
                lambda data: data["counting"].update(eps={"table": {"d": 1}}),
                ["count", "--dmax", "2"],
                "counting.eps.table: expected a list",
                id="eps-table-object",
            ),
            pytest.param(
                lambda data: data["counting"].update(eps={"table": [[1, 1]]}),
                ["count", "--dmax", "2"],
                "counting.eps.table row: need [d, num, den]",
                id="eps-table-short-row",
            ),
            pytest.param(
                lambda data: data["chambers"][0].update(filtration={"rank": 2}),
                ["count", "--dmax", "2"],
                "chambers[0].filtration: expected a list",
                id="filtration-object",
            ),
            pytest.param(
                lambda data: data["chambers"][0]["filtration"][0].update(rank=0),
                ["count", "--dmax", "2"],
                "chambers[0]: filtration ranks must be positive",
                id="zero-piece-rank",
            ),
            pytest.param(
                lambda data: data.update(rho=0, dim=0),
                ["count", "--dmax", "2"],
                "rho and dim must be positive",
                id="zero-rho-and-dim",
            ),
            # nef generators were a second description of the nef cone,
            # which is computed from the facets
            pytest.param(
                lambda data: data["nef"].update(generators=[[1]]),
                ["esp", "--class", "4"],
                "nef: unknown field(s) ['generators']",
                id="nef-generators",
            ),
        ],
    )
    def test_model_errors_name_the_file(self, capsys, tmp_path, edit, argv, message):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        edit(data)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(capsys, argv[0], "--model", str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err == f"error: ModelFormatError: {path}: {message}\n"

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model_file(path)

    @pytest.mark.parametrize(
        "block, fields, name",
        [
            ("counting", {"q_den": 0}, "counting.q_den"),
            ("counting", {"delta_den": -3}, "counting.delta_den"),
            ("eps", {"c_den": 0}, "counting.eps.c_den"),
            ("eps", {"p_den": -1}, "counting.eps.p_den"),
            (
                "counting",
                {"eps": {"table": [[1, 1, 2], [3, 1, 0]]}},
                "counting.eps.table[1][2]",
            ),
            # the denominator is checked even when it divides no numerator
            (
                "piece",
                {"slope_num": [], "slope_den": 0},
                "chambers[0].filtration[0].slope_den",
            ),
        ],
    )
    def test_denominator_must_be_positive(self, block, fields, name):
        data = json.loads(fixture_path("toy_rho1.json").read_text())
        target = {
            "counting": data["counting"],
            "eps": data["counting"]["eps"],
            "piece": data["chambers"][0]["filtration"][0],
        }[block]
        target.update(fields)
        with pytest.raises(ModelFormatError) as err:
            load_model(data)
        assert str(err.value) == f"{name} must be positive"

    def test_repeated_field_rejected(self, capsys, tmp_path):
        # the last "dim" used to win: esp printed 3/2,3/2 for the class 4
        text = fixture_path("toy_rho1.json").read_text(encoding="utf-8")
        path = tmp_path / "twice.json"
        path.write_text(text.replace('"dim": 2,', '"dim": 2, "dim": 3,'), "utf-8")
        with pytest.raises(ModelFormatError, match="repeated field.*'dim'"):
            load_model_file(path)
        code, out, err = invoke(capsys, "esp", "--model", str(path), "--class", "4")
        assert (code, out) == (1, "")
        assert "ModelFormatError" in err

    def test_deep_nesting_rejected(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"dim": ' + "[" * 100_000 + "]" * 100_000 + "}", "utf-8")
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            load_model_file(path)
        code, out, err = invoke(capsys, "esp", "--model", str(path), "--class", "4")
        assert (code, out) == (1, "")
        assert "ModelFormatError" in err

    def test_integer_past_digit_limit_rejected(self, tmp_path):
        # in-process, the interpreter's default limit used to end the decode
        # in a bare ValueError; the CLI lifts that limit, and must still
        # refuse the literal rather than read it in quadratic time (the
        # process half is test_golden's esp-integer-past-digit-limit row)
        text = fixture_path("toy_rho1.json").read_text(encoding="utf-8")
        path = tmp_path / "long.json"
        path.write_text(text.replace('"dim": 2,', f'"dim": 1{"0" * 4300},'), "utf-8")
        with pytest.raises(ModelFormatError, match="more than 4,300 digits"):
            load_model_file(path)

    def test_integer_at_digit_limit_is_read(self, tmp_path):
        text = fixture_path("toy_rho1.json").read_text(encoding="utf-8")
        path = tmp_path / "long.json"
        path.write_text(text.replace('"dim": 2,', f'"dim": 1{"0" * 4299},'), "utf-8")
        assert load_model_file(path).model.dim_n == 10**4299


class TestModelCache:
    """A model file is parsed and built once per content per process; what
    a fresh load would give decides every answer."""

    FIXTURE_ARGVS = [
        argv
        for name, cls in [
            ("pbundle.json", "1,0"),
            ("toy_rho1.json", "4"),
            ("toy_rho2.json", "2,1"),
        ]
        for argv in (
            ["esp", "--model", name, "--class", cls],
            ["count", "--model", name, "--dmax", "9"],
            ["check", "--model", name, "--dmax", "9"],
        )
    ]

    def test_same_bytes_give_the_same_model(self, tmp_path):
        raw = fixture_path("toy_rho2.json").read_bytes()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_bytes(raw)
        second.write_bytes(raw)
        assert load_model_file(first) is load_model_file(second)
        by_name = cli._load_model("toy_rho2.json")
        assert by_name is cli._load_model(str(fixture_path("toy_rho2.json")))
        assert by_name is load_model_file(first)

    def test_cache_is_bounded(self, tmp_path):
        modelio._load_bytes.cache_clear()
        text = fixture_path("toy_rho1.json").read_text(encoding="utf-8")
        for dim in range(2, modelio._CACHE_SIZE + 3):
            path = tmp_path / f"dim{dim}.json"
            path.write_text(text.replace('"dim": 2,', f'"dim": {dim},'), "utf-8")
            assert load_model_file(path).model.dim_n == dim
        assert modelio._load_bytes.cache_info().currsize == modelio._CACHE_SIZE

    def test_edit_of_the_same_length_is_read(self, capsys, tmp_path):
        # the mtime is set back too, so neither a path nor an (mtime, size)
        # key would see the edit
        text = fixture_path("toy_rho1.json").read_text(encoding="utf-8")
        path = tmp_path / "edited.json"
        path.write_text(text, encoding="utf-8")
        stamp = path.stat()
        argv = ("esp", "--model", str(path), "--class", "4")
        _, before, _ = invoke(capsys, *argv)
        edited = text.replace('"slope_num": [1]', '"slope_num": [3]')
        assert len(edited) == len(text) and edited != text
        path.write_text(edited, encoding="utf-8")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert path.stat().st_mtime_ns == stamp.st_mtime_ns
        warm = invoke(capsys, *argv)
        modelio._load_bytes.cache_clear()
        cold = invoke(capsys, *argv)
        assert warm == cold
        assert warm[1] != before

    def test_malformed_file_raises_on_every_call(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_bytes(fixture_path("toy_rho1.json").read_bytes())
        load_model_file(first)
        bad = b'{"dim": 2,'
        first.write_bytes(bad)
        second.write_bytes(bad)
        for path in (first, first, second, second):
            with pytest.raises(ModelFormatError) as err:
                load_model_file(path)
            assert str(err.value).startswith(f"{path}: invalid JSON: ")

    def test_overrides_do_not_reach_the_shared_config(self, capsys, tmp_path):
        # q = 3 from the file and from --q print the same; neither is kept
        # for a later check without --q
        text = fixture_path("toy_rho2.json").read_text(encoding="utf-8")
        path = tmp_path / "q.json"
        path.write_text(text.replace('"q_num": 2', '"q_num": 3'), "utf-8")
        argv = ("check", "--model", str(path), "--dmax", "9")
        q3 = invoke(capsys, *argv)
        path.write_text(text, encoding="utf-8")
        assert invoke(capsys, *argv, "--q", "3") == q3
        warm = invoke(capsys, *argv)
        modelio._load_bytes.cache_clear()
        cold = invoke(capsys, *argv)
        assert warm == cold
        assert warm != q3

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="the interpreter has no integer digit limit",
    )
    def test_lower_digit_limit_refuses_a_kept_model(self, tmp_path):
        text = fixture_path("toy_rho1.json").read_text(encoding="utf-8")
        path = tmp_path / "long.json"
        path.write_text(text.replace('"dim": 2,', f'"dim": 1{"0" * 1499},'), "utf-8")
        assert load_model_file(path).model.dim_n == 10**1499
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(1000)
            with pytest.raises(ModelFormatError) as warm:
                load_model_file(path)
            modelio._load_bytes.cache_clear()
            with pytest.raises(ModelFormatError) as cold:
                load_model_file(path)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(warm.value) == str(cold.value)
        assert "invalid JSON" in str(warm.value)
        assert load_model_file(path).model.dim_n == 10**1499

    @pytest.mark.parametrize("command", ["count", "check"])
    def test_counting_config_is_the_loaded_one_unless_overridden(self, capsys, command):
        loaded = load_model_file(fixture_path("toy_rho2.json"))
        base = [command, "--model", "toy_rho2.json", "--dmax", "3"]
        model, cfg = cli._counting_config(_parse_args(base))
        assert model is loaded.model and cfg is loaded.counting
        for flag, value, field in [("--q", "3", "q"), ("--delta", "1/2", "delta")]:
            _, cfg = cli._counting_config(_parse_args([*base, flag, value]))
            assert cfg is not loaded.counting
            assert getattr(cfg, field) == Fraction(value)
            fields = {f: getattr(loaded.counting, f) for f in cfg._fields}
            assert cfg == type(cfg)(**{**fields, field: Fraction(value)})
        assert loaded.counting.q == 2 and loaded.counting.delta == Fraction(1, 10)
        refusals = [
            ("--q", "1", "usage error: q must exceed 1\n"),
            ("--delta", "1", "usage error: delta must lie strictly between 0 and 1\n"),
            ("--delta", "0", "usage error: delta must lie strictly between 0 and 1\n"),
        ]
        for flag, value, message in refusals:
            assert invoke(capsys, *base, flag, value) == (2, "", message)

    @pytest.mark.parametrize("argv", FIXTURE_ARGVS, ids=" ".join)
    def test_cold_and_warm_print_the_same(self, capsys, argv):
        modelio._load_bytes.cache_clear()
        cold = invoke(capsys, *argv)
        assert cold[0] == 0
        assert invoke(capsys, *argv) == invoke(capsys, *argv) == cold


class _Pairs(list):
    """A JSON object as a list of [field, value] entries, so that a mutation
    can repeat a field."""


class _Deep:
    """A value wrapped in arrays nested past any recursion limit."""

    def __init__(self, value):
        self.value = value


def _mutable(text: str):
    return json.loads(text, object_pairs_hook=lambda pairs: _Pairs(map(list, pairs)))


def _json_text(node) -> str:
    if isinstance(node, _Pairs):
        fields = (f"{json.dumps(k)}: {_json_text(v)}" for k, v in node)
        return "{" + ", ".join(fields) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_json_text, node)) + "]"
    if isinstance(node, _Deep):
        return "[" * 10_000 + _json_text(node.value) + "]" * 10_000
    return json.dumps(node)


def _slots(node):
    """Every (container, index) below ``node``."""
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield node, i
            yield from _slots(child[1] if isinstance(node, _Pairs) else child)


# a float, a bool, null, a string, a list, an object, a 40-digit int
_ODD_VALUES = ("1.5", "2.0", "true", "null", '"1"', "[]", "[1, 2]", '{"x": 1}')
_ODD_VALUES += ("1" + "0" * 39, "-1" + "0" * 39)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(["pbundle.json", "toy_rho1.json", "toy_rho2.json"]),
    data=st.data(),
)
def test_loader_raises_only_model_format_error(tmp_path, name, data):
    """A fixture with one to three values replaced by odd ones, deleted,
    repeated or nested too deep loads, or raises ModelFormatError: never
    another exception."""
    doc = _mutable(fixture_path(name).read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3))):
        container, i = data.draw(st.sampled_from(list(_slots(doc))))
        kind = data.draw(st.sampled_from(["replace", "delete", "repeat", "deep"]))
        if kind == "delete":
            del container[i]
        elif kind == "repeat":
            container.insert(i, container[i])
        else:
            # an object's value sits at entry[1], an array's at its index
            pairs = isinstance(container, _Pairs)
            cell, j = (container[i], 1) if pairs else (container, i)
            if kind == "deep":
                cell[j] = _Deep(cell[j])
            else:
                cell[j] = _mutable(data.draw(st.sampled_from(_ODD_VALUES)))
    path = tmp_path / "mutated.json"
    path.write_text(_json_text(doc), encoding="utf-8")
    with contextlib.suppress(ModelFormatError):
        load_model_file(path)
