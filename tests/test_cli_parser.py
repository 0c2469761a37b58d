"""The command-line parser against a reference, and input order.

`reference_parser` is the parser as it was declared subcommand by
subcommand, with separate `dsl` and `json` lists. `cli.build_parser`
declares the shared flag groups once, and `--dsl` and `--json` append to
one `inputs` list in command-line order. Both must give the same
namespace on every argv here once `inputs` is split by reader, and the
same exit 2 and message on every usage error.
"""

import argparse
import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from chromexp import cli
from chromexp.combinat import r_value_from_json
from chromexp.graph import digraph_to_json, parse_dsl

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromexp",
        description="exact chromatic expansions of edge-coloured digraphs")
    subs = parser.add_subparsers(dest="command", required=True)

    def graph_args(sub):
        sub.add_argument("--dsl", action="append", metavar="EXPR",
                         help="builder expression, e.g. 'W(C(2),C(1))'")
        sub.add_argument("--json", action="append", metavar="PATH",
                         help="digraph JSON file ('-' reads stdin)")

    def common_flags(sub):
        sub.add_argument("--pretty", action="store_true", help="readable text output")

    sub = subs.add_parser("expand", help="digraph to monomial expansion")
    graph_args(sub)
    sub.add_argument("--nc", action="store_true", help="noncommuting variables")
    sub.add_argument("--t", action="store_true", help="keep the ascent grading")
    sub.add_argument("--basis", help="M, F, Fbar, sym:<kind>, or m with --nc")
    sub.add_argument("--stats", action="store_true",
                     help="write the engine's counts (classes, states, transitions, "
                          "terms, seconds) to stderr as one JSON line")
    common_flags(sub)
    sub.set_defaults(func=cli._cmd_expand)

    sub = subs.add_parser("poly", help="counting polynomial in p")
    graph_args(sub)
    sub.add_argument("--eval", type=int, metavar="P", help="evaluate at an integer")
    common_flags(sub)
    sub.set_defaults(func=cli._cmd_poly)

    sub = subs.add_parser("combine", help="evaluate a builder expression")
    graph_args(sub)
    common_flags(sub)
    sub.set_defaults(func=cli._cmd_combine)

    sub = subs.add_parser("coproduct", help="coproduct of the expansion")
    graph_args(sub)
    sub.add_argument("--nc", action="store_true")
    sub.add_argument("--t", action="store_true")
    common_flags(sub)
    sub.set_defaults(func=cli._cmd_coproduct)

    sub = subs.add_parser("product", help="product of two expansions")
    graph_args(sub)
    sub.add_argument("--nc", action="store_true")
    sub.add_argument("--t", action="store_true")
    common_flags(sub)
    sub.set_defaults(func=cli._cmd_product)

    sub = subs.add_parser("verify", help="run a verification suite")
    sub.add_argument("--suite", required=True,
                     choices=("hopf", "oracle", "tables", "r-closure"))
    sub.add_argument("--n", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--r", type=r_value_from_json)
    sub.add_argument("--stats", action="store_true",
                     help="write the check count and seconds per identity to "
                          "stderr as one JSON line")
    sub.set_defaults(func=cli._cmd_verify)

    sub = subs.add_parser("bases", help="list basis expansions")
    sub.add_argument("--space", required=True,
                     choices=("qsym", "ncqsym", "qsym-r", "ncqsym-r"))
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--r", type=r_value_from_json)
    sub.add_argument("--kind", required=True)
    sub.set_defaults(func=cli._cmd_bases)

    sub = subs.add_parser("mr", help="fundamental image of a permutation")
    sub.add_argument("permutation", help="one-line word, e.g. 836791524 or 8,3,6,...")
    common_flags(sub)
    sub.set_defaults(func=cli._cmd_mr)

    sub = subs.add_parser("balanced", help="balanced orientations and X^k")
    sub.add_argument("--graph", required=True, metavar="PATH",
                     help="graph JSON {n, edges:[[u,v],...]} ('-' for stdin)")
    sub.add_argument("--k", type=int, required=True)
    common_flags(sub)
    sub.set_defaults(func=cli._cmd_balanced)

    return parser


def readme_argvs():
    block = README.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    argvs = []
    for line in block.splitlines():
        code = line.partition("  #")[0].rpartition("|")[2]
        if code.strip():
            program, *argv = shlex.split(code)
            assert program == "chromexp"
            argvs.append(argv)
    return argvs


# each subcommand's required arguments, then each of its other flags with a value
FLAGS = {
    ("expand", "--dsl", "C(1)"): (("--json", "g.json"), ("--nc",), ("--t",),
                                  ("--basis", "F"), ("--stats",), ("--pretty",)),
    ("poly", "--dsl", "C(1)"): (("--json", "-"), ("--eval", "-3"), ("--pretty",)),
    ("combine", "--dsl", "C(1)"): (("--json", "g.json"), ("--pretty",)),
    ("coproduct", "--dsl", "C(1)"): (("--json", "g.json"), ("--nc",), ("--t",), ("--pretty",)),
    ("product", "--dsl", "C(1)"): (("--json", "g.json"), ("--dsl", "P(2)"), ("--nc",),
                                   ("--t",), ("--pretty",)),
    ("verify", "--suite", "hopf"): (("--n", "3"), ("--seed", "7"), ("--trials", "2"),
                                    ("--r", "3"), ("--stats",)),
    ("bases", "--space", "qsym-r", "--n", "3", "--kind", "M"): (("--r", "inf"),),
    ("mr", "312"): (("--pretty",),),
    ("balanced", "--graph", "-", "--k", "1"): (("--pretty",),),
}


def flag_argvs():
    argvs = []
    for base, flags in FLAGS.items():
        argvs.append(list(base))
        argvs += [[*base, *flag] for flag in flags]
        argvs.append([*base, *(word for flag in flags for word in flag)])
    argvs.append(["expand", "--json", "a.json", "--dsl", "C(1)", "--json", "-", "--dsl", "K(2)"])
    argvs.append(["coproduct"])
    return argvs


USAGE_ERRORS = [
    ["expand", "--bogus"],  # tests/test_cli.py::test_usage_error_exits_two
    [],
    ["nosuch"],
    ["expand", "--dsl"],
    ["product", "--json"],
    ["poly", "--dsl", "C(1)", "--eval", "x"],
    ["coproduct", "--dsl", "C(1)", "--basis", "F"],
    ["combine", "--dsl", "C(1)", "--nc"],
    ["verify", "--suite", "tables", "--pretty"],
    ["verify", "--suite", "nosuch"],
    ["verify", "--n", "2"],
    ["bases", "--space", "qsym", "--n", "2", "--kind", "M", "--pretty"],
    ["bases", "--space", "qsym", "--n", "2"],
    ["mr"],
    ["balanced", "--graph", "-", "--dsl", "C(1)", "--k", "1"],
]


def by_reader(namespace) -> dict:
    """vars(namespace) with `inputs` split into the reference's lists."""
    fields = vars(namespace).copy()
    if "inputs" in fields:
        inputs = fields.pop("inputs") or []
        for name, reader in (("dsl", cli._graph_from_dsl), ("json", cli._graph_from_json)):
            fields[name] = [source for read, source in inputs if read is reader] or None
    return fields


@pytest.mark.parametrize("argv", readme_argvs() + flag_argvs(), ids=" ".join)
def test_the_parser_matches_the_reference(argv):
    assert by_reader(cli.build_parser().parse_args(argv)) == vars(reference_parser().parse_args(argv))


def usage_error(parser, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        parser.parse_args(argv)
    return exit_.value.code, err.getvalue()


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_match_the_reference(argv):
    code, message = usage_error(cli.build_parser(), argv)
    assert code == 2 and message.startswith("usage: chromexp")
    assert (code, message) == usage_error(reference_parser(), argv)


def test_inputs_keep_command_line_order_and_start_empty_on_every_parse():
    parser = cli.build_parser()
    args = parser.parse_args(
        ["product", "--json", "a.json", "--dsl", "C(1)", "--json", "-", "--dsl", "K(2)"])
    assert args.inputs == [(cli._graph_from_json, "a.json"), (cli._graph_from_dsl, "C(1)"),
                           (cli._graph_from_json, "-"), (cli._graph_from_dsl, "K(2)")]
    assert parser.parse_args(["product"]).inputs is None
    assert parser.parse_args(["product", "--dsl", "P(2)"]).inputs == [(cli._graph_from_dsl, "P(2)")]


def nc_product(capsys, *inputs):
    assert cli.main(["product", "--nc", *inputs]) == 0
    return capsys.readouterr().out


@pytest.fixture
def p2_json(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(digraph_to_json(parse_dsl("P(2)"))), encoding="utf-8")
    return str(path)


def test_nc_product_multiplies_json_then_dsl_in_that_order(capsys, p2_json):
    forward = nc_product(capsys, "--dsl", "P(2)", "--dsl", "C(1)")
    assert forward != nc_product(capsys, "--dsl", "C(1)", "--dsl", "P(2)")
    assert nc_product(capsys, "--json", p2_json, "--dsl", "C(1)") == forward


def test_nc_product_multiplies_dsl_then_json_in_that_order(capsys, p2_json):
    forward = nc_product(capsys, "--dsl", "C(1)", "--dsl", "P(2)")
    assert forward != nc_product(capsys, "--dsl", "P(2)", "--dsl", "C(1)")
    assert nc_product(capsys, "--dsl", "C(1)", "--json", p2_json) == forward
