"""Batch command-line front end.

Subcommands: expand, poly, combine, coproduct, product, verify, bases,
mr, balanced. Input digraphs come from builder expressions (--dsl) or
JSON files (--json, "-" for stdin), read in command-line order; output
is JSON by default and readable text under --pretty.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 input
validation error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from dataclasses import dataclass
from typing import Callable

from . import chromatic, combinat, graph as gr, ncqsym, qsym, verify
from .combinat import (
    r_compositions,
    r_set_compositions,
    compositions,
    partitions,
    set_compositions,
    set_partitions,
    format_composition,
    format_set_composition,
    format_set_partition,
    r_value_from_json,
)
from .ncqsym import NCQSymExpr
from .qsym import QSymExpr, _join_terms, _pretty_term
from .tpoly import tpoly_to_json


# characters of a document handed to stdout's write at a time
_WRITE_SLICE = 1 << 20


def _emit(data, to_json=None) -> None:
    """Write one JSON document to stdout, joined in full before anything
    is written, so a command that fails while it computes or lays out its
    output leaves stdout empty. data is the
    document, or a value that to_json turns into one. A bare
    {"terms": rows} document (a tensor's) goes through the row writer
    _dumps_terms, and any other through _dumps, which writes each
    QSymExpr or NCQSymExpr in it (see _write_expansion).

    A stream that encodes (one with a byte layer, as the real stdout)
    gets the text _WRITE_SLICE characters at a time. Its text layer
    encodes each string it is given at once, so one write of the whole
    text would hold a bytes copy as large as the document beside it; a
    slice holds at most one slice's. A document of one slice or less is
    one write, so only a failure of the write itself can leave part of
    a larger document on stdout. A StringIO gets the text in one write:
    it keeps that one string uncopied, and would copy slices into a
    second string."""
    if to_json is not None:
        data = to_json(data)
    rows_only = type(data) is dict and data.keys() == {"terms"}
    text = _dumps_terms(data) if rows_only else _dumps(data)
    out = sys.stdout
    if not hasattr(out, "buffer"):
        out.write(text)
        return
    for start in range(0, len(text), _WRITE_SLICE):
        out.write(text[start:start + _WRITE_SLICE])


def _scalar_texts(values) -> list:
    """The JSON text of each int or str in values."""
    return [str(x) if type(x) is int else json.dumps(x) for x in values]


def _list_text(values, pad) -> str:
    """The JSON text of a list of ints and strs that starts on a line
    indented by pad (a newline and the indent)."""
    if not values:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(_scalar_texts(values)) + pad + "]"


class _Texts(dict):
    """A memo of texts: a missing key's value is made by make(key) on its
    first lookup."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _expansion_texts(pad) -> tuple:
    """The memos that every expansion starting on a line indented by pad
    shares within one document: (compositions, first, later, coeffs).

    A term's fields sit three levels in. compositions and coeffs give
    the text of a composition and of a coefficient's coeff_t list
    there; first and later give a block of a set composition as a line
    one level further in, later with the comma after the block before.
    """
    fields = pad + "      "
    blocks = fields + "  "
    first = _Texts(lambda block: blocks + _list_text(block, blocks))
    return (_Texts(lambda alpha: _list_text(alpha, fields)),
            first,
            _Texts(lambda block: "," + first[block]),
            _Texts(lambda coeff: _list_text(tpoly_to_json(coeff), fields)))


def _write_expansion(f, pad, pieces: list, memos: dict) -> bool:
    """Append to pieces the text that json.dumps(..., indent=2) gives
    qsym_to_json(f) or ncqsym_to_json(f) starting on a line indented by
    pad, read from f's term map in f._sorted order, and return True.

    Its one layout is rows, for a nonempty f without the key () and, if
    f is a QSymExpr, of one degree: every expansion that bases, balanced
    and nc expand and product write in bulk. For no terms, the key () or
    several degrees it appends nothing and returns False.

    memos is a _Texts of _expansion_texts, shared by the expansions of
    one document, so the text of each distinct block, composition and
    coefficient is made once per pad there. Each row appends those
    shared texts and fixed separators to pieces: a row is never a string
    of its own, and the caller joins the document once.
    """
    terms = f.terms
    nc = type(f) is NCQSymExpr
    degrees = () if nc else f.degrees()
    if not terms or () in terms or len(degrees) > 1:
        return False
    compositions, first, later, coeffs = memos[pad]
    head = pad + "  "
    rows = head + "  "
    fields = rows + "  "
    append = pieces.append
    append("{" + head + ("" if nc else f'"degree": {degrees[0]},' + head) + '"terms": ')
    close = rows + "},"  # ends the row before: the first row's is cut to "["
    start = len(pieces)
    if nc:
        row = close + rows + "{" + fields + '"set_composition": ['
        coeff_field = fields + "]," + fields + '"coeff_t": '
        extend, later_text = pieces.extend, later.__getitem__
        for phi in f._sorted(terms):
            append(row)
            append(first[phi[0]])
            extend(map(later_text, phi[1:]))
            append(coeff_field)
            append(coeffs[terms[phi]])
    else:
        row = close + rows + "{" + fields + '"composition": '
        coeff_field = "," + fields + '"coeff_t": '
        for alpha in f._sorted(terms):
            append(row)
            append(compositions[alpha])
            append(coeff_field)
            append(coeffs[terms[alpha]])
    pieces[start] = "[" + pieces[start][len(close):]
    append(rows + "}" + head + "]" + pad + "}")
    return True


def _dumps(data) -> str:
    """The text of json.dumps(data, indent=2) and a newline, byte for byte,
    where each QSymExpr or NCQSymExpr in data stands for its document,
    qsym_to_json or ncqsym_to_json of it.

    With an indent, json encodes in pure Python, one generator per
    container. This writer renders a flat list of ints and strs in one
    step, and each list of ints once per call: blocks and coefficients
    repeat across thousands of terms. Dicts with str keys and other
    nonempty lists recurse. An expansion goes to _write_expansion, and
    one of a shape it does not lay out is replaced by its builder's
    document in this walk. Other containers go to json.dumps with the
    indent, re-indented to their depth (JSON text has no raw newline in
    a string), and scalars to json.dumps without it: the same text. The
    text is joined once.
    """
    chunks = []
    append = chunks.append
    int_lists = {}
    keys = {}
    memos = _Texts(_expansion_texts)  # pad -> the texts its expansions share

    def write(value, pad):  # pad: a newline and the indent of value's line
        kind = type(value)
        if kind is dict and value and set(map(type, value)) == {str}:
            inner = pad + "  "
            sep = "{" + inner
            for key, item in value.items():
                name = keys.get(key)
                if name is None:
                    name = keys[key] = json.dumps(key) + ": "
                append(sep + name)
                write(item, inner)
                sep = "," + inner
            append(pad + "}")
        elif (kind is list or kind is tuple) and value:
            types = set(map(type, value))
            if types == {int}:
                memo = (pad, tuple(value))
                text = int_lists.get(memo)
                if text is None:
                    text = int_lists[memo] = _list_text(value, pad)
                append(text)
                return
            if types <= {int, str}:
                append(_list_text(value, pad))
                return
            inner = pad + "  "
            sep = "[" + inner
            for item in value:
                append(sep)
                write(item, inner)
                sep = "," + inner
            append(pad + "]")
        elif kind is QSymExpr or kind is NCQSymExpr:
            if not _write_expansion(value, pad, chunks, memos):
                write(qsym.qsym_to_json(value) if kind is QSymExpr
                      else ncqsym.ncqsym_to_json(value), pad)
        elif isinstance(value, (dict, list, tuple)):
            append(json.dumps(value, indent=2).replace("\n", pad))
        else:
            append(json.dumps(value))

    write(data, "\n")
    del write  # write calls itself through this name: free the cycle now
    append("\n")
    return "".join(chunks)


def _dumps_terms(doc) -> str:
    """The text of json.dumps(doc, indent=2) and a newline, byte for byte,
    for a {"terms": rows} document such as the tensor builders
    qsym_tensor_to_json and ncqsym_tensor_to_json return.

    Each row is a nonempty dict with str keys, and each of its values is
    a list of ints and strs or a list of such lists. ncqsym_tensor_to_json
    shares one list per distinct leg, block and coefficient, so each list
    object is rendered once per indent, memoised on (pad, id(list)). The
    rows are then laid out from those texts with no walk by type, and the
    whole text, newline included, is joined once.
    """
    rows = doc["terms"]
    if not rows:
        return '{\n  "terms": []\n}\n'
    memos = {}  # pad -> {id(list): its text on a line indented by pad}
    names = {}

    def render(value, pad):  # pad: a newline and the indent of value's line
        if not value or type(value[0]) is not list:
            return _list_text(value, pad)
        inner = pad + "  "
        memo = memos.setdefault(inner, {})
        ids = list(map(id, value))
        items = list(map(memo.get, ids))
        if None in items:
            for i, text in enumerate(items):
                if text is None:
                    items[i] = memo[ids[i]] = render(value[i], inner)
        return "[" + inner + ("," + inner).join(items) + pad + "]"

    pad = "\n      "  # a row's fields sit at depth 3
    memo = memos[pad] = {}
    field_sep, row_sep = "," + pad, "\n    },\n    {" + pad
    pieces = []  # the text in order; a shared text is copied only by the join
    append = pieces.append
    for row in rows:
        append(row_sep)
        for key, value in row.items():
            text = memo.get(id(value))
            if text is None:
                text = memo[id(value)] = render(value, pad)
            name = names.get(key)
            if name is None:
                name = names[key] = json.dumps(key) + ": "
            append(name)
            append(text)
            append(field_sep)
        pieces.pop()
    del render  # render calls itself through this name: free the cycle now
    pieces[0] = '{\n  "terms": [\n    {' + pad
    append("\n    }\n  ]\n}\n")
    return "".join(pieces)


def _read_json(path: str):
    """The JSON value in the file at path ('-' reads stdin)."""
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    try:
        return json.loads(raw)
    except RecursionError:  # the decoder's own nesting limit
        raise ValueError(f"JSON input nested too deeply: {path}") from None


# The readers look gr's functions up when called, so one rebound there
# (by a profiler, say) is the one that runs.
def _graph_from_dsl(text: str):
    return gr.parse_dsl(text)


def _graph_from_json(path: str):
    return gr.digraph_from_json(_read_json(path))


def _read_graph(args):
    """The input digraphs in command-line order. Each --dsl and --json
    appends (reader, argument) to args.inputs; reading happens here, not
    in argparse, so a bad input exits 3 and not 2."""
    inputs = [read(source) for read, source in args.inputs or ()]
    if not inputs:
        raise ValueError("no input digraph: pass --dsl or --json")
    return inputs


def _read_one_graph(args):
    inputs = _read_graph(args)
    if len(inputs) != 1:
        raise ValueError(f"{args.command} takes exactly one input, got {len(inputs)}")
    return inputs[0]


def _print(value, to_json, pretty: bool):
    if pretty:
        print(value.pretty())
    else:
        _emit(value, to_json)


def _report_stats(stats) -> None:
    if stats is not None:
        print(json.dumps(stats), file=sys.stderr)


_BASIS_PREFIX = {"F": "F", "Fbar": "Fb"}


def _qsym_coordinates(f: QSymExpr, basis: str):
    if basis in _BASIS_PREFIX:
        return qsym.to_qsym_basis(f, basis), _BASIS_PREFIX[basis], format_composition
    if basis.startswith("sym:"):
        kind = basis.split(":", 1)[1]
        return qsym.to_sym_basis(f, kind), kind, format_composition
    raise ValueError(f"unknown --basis value {basis!r}")


def _ncqsym_coordinates(f: NCQSymExpr, basis: str):
    if basis in _BASIS_PREFIX:
        return ncqsym.to_ncqsym_basis(f, basis), _BASIS_PREFIX[basis], format_set_composition
    if basis == "m":
        return ncqsym.to_ncsym_m(f), "m", format_set_partition
    raise ValueError(f"--basis {basis} is not available with --nc")


@dataclass(frozen=True)
class _Algebra:
    """What the commands read for one algebra. Each entry looks up the
    package function it calls when it is called, so a function rebound
    on its module (by a profiler, say) is the one that runs."""

    expand: Callable       # (input digraph, stats or None) -> expansion
    to_json: Callable | None  # None: _emit writes the expansion from its term map
    coproduct: Callable
    tensor_to_json: Callable
    coordinates: Callable  # (expansion, --basis) -> coordinates, prefix, index format


# --nc selects the row
_ALGEBRAS = {
    False: _Algebra(
        expand=lambda g, stats: chromatic.expand(
            g.graph if isinstance(g, gr.LabelledDigraph) else g, stats),
        to_json=lambda f: qsym.qsym_to_json(f),
        coproduct=lambda f: qsym.coproduct(f),
        tensor_to_json=lambda t: qsym.qsym_tensor_to_json(t),
        coordinates=_qsym_coordinates),
    True: _Algebra(
        expand=lambda g, stats: ncqsym.expand_nc(
            g if isinstance(g, gr.LabelledDigraph) else gr.labelled(g), stats),
        to_json=None,
        coproduct=lambda f: ncqsym.coproduct_nc(f),
        tensor_to_json=lambda t: ncqsym.ncqsym_tensor_to_json(t),
        coordinates=_ncqsym_coordinates),
}


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_expand(args) -> int:
    g = _read_one_graph(args)
    algebra = _ALGEBRAS[args.nc]
    stats = {} if args.stats else None
    f = algebra.expand(g, stats)
    _report_stats(stats)
    if not args.t:
        f = f.at_t(1)
    if args.basis in (None, "M"):
        _print(f, algebra.to_json, args.pretty)
        return 0
    coords, prefix, index_format = algebra.coordinates(f, args.basis)
    items = sorted(coords.items())
    if args.pretty:
        print(_join_terms(_pretty_term(c, prefix + index_format(k)) for k, c in items)
              if items else "0")
    else:  # _emit writes a tuple index as a JSON array
        _emit({"basis": args.basis,
               "terms": [{"index": k, "coeff_t": tpoly_to_json(c)} for k, c in items]})
    return 0


def _cmd_poly(args) -> int:
    g = _read_one_graph(args)
    f = _ALGEBRAS[False].expand(g, None).at_t(1)
    poly = qsym.chromatic_polynomial(f)
    if args.eval is not None:
        value = poly(args.eval)
        if args.pretty:
            print(value)
        else:
            _emit({"p": args.eval, "value": value})
        return 0
    _print(poly, qsym.rational_poly_to_json, args.pretty)
    return 0


def _cmd_combine(args) -> int:
    g = _read_one_graph(args)
    if args.pretty:
        print(repr(g))
    else:
        _emit(gr.digraph_to_json(g))
    return 0


def _cmd_coproduct(args) -> int:
    g = _read_one_graph(args)
    algebra = _ALGEBRAS[args.nc]
    f = algebra.expand(g, None)
    f = f if args.t else f.at_t(1)
    _print(algebra.coproduct(f), algebra.tensor_to_json, args.pretty)
    return 0


def _cmd_product(args) -> int:
    graphs = _read_graph(args)
    if len(graphs) != 2:
        raise ValueError("product needs exactly two inputs")
    algebra = _ALGEBRAS[args.nc]
    f, g = (algebra.expand(h, None) for h in graphs)
    out = f * g
    out = out if args.t else out.at_t(1)
    _print(out, algebra.to_json, args.pretty)
    return 0


def _given(**flags) -> dict:
    """The flags given on the command line; each suite keeps its own
    defaults for the others."""
    return {name: value for name, value in flags.items() if value is not None}


def _cmd_verify(args) -> int:
    suite, n = args.suite, args.n
    # the value flags besides --n that the suite reads
    reads = {"tables": (), "r-closure": ("seed", "trials", "r")}.get(suite, ("seed", "trials"))
    unread = [f"--{name}" for name in ("seed", "trials", "r")
              if getattr(args, name) is not None and name not in reads]
    if unread:
        raise ValueError(f"--suite {suite} does not read {', '.join(unread)}")
    if args.trials is not None and args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    if n is not None and n < 1:
        raise ValueError(f"--n must be positive, got {n}")
    # each suite is looked up on verify at call time, so one rebound there runs
    if suite == "oracle":
        result = verify.verify_oracle(**_given(trials=args.trials, max_n=n, seed=args.seed))
    elif suite == "hopf":
        result = verify.verify_hopf(**_given(trials=args.trials, max_n=n, seed=args.seed))
    elif suite == "tables":
        result = verify.verify_tables(**_given(n=n))
    elif suite == "r-closure":
        # the closure trials sample nc keys of degree up to min(n - 1, 4)
        if n is not None and n < 2 and args.trials != 0:
            raise ValueError("closure trials need samples of degree 1 or more, so --n "
                             f"must be 2 or more unless --trials 0; got --n {n}")
        result = verify.verify_r_closure(**_given(
            n_qsym=n, n_nc=None if n is None else min(n - 1, 4),
            r=args.r, seed=args.seed, trials=args.trials))
    else:  # unreachable through argparse choices
        raise ValueError(f"unknown suite {suite!r}")
    _report_stats(result.stats if args.stats else None)
    _emit(result.to_json())
    return 0 if result.ok else 1


def _basis_elements(space, n, r, kind) -> list:
    """(index, element) for every element of the listed basis."""
    if space == "qsym":
        if kind in ("M", "F", "Fbar"):
            maker = {"M": qsym.basis_M, "F": qsym.basis_F, "Fbar": qsym.basis_Fbar}[kind]
            return [(alpha, maker(alpha)) for alpha in compositions(n)]
        return [(lam, qsym.basis_sym(kind, lam)) for lam in partitions(n)]
    if space == "ncqsym":
        if kind in ("M", "F", "Fbar"):
            return [(phi, ncqsym.basis_nc(kind, phi)) for phi in set_compositions(n)]
        return [(pi, ncqsym.basis_ncsym(kind, pi)) for pi in set_partitions(n)]
    if space == "qsym-r":
        return [(combinat.r_composition_to_json(rc), qsym.basis_r(kind, rc.beta, rc.mu, r))
                for rc in r_compositions(n, r)]
    return [(combinat.r_set_composition_to_json(rsc), ncqsym.basis_ncr(kind, rsc.phi, rsc.pi, r))
            for rsc in r_set_compositions(n, r)]


def _cmd_bases(args) -> int:
    n, r, kind = args.n, args.r, args.kind
    if args.space in ("qsym", "ncqsym"):
        if r is not None:
            raise ValueError(f"--space {args.space} does not read --r")
    elif r is None:
        r = 2
    if n < 0:
        raise ValueError(f"--n must be nonnegative, got {n}")
    # _emit writes a tuple index as a JSON array, and each expansion from
    # its term map
    elements = [{"index": index, "expansion": f}
                for index, f in _basis_elements(args.space, n, r, kind)]
    _emit({"space": args.space, "kind": kind, "n": n,
           "r": None if args.space in ("qsym", "ncqsym") else combinat.r_value_to_json(r),
           "elements": elements})
    return 0


def _parse_permutation(text: str):
    if "," in text:
        return combinat.permutation(int(x) for x in text.split(","))
    return combinat.permutation(int(ch) for ch in text.strip())


def _cmd_mr(args) -> int:
    sigma = _parse_permutation(args.permutation)
    phi = combinat.runs_set_composition(sigma)
    f = ncqsym.mr_F(sigma)
    if args.pretty:
        print(f"F_{format_set_composition(phi)} = {f.pretty()}")
    else:
        _emit({"permutation": list(sigma),
               "set_composition": [list(b) for b in phi],
               "expansion": ncqsym.ncqsym_to_json(f)})
    return 0


def _cmd_balanced(args) -> int:
    h = gr.simple_graph_from_json(_read_json(args.graph))
    balanced = gr.balanced_orientations(h, args.k)
    xk = QSymExpr.sum_of(chromatic.expand(o).at_t(1) for o in balanced)
    if args.pretty:
        for o in balanced:
            print(repr(o))
        print(xk.pretty())
    else:
        _emit({"k": args.k,
               "orientations": [gr.digraph_to_json(o) for o in balanced],
               "xk": xk})
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromexp",
        description="exact chromatic expansions of edge-coloured digraphs")
    subs = parser.add_subparsers(dest="command", required=True)

    def arg(*flags, **options):
        return flags, options

    def command(name, handler, help, *groups):
        sub = subs.add_parser(name, help=help)
        for group in groups:
            for flags, options in group:
                sub.add_argument(*flags, **options)
        sub.set_defaults(func=handler)

    inputs = [
        arg("--dsl", dest="inputs", action="append", metavar="EXPR",
            type=lambda text: (_graph_from_dsl, text),
            help="builder expression, e.g. 'W(C(2),C(1))'"),
        arg("--json", dest="inputs", action="append", metavar="PATH",
            type=lambda path: (_graph_from_json, path),
            help="digraph JSON file ('-' reads stdin)")]
    algebra = [arg("--nc", action="store_true", help="noncommuting variables"),
               arg("--t", action="store_true", help="keep the ascent grading")]
    pretty = [arg("--pretty", action="store_true", help="readable text output")]

    command("expand", _cmd_expand, "digraph to monomial expansion", inputs, algebra, [
        arg("--basis", help="M, F, Fbar, sym:<kind>, or m with --nc"),
        arg("--stats", action="store_true",
            help="write the engine's counts (classes, states, transitions, "
                 "terms, seconds) to stderr as one JSON line")], pretty)
    command("poly", _cmd_poly, "counting polynomial in p", inputs,
            [arg("--eval", type=int, metavar="P", help="evaluate at an integer")], pretty)
    command("combine", _cmd_combine, "evaluate a builder expression", inputs, pretty)
    command("coproduct", _cmd_coproduct, "coproduct of the expansion", inputs, algebra, pretty)
    command("product", _cmd_product, "product of two expansions", inputs, algebra, pretty)
    command("verify", _cmd_verify, "run a verification suite", [
        arg("--suite", required=True, choices=("hopf", "oracle", "tables", "r-closure")),
        arg("--n", type=int),
        arg("--seed", type=int),
        arg("--trials", type=int),
        arg("--r", type=r_value_from_json),
        arg("--stats", action="store_true",
            help="write the check count and seconds per identity to "
                 "stderr as one JSON line")])
    command("bases", _cmd_bases, "list basis expansions", [
        arg("--space", required=True, choices=("qsym", "ncqsym", "qsym-r", "ncqsym-r")),
        arg("--n", type=int, required=True),
        arg("--r", type=r_value_from_json,
            help="the level of qsym-r and ncqsym-r (default 2)"),
        arg("--kind", required=True)])
    command("mr", _cmd_mr, "fundamental image of a permutation", [
        arg("permutation", help="one-line word, e.g. 836791524 or 8,3,6,...")], pretty)
    command("balanced", _cmd_balanced, "balanced orientations and X^k", [
        arg("--graph", required=True, metavar="PATH",
            help="graph JSON {n, edges:[[u,v],...]} ('-' for stdin)"),
        arg("--k", type=int, required=True)], pretty)
    return parser


# Built on the first call to main, not at import, and reused after it:
# parse_args starts each call from a fresh namespace.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # A command builds trees of up to hundreds of thousands of acyclic
    # lists, dicts and tuples (one term row per colouring pattern), which
    # the cyclic collector would rescan while they grow, for about half
    # the time of a large nc document. Reference counting frees them, so
    # the collector is paused for the call and the caller's state is
    # restored on every exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: {args.command}: out of memory", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
