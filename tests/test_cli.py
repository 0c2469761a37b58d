import contextlib
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chromexp import cli, ncqsym, verify as verify_mod
from chromexp.chromatic import expand
from chromexp.graph import digraph_from_json, digraph_to_json, parse_dsl
from chromexp.cli import main
from chromexp.qsym import evaluate_ones
from chromexp.verify import VerifyResult
from test_json_writer import CALL_SITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_expand_pretty(capsys):
    code, out = run(capsys, "expand", "--dsl", "W(C(2),C(1))", "--pretty")
    assert code == 0
    assert out.strip() == "M(2,1) + M(3)"


def test_expand_json_structure(capsys):
    code, out = run(capsys, "expand", "--dsl", "K(2)", "--t")
    data = json.loads(out)
    assert code == 0
    assert data == {"degree": 2,
                    "terms": [{"composition": [1, 1], "coeff_t": [1, 1]}]}


def test_expand_is_deterministic(capsys):
    _, first = run(capsys, "expand", "--dsl", "D(C(2),S(C(1),C(1)))")
    _, second = run(capsys, "expand", "--dsl", "D(C(2),S(C(1),C(1)))")
    assert first == second


def test_expand_nc(capsys):
    code, out = run(capsys, "expand", "--nc", "--dsl", "S(C(1),C(1))", "--pretty")
    assert code == 0
    assert out.strip() == "M(1|2)"


def test_expand_sym_basis(capsys):
    code, out = run(capsys, "expand", "--dsl", "U(K(3))", "--basis", "sym:e", "--pretty")
    assert code == 0
    assert out.strip() == "6*e(3)"


def test_poly_eval_matches_worked_example(capsys):
    code, out = run(capsys, "poly", "--dsl", "U(K(3))", "--eval", "3")
    assert code == 0
    assert json.loads(out) == {"p": 3, "value": 6}


def test_poly_eval_at_a_negative_integer(capsys):
    code, out = run(capsys, "poly", "--dsl", "K(3)", "--eval", "-1")
    assert code == 0
    assert json.loads(out) == {"p": -1, "value": -6}


def acyclic_orientations(n, edges) -> int:
    """Orientations of the graph's edges with a topological order (Kahn)."""
    count = 0
    for flips in itertools.product((False, True), repeat=len(edges)):
        arcs = [(b, a) if flip else (a, b) for (a, b), flip in zip(edges, flips)]
        indegree = [sum(1 for _, v in arcs if v == u) for u in range(n)]
        ready = [u for u in range(n) if not indegree[u]]
        placed = 0
        while ready:
            u = ready.pop()
            placed += 1
            for a, b in arcs:
                if a == u:
                    indegree[b] -= 1
                    if not indegree[b]:
                        ready.append(b)
        count += placed == n
    return count


def test_poly_at_minus_one_counts_acyclic_orientations(tmp_path, capsys):
    # Stanley (1973): (-1)^n chi_G(-1) is the number of acyclic orientations
    rng = random.Random(20261018)
    for i in range(25):
        n = rng.randint(1, 5)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps({"n": n, "edges": [[a, b, "neq"] for a, b in edges]}))
        code, out = run(capsys, "poly", "--json", str(path), "--eval", "-1")
        assert code == 0
        assert (-1) ** n * json.loads(out)["value"] == acyclic_orientations(n, edges)


@pytest.mark.parametrize("dsl", ["K(3)", "U(K(3))", "P(3)", "W(C(2),C(1))",
                                 "D(C(2),S(C(1),C(1)))", "U(K(2),S(K(2),C(1)))"])
def test_poly_eval_at_a_nonnegative_integer_writes_the_counting_value(dsl, capsys):
    f = expand(parse_dsl(dsl)).at_t(1)
    for p in range(5):
        value = evaluate_ones(f, p)
        assert run(capsys, "poly", "--dsl", dsl, "--eval", str(p)) == (
            0, json.dumps({"p": p, "value": value}, indent=2) + "\n")
        assert run(capsys, "poly", "--dsl", dsl, "--eval", str(p), "--pretty") == (
            0, f"{value}\n")


def test_poly_coefficients(capsys):
    code, out = run(capsys, "poly", "--dsl", "K(2)")
    assert json.loads(out) == {"coeffs_p": ["0/1", "-1/1", "1/1"]}
    assert code == 0


def test_combine_roundtrips_through_json(tmp_path, capsys):
    code, out = run(capsys, "combine", "--dsl", "S(C(2),C(1))")
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out2 = run(capsys, "expand", "--json", str(path), "--pretty")
    assert code == 0
    assert out2.strip() == "M(2,1)"


def test_coproduct(capsys):
    code, out = run(capsys, "coproduct", "--dsl", "C(2)", "--pretty")
    assert code == 0
    assert out.strip() == "M() (x) M(2) + M(2) (x) M()"


def test_product_requires_two_inputs(capsys):
    code, _ = run(capsys, "product", "--dsl", "C(1)")
    assert code == 3


def test_product(capsys):
    code, out = run(capsys, "product", "--dsl", "C(1)", "--dsl", "C(1)", "--pretty")
    assert code == 0
    assert out.strip() == "2*M(1,1) + M(2)"


def test_verify_ok(capsys):
    code, out = run(capsys, "verify", "--suite", "tables", "--n", "3")
    data = json.loads(out)
    assert code == 0
    assert data["ok"] is True and data["checks"] > 0


def test_verify_failure_exits_one(monkeypatch, capsys):
    def broken(**kwargs):
        result = VerifyResult("oracle")
        result.fail(detail="synthetic failure", digraph={"n": 1, "edges": []})
        return result

    monkeypatch.setattr(verify_mod, "verify_oracle", broken)
    code, out = run(capsys, "verify", "--suite", "oracle")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["counterexample"]["detail"] == "synthetic failure"


SUITE_FUNCTIONS = {"oracle": "verify_oracle", "hopf": "verify_hopf",
                   "tables": "verify_tables", "r-closure": "verify_r_closure"}


def recorded_suite_calls(monkeypatch, capsys, suite, *flags):
    """The keyword arguments each call of the suite's function received."""
    calls = []

    def record(**kwargs):
        calls.append(kwargs)
        return VerifyResult(suite)

    monkeypatch.setattr(verify_mod, SUITE_FUNCTIONS[suite], record)
    code, _ = run(capsys, "verify", "--suite", suite, *flags)
    assert code == 0
    return calls


@pytest.mark.parametrize("suite", sorted(SUITE_FUNCTIONS))
def test_verify_without_flags_leaves_every_default_to_the_suite(suite, monkeypatch, capsys):
    assert recorded_suite_calls(monkeypatch, capsys, suite) == [{}]


@pytest.mark.parametrize("suite, flags, kwargs", [
    ("oracle", ("--n", "3", "--trials", "2", "--seed", "7"),
     {"max_n": 3, "trials": 2, "seed": 7}),
    ("hopf", ("--n", "3", "--trials", "2", "--seed", "7"),
     {"max_n": 3, "trials": 2, "seed": 7}),
    ("tables", ("--n", "3"), {"n": 3}),
    ("r-closure", ("--n", "3", "--trials", "2", "--seed", "7", "--r", "3"),
     {"n_qsym": 3, "n_nc": 2, "r": 3, "seed": 7, "trials": 2}),
])
def test_verify_flags_reach_the_suite_by_name(suite, flags, kwargs, monkeypatch, capsys):
    assert recorded_suite_calls(monkeypatch, capsys, suite, *flags) == [kwargs]


@pytest.mark.parametrize("suite, flag", [
    ("tables", ("--seed", "7")), ("tables", ("--trials", "2")), ("tables", ("--r", "3")),
    ("oracle", ("--r", "3")), ("hopf", ("--r", "inf")),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_verify_refuses_a_flag_its_suite_does_not_read(suite, flag, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(verify_mod, SUITE_FUNCTIONS[suite], lambda **kwargs: calls.append(kwargs))
    code = main(["verify", "--suite", suite, "--n", "3", *flag])
    captured = capsys.readouterr()
    assert (code, captured.out, calls) == (3, "", [])
    assert captured.err == f"error: --suite {suite} does not read {flag[0]}\n"


def test_bases_listing(capsys):
    code, out = run(capsys, "bases", "--space", "qsym", "--n", "3", "--kind", "M")
    data = json.loads(out)
    assert code == 0
    assert len(data["elements"]) == 4
    code, out = run(capsys, "bases", "--space", "qsym-r", "--n", "4", "--r", "2",
                    "--kind", "M")
    data = json.loads(out)
    assert len(data["elements"]) == 5  # (4),(2,2),(3|1),(2|11),(-|1111)
    code, out = run(capsys, "bases", "--space", "ncqsym", "--n", "2", "--kind", "F")
    assert len(json.loads(out)["elements"]) == 3


@pytest.mark.parametrize("space", ["qsym", "ncqsym"])
def test_bases_refuses_r_on_a_space_without_levels(space, capsys):
    code = main(["bases", "--space", space, "--n", "2", "--kind", "M", "--r", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"error: --space {space} does not read --r\n"


@pytest.mark.parametrize("space", ["qsym-r", "ncqsym-r"])
def test_bases_reads_r_on_a_space_with_levels(space, capsys):
    argv = ["bases", "--space", space, "--n", "3", "--kind", "M"]
    default = run(capsys, *argv)
    assert default == run(capsys, *argv, "--r", "2")
    code, out = run(capsys, *argv, "--r", "1")
    assert code == 0 and json.loads(out)["r"] == 1
    assert out != default[1]


def test_mr(capsys):
    code, out = run(capsys, "mr", "836791524")
    data = json.loads(out)
    assert code == 0
    assert data["set_composition"] == [[8], [3, 6, 7, 9], [1, 5], [2, 4]]
    code, out = run(capsys, "mr", "2,1", "--pretty")
    assert out.startswith("F_(2|1)")


def test_balanced(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    code, out = run(capsys, "balanced", "--graph", str(path), "--k", "1")
    data = json.loads(out)
    assert code == 0
    assert len(data["orientations"]) == 6
    assert data["xk"]["terms"] == [{"composition": [1, 1, 1], "coeff_t": [6]}]


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["expand", "--bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "tables", "--n", "1"),
    ("bases", "--space", "qsym", "--n", "2", "--kind", "M"),
])
def test_pretty_is_not_a_flag_of_verify_or_bases(argv):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--pretty"])
    assert err.value.code == 2


def test_validation_error_exits_three(capsys):
    code, _ = run(capsys, "expand", "--dsl", "C(0)")
    assert code == 3
    code, _ = run(capsys, "expand")
    assert code == 3


def test_expand_stats_leave_stdout_unchanged(capsys):
    for extra in ((), ("--t",), ("--nc",), ("--basis", "F")):
        argv = ("expand", "--dsl", "D(C(2),S(C(1),C(1)))", *extra)
        assert main(list(argv)) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--stats"]) == 0
        counted = capsys.readouterr()
        assert counted.out == plain.out
        assert plain.err == ""
        line, = counted.err.splitlines()
        stats = json.loads(line)
        assert set(stats) == {"classes", "states", "transitions", "terms", "seconds"}
        assert stats["classes"] == 3 and stats["terms"] > 0


def test_verify_honours_zero_trials(capsys):
    code, out = run(capsys, "verify", "--suite", "oracle", "--trials", "0")
    assert code == 0
    assert json.loads(out)["checks"] == 0


def test_verify_rejects_negative_trials_and_nonpositive_n(capsys):
    for argv in (("--suite", "oracle", "--trials", "-1"),
                 ("--suite", "r-closure", "--n", "0"),
                 ("--suite", "hopf", "--n", "-2")):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        line, = captured.err.splitlines()
        assert line.startswith("error: ")


@pytest.mark.parametrize("raw", [
    '{"n": null}',
    '[1, 2]',
    '{"n": true}',
    '{"n": -1}',
    '{"n": 2, "edges": [[0, 1.5, "neq"]]}',
    '{"n": 2, "edges": [[0, 1]]}',
    '{"n": 2, "edges": [[0, 1, "dotted"]]}',
    '{"n": 2, "edges": {"0": 1}}',
    '{"n": 2, "labels": [1, 2.5]}',
    '{"n": 2, "labels": "12"}',
], ids=["n-null", "top-level-array", "n-bool", "n-negative", "vertex-float",
        "edge-pair", "edge-kind", "edges-object", "label-float", "labels-string"])
def test_malformed_digraph_json_exits_three(tmp_path, capsys, raw):
    path = tmp_path / "g.json"
    path.write_text(raw)
    code = main(["expand", "--json", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("raw", [
    '{"n": null}',
    '[1, 2]',
    '{"n": "3"}',
    '{"n": 2, "edges": [[0]]}',
    '{"n": 2, "edges": [[0, 1.5]]}',
], ids=["n-null", "top-level-array", "n-string", "edge-short", "vertex-float"])
def test_malformed_balanced_graph_exits_three(tmp_path, capsys, raw):
    path = tmp_path / "h.json"
    path.write_text(raw)
    code = main(["balanced", "--graph", str(path), "--k", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error: ")


def test_balanced_k_zero_exits_three(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    assert main(["balanced", "--graph", str(path), "--k", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must be positive\n"


def test_out_of_memory_exits_three_with_one_line(capsys):
    with mock.patch.object(ncqsym, "ncqsym_tensor_to_json", side_effect=MemoryError):
        code = main(["coproduct", "--nc", "--dsl", "U(P(2),C(1))"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: coproduct: out of memory\n"


def test_out_of_memory_in_the_row_writer_exits_three_with_one_line(capsys):
    """The whole text is joined before anything is written, so a
    MemoryError while writing an expansion's rows leaves stdout empty."""
    with mock.patch.object(cli, "_write_expansion", side_effect=MemoryError):
        code = main(["expand", "--nc", "--dsl", "U(P(2),C(1))"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: expand: out of memory\n"


class _ByteLayer(io.BytesIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return super().write(data)


def _text_sink(**options):
    """A text stream over a byte layer that records the size of each
    write it is given."""
    return io.TextIOWrapper(_ByteLayer(), **options)


SINK_ARGV = ["bases", "--space", "ncqsym", "--n", "2", "--kind", "h"]


def _text_through_string_io(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("encoding", ["utf-8", "ascii", "utf-16"])
def test_a_text_stream_gets_the_bytes_of_the_string_io_text(encoding):
    """A stream that encodes gets the bytes of the text a StringIO is
    handed, after the text it was given before."""
    text = _text_through_string_io(SINK_ARGV)
    sink = _text_sink(encoding=encoding, errors="strict")
    sink.write("before\n")
    with contextlib.redirect_stdout(sink):
        assert main(SINK_ARGV) == 0
    sink.flush()
    assert sink.buffer.getvalue() == ("before\n" + text).encode(encoding)


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
def test_a_document_goes_to_stdout_in_slices(encoding, monkeypatch):
    """The document reaches the byte layer a slice at a time, through
    the stream's one encoder: a stateful encoding starts it with one
    byte order mark."""
    monkeypatch.setattr(cli, "_WRITE_SLICE", 100)
    text = _text_through_string_io(SINK_ARGV)
    sink = _text_sink(encoding=encoding, write_through=True)
    with contextlib.redirect_stdout(sink):
        assert main(SINK_ARGV) == 0
    assert sink.buffer.getvalue() == text.encode(encoding)
    slices = -(-len(text) // 100)
    assert slices > 10 and len(sink.buffer.sizes) == slices


def test_a_string_io_is_handed_the_joined_text_once(monkeypatch):
    """A StringIO keeps the one string it is given without a copy, so it
    gets the whole document in one write, however long."""
    monkeypatch.setattr(cli, "_WRITE_SLICE", 100)
    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    with contextlib.redirect_stdout(Sink()):
        assert main(SINK_ARGV) == 0
    text, = writes
    assert len(text) > 1000 and text == _text_through_string_io(SINK_ARGV)


def test_out_of_memory_before_the_write_leaves_stdout_empty():
    sink = _text_sink(encoding="utf-8")
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.object(cli, "_write_expansion", side_effect=MemoryError):
        assert main(SINK_ARGV) == 3
    sink.flush()
    assert sink.buffer.getvalue() == b""


def test_out_of_memory_in_the_second_slice_leaves_the_first_on_stdout(monkeypatch):
    """Only a failure of the write itself can leave part of a document
    of more than one slice on stdout: the slices written before it."""
    monkeypatch.setattr(cli, "_WRITE_SLICE", 100)
    text = _text_through_string_io(SINK_ARGV)

    class Sink(io.TextIOWrapper):
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise MemoryError
            return super().write(text)

    sink, err = Sink(_ByteLayer(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        assert main(SINK_ARGV) == 3
    sink.flush()
    assert sink.buffer.getvalue() == text[:100].encode()
    assert err.getvalue() == "error: bases: out of memory\n"


def test_a_separate_process_prints_the_same_bytes():
    """The real stdout of a process has a byte layer."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-m", "chromexp.cli", *SINK_ARGV], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == _text_through_string_io(SINK_ARGV).encode()


OUT_OF_MEMORY = """
import resource, sys
from chromexp.cli import main
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + 64 * 2**20, size + 64 * 2**20))
sys.exit(main(["expand", "--nc", "--dsl", "U(" + ",".join(["C(1)"] * 9) + ")"]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc")
def test_real_out_of_memory_exits_three():
    """An address-space limit 64 MiB above the loaded interpreter is far
    below the edgeless 9-vertex nc expansion (7,087,261 terms)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr == "error: expand: out of memory\n"

HOPF_IDENTITIES = {"product", "nc-product", "coproduct", "nc-coproduct", "coassociativity",
                   "counit", "bialgebra", "nc-coassociativity", "nc-bialgebra",
                   "rho-algebra-map"}


def test_verify_stats_leave_stdout_unchanged(capsys):
    for suite, extra, names in (
            ("hopf", ("--trials", "2", "--n", "3"), HOPF_IDENTITIES),
            ("oracle", ("--trials", "5", "--n", "3"), {"expand", "expand-nc"}),
            ("tables", ("--n", "2"), {"sym", "qsym", "grid", "ncqsym", "ncsym"}),
            ("r-closure", ("--trials", "2", "--n", "2"),
             {"qsym-span", "qsym-rank", "ncqsym-rank", "product-closure",
              "coproduct-closure"})):
        argv = ["verify", "--suite", suite, *extra]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--stats"]) == 0
        counted = capsys.readouterr()
        assert counted.out == plain.out
        assert plain.err == ""
        line, = counted.err.splitlines()
        stats = json.loads(line)
        assert set(stats) == names
        assert sum(entry["checks"] for entry in stats.values()) \
            == json.loads(plain.out)["checks"]
        assert all(entry["seconds"] >= 0 for entry in stats.values())


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_reused_parser_carries_nothing_between_calls(capsys):
    from chromexp import cli

    calls = (["expand", "--bogus"],
             ["expand", "--dsl", "W(C(2),C(1))"],
             ["expand", "--dsl", "C(0)"],
             ["product", "--dsl", "C(1)", "--dsl", "C(2)"],
             ["expand", "--dsl", "S(C(1),C(1))"])
    first = []
    for argv in calls:  # each as the first call of a process: a new parser
        cli._parser.cache_clear()
        first.append(_outcome(capsys, argv))
    assert [code for code, _ in first] == [2, 0, 3, 0, 0]
    parser = cli._parser()
    assert [_outcome(capsys, argv) for argv in calls] == first
    assert cli._parser() is parser


@pytest.mark.parametrize("argv, message", [
    (("verify", "--suite", "r-closure", "--n", "1"),
     "closure trials need samples of degree 1 or more, so --n must be 2 or more "
     "unless --trials 0; got --n 1"),
    (("verify", "--suite", "r-closure", "--n", "1", "--trials", "3"),
     "--n must be 2 or more unless --trials 0; got --n 1"),
    (("bases", "--space", "qsym", "--kind", "M", "--n", "-1"), "--n must be nonnegative"),
    (("expand", "--dsl", "C(1)", "--dsl", "C(2)"), "expand takes exactly one input, got 2"),
], ids=["r-closure-without-samples", "r-closure-n-1-with-trials", "bases-negative-n",
        "expand-two-inputs"])
def test_inputs_that_used_to_escape_exit_three(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error: ") and message in line


@pytest.mark.parametrize("text, atom, count", [
    ("C(1,2)", "C", 2), ("P(1,2)", "P", 2), ("Q(1,1)", "Q", 2), ("K(2,3)", "K", 2),
    ("U(C(1),P(2,3,4))", "P", 3),
])
def test_an_atom_given_more_than_one_count_exits_three(capsys, text, atom, count):
    message = f"{atom} takes one vertex count, got {count}, in {text!r}"
    with pytest.raises(ValueError) as err:
        parse_dsl(text)
    assert str(err.value) == message
    code = main(["expand", "--dsl", text])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def test_unknown_symmetric_kind_exits_three_on_a_zero_expansion(tmp_path, capsys):
    path = tmp_path / "zero.json"  # a solid cycle: no colouring, expansion 0
    path.write_text('{"n":3,"edges":[[0,1,"leq"],[1,2,"leq"],[2,0,"leq"],[0,2,"neq"]]}')
    code = main(["expand", "--basis", "sym:zzz", "--json", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line == "error: unknown symmetric basis kind 'zzz'"
    code, out = run(capsys, "expand", "--basis", "sym:s", "--json", str(path))
    assert code == 0 and json.loads(out) == {"basis": "sym:s", "terms": []}


def test_degree_zero_bases_and_trial_free_closure_stay_valid(capsys):
    assert main(["bases", "--space", "qsym", "--kind", "M", "--n", "0"]) == 0
    assert main(["verify", "--suite", "r-closure", "--n", "1", "--trials", "0"]) == 0


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv, message", [
    (("combine", "--dsl", "U(" * 1500 + "C(1)" + ")" * 1500), "nested too deeply"),
    (("expand", "--json", "@input"), "nested too deeply"),
    (("balanced", "--graph", "@input", "--k", "1"), "nested too deeply"),
], ids=["dsl-1500-deep", "digraph-json-100000-deep", "graph-json-100000-deep"])
def test_deeply_nested_input_exits_three(tmp_path, capsys, argv, message):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code = main([str(path) if a == "@input" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error: ") and message in line


def test_long_product_exits_zero(capsys):
    code, out = run(capsys, "product", "--dsl", "P(1000)", "--dsl", "C(1)", "--pretty")
    assert code == 0
    assert out.count(" + ") == 1000 and out.startswith("1001*M(1,1,")


@st.composite
def builder_expressions(draw, depth=2):
    """Atoms, grids and every operator name, nested up to depth."""
    if depth == 0 or draw(st.booleans()):
        name = draw(st.sampled_from(("C", "P", "Q", "K", "grid", "cgrid", "rcgrid")))
        if name in "CPQK":
            return f"{name}({draw(st.integers(min_value=1, max_value=3))})"
        parts = draw(st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=2))
        if name == "grid":
            parts.sort(reverse=True)
        return f"{name}({','.join(map(str, parts))})"
    op = draw(st.sampled_from(("U", "D", "S", "W", "Uchain", "Dchain", "Schain", "Wchain")))
    args = draw(st.lists(builder_expressions(depth - 1), min_size=2, max_size=3))
    return f"{op}({','.join(args)})"


def _stdout(argv, stdin=""):
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=40, deadline=None)
@given(builder_expressions())
def test_builder_expressions_round_trip_through_json(text):
    g = parse_dsl(text)
    assert digraph_from_json(digraph_to_json(g)) == g
    if g.n > 7:
        return
    code, combined = _stdout(["combine", "--dsl", text])
    assert code == 0
    assert _stdout(["expand", "--json", "-"], combined) == _stdout(["expand", "--dsl", text])


# ---------------------------------------------------------------------------
# the cyclic garbage collector is paused for each call

@pytest.fixture
def gc_state():
    """Restore the collector's state after the test, whatever it did."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _failed(**kwargs):
    result = VerifyResult("tables")
    result.fail(detail="synthetic failure")
    return result


def _raise(error):
    def suite(**kwargs):
        raise error
    return suite


@pytest.mark.parametrize("suite, code", [
    (lambda **kwargs: VerifyResult("tables"), 0),
    (_failed, 1),
    (_raise(ValueError("bad input")), 3),
    (_raise(MemoryError()), 3),
    (_raise(KeyError("bug")), KeyError),
], ids=["exit-0", "exit-1", "exit-3-value-error", "exit-3-memory-error", "propagating"])
@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
def test_gc_is_paused_for_the_call_and_restored_on_every_exit(
        suite, code, caller_enabled, gc_state, monkeypatch, capsys):
    during = []

    def recording(**kwargs):
        during.append(gc.isenabled())
        return suite(**kwargs)

    monkeypatch.setattr(verify_mod, "verify_tables", recording)
    (gc.enable if caller_enabled else gc.disable)()
    if isinstance(code, int):
        assert main(["verify", "--suite", "tables"]) == code
    else:
        with pytest.raises(code):
            main(["verify", "--suite", "tables"])
    assert gc.isenabled() is caller_enabled
    assert during == [False]


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
def test_usage_error_leaves_gc_untouched(caller_enabled, gc_state, monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(gc, "enable", lambda: calls.append("enable"))
    monkeypatch.setattr(gc, "isenabled", lambda: calls.append("isenabled") or caller_enabled)
    with pytest.raises(SystemExit) as err:
        main(["expand", "--bogus"])
    assert err.value.code == 2
    assert calls == []


GC_GUARD_VERIFY = {
    "verify-tables": ["verify", "--suite", "tables", "--n", "4"],
    "verify-oracle": ["verify", "--suite", "oracle", "--n", "4", "--trials", "5"],
    "verify-hopf": ["verify", "--suite", "hopf", "--n", "3", "--trials", "2"],
    "verify-r-closure": ["verify", "--suite", "r-closure", "--n", "3", "--trials", "3"],
}


@pytest.mark.parametrize("argv", [*CALL_SITES.values(), *GC_GUARD_VERIFY.values()],
                         ids=[*CALL_SITES, *GC_GUARD_VERIFY])
def test_a_call_leaves_little_cyclic_garbage(argv, gc_state, tmp_path, capsys):
    """The pause rests on reference counting freeing what a command
    builds: a call may leave only a few reference cycles for the
    collector to find afterwards."""
    graph = tmp_path / "h.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    argv = [str(graph) if a == "GRAPH" else a for a in argv]
    gc.collect()
    gc.disable()  # as the caller: nothing is collected before the count
    assert main(argv) == 0
    capsys.readouterr()
    assert gc.collect() < 10_000


@pytest.mark.parametrize("argv", [*CALL_SITES.values(), *GC_GUARD_VERIFY.values()],
                         ids=[*CALL_SITES, *GC_GUARD_VERIFY])
def test_a_call_leaves_no_chromexp_function_in_a_cycle(argv, gc_state, tmp_path, capsys):
    """A recursive nested function that calls itself through its closure
    cell is in a reference cycle with everything else it closes over,
    which then outlives the call until the next collection: none of
    chromexp's functions may be left in cyclic garbage."""
    graph = tmp_path / "h.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    argv = [str(graph) if a == "GRAPH" else a for a in argv]
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        cyclic = sorted({f"{f.__module__}.{f.__qualname__}" for f in gc.garbage
                         if isinstance(f, types.FunctionType)
                         and f.__module__.startswith("chromexp")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert cyclic == []
