import itertools
import random
import types

import pytest

from chromexp import oracle, qsym, verify
from chromexp.cli import build_parser
from chromexp.graph import digraph_to_json
from chromexp.ncqsym import RegroupError
from chromexp.oracle import EqualityReport
from chromexp.verify import (
    VerifyResult,
    random_digraph,
    random_labelled_digraph,
    verify_hopf,
    verify_oracle,
    verify_r_closure,
    verify_tables,
)


def test_random_digraphs_are_seed_deterministic():
    a = [digraph_to_json(random_digraph(random.Random(42), 5)) for _ in range(5)]
    b = [digraph_to_json(random_digraph(random.Random(42), 5)) for _ in range(5)]
    assert a == b
    la = random_labelled_digraph(random.Random(7), 4)
    lb = random_labelled_digraph(random.Random(7), 4)
    assert la == lb


SEEDED = {
    "oracle": lambda seed: verify_oracle(trials=8, max_n=4, seed=seed),
    "hopf": lambda seed: verify_hopf(trials=2, max_n=3, seed=seed),
    "r-closure": lambda seed: verify_r_closure(n_qsym=1, n_nc=2, r=2, seed=seed, trials=4),
}


@pytest.mark.parametrize("suite", sorted(SEEDED))
def test_seeded_suites_draw_from_their_seed(monkeypatch, suite):
    """Every random number a seeded suite draws comes from the generator
    of its seed: one seed draws the same numbers twice, and another seed
    draws others. A suite that drew from a fixed or unseeded generator
    would still pass its own checks."""
    draws = []

    class Recording(random.Random):
        def random(self):
            x = super().random()
            draws[-1].append(x)
            return x

        def getrandbits(self, k):
            x = super().getrandbits(k)
            draws[-1].append(x)
            return x

    monkeypatch.setattr(verify, "random", types.SimpleNamespace(Random=Recording))

    def drawn(seed):
        draws.append([])
        assert SEEDED[suite](seed).ok
        return draws[-1]

    first = drawn(1)
    assert first and drawn(1) == first
    assert drawn(2) != first


def test_suite_registry():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert set(suite.choices) == {"oracle", "hopf", "tables", "r-closure"}


def test_small_suites_pass():
    assert verify_oracle(trials=10, max_n=3, seed=1).ok
    assert verify_hopf(trials=3, max_n=3, seed=1).ok
    assert verify_tables(n=2).ok
    assert verify_r_closure(n_qsym=3, n_nc=3, r=2, seed=1, trials=3).ok


def test_result_json_shape():
    result = verify_tables(n=1)
    data = result.to_json()
    assert data["suite"] == "tables"
    assert data["ok"] is True
    assert data["counterexample"] is None
    assert data["checks"] == result.checks > 0


def test_fail_records_first_counterexample_only():
    result = VerifyResult("oracle")
    result.fail(detail="first")
    result.fail(detail="second")
    assert result.counterexample["detail"] == "first"
    assert not result.ok


# Each case makes the k-th call of one function give a failing answer and
# pins the counterexample, key order included, and the check count.
RUNS = {
    "oracle": lambda: verify_oracle(trials=2, max_n=1, seed=0),
    "hopf": lambda: verify_hopf(trials=2, max_n=1, seed=0),
    "tables": lambda: verify_tables(n=2),
    "r-closure": lambda: verify_r_closure(n_qsym=1, n_nc=1, r=2, seed=0, trials=1),
}


def _regroup_error(*args):
    raise RegroupError((1,), {})


TARGETS = {
    "assert_equal": (oracle, "assert_equal", lambda *a: EqualityReport(False, "forced")),
    "eq-false": (qsym.TermMap, "__eq__", lambda *a: False),
    "eq-true": (qsym.TermMap, "__eq__", lambda *a: True),
    "_triple_splits": (verify, "_triple_splits", lambda *a: {}),
    "exact_rank": (verify, "exact_rank", lambda *a: -1),
    "in_qsym_r": (qsym, "in_qsym_r", lambda *a: False),
    "r_regroup": (verify, "r_regroup", _regroup_error),
    "r_regroup_tensor": (verify, "r_regroup_tensor", _regroup_error),
}

ONE = {"n": 1, "edges": []}
ONE_NC = {"n": 1, "edges": [], "labels": [1]}
EMPTY_RC = {"r": 2, "comp": [], "part": []}
ONE_RSC = {"r": 2, "comp": [], "part": [[1]]}
REGROUP_DETAIL = "coefficients not constant on the fiber of (1,): {}"


def _hopf(identity, trial, *graphs):
    return {"suite": "hopf", "identity": identity, "trial": trial, "seed": 0,
            **dict(zip(("digraph", "other"), graphs))}


def _oracle(trial, digraph):
    return {"suite": "oracle", "trial": trial, "seed": 0, "digraph": digraph,
            "detail": "forced"}


FORCED_FAILURES = [
    ("oracle", "assert_equal", 1, 1, _oracle(0, ONE)),
    ("oracle", "assert_equal", 2, 2, _oracle(0, ONE_NC)),
    ("oracle", "assert_equal", 3, 3, _oracle(1, ONE)),
    ("hopf", "eq-false", 1, 1, _hopf("product", 0, ONE, ONE)),
    ("hopf", "eq-false", 2, 2, _hopf("nc-product", 0, ONE_NC, ONE_NC)),
    ("hopf", "eq-false", 3, 3, _hopf("coproduct", 0, ONE)),
    ("hopf", "eq-false", 4, 4, _hopf("nc-coproduct", 0, ONE_NC)),
    ("hopf", "_triple_splits", 1, 5, _hopf("coassociativity", 0, ONE)),
    ("hopf", "eq-false", 5, 6, _hopf("counit", 0, ONE)),
    ("hopf", "eq-false", 6, 6, _hopf("counit", 0, ONE)),
    ("hopf", "eq-false", 7, 7, _hopf("bialgebra", 0, ONE, ONE)),
    ("hopf", "_triple_splits", 3, 8, _hopf("nc-coassociativity", 0, ONE_NC)),
    ("hopf", "eq-false", 8, 9, _hopf("nc-bialgebra", 0, ONE_NC, ONE_NC)),
    ("hopf", "eq-false", 9, 10, _hopf("rho-algebra-map", 0, ONE_NC, ONE_NC)),
    ("hopf", "eq-false", 10, 11, _hopf("product", 1, ONE, ONE)),
    ("hopf", "_triple_splits", 7, 18, _hopf("nc-coassociativity", 1, ONE_NC)),
    ("tables", "eq-false", 1, 1,
     {"suite": "tables", "table": "sym", "kind": "m", "index": []}),
    ("tables", "eq-false", 9, 9,
     {"suite": "tables", "table": "sym", "kind": "eaug-scaling", "index": []}),
    ("tables", "eq-false", 13, 13,
     {"suite": "tables", "table": "qsym", "kind": "Fbar-coarsening", "index": []}),
    ("tables", "eq-false", 15, 15,
     {"suite": "tables", "table": "grid", "row_strict": True, "index": []}),
    ("tables", "eq-false", 18, 18,
     {"suite": "tables", "table": "ncqsym", "kind": "Fbar", "index": []}),
    ("tables", "eq-false", 23, 23,
     {"suite": "tables", "table": "ncsym", "kind": "h", "index": []}),
    ("tables", "eq-false", 47, 47,
     {"suite": "tables", "table": "ncsym", "kind": "S-rho", "index": [[1]]}),
    ("tables", "exact_rank", 1, 48,
     {"suite": "tables", "table": "ncsym", "kind": "S-span", "index": 1}),
    ("tables", "eq-true", 99, 100,
     {"suite": "tables", "table": "ncsym", "kind": "S-distinct", "index": 2}),
    ("r-closure", "in_qsym_r", 4, 7,
     {"suite": "r-closure", "part": "qsym-span", "kind": "Sbar", "degree": 0,
      "index": EMPTY_RC}),
    ("r-closure", "exact_rank", 2, 4,
     {"suite": "r-closure", "part": "qsym-rank", "kind": "S", "degree": 0, "expected": 1}),
    ("r-closure", "exact_rank", 10, 18,
     {"suite": "r-closure", "part": "ncqsym-rank", "kind": "Fbar", "degree": 0,
      "expected": 1}),
    ("r-closure", "r_regroup", 1, 21,
     {"suite": "r-closure", "part": "product-closure", "trial": 0, "seed": 0,
      "left": ONE_RSC, "right": ONE_RSC, "detail": REGROUP_DETAIL}),
    ("r-closure", "r_regroup_tensor", 1, 22,
     {"suite": "r-closure", "part": "coproduct-closure", "trial": 0, "seed": 0,
      "left": ONE_RSC, "detail": REGROUP_DETAIL}),
]


@pytest.mark.parametrize("suite, target, k, checks, counterexample", FORCED_FAILURES,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in FORCED_FAILURES])
def test_forced_failure_stops_with_its_counterexample(monkeypatch, suite, target, k,
                                                      checks, counterexample):
    owner, name, forced = TARGETS[target]
    original = getattr(owner, name)
    calls = itertools.count(1)
    monkeypatch.setattr(owner, name,
                        lambda *a: forced(*a) if next(calls) == k else original(*a))
    result = RUNS[suite]()
    assert not result.ok
    assert result.checks == checks
    assert list(result.counterexample.items()) == list(counterexample.items())
    assert sum(entry["checks"] for entry in result.stats.values()) == checks
