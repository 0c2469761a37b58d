"""Guards that tie the package to its benchmark in bench/, which they
read and never change.

* Every recorded benchmark job that is cheap to run (a recorded cost of
  at most REPLAY_MAX_MS), and every core `bases` job outside the plain
  qsym space, is replayed through `cli.main` in-process and must give
  its recorded exit code and the SHA-256 of its recorded stdout, so a
  refactor that changes one output byte fails here.
* The benchmark's tracer must still find every function it traces or
  counts in its owner's namespace, see the calls the command line makes
  through them, and put every original back when it is removed.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import chromexp
from chromexp import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

REPLAY_MAX_MS = 30.0


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def refs_of(workload):
    return json.loads((BENCH / "refs" / f"{workload}.json").read_text())["jobs"]


def replay_mismatches(jobs, refs, tmp_path) -> list:
    """The keys of the jobs whose exit code or stdout digest differs
    from the recorded one."""
    mismatches = []
    for i, job in enumerate(jobs):
        argv = list(job.argv)
        if job.graph is not None:
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(job.graph), encoding="utf-8")
            argv = [str(path) if a == workloads.INPUT else a for a in argv]
        code, text = run(argv)
        ref = refs[job.key]
        if (code, hashlib.sha256(text.encode("utf-8")).hexdigest()) != (ref["rc"], ref["sha256"]):
            mismatches.append(job.key)
    return mismatches


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cheap_recorded_jobs_replay_byte_for_byte(workload, tmp_path):
    refs = refs_of(workload)
    jobs = {job.key: job for job in workloads.all_jobs(workload)
            if job.key in refs and refs[job.key]["ms"] <= REPLAY_MAX_MS}
    assert jobs
    assert replay_mismatches(jobs.values(), refs, tmp_path) == []


def test_every_core_basis_job_off_qsym_replays_byte_for_byte(tmp_path):
    """The qsym-r, ncqsym and ncqsym-r listings build their elements from
    digraphs and set compositions; some are recorded above REPLAY_MAX_MS,
    so all of them replay here."""
    jobs = [job for job in workloads.workload("bases").core if job.argv[2] != "qsym"]
    assert len(jobs) == 29
    assert replay_mismatches(jobs, refs_of("bases"), tmp_path) == []


def _owners():
    """Every namespace the tracer may patch: the package's modules and
    the classes that own a traced method."""
    owners = [m for key, m in sys.modules.items()
              if key == "chromexp" or key.startswith("chromexp.")]
    for name in tracer.TRACED + tracer.COUNTED:
        module_name, *owner_path, _ = name.split(".")
        if owner_path:
            owner = sys.modules[f"chromexp.{module_name}"]
            for part in owner_path:
                owner = getattr(owner, part)
            owners.append(owner)
    return owners


def test_tracer_binds_every_name_and_restores_the_originals():
    assert chromexp.__name__ == tracer.PACKAGE
    before = [(owner, dict(vars(owner))) for owner in _owners()]
    t = tracer.Tracer()
    try:
        t.install()  # a name that no longer binds raises KeyError here
        assert set(t.calls) == set(tracer.TRACED + tracer.COUNTED)
        for argv in (("expand", "--dsl", "K(3)"),
                     ("expand", "--nc", "--dsl", "S(C(1),C(2))"),
                     ("expand", "--basis", "F", "--dsl", "P(3)"),
                     ("expand", "--nc", "--basis", "Fbar", "--dsl", "P(2)"),
                     ("expand", "--basis", "sym:e", "--dsl", "K(3)"),
                     ("coproduct", "--dsl", "P(2)"),
                     ("coproduct", "--nc", "--dsl", "P(2)"),
                     ("product", "--nc", "--dsl", "C(1)", "--dsl", "C(1)"),
                     ("mr", "21")):
            assert run(argv)[0] == 0
        seen = {name for name, calls in t.calls.items() if calls}
        assert {"cli.main", "graph.parse_dsl", "chromatic.expand", "ncqsym.expand_nc",
                "qsym.qsym_to_json", "ncqsym.ncqsym_to_json", "qsym.coproduct",
                "ncqsym.coproduct_nc", "ncqsym.ncqsym_tensor_to_json",
                "qsym.to_qsym_basis", "ncqsym.to_ncqsym_basis", "qsym.to_sym_basis",
                "ncqsym.NCQSymExpr.__mul__"} <= seen
    finally:
        t.uninstall()
    for owner, namespace in before:
        now = vars(owner)
        assert all(now.get(key) is value for key, value in namespace.items()), owner


def test_tracer_sees_every_product_and_coproduct():
    """The products and coproducts of both algebras share one body each,
    bound under each traced name; every one of those names still sees
    the calls made through it."""
    t = tracer.Tracer()
    try:
        t.install()
        for argv in (("product", "--dsl", "P(2)", "--dsl", "C(1)"),
                     ("product", "--nc", "--dsl", "P(2)", "--dsl", "C(1)"),
                     ("coproduct", "--dsl", "P(2)"),
                     ("coproduct", "--nc", "--dsl", "P(2)"),
                     ("verify", "--suite", "hopf", "--trials", "1")):
            assert run(argv)[0] == 0
        names = ("qsym.QSymExpr.__mul__", "qsym.QSymTensor.__mul__",
                 "ncqsym.NCQSymExpr.__mul__", "ncqsym.NCQSymTensor.__mul__",
                 "qsym.coproduct", "ncqsym.coproduct_nc")
        assert {name: t.calls[name] > 0 for name in names} == dict.fromkeys(names, True)
    finally:
        t.uninstall()
