"""Record the reference outputs of every job a workload can run.

    python3 bench/record.py [workload ...]

Runs each core and pool job through `chromexp.cli.main` and writes
bench/refs/<workload>.json with its exit code, the SHA-256 and length of
its stdout, and its cost in milliseconds, which the job lists use to cut
pools into strata. The cost is the median of ROUNDS runs made in rounds
over the whole job list, each scaled to the reference speed by the
calibrations around it as in run.py; a job slower than SLOW_MS in the
first round runs once, since its cost only has to show that it is slow.
Before anything is written it checks that

- every job exits with code 0 and writes the same bytes in every round;
- every `expand` job on at most ORACLE_MAX_N vertices agrees with the
  brute-force oracle (`oracle.direct_expand` or `direct_expand_nc`),
  read back from the job's own stdout.

Run it only when the expected outputs change on purpose.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time

import run
import workloads

ORACLE_MAX_N = 6
ROUNDS = 5
SLOW_MS = 2000.0


def oracle_agrees(job, argv, text) -> bool:
    from chromexp import graph as gr, ncqsym, oracle, qsym
    from chromexp.tpoly import TPoly

    if job.graph is not None:
        g = gr.digraph_from_json(job.graph)
    else:
        g = gr.parse_dsl(argv[argv.index("--dsl") + 1])
    data = json.loads(text)
    if "--nc" in argv:
        lg = g if isinstance(g, gr.LabelledDigraph) else gr.labelled(g)
        got = oracle.realize_nc(ncqsym.ncqsym_from_json(data), lg.graph.n)
        want = oracle.direct_expand_nc(lg, lg.graph.n)
    else:
        got = oracle.realize(qsym.qsym_from_json(data), g.n)
        want = oracle.direct_expand(g, g.n)
    if not job.t:
        want = type(want)(want.k, {key: TPoly.of(c.evaluate(1))
                                   for key, c in want.terms.items()})
    return oracle.assert_equal(got, want).ok


def record(cli, name: str) -> dict:
    jobs = workloads.all_jobs(name)
    directory = run.WORK / f"record-{os.getpid()}"
    inputs = run.write_inputs(jobs, directory)
    outputs = [None] * len(inputs)  # (exit code, stdout) of the first round
    costs = [[] for _ in inputs]
    problems = []
    for round_ in range(ROUNDS):
        todo = [i for i in range(len(inputs))
                if round_ == 0 or costs[i][0] < SLOW_MS]
        done = run.Pass()
        for i in todo:
            done.calibrations.append(run.calibrate())
            seconds, code, text = run.run_job(cli, inputs[i][1])
            done.latencies.append(seconds)
            if outputs[i] is None:
                outputs[i] = (code, text)
            elif outputs[i] != (code, text):
                problems.append(f"{inputs[i][0].key}: output differs between rounds")
        done.calibrations.append(run.calibrate())
        for i, seconds in zip(todo, done.scaled()):
            costs[i].append(seconds * 1000)
    entries = {}
    for (job, argv), (code, text), times in zip(inputs, outputs, costs):
        data = text.encode("utf-8")
        entries[job.key] = {"rc": code, "sha256": hashlib.sha256(data).hexdigest(),
                            "bytes": len(data), "ms": round(statistics.median(times), 2)}
        if code != 0:
            problems.append(f"{job.key}: exit code {code}")
            continue
        if job.argv[0] == "expand" and "--basis" not in job.argv \
                and job.n <= ORACLE_MAX_N and not oracle_agrees(job, argv, text):
            problems.append(f"{job.key}: disagrees with the oracle")
    shutil.rmtree(directory, ignore_errors=True)
    if problems:
        raise SystemExit(f"{name}: not recorded\n  " + "\n  ".join(problems))
    return {"recorded_with": {"python": platform.python_version(),
                              "commit": run.commit()},
            "jobs": entries}


def main(names) -> int:
    cli = run.import_cli()
    run.REFS.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        start = time.perf_counter()
        refs = record(cli, name)
        path = run.REFS / f"{name}.json"
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                          for k, v in refs["jobs"].items())
        path.write_text('{"recorded_with": ' + json.dumps(refs["recorded_with"])
                        + ',\n "jobs": {\n' + body + "\n}}\n", encoding="utf-8")
        print(f"{name}: {len(refs['jobs'])} jobs in {time.perf_counter() - start:.1f} s"
              f" -> {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
