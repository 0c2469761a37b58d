"""The job lists of the four benchmark workloads.

A workload is a fixed core of jobs plus seeded pools. Every pass runs the
whole core and a stratified sample of each pool: the pool is sorted by
the cost recorded for each entry in the reference file, cut into as many
contiguous strata as the sample has jobs, and the seed picks one entry
per stratum (the costliest fifth of the strata give their middle entry
whatever the seed). So a seed changes the inputs, while the cost mix of
a pass stays the same from seed to seed.

Pools are generated from fixed seeds of their own, so every entry has a
recorded reference (see record.py). See README.md for why each workload
exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

INPUT = "@input"  # placeholder in argv for the path of the job's JSON input

WORKLOADS = ("expand", "expand-nc", "hopf", "bases")

# hopf trials above this recorded cost (18 of the 300, up to 16 s each at
# the reference speed) do not fit a pass; see README.md
HOPF_POOL_CAP_MS = 550.0
HOPF_POOL_SEEDS = 300

# share of a pool's strata, from the costliest down, that do not vary with
# the seed (see stratified)
FIXED_TOP_SHARE = 0.2


@dataclass(frozen=True)
class Job:
    key: str                   # names the expected output in the references
    argv: tuple                # cli arguments, INPUT where the file path goes
    graph: dict | None = None  # digraph JSON, written to a file at set-up
    n: int = 0                 # vertex count (0 when not a digraph job)
    t: bool = False            # the output keeps the t-grading


@dataclass
class Workload:
    core: list
    pools: list  # (entries, sample size)


# ---------------------------------------------------------------------------
# small combinatorics, kept here so job lists do not depend on the package

def partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def _args(parts) -> str:
    return ",".join(str(p) for p in parts)


# ---------------------------------------------------------------------------
# digraph inputs

def dashed_cycle(n: int) -> dict:
    pairs = [(i, (i + 1) % n) for i in range(n)]
    return {"n": n, "edges": [[min(p), max(p), "neq"] for p in pairs]}


def dashed_path(n: int) -> dict:
    return {"n": n, "edges": [[i, i + 1, "neq"] for i in range(n - 1)]}


def edgeless(n: int) -> dict:
    return {"n": n, "edges": []}


def random_digraph(rng: random.Random, n: int, p: float) -> dict:
    edges = [[u, v, rng.choice(("neq", "lt", "leq"))]
             for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return {"n": n, "edges": edges}


def with_labels(graph: dict, rng: random.Random) -> dict:
    labels = list(range(1, graph["n"] + 1))
    rng.shuffle(labels)
    return {**graph, "labels": labels}


def _json_job(cmd, name, graph) -> Job:
    return Job(key=f"{' '.join(cmd)} --json {name}", argv=(*cmd, "--json", INPUT),
               graph=graph, n=graph["n"], t="--t" in cmd)


def _dsl_job(cmd, dsl, n=0) -> Job:
    return Job(key=f"{' '.join(cmd)} --dsl {dsl}", argv=(*cmd, "--dsl", dsl),
               n=n, t="--t" in cmd)


# ---------------------------------------------------------------------------
# the workloads

COMMUTATIVE = (("expand", "--t"), ("expand",), ("poly",))


def _expand() -> Workload:
    core = []
    for n in (5, 6, 7):
        for name, graph in (("cycle", dashed_cycle(n)), ("path", dashed_path(n))):
            for cmd in COMMUTATIVE:
                core.append(_json_job(cmd, f"dashed-{name}-{n}", graph))
    for n in (4, 5, 6, 7):
        dsl = "U(" + ",".join(["C(1)"] * n) + ")"
        core += [_dsl_job(cmd, dsl, n) for cmd in COMMUTATIVE]
    for size in (6, 7, 8):
        core += [_dsl_job(("expand", "--t"), f"grid({_args(lam)})", size)
                 for lam in partitions(size)]
    cgrids = [_dsl_job(("expand", "--t"), f"cgrid({_args(alpha)})", size)
              for size in (6, 7) for alpha in compositions(size)]
    # the sparse digraphs are the costliest jobs after the n = 7 families;
    # all of them run, so the top of the latency distribution does not
    # depend on a draw
    rng = random.Random("expand-pool")
    core += [_json_job(("expand", "--t"), f"sparse-{n}-{i}", random_digraph(rng, n, 0.1))
             for n, count in ((7, 12), (8, 2)) for i in range(count)]
    return Workload(core, [(cgrids, 16)])


NONCOMMUTATIVE = (("expand", "--nc"), ("expand", "--nc", "--t"))


def _expand_nc() -> Workload:
    rng = random.Random("expand-nc-labels")
    core = []
    for n in (5, 6):
        for name, graph in (("cycle", dashed_cycle(n)), ("path", dashed_path(n)),
                            ("edgeless", edgeless(n))):
            graph = with_labels(graph, rng)
            core += [_json_job(cmd, f"labelled-{name}-{n}", graph)
                     for cmd in NONCOMMUTATIVE]
            if n == 5 or name == "cycle":
                core.append(_json_job(("coproduct", "--nc"), f"labelled-{name}-{n}", graph))
    core.append(_json_job(("expand", "--nc"), "labelled-path-7",
                          with_labels(dashed_path(7), rng)))
    pool_rng = random.Random("expand-nc-pool")
    pool = []
    for n in (5, 6, 7):
        for i in range(40):
            graph = with_labels(random_digraph(pool_rng, n, 0.3), pool_rng)
            cmds = NONCOMMUTATIVE + ((("coproduct", "--nc"),) if n == 5 else ())
            pool += [_json_job(cmd, f"labelled-random-{n}-{i}", graph) for cmd in cmds]
    return Workload(core, [(pool, 84)])


def hopf_job(seed: int) -> Job:
    return Job(key=f"verify hopf seed={seed}",
               argv=("verify", "--suite", "hopf", "--trials", "1", "--n", "4",
                     "--seed", str(seed)))


def _hopf(refs: dict | None) -> Workload:
    pool = [hopf_job(s) for s in range(HOPF_POOL_SEEDS)]
    if refs is None:
        return Workload([], [(pool, 100)])
    pool = [job for job in pool
            if job.key in refs and refs[job.key]["ms"] <= HOPF_POOL_CAP_MS]
    # the heaviest trial that fits runs in every pass, so that the memory
    # peak does not depend on the seed
    heaviest = max(pool, key=lambda job: refs[job.key]["ms"])
    pool.remove(heaviest)
    return Workload([heaviest], [(pool, 99)])


QSYM_KINDS = ("M", "F", "Fbar", "m", "maug", "e", "eaug", "h", "p", "s")
QSYM_R_KINDS = ("M", "S", "Fbar", "Sbar")
SYM_BASES = ("F", "Fbar", "sym:s", "sym:m", "sym:e", "sym:h", "sym:p")


def _bases_job(space, kind, n) -> Job:
    return Job(key=f"bases {space} {kind} {n}",
               argv=("bases", "--space", space, "--kind", kind, "--n", str(n)))


def _bases() -> Workload:
    core = [_bases_job("qsym", kind, n) for kind in QSYM_KINDS for n in (5, 6, 7)]
    core += [_bases_job("qsym-r", kind, n) for kind in QSYM_R_KINDS for n in (5, 6, 7)]
    core += [_bases_job("ncqsym", kind, 4) for kind in ("M", "F", "Fbar", "m", "p", "e", "h", "S")]
    core += [_bases_job("ncqsym", kind, 5) for kind in ("M", "F", "Fbar", "m", "p")]
    core += [_bases_job("ncqsym-r", kind, n) for kind in ("M", "Fbar") for n in (4, 5)]
    symmetric = [(f"grid({_args(lam)})", size) for size in (5, 6, 7)
                 for lam in partitions(size)]
    symmetric += [(f"{atom}({n})", n) for atom in "KPQ" for n in (5, 6, 7)]
    symmetric += [(f"{op}({atom}({a}),{atom}({n - a}))", n)
                  for op, atom in (("U", "K"), ("D", "P")) for n in (5, 6, 7)
                  for a in range(1, n // 2 + 1)]
    pool = [_dsl_job(("expand", "--basis", basis), dsl, n)
            for dsl, n in symmetric for basis in SYM_BASES]
    pool += [_dsl_job(("expand", "--basis", basis), f"cgrid({_args(alpha)})", size)
             for size in (5, 6) for alpha in compositions(size) for basis in ("F", "Fbar")]
    nc_symmetric = [f"K({n})" for n in (4, 5)]
    nc_symmetric += [f"{op}({atom}({a}),{atom}({n - a}))" for op, atom in (("U", "K"), ("D", "C"))
                     for n in (4, 5) for a in range(1, n // 2 + 1)]
    pool += [_dsl_job(("expand", "--nc", "--basis", basis), dsl)
             for dsl in nc_symmetric for basis in ("F", "Fbar", "m")]
    return Workload(core, [(pool, 41)])


def workload(name: str, refs: dict | None = None) -> Workload:
    if name == "expand":
        return _expand()
    if name == "expand-nc":
        return _expand_nc()
    if name == "hopf":
        return _hopf(refs)
    if name == "bases":
        return _bases()
    raise ValueError(f"unknown workload {name!r}")


def all_jobs(name: str) -> list:
    """Every job the workload can run, for recording references."""
    w = workload(name)
    return list(w.core) + [job for entries, _ in w.pools for job in entries]


def stratified(entries: list, picks: int, refs: dict, rng: random.Random) -> list:
    def cost(job):
        return refs[job.key]["ms"] if job.key in refs else 0.0

    ordered = sorted(entries, key=lambda job: (cost(job), job.key))
    picks = min(picks, len(ordered))
    bounds = [len(ordered) * i // picks for i in range(picks + 1)]
    strata = [ordered[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    # the costliest strata hold the top of the latency distribution, where
    # p90 is read and costs are far apart; they give their middle entry
    fixed = int(picks * FIXED_TOP_SHARE)
    return ([rng.choice(stratum) for stratum in strata[:picks - fixed]]
            + [stratum[len(stratum) // 2] for stratum in strata[picks - fixed:]])


def job_list(name: str, seed: int, refs: dict) -> list:
    """The jobs of one pass: the core and the stratified pool samples, in
    an order drawn from the seed."""
    rng = random.Random(seed)
    w = workload(name, refs)
    jobs = list(w.core)
    for entries, picks in w.pools:
        jobs += stratified(entries, picks, refs, rng)
    rng.shuffle(jobs)
    return jobs
