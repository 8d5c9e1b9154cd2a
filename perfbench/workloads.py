"""Job lists of the benchmark workloads.

A job is ``(job_id, argv)``: ``argv`` goes to ``graphcode_lt.cli.main``
unchanged, and ``job_id`` names the job in the expected-output record.
The ids equal the joined argv except for ``mc-check``, whose ``--seed``
comes from the workload seed and is left out of the id.

Every job asks for ``--format json`` where the subcommand has it, so the
output check can parse rows instead of scraping text.
"""

from __future__ import annotations

import random

COMPILE_CODES = ("pentagon", "decorated-pentagon", "branched-chain", "shor22",
                 "cube", "tree:3,2", "tree:2,2,1")
WARM_CODES = ("pentagon", "cube", "tree:3,2", "tree:2,2,1")
TREE_KINDS = ("X", "Y", "Z", "arbitrary")
SEARCH_CLASSES_N7 = 63  # rooted LC classes on 7 progenitor vertices

# concat --depth 3 in concatenated mode exits 3 at the seed on these codes:
# round-off puts an effective transmission at 1.0000000000000002, which
# modular.TransmissionVector rejects.  The jobs stay in the workload and
# count as failed ops until the engine clamps.
KNOWN_FAILING = frozenset({
    "concat --graph cube --depth 3 --mode concatenated --eta-grid 0:1:0.01 --format json",
    "concat --graph tree:2,2,1 --depth 3 --mode concatenated --eta-grid 0:1:0.01 --format json",
})


def _job(*argv: str) -> tuple[str, list[str]]:
    argv = list(argv) + ["--format", "json"]
    return " ".join(argv), argv


def compile_jobs(codes) -> list:
    """The build-once jobs: trees, ML extension, fusion analyses."""
    jobs = []
    for c in codes:
        jobs.append(_job("analyze", "--graph", c))
        jobs.append(_job("fusion", "--graph", c, "--eta", "0.9"))
        jobs.append(_job("fbqc", "--graph", c, "--pfail", "0.5"))
        jobs.append(_job("sweep", "--graph", c, "--lambda-grid", "0.01"))
    return jobs


def warm_jobs(codes) -> list:
    """Dense evaluation grids over analyses the set-up already compiled."""
    jobs = []
    for c in codes:
        jobs.append(_job("sweep", "--graph", c, "--eta-grid", "0:1:0.001"))
        jobs.append(_job("sweep", "--graph", c,
                         "--lambda-grid", "0.001:0.1:0.001"))
        jobs.append(_job("fusion", "--graph", c, "--eta-grid", "0:1:0.001"))
        jobs.append(_job("fbqc", "--graph", c, "--pfail", "0.5,0.25,0.125"))
        jobs.append(_job("rgs", "--graph", c, "--depth", "10",
                         "--eta-grid", "0:1:0.001"))
        for mode in ("concatenated", "cascaded"):
            jobs.append(_job("concat", "--graph", c, "--depth", "3",
                             "--mode", mode, "--eta-grid", "0:1:0.01"))
    return jobs


def mc_job(seed: int) -> tuple[str, list[str]]:
    argv = ["mc-check", "--graph", "tree:2,2,1", "--trials", "1000000",
            "--seed", str(seed)]
    return "mc-check --graph tree:2,2,1 --trials 1000000", argv


SEARCH_JOB = ("search fbqc_threshold --graph n:7 --threads 1",
              ["search", "fbqc_threshold", "--graph", "n:7", "--threads", "1"])


def plan(workload: str, seed: int) -> tuple[list, list, list]:
    """(set-up jobs, timed jobs, codes whose trees the run compiles).

    The seed shuffles the job order within each list and seeds
    mc-check; it changes no job's inputs otherwise, so the work done is
    the same for every seed.
    """
    if workload == "compile-cold":
        setup = []
        timed = compile_jobs(COMPILE_CODES)
        timed += [_job("fusion", "--graph", c, "--mode", "transversal",
                       "--eta", "0.9") for c in ("cube", "tree:3,2")]
        codes = list(COMPILE_CODES)
    elif workload == "evaluate-warm":
        setup = compile_jobs(WARM_CODES)
        timed = warm_jobs(WARM_CODES) + [mc_job(seed)]
        codes = list(WARM_CODES)
    elif workload == "search-n7":
        setup = []
        timed = [SEARCH_JOB]
        codes = []
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    rng.shuffle(setup)
    rng.shuffle(timed)
    return setup, timed, codes


WORKLOADS = ("compile-cold", "evaluate-warm", "search-n7")
