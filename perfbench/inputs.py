"""Workload inputs, generated from the seed alone.

This module imports nothing from tmzv: the parent process uses it to know
what was asked, the child process to ask it.  Every generator returns a
list of plain tuples, the operations of one round.
"""

from __future__ import annotations

import random

WORKLOADS = ("mzv-highprec", "inclusion-exclusion", "log-oracle", "session")

# (q, s, base precision); every s_i <= q so the closed form applies, and
# q = 4 exercises the table path of the F_q kernel.
MZV_TABLE = (
    (2, (1,), 2500),
    (3, (1, 2, 3), 1500),
    (4, (1, 2), 1200),
    (5, (2, 5), 2000),
    (7, (3, 7), 1500),
)

# inclusion-exclusion: every composition of weight <= 6, depth <= 3
IE_FIELDS = (2, 3)
IE_T_ORDER = 6
IE_PREC = 20

# log-oracle: the oracle-log suite's shapes, with fewer coefficients than
# the suite's 8 so that a round lasts seconds (at q = 3 (2,4), nmax 8 alone
# takes about 35 s)
LOG_CASES = (
    (2, (1,), "star", 6),
    (2, (4,), "star", 6),
    (2, (3, 1), "star", 6),
    (2, (2, 1, 1), "star", 6),
    (2, (1, 2), "at", 6),
    (3, (2, 4), "at", 3),
)
LOG_WINDOW = 60

# session: places are monic irreducibles, coefficients low degree first
SESSION_REQUESTS = 400
SESSION_MIX_SEED = 2020
SESSION_MZV_FIELDS = (2, 3, 5)
SESSION_POLYLOG_FIELDS = (2, 3)
SESSION_PLACES = (
    (2, (0, 1)), (2, (1, 1)), (2, (1, 1, 1)), (2, (1, 1, 0, 1)),
    (3, (0, 1)), (3, (1, 1)), (3, (2, 1)), (3, (1, 0, 1)),
)
# polylog precisions for u = 1 and for u = theta lie in disjoint bands.
# The program caches the twisted jet of u under id() of an object built per
# call, so a reused id can hand one argument's jet to the other argument
# (recorded in CHANGES.md).  Whether that happens depends on allocation
# history, so it cannot fail the same share of every run; with disjoint
# bands no two requests with different u share a cache key, and the stream
# leaves the fault out.
POLYLOG_PREC = {0: (10, 30), 1: (50, 70)}


def compositions(max_weight: int, max_depth: int):
    out = []

    def rec(prefix, left):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) < max_depth:
            for x in range(1, left + 1):
                rec(prefix + [x], left - x)

    rec([], max_weight)
    return sorted(out, key=lambda t: (sum(t), len(t), t))


def mzv_highprec(seed: int):
    """The table in its order; the seed adds 0-19 to each precision.  The
    order stays fixed because an operation's time depends on what earlier
    ones left in the memo caches (q = 4 at precision 1204-1217 took 186-190
    ms after one to three others, 229 ms after q = 2, 3 and 5)."""
    rng = random.Random(seed)
    return [("mzv-cli", q, s, prec + rng.randrange(20))
            for q, s, prec in MZV_TABLE]


def inclusion_exclusion(seed: int):
    """The fixed set of Tier-1 criterion 6, the same for every seed: the
    program memoises series shared between compositions, so a reordering
    would move cost between operations and blur the latency percentiles."""
    return [("inversion", q, s, IE_T_ORDER, IE_PREC)
            for q in IE_FIELDS for s in compositions(6, 3)]


def log_oracle(seed: int):
    """The suite's shapes in the suite's order, the same for every seed."""
    return [("oracle-log", q, s, model, nmax, LOG_WINDOW)
            for q, s, model, nmax in LOG_CASES]


def _session_requests(rng):
    ops = []
    for _ in range(SESSION_REQUESTS):
        kind = rng.choices(("mzv", "polylog", "zeta_nu"), (4, 4, 2))[0]
        if kind == "mzv":
            q = rng.choice(SESSION_MZV_FIELDS)
            depth = rng.choice((1, 2))
            s = tuple(rng.randint(1, min(q, 4)) for _ in range(depth))
            ops.append(("mzv", q, s, rng.randint(10, 60)))
        elif kind == "polylog":
            q = rng.choice(SESSION_POLYLOG_FIELDS)
            u = rng.choice((0, 1))
            lo, hi = POLYLOG_PREC[u]
            ops.append(("polylog", q, rng.randint(1, 3), u,
                        rng.randint(lo, hi)))
        else:
            q, nu = rng.choice(SESSION_PLACES)
            ops.append(("zeta_nu", q, nu, rng.randint(4, 8)))
    return ops


def session(seed: int):
    """A stream of small requests, fields and arguments interleaved.  The
    requests are one fixed mix (drawn once from SESSION_MIX_SEED) and the
    seed sets their order, so every seed asks for the same work while the
    memo caches see a different sequence of hits and misses."""
    ops = _session_requests(random.Random(SESSION_MIX_SEED))
    random.Random(seed).shuffle(ops)
    return ops


GENERATORS = {
    "mzv-highprec": mzv_highprec,
    "inclusion-exclusion": inclusion_exclusion,
    "log-oracle": log_oracle,
    "session": session,
}


def operations(workload: str, seed: int):
    return GENERATORS[workload](seed)
