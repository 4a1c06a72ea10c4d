"""The three workloads: seeded inputs, the op each input drives, its gate.

Inputs come from `random.Random(seed)` only.  The benchmark decides winning
coalitions and minimal winning coalitions of its own generated games with
plain integer subset sums, independently of gamedim, and checks the
program's answers against that oracle.  An op's `run` makes only program
calls and is what gets timed (and traced); its `check` runs afterwards,
untimed and untraced, and returns an error message or None.  The verdict of
every separation-ladder op is known by construction, so the gate checks it.

Every `run` reaches gamedim through module attributes (`games.minimal_winning`,
`cli.run_verification`) so that tracing wrappers installed on those
attributes see the calls.
"""

from __future__ import annotations

import itertools
import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

from gamedim import certificates, cli, cover, games, separation

WORKLOADS = ("council-replay", "separation-ladder", "cover-search")

# Wall-clock limit on one `lp_feasible` call.  The slowest generated ops seen
# (n = 12, about one in a hundred) took 1.1-1.4 s including `minimal_winning`;
# the declared n=14 instance needs about 28 s (see DECLARED_LADDER_RUNG).
LP_TIME_LIMIT_S = 6.0
LADDER_RUNGS = (6, 7, 8, 9, 10, 11, 12)
INSTANCES_PER_RUNG = 4
# Fourier-Motzkin (FM) with two or three losing targets is heavy-tailed:
# with 1-3 targets drawn among all losing coalitions, 1-2 of 30 instances per
# rung ran past 3 s at n = 10, 11 and 12, and one planted pair at n = 8 was
# still running after 120 s.  So only rungs up to this size get planted pairs
# and 1-3 targets; larger rungs get one target.  With targets drawn as in
# `_ladder_instance`, over 1,500 instances at n = 6 and 60-200 per rung from
# n = 7 to 12, no `lp_feasible` call took more than 0.36 s, though rare n = 12
# instances come close to 1.5 s (see LP_TIME_LIMIT_S).  Every generated op
# thus ends far from the limit, and the multi-target blow-up is exercised by
# the declared rung instead.
MULTI_TARGET_MAX_N = 6
COVER_NODES = range(18, 25)
COVER_GRAPHS_PER_SIZE = 2


class OpTimeout(Exception):
    """An op ran past its wall-clock limit."""


@contextmanager
def time_limit(seconds: float) -> Iterator[None]:
    def fire(signum, frame):
        raise OpTimeout(f"time limit of {seconds} s reached")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    # The op is expected to hit its time limit; that counts as failed but is
    # not a correctness error.
    declared_limit: bool = False


# --- council-replay ----------------------------------------------------------


def council_passes(seed: int, expected: bytes) -> Iterator[list[Op]]:
    """One warm replay per pass.  The replay has no inputs; the seed is unused."""
    del seed

    def check(transcript) -> str | None:
        if transcript.to_text().encode() != expected:
            return "replay transcript differs from the expected bytes"
        if not transcript.verified or transcript.conclusion != "dimension >= 8":
            return f"replay did not verify: {transcript.conclusion}"
        return None

    while True:
        yield [Op("replay", lambda: cli.run_verification(), check)]


# --- separation-ladder -------------------------------------------------------


def _subset_sums(weights: list[int]) -> list[int]:
    sums = [0] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


@dataclass
class LadderInstance:
    """Intersection of two weighted games over n members, with losing targets."""

    n: int
    parts: list[tuple[list[int], int]]
    targets: list[int]
    planted: tuple[int, int] | None = None  # winning pair balancing the targets

    def __post_init__(self) -> None:
        tables = [(_subset_sums(w), q) for w, q in self.parts]
        self.wins = [all(s[m] >= q for s, q in tables) for m in range(1 << self.n)]
        self.minimal = {
            m for m in range(1 << self.n)
            if self.wins[m] and not any(self.wins[m & ~(1 << i)]
                                        for i in range(self.n) if m >> i & 1)
        }


def _random_parts(rng: random.Random, n: int) -> list[tuple[list[int], int]]:
    parts = []
    for _ in range(2):
        weights = [rng.randint(1, 10) for _ in range(n)]
        total = sum(weights)
        parts.append((weights, rng.randint(2 * total // 5, 3 * total // 5)))
    return parts


def _plant(rng: random.Random, inst: LadderInstance, losing: list[int]
           ) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """A 2-vs-2 balance certificate among losing pairs, or None.

    {A, B} and {C, D} have equal member incidences iff A & B == C & D and
    A | B == C | D, so the winning pairs are the splits of the symmetric
    difference; a pair whose union loses cannot work.
    """
    for _ in range(2000):
        a, b = rng.sample(losing, 2)
        if not inst.wins[a | b] or (a ^ b).bit_count() > 8:
            continue
        bits = [1 << i for i in range(inst.n) if (a ^ b) >> i & 1]
        for r in range(len(bits) + 1):
            for picked in itertools.combinations(bits, r):
                moved = sum(picked)
                w1, w2 = (a & b) | moved, (a | b) & ~moved
                if w1 != w2 and inst.wins[w1] and inst.wins[w2]:
                    return (a, b), (w1, w2)
    return None


def _ladder_instance(rng: random.Random, n: int, index: int) -> LadderInstance:
    """Planted targets (not separable), or targets that lose in one part.

    The weights and quota of that part keep every winning coalition of the
    intersection winning and make the targets lose, so such an instance is
    separable by construction, and the gate knows the right verdict of
    every op.
    """
    inst = LadderInstance(n, _random_parts(rng, n), [])
    if n <= MULTI_TARGET_MAX_N and index % 2 == 0:
        losing = [m for m in range(1, 1 << n) if not inst.wins[m]]
        found = _plant(rng, inst, losing)
        if found is not None:
            inst.targets, inst.planted = list(found[0]), found[1]
            return inst
    weights, quota = inst.parts[rng.randrange(2)]
    sums = _subset_sums(weights)
    losing_in_part = [m for m in range(1, 1 << n) if sums[m] < quota]
    count = rng.randint(1, 3) if n <= MULTI_TARGET_MAX_N else 1
    inst.targets = rng.sample(losing_in_part, count)
    return inst


# Declared time-limited rung: fixed, not seeded, so that it fails the same
# way in every run.  Drawn once from random.Random(7) with weights in 1..10,
# quotas in [2n, 4n] and three random losing targets; it has 666 minimal
# winning coalitions, and `lp_feasible` needs about 28 s and 250 MB of
# memory to find it separable (one run on a 2-core x86-64 container).
DECLARED_LADDER_RUNG = LadderInstance(
    14,
    [([7, 9, 5, 7, 6, 7, 4, 3, 2, 3, 3, 4, 4, 1], 43),
     ([10, 3, 5, 5, 1, 3, 7, 9, 6, 10, 10, 6, 3, 9], 47)],
    [12438, 13611, 893],
)


def _ladder_op(inst: LadderInstance, label: str, declared: bool = False) -> Op:
    n = inst.n

    def run():
        game = games.IntersectionGame([games.WeightedGame(n, w, q) for w, q in inst.parts])
        winning = games.minimal_winning(game)
        instance = separation.SeparationInstance(
            n, winning, [games.Coalition(n, m) for m in inst.targets])
        with time_limit(LP_TIME_LIMIT_S):
            verdict = separation.lp_feasible(instance)
        return game, winning, verdict

    def check(result) -> str | None:
        game, winning, verdict = result
        if {c.mask for c in winning} != inst.minimal or len(winning) != len(inst.minimal):
            return f"{label}: minimal winning coalitions differ from the oracle"
        expected = separation.NotSeparable if inst.planted else separation.Separable
        if not isinstance(verdict, expected):
            return f"{label}: expected {expected.__name__}, got {verdict!r}"
        if inst.planted:
            cert = certificates.BalanceCertificate(
                losing=[games.Coalition(n, m) for m in inst.targets],
                winning=[games.Coalition(n, m) for m in inst.planted])
            if not certificates.verify_balance(cert, game):
                return f"{label}: planted certificate fails verify_balance"
            return None
        weights, quota = verdict.weights, verdict.quota
        if any(x < 0 for x in weights):
            return f"{label}: witness has a negative weight"

        def weight(mask: int) -> Fraction:
            return sum((weights[i] for i in range(n) if mask >> i & 1), Fraction(0))

        if any(weight(m) < quota for m in inst.minimal):
            return f"{label}: witness loses a winning coalition"
        if any(weight(m) > quota - 1 for m in inst.targets):
            return f"{label}: witness does not separate a target"
        return None

    return Op(label, run, check, declared)


def ladder_passes(seed: int) -> Iterator[list[Op]]:
    """Each pass: INSTANCES_PER_RUNG fresh instances per rung."""
    rng = random.Random(seed)
    while True:
        ops = []
        for n in LADDER_RUNGS:
            for index in range(INSTANCES_PER_RUNG):
                inst = _ladder_instance(rng, n, index)
                kind = "planted" if inst.planted else f"{len(inst.targets)} target(s)"
                ops.append(_ladder_op(inst, f"n={n} {kind}"))
        yield ops


# --- cover-search ------------------------------------------------------------


def _random_antichain(rng: random.Random, t: int) -> list[frozenset[int]]:
    """Pairs from three random Hamiltonian cycles, plus t // 2 random triples.

    The cycles give every node two to six pair edges.  With pairs drawn
    independently, a few nodes of low degree multiply the number of maximal
    independent sets, and the cost of one op varied so much that a run's p90
    depended on the seed.  Triples containing a pair are dropped, so the
    edges form an antichain.
    """
    nodes = range(1, t + 1)
    edges: set[frozenset[int]] = set()
    for _ in range(3):
        cycle = rng.sample(nodes, t)
        edges.update(frozenset((cycle[i - 1], cycle[i])) for i in range(t))
    triples: set[frozenset[int]] = set()
    while len(triples) < t // 2:
        triples.add(frozenset(rng.sample(nodes, 3)))
    edges.update(e for e in triples if not any(p <= e for p in edges))
    return sorted(edges, key=lambda e: (len(e), sorted(e)))


def _cover_op(t: int, edges: list[frozenset[int]], label: str) -> Op:
    def run():
        h = cover.Hypergraph(t, edges)
        maximal = cover.enumerate_maximal_independent(h)
        solution = cover.min_cover(h, maximal)
        refutation = cover.no_k_cover(h, solution.k - 1)
        return h, maximal, solution, refutation

    def check(result) -> str | None:
        h, maximal, solution, refutation = result
        nodes = set(range(1, t + 1))
        for s in maximal:
            if any(e <= s for e in edges):
                return f"{label}: an enumerated set contains an edge"
            if any(not any(e <= s | {v} for e in edges) for v in nodes - s):
                return f"{label}: an enumerated set is not maximal"
        if not solution.verify(h):
            return f"{label}: minimum cover does not verify"
        if set().union(*solution.parts) != nodes or any(
                any(e <= p for e in edges) for p in solution.parts):
            return f"{label}: minimum cover fails the benchmark's own check"
        if not refutation.refuted:
            return f"{label}: found a cover with {solution.k - 1} parts"
        return None

    return Op(label, run, check)


def cover_passes(seed: int) -> Iterator[list[Op]]:
    """Each pass: COVER_GRAPHS_PER_SIZE fresh graphs for every size in COVER_NODES.

    Enumeration cost grows steeply with the node count, so every pass holds
    the same mix of sizes; drawing the size at random would make the run's
    percentiles depend on how many large graphs the seed happened to draw.
    """
    rng = random.Random(seed)
    while True:
        yield [_cover_op(t, _random_antichain(rng, t), f"t={t}")
               for t in COVER_NODES for _ in range(COVER_GRAPHS_PER_SIZE)]


def passes(workload: str, seed: int, expected_transcript: bytes) -> Iterator[list[Op]]:
    if workload == "council-replay":
        return council_passes(seed, expected_transcript)
    if workload == "separation-ladder":
        return ladder_passes(seed)
    if workload == "cover-search":
        return cover_passes(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def closing_ops(workload: str) -> list[Op]:
    """Ops run once, after the timed passes and after peak memory is read.

    The declared rung grows by several MB per second until its time limit
    stops it, so the peak it leaves depends on machine speed; it runs last so
    that it cannot set `peak_rss_mb`.
    """
    if workload == "separation-ladder":
        return [_ladder_op(DECLARED_LADDER_RUNG, "n=14 declared", declared=True)]
    return []
