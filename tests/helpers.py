"""Independent brute-force oracles and random generators for the test suite."""

import itertools
import random

from gamedim import BalanceCertificate, Coalition, ExplicitGame, Hypergraph, verify_balance


def coalitions_of(n):
    return [Coalition(n, mask) for mask in range(1 << n)]


def random_monotone_game(rng: random.Random, n: int) -> ExplicitGame:
    """Upward closure of a few random generator coalitions, declared in full."""
    nsub = 1 << n
    generators = [rng.randrange(1, nsub) for _ in range(rng.randint(1, 6))]
    declared = [
        Coalition(n, mask)
        for mask in range(nsub)
        if any(g & mask == g for g in generators)
    ]
    return ExplicitGame(n, declared)


def brute_minimal_winning(game):
    """All winning coalitions whose every proper subset loses, by direct scan."""
    out = []
    for c in coalitions_of(game.n):
        if not game.contains(c):
            continue
        sub = (c.mask - 1) & c.mask
        minimal = True
        while True:
            if game.contains(Coalition(game.n, sub)):
                minimal = False
                break
            if sub == 0:
                break
            sub = (sub - 1) & c.mask
        if minimal:
            out.append(c)
    return sorted(out, key=lambda c: (len(c), c.members))


def brute_maximal_independent(h: Hypergraph):
    """Maximal independent sets by the naive double loop over all subsets."""
    t = h.node_count
    subsets = [frozenset(i + 1 for i in range(t) if mask >> i & 1)
               for mask in range(1 << t)]
    independent = [s for s in subsets if not any(e <= s for e in h.edges)]
    nodes = frozenset(range(1, t + 1))
    maximal = [
        s for s in independent
        if all(any(e <= s | {v} for e in h.edges) for v in nodes - s)
    ]
    return sorted(maximal, key=lambda s: tuple(sorted(s)))


def random_hypergraph(rng: random.Random, t: int, n_edges: int) -> Hypergraph:
    edges = set()
    for _ in range(n_edges):
        size = rng.choice([2, 2, 2, 3])
        if size > t:
            continue
        edges.add(frozenset(rng.sample(range(1, t + 1), size)))
    # keep only inclusion-minimal edges so construction stays warning-free
    minimal = [e for e in edges if not any(o < e for o in edges)]
    return Hypergraph(t, minimal)


def find_balanced_pair_certificate(game, losing, rng: random.Random, max_pairs: int = 40):
    """Search a verified two-vs-two balance certificate among losing pairs.

    Uses the indicator identity: {A, B} and {C, D} have equal member
    incidences iff A & B == C & D and A | B == C | D, so candidate winning
    pairs are exactly the splits of the losing pair's symmetric difference.
    Pairs whose union is losing cannot work (everything in between loses by
    monotonicity) and are skipped up front.  The pair filter works on bare
    masks: the size test comes first, and the union is looked up in the
    winning masks, each asked of the game once, rather than built as a
    Coalition and tested per pair.
    """
    if len(losing) < 2:
        return None
    winning = {m for m in range(1 << game.n) if game.contains(Coalition(game.n, m))}
    pairs = [(a, b) for i, a in enumerate(losing) for b in losing[i + 1:]
             if (a.mask ^ b.mask).bit_count() <= 7 and (a.mask | b.mask) in winning]
    rng.shuffle(pairs)
    for la, lb in pairs[:max_pairs]:
        union, inter = la | lb, la & lb
        diff = (la ^ lb).members
        for r in range(len(diff) + 1):
            for picked in itertools.combinations(diff, r):
                w1 = inter | Coalition.from_indices(picked, game.n)
                w2 = union - Coalition.from_indices(picked, game.n)
                if w1 == w2 or not (game.contains(w1) and game.contains(w2)):
                    continue
                cert = BalanceCertificate(losing=(la, lb), winning=(w1, w2))
                if verify_balance(cert, game):
                    return cert
    return None
