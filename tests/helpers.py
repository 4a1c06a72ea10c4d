"""Independent brute-force oracles and random generators for the test suite."""

import itertools
import math
import random
from fractions import Fraction

from gamedim import (
    BalanceCertificate,
    CertificateError,
    Coalition,
    DualWeightCertificate,
    ExplicitGame,
    Hypergraph,
    IntersectionGame,
    UnionGame,
    WeightedGame,
    verify_balance,
)
from gamedim._packed import instance
from gamedim.certificates import _certificate, _first, _split
from gamedim.eu import ANCHOR_LABEL, LOSING_FAMILY, N_MEMBERS, OUTRIGHT_QUOTA, EuGame

# The two dual weightings of the council family, as written out by hand
# before `dual_refutation` derived them: the first refutes the 7-covers
# avoiding {L1, L3, L6}, the second those using it.
COUNCIL_DUALS = (
    DualWeightCertificate(
        ["1/2", 0, 1, "1/2", 0, 1, "1/2", 0, 1, 0, 0, 0, 1, 1, 1],
        bound=7,
        excluded_part=(1, 3, 6),
    ),
    DualWeightCertificate(
        [0, "1/3", 0, "2/3", "1/3", 0, "1/3", "2/3", "2/3", "1/3", 1, "2/3", "1/3", 0, 1],
        bound=7,
        excluded_part=(1, 3, 6),
    ),
)

# Witnessing winners (labels into W1..W12) for each bundled losing triple, as
# written out by hand before `build_triple_certificate` matched them.
TRIPLE_WITNESSES = {
    (1, 2, 12): (2, 7, 11),
    (1, 4, 7): (3, 10, 12),
    (1, 6, 12): (4, 8, 10),
    (4, 5, 10): (2, 5, 9),
    (5, 10, 12): (1, 2, 6),
}


def composed_council_game(table):
    """The council rule composed from three weighted games over 28 members.

    (16 members AND 13/20 of the population) OR 25 members, built from the
    generic game classes: an independent reference for `EuGame`.
    """
    pops = table.populations
    members_55 = WeightedGame(28, [1] * 28, 16)
    population_65 = WeightedGame(
        28, [pops[i] for i in range(1, 29)], Fraction(13 * table.total_population, 20))
    outright_25 = WeightedGame(28, [1] * 28, 25)
    return UnionGame([IntersectionGame([members_55, population_65]), outright_25])


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


def masked_sum(values, mask):
    """Sum of ``values[i]`` over the set bits ``i`` of ``mask``."""
    total = 0
    while mask:
        low = mask & -mask
        total += values[low.bit_length() - 1]
        mask ^= low
    return total


def reference_winning_bits(game: WeightedGame) -> int:
    """The weighted game's winning bitset by the subset-sum formula.

    Every mask's weight sum, scaled to integers and built by one doubling
    per member, is compared with the quota; bit m is set iff mask m wins.
    """
    scale = math.lcm(game.quota.denominator, *(w.denominator for w in game.weights))
    sums = [0]
    for w in game.weights:
        w = int(w * scale)
        sums += [s + w for s in sums]
    quota = game.quota * scale
    return int("".join("1" if s >= quota else "0" for s in reversed(sums)), 2)


def minimal_masks_of_bits(bits: int, n: int) -> set[int]:
    """The masks whose bit is set and whose every one-member removal's is not."""
    wins = bin(bits)[:1:-1].ljust(1 << n, "0")
    return {m for m in range(1 << n) if wins[m] == "1"
            and not any(wins[m ^ (1 << i)] == "1" for i in range(n) if m >> i & 1)}


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


def grown_maximal_independent(h: Hypergraph):
    """Maximal independent sets, grown node by node from the empty set.

    A node in no edge lies in every maximal set, so only the nodes of some
    edge are grown over, and the others join each set at the end.  Each
    independent set comes from the one without its largest node, by adding
    a node that completes no edge through it; the sets that no node extends
    are the maximal ones.  Costs about the number of independent sets times
    t, so it reaches benchmark sizes (t = 24) where the double loop over all
    2^t subsets does not.
    """
    t = h.node_count
    through = [[] for _ in range(t)]
    for e in h.edges:
        m = sum(1 << (v - 1) for v in e)
        for v in e:
            through[v - 1].append(m)
    grown_over = [v for v in range(t) if through[v]]
    loose = sum(1 << v for v in range(t) if not through[v])
    independent = [0]
    for s in independent:  # grows as it is read
        for v in grown_over:
            grown = s | 1 << v
            if 1 << v > s and not any(e & grown == e for e in through[v]):
                independent.append(grown)
    extendable = {s ^ 1 << v for s in independent for v in grown_over if s >> v & 1}
    maximal = [frozenset(v + 1 for v in range(t) if (s | loose) >> v & 1)
               for s in independent if s not in extendable]
    return sorted(maximal, key=lambda s: tuple(sorted(s)))


def reference_cover_search(cand_masks, full, limit):
    """The first cover of at most limit parts, by a search that cuts nothing.

    The oracle for `cover._cover_search`: it branches on the lowest
    uncovered node over the candidates holding it, by descending size and
    in input order within a size, to the depth limit, with no size bound,
    no failure memo and no co-occurrence cut.  A cover is named by input
    indices; None if there is none within the limit.
    """
    if full == 0:
        return ()
    order = sorted(range(len(cand_masks)), key=lambda i: -cand_masks[i].bit_count())

    def dfs(covered, chosen):
        if covered == full:
            return chosen
        if len(chosen) == limit:
            return None
        uncovered = full & ~covered
        lowest = uncovered & -uncovered
        for i in order:
            if cand_masks[i] & lowest:
                hit = dfs(covered | cand_masks[i], chosen + (i,))
                if hit is not None:
                    return hit
        return None

    return dfs(0, ())


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


def cycle_antichain(rng: random.Random, t: int) -> Hypergraph:
    """Pairs from three random Hamiltonian cycles, plus t // 2 random triples.

    Built like the cover-search benchmark's graphs; a triple holding a pair
    is dropped, so the edges form an antichain.
    """
    nodes = range(1, t + 1)
    edges = set()
    for _ in range(3):
        cycle = rng.sample(nodes, t)
        edges.update(frozenset((cycle[i - 1], cycle[i])) for i in range(t))
    triples = set()
    while len(triples) < t // 2:
        triples.add(frozenset(rng.sample(nodes, 3)))
    edges.update(e for e in triples if not any(p <= e for p in edges))
    return Hypergraph(t, edges)


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


def reference_anchor_certificate(li, anchor, game):
    """The anchor exchange by a sort and a min over the members: the oracle.

    Drops the two members of li - anchor that come first by (population,
    index) and takes in the member of anchor - li that comes first by
    (-population, index).  Returns the certificate, or raises the builder's
    error when it does not verify.
    """
    pops = game.table.populations
    kept = sorted((li - anchor).members, key=lambda m: (pops[m], m))[2:]
    one_in = min((anchor - li).members, key=lambda m: (-pops[m], m))
    moved = Coalition.from_indices(kept + [one_in], li.n)
    w1 = moved | (li & anchor)
    w2 = (li | anchor) - moved
    cert = BalanceCertificate(losing=(li, anchor), winning=(w1, w2))
    if not verify_balance(cert, game):
        raise CertificateError(f"exchange between {li} and the anchor leaves a losing coalition")
    return cert


def checked_first_pair_certificate(li, lj, game):
    """`build_pair_certificate` with every rule check before the construction.

    The reference for the builder, which classifies li and lj only when no
    certificate comes out: same checks, same order, same messages.
    """
    game = instance(game, EuGame, N_MEMBERS, "game")
    if li == lj:
        raise ValueError("pair certificate needs two distinct losing coalitions")
    for c, name in ((li, "first"), (lj, "second")):
        winning, rule55, rule65, _, _ = game._rules(c)
        if winning:
            raise ValueError(f"{name} coalition {c} is winning")
        if not rule55 or rule65:
            raise ValueError(
                f"{name} coalition {c} must pass the member rule and fail the population rule")
    a, b = li.mask, lj.mask
    sym = a ^ b
    size = max(0, OUTRIGHT_QUOTA - (a & b).bit_count())
    if size > sym.bit_count():
        raise CertificateError(f"symmetric difference of {li} and {lj} has only "
                               f"{sym.bit_count()} members, need {size}")
    cheapest = sym ^ _first(reversed(game.table.cheapest_first), sym, sym.bit_count() - size)
    cert = _certificate((li, lj), _split(N_MEMBERS, a, b, cheapest))
    if not verify_balance(cert, game):
        raise CertificateError(
            f"no transfer of {size} members makes both halves of {li}, {lj} winning")
    return cert


def checked_first_anchor_certificate(li, game):
    """`build_anchor_certificate` with every rule check before the exchange."""
    game = instance(game, EuGame, N_MEMBERS, "game")
    anchor = LOSING_FAMILY[ANCHOR_LABEL - 1]
    if li == anchor:
        raise ValueError("anchor certificate needs a coalition distinct from the anchor")
    for c in (li, anchor):
        if game._rules(c)[0]:
            raise ValueError(f"coalition {c} is winning")
    outside = li.mask & ~anchor.mask
    if outside.bit_count() < 2:
        raise ValueError(f"{li} has fewer than two members outside the anchor {anchor}")
    incoming = anchor.mask & ~li.mask
    if not incoming:
        raise ValueError(f"the anchor {anchor} has no member outside {li}")
    order = game.table.cheapest_first
    dropped = _first(order, outside, 2)
    candidates = [(pop, bit) for pop, bit in order if bit & incoming]
    top = candidates[-1][0]
    one_in = next(bit for pop, bit in candidates if pop == top)
    cert = _certificate((li, anchor), _split(
        N_MEMBERS, li.mask, anchor.mask, (outside ^ dropped) | one_in))
    if not verify_balance(cert, game):
        raise CertificateError(f"exchange between {li} and the anchor leaves a losing coalition")
    return cert


def brute_inclusion_minimal(masks):
    """Sorted by size; keep each mask with no kept one inside it."""
    out = []
    for m in sorted(masks, key=lambda m: bin(m).count("1")):
        if not any(o & ~m == 0 for o in out):
            out.append(m)
    return out


def brute_inclusion_maximal(masks):
    """Sorted by size, largest first; keep each mask inside no kept one."""
    out = []
    for m in sorted(masks, key=lambda m: bin(m).count("1"), reverse=True):
        if not any(m & ~o == 0 for o in out):
            out.append(m)
    return out


def sylvester_minor(order):
    """Sylvester's Hadamard matrix of the given order, a power of 2, without
    its first row and column.

    Its determinant is order**(order/2 - 1) in absolute value: 2**75 at
    order 32 and 2**186 at order 64, so a simplex whose basis takes in the
    whole matrix holds entries that need two and four 64-bit words.
    """
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return [row[1:] for row in h[1:]]


def as_masks(rows):
    """Each row of {-1, 0, 1} entries as the (plus, minus) masks `simplex` reads."""
    return [(sum(1 << j for j, a in enumerate(row) if a == 1),
             sum(1 << j for j, a in enumerate(row) if a == -1)) for row in rows]


def as_entries(rows, k):
    """The rows of (plus, minus) masks over k columns as lists of entries."""
    return [[(plus >> j & 1) - (minus >> j & 1) for j in range(k)] for plus, minus in rows]


# A {-1, 0, 1} system whose pivots reach |p| != D with an odd D > 1, so
# that `simplex._solve` runs the update that divides by D's odd part: Phase
# I with ODD_PIVOT_RHS pivots at D = 3 onto |p| = 5, then at D = 5 onto 1;
# Phase II with ODD_PIVOT_PHASE_TWO at D = 3 onto 1.  Found by a seeded
# search over small random systems with a scratch copy of the solver that
# recorded (D, |p|) each time that division ran; no such counter is kept
# in the solver itself.
ODD_PIVOT_ROWS = [[1, 1, 1], [0, 1, -1], [1, -1, 0], [-1, 0, -1]]
ODD_PIVOT_RHS = [1, 0, 0, -1]
ODD_PIVOT_PHASE_TWO = ([1, 0, 0, 1], [1, 0, 2])  # (rhs, objective)


def reference_phase_one(rows, rhs):
    """List-of-rows reference for `simplex.phase_one`.

    The dictionary is a list of row lists, and a pivot rebuilds every row;
    the packed-column solver must return the identical triple.

    Chvatal's auxiliary problem for rows . x <= rhs, x >= 0.

    Some rhs must be negative.  Returns (True, x, D) with a feasible vertex
    x / D, or (False, y, D) with multipliers y / D >= 0 over the rows such
    that y . rows >= 0 componentwise and y . rhs < 0.  Variable ids: 0 is
    x0, 1..k the columns of `rows`, k+1+i the slack of row i; dictionary
    row i reads basic[i] = (T[i][0] + sum_j T[i][j] * cols[j]) / D.
    """
    k = len(rows[0])
    cols = [-1] + list(range(k + 1))
    basic = list(range(k + 1, k + 1 + len(rows)))
    table = [[b, 1] + [-a for a in row] for row, b in zip(rows, rhs)]
    obj = [0, -1] + [0] * k
    denom = 1
    r, s = min(range(len(rows)), key=rhs.__getitem__), 1
    while True:
        prow = table[r]
        p = prow[s]
        sign = 1 if p > 0 else -1
        pa = abs(p)
        for i, row in enumerate(table + [obj]):
            if i == r:
                continue
            f = row[s]
            if f:
                fs = f * sign
                new = [(x * pa - fs * y) // denom for x, y in zip(row, prow)]
                new[s] = fs
                row[:] = new
            elif pa != denom:
                row[:] = [x * pa // denom for x in row]
        new = [-sign * y for y in prow]
        new[s] = sign * denom
        table[r] = new
        denom = pa
        basic[r], cols[s] = cols[s], basic[r]

        # The auxiliary objective -x0 is never positive, so 0 is optimal.
        if obj[0] == 0:
            x = [0] * k
            for i, v in enumerate(basic):
                if 1 <= v <= k:
                    x[v - 1] = table[i][0]
            return True, x, denom
        entering = [(cols[j], j) for j in range(1, k + 2) if obj[j] > 0]
        if not entering:
            y = [0] * len(rows)
            for j in range(1, k + 2):
                if cols[j] > k:
                    y[cols[j] - k - 1] = -obj[j]
            return False, y, denom
        s = min(entering)[1]
        r = -1
        for i, row in enumerate(table):
            if row[s] >= 0:
                continue
            if r < 0:
                r = i
                continue
            # ratio row[0] / -row[s] against the best one, cross-multiplied
            lhs, best = row[0] * -table[r][s], table[r][0] * -row[s]
            if lhs < best or (lhs == best and basic[i] < basic[r]):
                r = i
        if r < 0:
            raise RuntimeError("auxiliary problem unbounded")


def reference_phase_two(rows, rhs, objective):
    """Dense `Fraction` tableau reference for `simplex.phase_two`.

    Maximizes objective . x subject to rows . x <= rhs, x >= 0, from the
    origin (every rhs >= 0).  Ids: 0..k-1 the columns, k+i the slack of row
    i; Bland's rule enters the smallest id with a positive reduced cost and
    breaks ratio ties toward the smallest basic id.  Row i of the tableau
    reads basic[i] = b[i] + sum_j a[i][j] * nonbasic[j], the objective
    z + sum_j c[j] * nonbasic[j].  Returns (x, y, z) as Fractions, with y
    the multipliers of the rows; raises RuntimeError when unbounded.
    """
    m, k = len(rows), len(objective)
    a = [[Fraction(-v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    c = [Fraction(v) for v in objective]
    z = Fraction(0)
    nonbasic, basic = list(range(k)), list(range(k, k + m))
    while True:
        entering = [(nonbasic[j], j) for j in range(k) if c[j] > 0]
        if not entering:
            break
        s = min(entering)[1]
        r = None
        for i in range(m):
            if a[i][s] < 0:
                ratio = b[i] / -a[i][s]
                if r is None or ratio < best or (ratio == best and basic[i] < basic[r]):
                    r, best = i, ratio
        if r is None:
            raise RuntimeError("objective unbounded")
        # Solve row r for the entering variable, then substitute it.
        p = a[r][s]
        row_b = -b[r] / p
        row = [-v / p for v in a[r]]
        row[s] = 1 / p
        for i in range(m):
            f = a[i][s]
            if i != r and f:
                b[i] += f * row_b
                a[i] = [v + f * w for v, w in zip(a[i], row)]
                a[i][s] = f * row[s]
        f = c[s]
        z += f * row_b
        c = [v + f * w for v, w in zip(c, row)]
        c[s] = f * row[s]
        a[r], b[r] = row, row_b
        basic[r], nonbasic[s] = nonbasic[s], basic[r]
    x = [Fraction(0)] * k
    for i, v in enumerate(basic):
        if v < k:
            x[v] = b[i]
    y = [Fraction(0)] * m
    for j, v in enumerate(nonbasic):
        if v >= k:
            y[v - k] = -c[j]
    return x, y, z
