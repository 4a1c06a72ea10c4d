"""Hypergraph cover machinery for dimension lower bounds.

Nodes stand for losing coalitions; each hyperedge marks a set of them that no
single weighted game in a representation can declare losing together.  A
k-cover is a choice of k node subsets that jointly cover every node while no
subset swallows a whole hyperedge; a game of dimension at most k always
admits one, so refuting every k-cover proves dimension >= k + 1.

Part-enlargement lemma: every part of a cover can be enlarged to an
inclusion-wise maximal independent set without breaking either cover
condition (adding nodes only grows the union, and independence is exactly
condition 2).  Minimum covers therefore need only maximal independent sets
as candidate parts; `min_cover` relies on this and the test suite checks it.

Covers are refuted two independent ways: exhaustive bounded search over the
maximal independent sets, and rational node weights, derived by exact LP,
that bound every candidate part by 1 while the total weight exceeds the
number of parts available.

Masks are written from node lists, read and ordered by `_packed`.  A
`Hypergraph` packs its edges as it filters them into an antichain;
`is_independent` and `min_cover` test against that one packed set.  Its
maximal independent sets are computed once, as node masks, on first
request, and kept on it with the frozensets derived from those masks: the
enumeration, the exhaustive search and the dual derivation and check all
read the same tuples.  So is one cover search over those sets, with the
answer it gave for each limit: `no_k_cover` always reads it, and
`min_cover` does when its candidates are the tuple
`enumerate_maximal_independent` returned.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import compress

from ._packed import PackedMasks, canonical_key, mask_of, members
from ._record import Frozen
from .simplex import phase_two

NODE_GUARD = 24


class Hypergraph(Frozen):
    """Edges over nodes 1..node_count; an antichain of sets of size >= 2.

    Construction canonicalizes: edges are deduplicated, sorted by size then
    members, and an edge containing another is dropped with a warning (the
    smaller edge already forbids every part that would contain the larger).
    The node count and every node must be `int`s; a bool or any other value
    raises, so that `hypergraph_to_json` writes only what
    `hypergraph_from_json` reads back.  So does a node given twice in one
    edge.

    Node v is bit v - 1 of a mask.  The edge masks are kept from
    construction, as a tuple and packed, and the maximal independent sets
    are enumerated once, as masks, on first request; their frozensets are
    derived from those masks, and the cover search over them is built on
    first use.  All live in the instance `__dict__` but are no fields, so
    ==, hash and repr do not see them.
    """

    node_count: int
    edges: tuple[frozenset[int], ...]

    def __init__(self, node_count: int, edges: Iterable[Iterable[int]]):
        if type(node_count) is not int:
            raise ValueError(f"node_count must be an int, not {node_count!r}")
        if node_count < 0:
            raise ValueError("node_count must be nonnegative")
        canonical: dict[int, tuple[int, ...]] = {}  # by mask
        for e in edges:
            e = tuple(e)
            if len(e) < 2:
                raise ValueError(f"edge {sorted(e)} has fewer than two nodes")
            canonical.setdefault(mask_of(e, node_count, "edge node"), e)
        # In size order, an edge contains an earlier edge, kept or dropped,
        # iff it contains a kept one: a dropped edge contains a kept one.
        packed = PackedMasks(node_count)
        kept = []
        for m in sorted(canonical, key=lambda m: canonical_key(m, node_count)):
            if packed.add_minimal(m):
                kept.append(m)
            else:
                warnings.warn(
                    f"dropping redundant edge {sorted(canonical[m])}: it contains a smaller edge",
                    stacklevel=2,
                )
        super().__init__(node_count, tuple(frozenset(canonical[m]) for m in kept))
        vars(self).update(_edge_masks=tuple(kept), _packed_edges=packed)

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(range(1, self.node_count + 1))

    # Cached in the instance __dict__; an exception is not cached.
    @functools.cached_property
    def _maximal_masks(self) -> tuple[int, ...]:
        return _maximal_independent(self)

    @functools.cached_property
    def _maximal_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, map(members, self._maximal_masks)))

    @functools.cached_property
    def _cover(self) -> Callable[[int], tuple[int, ...] | None]:
        return _ordered_search(self._maximal_masks, self.node_count)


def is_independent(nodes: Iterable[int], h: Hypergraph) -> bool:
    """True iff no edge of h lies inside the given node set."""
    return not h._packed_edges.any_inside(mask_of(nodes, h.node_count, "node"))


def enumerate_maximal_independent(h: Hypergraph) -> tuple[frozenset[int], ...]:
    """All inclusion-wise maximal independent sets, sorted by member tuple.

    Computed once per hypergraph and cached on it, so later calls return the
    identical tuple.  The depth-first search in `_maximal_independent` prunes
    a branch as soon as it cannot end in a maximal set, so every leaf it
    reaches is one.  Guarded at 24 nodes.
    """
    return h._maximal_sets


def _maximal_independent(h: Hypergraph) -> tuple[int, ...]:
    """Masks of the maximal independent sets, by depth-first search.

    The search runs over the nodes in order, each included first, then
    excluded.  The room is the chosen nodes plus the undecided nodes that no
    chosen pair neighbour rules out.  A node is included only if no edge
    through it has all its other nodes chosen.  An excluded node must keep an
    edge whose other nodes all lie in the room, or no leaf below can be
    maximal; so whenever the room shrinks (an inclusion rules out its pair
    neighbours, an exclusion drops the node itself), the excluded nodes that
    share an edge with what left are checked again.  A ruled-out node is
    skipped: its chosen pair neighbour blocks it for good.  At a leaf the room
    is the chosen set, so every leaf is a maximal independent set, and each
    one is reached by the branch that includes exactly its nodes.  Two maximal
    sets first differ at a node one includes and the other excludes; the
    including one comes first and has the smaller member tuple, since the
    other is no subset of it, so the sets come out sorted.
    """
    t = h.node_count
    if t > NODE_GUARD:
        raise ValueError(
            f"maximal-set enumeration limited to {NODE_GUARD} nodes; got {t}"
        )
    pairs = [0] * t   # pair-edge neighbours of each node
    rests: list[list[int]] = [[] for _ in range(t)]  # e - {v} for larger edges
    touch = [0] * t   # every node sharing an edge with v
    for em in h._edge_masks:
        m = em
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            rest = em ^ low
            touch[v] |= rest
            if rest & (rest - 1):
                rests[v].append(rest)
            else:
                pairs[v] |= rest
    near = [0] * t    # nodes sharing an edge with a pair neighbour of v
    for v in range(t):
        m = pairs[v]
        while m:
            low = m & -m
            m ^= low
            near[v] |= touch[low.bit_length() - 1]

    # A remainder r lies inside a set s iff r & ~s is 0, so "no remainder
    # fits" is all(map((~s).__and__, ...)), with no Python frame per edge.
    def blockable(nodes: int, room: int) -> bool:
        # each node has an edge whose other nodes all lie in `room`
        outside = ~room
        while nodes:
            low = nodes & -nodes
            nodes ^= low
            v = low.bit_length() - 1
            if not pairs[v] & room and all(map(outside.__and__, rests[v])):
                return False
        return True

    results: list[int] = []

    def dfs(chosen: int, free: int, excluded: int) -> None:
        # free: the undecided nodes that no chosen pair neighbour rules out
        if not free:
            results.append(chosen)
            return
        bit = free & -free
        i = bit.bit_length() - 1
        rest = free ^ bit
        # i is free, so only a larger edge through i can complete in chosen
        if all(map((~chosen).__and__, rests[i])):
            lost = pairs[i] & rest
            if not lost or blockable(excluded & near[i], chosen | bit | (rest ^ lost)):
                dfs(chosen | bit, rest ^ lost, excluded)
        if blockable((excluded & touch[i]) | bit, chosen | rest):
            dfs(chosen, rest, excluded | bit)

    dfs(0, (1 << t) - 1, 0)
    return tuple(results)


class CoverSolution(Frozen):
    """Parts of a cover: node subsets that jointly cover every node."""

    parts: tuple[frozenset[int], ...]

    def __init__(self, parts: Iterable[Iterable[int]]):
        super().__init__(
            tuple(sorted((frozenset(p) for p in parts), key=lambda p: tuple(sorted(p)))))

    @property
    def k(self) -> int:
        return len(self.parts)

    def verify(self, h: Hypergraph) -> bool:
        return (frozenset().union(*self.parts) == h.nodes
                and all(is_independent(p, h) for p in self.parts))


def _cover_search(cand_masks: Sequence[int], full: int
                  ) -> Callable[[int], tuple[int, ...] | None]:
    """Bounded cover search over one candidate list, for any limit.

    search(limit) gives the candidate indices of the first cover of at most
    limit parts in deterministic search order, or None.  It branches on the
    lowest uncovered node over the candidates holding it, in list order; any
    cover made of candidates survives some branch, so None is an exhaustive
    refutation of covers within the limit.

    A branch is cut when its parts left times the largest candidate size
    falls short of the nodes it must still cover.  A branch that fails with
    d parts left proves that no d candidates cover what it leaves, and so
    neither do fewer, under any limit; `failed` keeps, per uncovered mask,
    the most parts known not to suffice, and a node reached again with no
    more parts left is cut at once.  With one part left, the first holder
    of the lowest uncovered node that covers the rest is found by one scan
    of the holders' complemented masks; with two left, the holders of that
    node are tried in a loop, each finished by that scan.  Only subtrees without a cover
    are cut, and the candidates are tried in the same order as by one frame
    per candidate, so the cover found is the same.

    The largest size, each node's holders (indices and complemented masks)
    and the memo are built once, for every limit.
    `_ordered_search` runs it over candidates in (-size, member tuple)
    order, and each `Hypergraph` keeps one of those over its maximal sets,
    so `min_cover` and `no_k_cover` on it share the holders and every
    answer.
    """
    max_size = max(map(int.bit_count, cand_masks), default=0)
    by_node: dict[int, tuple[list[int], list[int]]] = {}
    failed: dict[int, int] = {}

    def holders(need: int) -> tuple[list[int], list[int]]:
        low = need & -need
        if low not in by_node:
            held = list(map(low.__and__, cand_masks))
            by_node[low] = (list(compress(range(len(cand_masks)), held)),
                            [full ^ m for m in compress(cand_masks, held)])
        return by_node[low]

    def last(need: int) -> int | None:
        index, lacks = holders(need)
        try:
            return index[operator.indexOf(map(need.__and__, lacks), 0)]
        except ValueError:
            return None

    def search(limit: int) -> tuple[int, ...] | None:
        if full == 0:
            return ()
        if limit <= 1:
            i = last(full) if limit == 1 else None
            return None if i is None else (i,)

        def dfs(need: int, left: int) -> tuple[int, ...] | None:
            # need: the nodes still uncovered, never 0; left >= 2
            if left * max_size < need.bit_count() or failed.get(need, 0) >= left:
                return None
            for i, lack in zip(*holders(need)):
                rest = need & lack
                if not rest:
                    return (i,)
                if left > 2:
                    hit = dfs(rest, left - 1)
                    if hit is not None:
                        return (i,) + hit
                elif rest.bit_count() <= max_size:
                    j = last(rest)
                    if j is not None:
                        return (i, j)
            failed[need] = left
            return None

        return dfs(full, limit)

    return search


def _ordered_search(masks: Sequence[int], t: int
                    ) -> Callable[[int], tuple[int, ...] | None]:
    """`_cover_search` over the t-bit masks by descending size, answered in input indices.

    The masks of each size must come in member-tuple order, as a
    hypergraph's maximal masks are enumerated, so a stable sort on size
    alone gives the (-size, member tuple) order.  Each limit is searched
    once; its answer, None for a refuted limit or the indices of the cover
    found, is kept for the next call.
    """
    sizes = list(map(int.bit_count, masks))
    order = sorted(range(len(masks)), key=sizes.__getitem__, reverse=True)
    search = _cover_search([masks[i] for i in order], (1 << t) - 1)
    answers: dict[int, tuple[int, ...] | None] = {}

    def answer(limit: int) -> tuple[int, ...] | None:
        if limit not in answers:
            hit = search(limit)
            answers[limit] = None if hit is None else tuple(map(order.__getitem__, hit))
        return answers[limit]

    return answer


def min_cover(h: Hypergraph, candidates: Sequence[Iterable[int]]) -> CoverSolution:
    """Smallest cover of all nodes by the given independent candidate parts.

    Exhaustive and deterministic: candidates are ordered by descending size
    (ties by members) and the first minimum cover in branch order is
    returned.  Raises if a candidate is dependent or the candidates cannot
    jointly cover the nodes.

    When the candidates are the very tuple `enumerate_maximal_independent(h)`
    returned, already cached on h, they are independent and cover the nodes
    by construction: h's own cover search answers, and the limits it has
    already searched are not searched again.  Any other candidates are
    checked in input order, each one's nodes before its edges: its nodes by
    `mask_of`, then its mask against the hypergraph's packed edges by one
    test.  They are then sorted by `canonical_key` once, on their masks,
    and searched by a fresh `_ordered_search`.  Either way the limit
    deepens from 1 (see `_cover_search`), and the enumeration is never
    started here, so explicit candidates above its node guard still run.
    """
    if "_maximal_sets" in h.__dict__ and candidates is h._maximal_sets:
        cands = candidates
        search = h._cover
    else:
        t = h.node_count
        edges = h._packed_edges
        cands = []
        masks = []
        for c in map(tuple, candidates):
            m = mask_of(c, t, "node")
            if edges.any_inside(m):
                raise ValueError(f"candidate part {sorted(c)} contains an edge")
            cands.append(frozenset(c))
            masks.append(m)
        if functools.reduce(int.__or__, masks, 0) != (1 << t) - 1:
            raise ValueError("candidates do not jointly cover the nodes; no cover exists")
        order = sorted(range(len(masks)), key=lambda i: canonical_key(masks[i], t))
        cands = [cands[i] for i in order]
        search = _ordered_search([masks[i] for i in order], t)
    limit = 0
    while True:
        limit += 1
        hit = search(limit)
        if hit is not None:
            solution = CoverSolution(map(cands.__getitem__, hit))
            assert solution.verify(h)
            return solution


class DualWeightCertificate(Frozen):
    """Rational node weights refuting any cover with `bound` parts.

    Every maximal independent set, the optional excluded part aside, must
    weigh at most 1.  If the total weight exceeds the bound, no cover avoiding
    the excluded part can exist; with an excluded part of weight zero the
    total need only exceed bound - 1, refuting the covers that use it.
    """

    weights: tuple[Fraction, ...]
    bound: int
    excluded_part: frozenset[int] | None

    def __init__(self, weights: Sequence[Fraction | int | str], bound: int,
                 excluded_part: Iterable[int] | None = None):
        super().__init__(tuple(Fraction(w) for w in weights), bound,
                         None if excluded_part is None else frozenset(excluded_part))

    def weight_of(self, nodes: Iterable[int]) -> Fraction:
        nodes = tuple(nodes)
        mask_of(nodes, len(self.weights), "node")
        return sum((self.weights[v - 1] for v in nodes), Fraction(0))

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


def verify_dual_certificate(cert: DualWeightCertificate, h: Hypergraph) -> bool:
    """Check a dual weighting against the hypergraph's maximal independent sets.

    The weights are scaled once to integer numerators over the least common
    multiple of their denominators, so each set's weight is an integer sum
    compared with that scale, and no `Fraction` is added per set.
    """
    weights = cert.weights
    if len(weights) != h.node_count:
        raise ValueError(f"expected {h.node_count} weights, got {len(weights)}")
    for i, w in enumerate(weights):
        if w < 0:
            raise ValueError(f"negative weight {w} at node {i + 1}")
    maximal = enumerate_maximal_independent(h)
    excluded = cert.excluded_part
    if excluded is not None and excluded not in maximal:
        raise ValueError(
            f"excluded part {sorted(excluded)} is not a maximal independent set"
        )
    scale = math.lcm(*(w.denominator for w in weights))
    # node v's numerator is scaled[v]
    scaled = [0] + [w.numerator * (scale // w.denominator) for w in weights]
    at = scaled.__getitem__
    for s in maximal:
        if sum(map(at, s)) > scale and s != excluded:
            return False
    threshold = cert.bound
    if excluded is not None and not any(map(at, excluded)):
        # A cover using the excluded part spends one of its parts for free,
        # so the remaining bound - 1 parts must carry the whole weight.
        threshold = cert.bound - 1
    return sum(scaled) > threshold * scale


def dual_refutation(h: Hypergraph, k: int) -> tuple[DualWeightCertificate, ...]:
    """Verified dual weightings refuting every k-cover of h, or () if none found.

    The exact LP maximizes the total node weight with every maximal
    independent set weighing at most 1; its optimum is the fractional cover
    number.  Above k, that one weighting refutes every k-cover.  Otherwise
    each maximal set P in the support of the optimal fractional cover is
    tried in enumeration order: the LP without P's bound must exceed k
    (covers avoiding P), the LP with P's nodes at weight 0 must exceed k - 1
    (covers using P).  Other sets cannot pass: the fractional cover avoids a
    set outside its support, so the first LP stays at most k; and it puts at
    least 1 on a P holding a node in no other maximal set, so the second
    stays at most k - 1 (the first would be unbounded).
    """
    if k < 1:
        raise ValueError("k must be positive")
    maximal = enumerate_maximal_independent(h)
    masks = h._maximal_masks
    t = h.node_count

    def weigh(nodes: list[int], bounds: Sequence[int]) -> tuple[list[Fraction], list[int], Fraction]:
        # nodes are bit positions; every mask in bounds weighs at most 1.
        # The LP weighs only the given nodes, so when some are left out the
        # masks are read over those nodes' positions in the list.
        if len(nodes) < t:
            bounds = [sum(1 << i for i, v in enumerate(nodes) if m >> v & 1) for m in bounds]
        x, y, denom, value = phase_two([(m, 0) for m in bounds], [1] * len(bounds),
                                       [1] * len(nodes))
        by_node = dict(zip(nodes, x))
        return ([Fraction(by_node.get(v, 0), denom) for v in range(t)], y,
                Fraction(value, denom))

    def checked(*certs: DualWeightCertificate) -> tuple[DualWeightCertificate, ...]:
        if not all(verify_dual_certificate(c, h) for c in certs):
            raise RuntimeError("a derived dual certificate fails verification")
        return certs

    every = list(range(t))
    weights, support, total = weigh(every, masks)
    if total > k:
        return checked(DualWeightCertificate(weights, k))
    for i, part in enumerate(maximal):
        if not support[i]:
            continue
        others = masks[:i] + masks[i + 1:]
        if masks[i] & ~functools.reduce(int.__or__, others, 0):
            continue
        avoid, _, total = weigh(every, others)
        if total <= k:
            continue
        use, _, total = weigh([v for v in every if not masks[i] >> v & 1], others)
        if total > k - 1:
            return checked(DualWeightCertificate(avoid, k, part),
                           DualWeightCertificate(use, k, part))
    return ()


class Refutation(Frozen):
    """Outcome of a k-cover search: either refuted or a counterexample cover."""

    k: int
    exhaustive: bool
    counterexample: CoverSolution | None

    @property
    def refuted(self) -> bool:
        return self.counterexample is None


def no_k_cover(h: Hypergraph, k: int) -> Refutation:
    """Refute every k-cover of h by exhaustive search, or return one it finds.

    The search is h's own, over its maximal sets, and keeps its answer for
    each limit: a limit that `min_cover` or an earlier call already
    searched is not searched again.
    """
    if k < 1:
        raise ValueError("k must be positive")
    maximal = enumerate_maximal_independent(h)
    hit = h._cover(k)
    if hit is None:
        return Refutation(k=k, exhaustive=True, counterexample=None)
    solution = CoverSolution(map(maximal.__getitem__, hit))
    assert solution.verify(h)
    return Refutation(k=k, exhaustive=False, counterexample=solution)


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"nodes": h.node_count, "edges": [sorted(e) for e in h.edges]}


def hypergraph_from_json(obj: dict) -> Hypergraph:
    if not isinstance(obj, dict) or "nodes" not in obj or "edges" not in obj:
        raise ValueError("hypergraph description needs 'nodes' and 'edges'")
    if isinstance(obj["nodes"], bool) or not isinstance(obj["nodes"], int):
        raise ValueError("'nodes' must be an integer")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and all(type(v) is int for v in e) for e in edges
    ):
        raise ValueError("'edges' must be a list of node index lists")
    return Hypergraph(obj["nodes"], edges)
