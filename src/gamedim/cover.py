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

The maximal independent sets of a `Hypergraph` are computed once, on first
request, and kept on it: the enumeration, the exhaustive search and the dual
derivation and check all read the same tuple.
"""

from __future__ import annotations

import functools
import warnings
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._record import Frozen
from .simplex import phase_two

NODE_GUARD = 24


def _mask_of(nodes: Iterable[int]) -> int:
    mask = 0
    for v in nodes:
        mask |= 1 << (v - 1)
    return mask


def _set_of(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class Hypergraph(Frozen):
    """Edges over nodes 1..node_count; an antichain of sets of size >= 2.

    Construction canonicalizes: edges are deduplicated, sorted by size then
    members, and an edge containing another is dropped with a warning (the
    smaller edge already forbids every part that would contain the larger).
    """

    _fields = ("node_count", "edges")
    node_count: int
    edges: tuple[frozenset[int], ...]

    def __init__(self, node_count: int, edges: Iterable[Iterable[int]]):
        if node_count < 0:
            raise ValueError("node_count must be nonnegative")
        canonical = set()
        for e in edges:
            e = frozenset(e)
            if len(e) < 2:
                raise ValueError(f"edge {sorted(e)} has fewer than two nodes")
            for v in e:
                if not 1 <= v <= node_count:
                    raise ValueError(f"edge node {v} out of range 1..{node_count}")
            canonical.add(e)
        # Only a smaller edge can lie inside e, and m lies inside e iff
        # m & ~e is 0; the edges come in size order, so `smaller` holds the
        # masks of every edge of smaller size, whether kept or dropped.
        kept = []
        smaller: list[int] = []
        same_size: list[int] = []
        size = 0
        for e in sorted(canonical, key=lambda e: (len(e), tuple(sorted(e)))):
            if len(e) > size:
                smaller += same_size
                same_size = []
                size = len(e)
            em = _mask_of(e)
            same_size.append(em)
            if not all(map((~em).__and__, smaller)):
                warnings.warn(
                    f"dropping redundant edge {sorted(e)}: it contains a smaller edge",
                    stacklevel=2,
                )
                continue
            kept.append(e)
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "edges", tuple(kept))

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(range(1, self.node_count + 1))

    def _edge_masks(self) -> tuple[int, ...]:
        return tuple(_mask_of(e) for e in self.edges)

    @functools.cached_property
    def _maximal_sets(self) -> tuple[frozenset[int], ...]:
        # Kept in the instance __dict__, outside `_fields`, so ==, hash and
        # repr do not see it; an exception is not cached.
        return _maximal_independent(self)


def _checked_mask(nodes: frozenset[int], h: Hypergraph) -> int:
    """Mask of the nodes; raises on a node outside 1..node_count."""
    mask = 0
    for v in nodes:
        if not 1 <= v <= h.node_count:
            raise ValueError(f"node {v} out of range 1..{h.node_count}")
        mask |= 1 << (v - 1)
    return mask


def is_independent(nodes: Iterable[int], h: Hypergraph) -> bool:
    """True iff no edge of h lies inside the given node set."""
    s = frozenset(nodes)
    _checked_mask(s, h)
    return not any(e <= s for e in h.edges)


def enumerate_maximal_independent(h: Hypergraph) -> tuple[frozenset[int], ...]:
    """All inclusion-wise maximal independent sets, sorted by member tuple.

    Computed once per hypergraph and cached on it, so later calls return the
    identical tuple.  The depth-first search in `_maximal_independent` prunes
    a branch as soon as it cannot end in a maximal set, so every leaf it
    reaches is one.  Guarded at 24 nodes.
    """
    return h._maximal_sets


def _maximal_independent(h: Hypergraph) -> tuple[frozenset[int], ...]:
    """Depth-first over the nodes in order, each included first, then excluded.

    The room is the chosen nodes plus the undecided nodes that no chosen pair
    neighbour rules out.  A node is included only if no edge through it has
    all its other nodes chosen.  An excluded node must keep an edge whose
    other nodes all lie in the room, or no leaf below can be maximal; so
    whenever the room shrinks (an inclusion rules out its pair neighbours,
    an exclusion drops the node itself), the excluded nodes that share an
    edge with what left are checked again.  A ruled-out node is skipped: its
    chosen pair neighbour blocks it for good.  At a leaf the room is the
    chosen set, so every leaf is a maximal independent set, and each one is
    reached by the branch that includes exactly its nodes.  Two maximal sets
    first differ at a node one includes and the other excludes; the
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
    for em in h._edge_masks():
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
    return tuple(_set_of(m) for m in results)


class CoverSolution(Frozen):
    """Parts of a cover: node subsets that jointly cover every node."""

    _fields = ("parts",)
    parts: tuple[frozenset[int], ...]

    def __init__(self, parts: Iterable[Iterable[int]]):
        object.__setattr__(
            self,
            "parts",
            tuple(sorted((frozenset(p) for p in parts), key=lambda p: tuple(sorted(p)))),
        )

    @property
    def k(self) -> int:
        return len(self.parts)

    def verify(self, h: Hypergraph) -> bool:
        return (frozenset().union(*self.parts) == h.nodes
                and all(is_independent(p, h) for p in self.parts))


def _bounded_cover(cand_masks: Sequence[int], full: int, limit: int) -> tuple[int, ...] | None:
    """First cover of <= limit candidate parts in deterministic search order.

    Branches on the lowest uncovered node over the candidates containing it;
    any cover made of candidates survives some branch, so a None result is an
    exhaustive refutation of covers within the limit.  A branch that fails
    with d parts left proves that no d candidates cover what its covered
    mask leaves, and so neither do fewer; `failed` keeps, per covered mask,
    the most parts known not to suffice, and a node reached again with no
    more parts left is cut at once.  Only subtrees without a cover are cut,
    so the cover found is the same as without the memo.
    """
    if full == 0:
        return ()
    max_size = max((m.bit_count() for m in cand_masks), default=0)
    by_node: dict[int, list[int]] = {}
    failed: dict[int, int] = {}

    def dfs(covered: int, chosen: tuple[int, ...]) -> tuple[int, ...] | None:
        if covered == full:
            return chosen
        depth_left = limit - len(chosen)
        if depth_left <= 0:
            return None
        uncovered = (full & ~covered).bit_count()
        if depth_left * max_size < uncovered or failed.get(covered, 0) >= depth_left:
            return None
        lowest = (full & ~covered) & -(full & ~covered)
        v = lowest.bit_length() - 1
        if v not in by_node:
            by_node[v] = [i for i, m in enumerate(cand_masks) if m >> v & 1]
        for i in by_node[v]:
            hit = dfs(covered | cand_masks[i], chosen + (i,))
            if hit is not None:
                return hit
        failed[covered] = depth_left
        return None

    return dfs(0, ())


def min_cover(h: Hypergraph, candidates: Sequence[Iterable[int]]) -> CoverSolution:
    """Smallest cover of all nodes by the given independent candidate parts.

    Exhaustive and deterministic: candidates are ordered by descending size
    (ties by members) and the first minimum cover in branch order is
    returned.  Raises if a candidate is dependent or the candidates cannot
    jointly cover the nodes.
    """
    # An edge inside a candidate is filed under its lowest node, which the
    # candidate holds, so each candidate looks only under its own nodes.
    by_lowest: list[list[int]] = [[] for _ in range(h.node_count + 1)]
    for em in h._edge_masks():
        by_lowest[(em & -em).bit_length()].append(em)
    checked = []
    for c in map(frozenset, candidates):
        mask = _checked_mask(c, h)
        if any(em & mask == em for v in c for em in by_lowest[v]):
            raise ValueError(f"candidate part {sorted(c)} contains an edge")
        checked.append((c, mask))
    checked.sort(key=lambda cm: (-len(cm[0]), tuple(sorted(cm[0]))))
    cands = [c for c, _ in checked]
    masks = [m for _, m in checked]
    full = _mask_of(h.nodes)
    if functools.reduce(int.__or__, masks, 0) & full != full:
        raise ValueError("candidates do not jointly cover the nodes; no cover exists")
    limit = 0
    while True:
        limit += 1
        hit = _bounded_cover(masks, full, limit)
        if hit is not None:
            solution = CoverSolution(cands[i] for i in hit)
            assert solution.verify(h)
            return solution


class DualWeightCertificate(Frozen):
    """Rational node weights refuting any cover with `bound` parts.

    Every maximal independent set, the optional excluded part aside, must
    weigh at most 1.  If the total weight exceeds the bound, no cover avoiding
    the excluded part can exist; with an excluded part of weight zero the
    total need only exceed bound - 1, refuting the covers that use it.
    """

    _fields = ("weights", "bound", "excluded_part")
    weights: tuple[Fraction, ...]
    bound: int
    excluded_part: frozenset[int] | None

    def __init__(self, weights: Sequence[Fraction | int | str], bound: int,
                 excluded_part: Iterable[int] | None = None):
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in weights))
        object.__setattr__(self, "bound", bound)
        object.__setattr__(
            self, "excluded_part",
            None if excluded_part is None else frozenset(excluded_part),
        )

    def weight_of(self, nodes: Iterable[int]) -> Fraction:
        return sum((self.weights[v - 1] for v in nodes), Fraction(0))

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


def verify_dual_certificate(cert: DualWeightCertificate, h: Hypergraph) -> bool:
    """Check a dual weighting against the hypergraph's maximal independent sets."""
    if len(cert.weights) != h.node_count:
        raise ValueError(f"expected {h.node_count} weights, got {len(cert.weights)}")
    for i, w in enumerate(cert.weights):
        if w < 0:
            raise ValueError(f"negative weight {w} at node {i + 1}")
    maximal = enumerate_maximal_independent(h)
    if cert.excluded_part is not None and cert.excluded_part not in maximal:
        raise ValueError(
            f"excluded part {sorted(cert.excluded_part)} is not a maximal independent set"
        )
    for s in maximal:
        if s == cert.excluded_part:
            continue
        if cert.weight_of(s) > 1:
            return False
    threshold = cert.bound
    if cert.excluded_part is not None and cert.weight_of(cert.excluded_part) == 0:
        # A cover using the excluded part spends one of its parts for free,
        # so the remaining bound - 1 parts must carry the whole weight.
        threshold = cert.bound - 1
    return cert.total > threshold


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
    masks = [_mask_of(s) for s in maximal]
    t = h.node_count

    def weigh(nodes: list[int], bounds: list[int]) -> tuple[list[Fraction], list[int], Fraction]:
        # nodes are bit positions; every mask in bounds weighs at most 1
        x, y, denom, value = phase_two([[m >> v & 1 for m in bounds] for v in nodes],
                                       [1] * len(bounds), [1] * len(nodes))
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

    _fields = ("k", "exhaustive", "counterexample")
    k: int
    exhaustive: bool
    counterexample: CoverSolution | None

    def __init__(self, k: int, exhaustive: bool,
                 counterexample: CoverSolution | None = None):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "exhaustive", exhaustive)
        object.__setattr__(self, "counterexample", counterexample)

    @property
    def refuted(self) -> bool:
        return self.counterexample is None


def no_k_cover(h: Hypergraph, k: int) -> Refutation:
    """Refute every k-cover of h by exhaustive search, or return one it finds."""
    if k < 1:
        raise ValueError("k must be positive")
    ordered = sorted(enumerate_maximal_independent(h), key=lambda c: (-len(c), tuple(sorted(c))))
    masks = [_mask_of(c) for c in ordered]
    full = _mask_of(h.nodes)
    hit = _bounded_cover(masks, full, k)
    if hit is None:
        return Refutation(k=k, exhaustive=True)
    solution = CoverSolution(ordered[i] for i in hit)
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
