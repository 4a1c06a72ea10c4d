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
number of parts available.  The search cuts a branch on two bounds: the
parts left times the largest part size, and the co-occurrence bound, a
count of uncovered nodes no two of which share a candidate, each of which
needs a part of its own.

Masks are written from node lists, read and ordered by `_packed`.  A
`Hypergraph` packs its edges as it filters them into an antichain;
`is_independent` and `min_cover` test against that one packed set.  Its
maximal independent sets are enumerated once, as node masks, on first
request, by a pivoted branching search in the manner of Bron and Kerbosch,
then sorted by member tuple, each mask keyed by its bytes with their bits
reversed.  They are kept on it with the frozensets derived from those
masks, three byte lookups each: the exhaustive search and the dual
derivation and check all read the same tuples.  So is one cover search
over those sets, which `no_k_cover` always reads and `min_cover` reads
when given the tuple `enumerate_maximal_independent` returned.  The search
writes its candidates once as machine words and reads the holders of a
node off one byte lane of them.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from array import array
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import compress, count

from ._packed import (_REVERSED, MAX_MEMBERS, PackedMasks, _byte_members, canonical_key, exact,
                      fields, instance, integer, listed, mask_of, members)
from ._record import Frozen
from .simplex import phase_two

NODE_GUARD = 24

# Entry i maps a byte to 1 if its bit i is set, else to 0: counting up,
# bit i is clear for 2^i values, then set for 2^i.
_HAS_BIT = [(bytes(1 << i) + b"\1" * (1 << i)) * (128 >> i) for i in range(8)]


class Hypergraph(Frozen):
    """Edges over nodes 1..node_count; an antichain of sets of size >= 2.

    Construction canonicalizes: edges are deduplicated, sorted by size then
    members, and an edge containing another is dropped with a warning (the
    smaller edge already forbids every part that would contain the larger).
    The node count is a plain `int` in 0..64, as `_packed.members` reads
    masks of at most 64 bits; every node is a plain `int`, and no node may
    repeat in an edge, so that `hypergraph_to_json` writes only what
    `hypergraph_from_json`, which reads its nodes through these checks,
    reads back.

    Node v is bit v - 1 of a mask.  The edge masks are kept from
    construction, as a tuple and packed; the maximal independent sets are
    enumerated once, as masks in member-tuple order, on first request
    (`_maximal_independent`), and their frozensets and the one cover search
    over them are built from those masks on first use.  All live in the
    instance `__dict__` but are no fields, so ==, hash and repr do not see
    them.
    """

    node_count: int
    edges: tuple[frozenset[int], ...]

    def __init__(self, node_count: int, edges: Iterable[Iterable[int]]):
        integer(node_count, "node count", 0, MAX_MEMBERS)
        canonical: dict[int, tuple[int, ...]] = {}  # by mask
        for e in edges:
            e = tuple(e)
            if len(e) < 2:
                raise ValueError(f"edge {sorted(e)} has fewer than two nodes")
            canonical.setdefault(mask_of(e, node_count, "edge node"), e)
        # In size order, an edge contains an earlier edge, kept or dropped,
        # iff it contains a kept one: a dropped edge contains a kept one.
        packed = PackedMasks(node_count)
        ordered = sorted(canonical, key=lambda m: canonical_key(m, node_count))
        kept = []
        for m, added in zip(ordered, packed.add_minimal(ordered)):
            if added:
                kept.append(m)
            else:
                warnings.warn(f"dropping redundant edge {sorted(canonical[m])}: "
                              "it contains a smaller edge", stacklevel=2)
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
        # Masks of at most NODE_GUARD = 24 nodes: three bytes, members ascending.
        low, mid, high = _byte_members()[:3]
        return tuple([frozenset(low[m & 255] + mid[m >> 8 & 255] + high[m >> 16])
                      for m in self._maximal_masks])

    @functools.cached_property
    def _cover(self) -> Callable[[int], tuple[int, ...] | None]:
        return _cover_search(self._maximal_masks, (1 << self.node_count) - 1)


def is_independent(nodes: Iterable[int], h: Hypergraph) -> bool:
    """True iff no edge of h lies inside the given node set."""
    h = instance(h, Hypergraph, None, "hypergraph")
    return not h._packed_edges.any_inside(mask_of(nodes, h.node_count, "node"))


def enumerate_maximal_independent(h: Hypergraph) -> tuple[frozenset[int], ...]:
    """All inclusion-wise maximal independent sets, sorted by member tuple.

    Computed once per hypergraph and cached on it, so later calls return the
    identical tuple.  The pivoted search in `_maximal_independent` reaches
    each maximal set once; a branch may also end in a dead end, where an
    excluded node can no longer be blocked, and reports nothing there.
    Guarded at 24 nodes.
    """
    return instance(h, Hypergraph, None, "hypergraph")._maximal_sets


def _maximal_independent(h: Hypergraph) -> tuple[int, ...]:
    """Masks of the maximal independent sets, by pivoted branching.

    `extend(chosen, free, excluded)` finds every maximal set that holds the
    chosen nodes, lies inside chosen | free and avoids the excluded ones.
    A node is blocked when some edge through it has all its other nodes
    chosen; free holds the unchosen nodes that are not, and excluded the
    nodes left out by an earlier branch that are not yet.  The chosen set is
    maximal once both are empty.  Otherwise the pivot u, in free | excluded,
    is the node whose branch set, the free nodes among u and the nodes
    sharing an edge with it, is smallest.  Every maximal set below holds u,
    or some edge e through u with e - u inside it; u is not blocked, so a
    node of e - u is free.  Either way it holds a node of the branch set,
    and the branches take each in ascending order, leaving it out of those
    after: each maximal set is found once.  An empty branch set is a dead
    end, an excluded node that nothing left can block.  So the excluded
    nodes are scanned first, and the first dead end returns at once; the
    free nodes, whose branch sets hold at least the node itself, are
    scanned only while the smallest branch set found has more than one
    node.  The branch set taken is still a smallest one, the first scanned
    among equals; any pivot finds the same sets.  Choosing v blocks its
    pair neighbours and, for each larger edge through v, the one node of
    the edge left outside chosen | v, if only one is.  The sets come out in
    no useful order.  Each is keyed by its bytes with
    their bits reversed, so member 1 is the top bit of the first byte: at
    the first member where two sets differ, the one holding it has the
    larger key.  The sets form an antichain, so no set's member tuple is a
    prefix of another's, and sorting by descending key is sorting by member
    tuple.
    """
    t = integer(h.node_count, "maximal-set enumeration branches on every node, "
                "so the node count", 0, NODE_GUARD)
    pairs = [0] * t   # pair-edge neighbours of each node
    rests: list[list[int]] = [[] for _ in range(t)]  # e - {v} for larger edges
    closed = [0] + [1 << v for v in range(t)]  # by node: it and its edge neighbours
    for em in h._edge_masks:
        m = em
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            rest = em ^ low
            closed[v + 1] |= rest
            if rest & (rest - 1):
                rests[v].append(rest)
            else:
                pairs[v] |= rest
    results: list[int] = []

    def extend(chosen: int, free: int, excluded: int) -> None:
        if not free | excluded:
            results.append(chosen)
            return
        branch, size, scan = 0, t + 1, excluded
        while scan:
            low = scan & -scan
            scan ^= low
            b = free & closed[low.bit_length()]
            if not b:
                return
            if b.bit_count() < size:
                branch, size = b, b.bit_count()
        scan = free if size > 1 else 0
        while scan:
            low = scan & -scan
            scan ^= low
            b = free & closed[low.bit_length()]
            if b.bit_count() < size:
                branch, size = b, b.bit_count()
                if size == 1:
                    break
        unchosen = ~chosen
        while branch:
            bit = branch & -branch
            branch ^= bit
            v = bit.bit_length() - 1
            blocked = pairs[v]
            for rest in rests[v]:
                left = rest & unchosen  # never 0: v is free
                if not left & (left - 1):
                    blocked |= left
            extend(chosen | bit, free & ~(bit | blocked), excluded & ~blocked)
            free ^= bit
            excluded |= bit

    try:
        extend(0, (1 << t) - 1, 0)
    finally:
        del extend  # it calls itself through its own cell: unlink it, so no cycle is left
    width = (t + 7) >> 3
    return tuple(sorted(results, key=lambda m: m.to_bytes(width, "little").translate(_REVERSED),
                        reverse=True))


class CoverSolution(Frozen):
    """Parts of a cover: node subsets that jointly cover every node.

    Each part holds distinct plain ints >= 1; `verify` range-checks them
    against h.
    """

    parts: tuple[frozenset[int], ...]

    def __init__(self, parts: Iterable[Iterable[int]]):
        parts = [tuple(p) for p in parts]
        for part in parts:
            for v in part:
                integer(v, "cover node", 1)
            if len(set(part)) < len(part):
                raise ValueError(f"cover part {part} must hold distinct nodes")
        super().__init__(tuple(sorted(map(frozenset, parts), key=lambda p: tuple(sorted(p)))))

    @property
    def k(self) -> int:
        return len(self.parts)

    def verify(self, h: Hypergraph) -> bool:
        h = instance(h, Hypergraph, None, "hypergraph")
        return (all(is_independent(p, h) for p in self.parts)
                and frozenset().union(*self.parts) == h.nodes)


def _cover_search(masks: Sequence[int], full: int
                  ) -> Callable[[int], tuple[int, ...] | None]:
    """Bounded cover search over one candidate list, for any limit.

    search(limit) gives the input indices of the first cover of at most
    limit parts, or None.  It branches on the lowest uncovered node over
    the candidates holding it, by descending size and, within a size, in
    input order, so masks given in member-tuple order, as a hypergraph's
    maximal masks are, are tried in (-size, member tuple) order.  Any cover
    made of candidates survives some branch, so None is an exhaustive
    refutation of covers within the limit.

    A branch is cut when its parts left times the largest candidate size
    falls short of the nodes it must still cover.  It is also cut by
    co-occurrence: two nodes co-occur when some candidate holds both, and
    uncovered nodes no two of which co-occur need a part each.  They are
    picked greedily, lowest node first, each time dropping the nodes that
    co-occur with the one picked; more of them than parts left cuts the
    branch.  A branch that fails with d parts left, by this cut or by its
    search, proves that no d candidates cover what it leaves, and so
    neither do fewer, under any limit; `failed` keeps, per uncovered mask,
    the most parts known not to suffice, and a node reached again with no
    more parts left is cut at once.  With one part left, the first holder
    of the lowest uncovered node that covers the rest is found by one scan
    of the holders' complemented masks, after a rest that does not lie
    within that node's co-occurring nodes is rejected; with two left, the
    holders of that node are tried in a loop, each finished by that scan.
    Only subtrees without a cover are cut, and the candidates are tried in
    the same order as by one frame per candidate, so the cover found is the
    same.

    The order and the memo are built once, for every limit, and so are each
    node's holders (input indices and complemented masks) and the nodes
    that do not co-occur with it, on the first branch on it or the first
    greedy pick of it; a refuted limit asked again is cut at the root, by
    the memo or a cut.  The ordered masks are written once as 64-bit
    machine words; byte lane b of those bytes is byte b of every mask, so
    node v's holders are read off lane v // 8, translated to one selector
    byte per mask by a table of bit v % 8, and picked out by `compress`
    with no Python call per candidate.
    """
    sizes = list(map(int.bit_count, masks))
    order = sorted(range(len(masks)), key=sizes.__getitem__, reverse=True)
    ordered = [masks[i] for i in order]
    max_size = max(sizes, default=0)
    raw = array("Q", ordered).tobytes()  # byte b of mask i is raw[8 * i + b]
    by_node: dict[int, tuple[list[int], list[int], int]] = {}
    failed: dict[int, int] = {}

    def holders(need: int) -> tuple[list[int], list[int], int]:
        # The lowest node's holders, as input indices and complemented
        # masks, and the other nodes that no holder of it holds.
        low = need & -need
        if low not in by_node:
            v = low.bit_length() - 1
            held = raw[v >> 3::8].translate(_HAS_BIT[v & 7])
            holding = list(compress(ordered, held))
            by_node[low] = (list(compress(order, held)), list(map(full.__xor__, holding)),
                            full & ~functools.reduce(int.__or__, holding, low))
        return by_node[low]

    def last(need: int) -> int | None:
        index, lacks, apart = holders(need)
        if need & apart:
            return None
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
            # Pick nodes of need that pairwise co-occur in no candidate,
            # lowest first: more than left of them need more than left parts.
            rest, spread = need, left
            while rest:
                if not spread:
                    failed[need] = left
                    return None
                spread -= 1
                rest &= holders(rest)[2]
            index, lacks, _ = holders(need)
            for i, lack in zip(index, lacks):
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

        try:
            return dfs(full, limit)
        finally:
            del dfs  # it calls itself through its own cell: unlink it, so no cycle is left

    return search


def _solution(h: Hypergraph, cands: Sequence, hit: tuple[int, ...]) -> CoverSolution:
    """The cover of h by the candidates a search hit names, checked."""
    solution = CoverSolution(map(cands.__getitem__, hit))
    if not solution.verify(h):
        raise RuntimeError("a found cover fails verification")
    return solution


def min_cover(h: Hypergraph, candidates: Sequence[Iterable[int]]) -> CoverSolution:
    """Smallest cover of all nodes by the given independent candidate parts.

    Exhaustive and deterministic: candidates are ordered by descending size
    (ties by members), the limit deepens from 1 and the first minimum cover
    in branch order is returned.  Raises if a candidate is dependent or the
    candidates cannot jointly cover the nodes.

    When the candidates are the very tuple `enumerate_maximal_independent(h)`
    returned, already cached on h, they are independent and cover the nodes
    by construction, and h's own cover search answers.  Any other
    candidates are checked in input order, each one's nodes by `mask_of`
    before its mask against h's packed edges, then sorted by
    `canonical_key` once and searched by a fresh `_cover_search`.  The
    enumeration is never started here, so explicit candidates above its
    node guard still run.
    """
    h = instance(h, Hypergraph, None, "hypergraph")
    if "_maximal_sets" in h.__dict__ and candidates is h._maximal_sets:
        cands = candidates
        search = h._cover
    else:
        t = h.node_count
        edges = h._packed_edges
        cands, masks = [], []
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
        search = _cover_search([masks[i] for i in order], (1 << t) - 1)
    for limit in count(1):
        hit = search(limit)
        if hit is not None:
            return _solution(h, cands, hit)


class DualWeightCertificate(Frozen):
    """Rational node weights refuting any cover with `bound` parts.

    Every maximal independent set, the optional excluded part aside, must
    weigh at most 1.  If the total weight exceeds the bound, no cover avoiding
    the excluded part can exist; with an excluded part of weight zero the
    total need only exceed bound - 1, refuting the covers that use it.
    The weights are read by `_packed.exact`, at most 64 of them; the bound
    is a plain int, at least 1.
    """

    weights: tuple[Fraction, ...]
    bound: int
    excluded_part: frozenset[int] | None

    def __init__(self, weights: Sequence[Fraction | int | str], bound: int,
                 excluded_part: Iterable[int] | None = None):
        weights = tuple(exact(w, f"weight of node {v}") for v, w in enumerate(weights, 1))
        integer(len(weights), "weight count", 0, MAX_MEMBERS)
        integer(bound, "bound", 1)
        if excluded_part is not None:
            excluded_part = frozenset(members(
                mask_of(excluded_part, len(weights), "excluded node")))
        super().__init__(weights, bound, excluded_part)

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


def verify_dual_certificate(cert: DualWeightCertificate, h: Hypergraph) -> bool:
    """Check a dual weighting against the hypergraph's maximal independent sets.

    The weights are scaled once to integer numerators over the least common
    multiple of their denominators, so each set's weight is an integer sum
    compared with that scale, and no `Fraction` is added per set.
    """
    weights = instance(cert, DualWeightCertificate, None, "dual certificate").weights
    h = instance(h, Hypergraph, None, "hypergraph")
    if len(weights) != h.node_count:
        raise ValueError(f"expected {h.node_count} weights, got {len(weights)}")
    for i, w in enumerate(weights):
        if w < 0:
            raise ValueError(f"negative weight {w} at node {i + 1}")
    maximal = enumerate_maximal_independent(h)
    excluded = cert.excluded_part
    if excluded is not None and excluded not in maximal:
        raise ValueError(f"excluded part {sorted(excluded)} is not a maximal independent set")
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
    integer(k, "k", 1)
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
    counterexample: CoverSolution | None

    @property
    def refuted(self) -> bool:
        return self.counterexample is None


def no_k_cover(h: Hypergraph, k: int) -> Refutation:
    """Refute every k-cover of h by exhaustive search, or return one it finds.

    The search is h's own, over its maximal sets: a limit that `min_cover`
    or an earlier call refuted is cut at the root by its failure memo.
    k must be a plain positive int.
    """
    integer(k, "k", 1)
    maximal = enumerate_maximal_independent(h)
    hit = h._cover(k)
    return Refutation(k, None if hit is None else _solution(h, maximal, hit))


def hypergraph_to_json(h: Hypergraph) -> dict:
    h = instance(h, Hypergraph, None, "hypergraph")
    return {"nodes": h.node_count, "edges": [sorted(e) for e in h.edges]}


def hypergraph_from_json(obj: dict) -> Hypergraph:
    nodes, edges = fields(obj, "hypergraph", "nodes", "edges")
    return Hypergraph(nodes, listed(edges, "edges", "node"))
