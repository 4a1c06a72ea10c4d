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
maximal independent sets, and, for the bundled council family, by rational
node weights that bound every candidate part by 1 while the total weight
exceeds the number of parts available.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Protocol, Sequence

from . import eu
from .games import SimpleGame

NODE_GUARD = 24


def _mask_of(nodes: Iterable[int]) -> int:
    mask = 0
    for v in nodes:
        mask |= 1 << (v - 1)
    return mask


def _set_of(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class Hypergraph:
    """Edges over nodes 1..node_count; an antichain of sets of size >= 2.

    Construction canonicalizes: edges are deduplicated, sorted by size then
    members, and an edge containing another is dropped with a warning (the
    smaller edge already forbids every part that would contain the larger).
    """

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
        kept = []
        for e in sorted(canonical, key=lambda e: (len(e), tuple(sorted(e)))):
            if any(other < e for other in canonical if other != e):
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


def is_independent(nodes: Iterable[int], h: Hypergraph) -> bool:
    """True iff no edge of h lies inside the given node set."""
    s = frozenset(nodes)
    for v in s:
        if not 1 <= v <= h.node_count:
            raise ValueError(f"node {v} out of range 1..{h.node_count}")
    return not any(e <= s for e in h.edges)


def enumerate_maximal_independent(h: Hypergraph) -> tuple[frozenset[int], ...]:
    """All inclusion-wise maximal independent sets, sorted by member tuple.

    Depth-first over the nodes in order, keeping only branches that stay
    independent; excluding a node is abandoned early when no remaining edge
    could ever block it.  Guarded at 24 nodes.
    """
    if h.node_count > NODE_GUARD:
        raise ValueError(
            f"maximal-set enumeration limited to {NODE_GUARD} nodes; "
            f"got {h.node_count}"
        )
    t = h.node_count
    edge_masks = h._edge_masks()
    by_node: list[list[int]] = [[] for _ in range(t)]
    for em in edge_masks:
        for i in range(t):
            if em >> i & 1:
                by_node[i].append(em)

    results: list[int] = []
    full = (1 << t) - 1

    def blocked(chosen: int, i: int) -> bool:
        # node i+1 cannot be added to `chosen` without completing an edge
        want = chosen | (1 << i)
        return any(em & want == em for em in by_node[i])

    def dfs(i: int, chosen: int, excluded: int) -> None:
        if i == t:
            if all(blocked(chosen, j) for j in range(t) if excluded >> j & 1):
                results.append(chosen)
            return
        bit = 1 << i
        if not any(em & (chosen | bit) == em for em in by_node[i]):
            dfs(i + 1, chosen | bit, excluded)
        # Excluding node i+1 only leads to a maximal set if some edge through
        # it can still be completed by the chosen and undecided nodes.
        undecided_and_chosen = chosen | (full & ~((1 << (i + 1)) - 1)) | bit
        if any(em & undecided_and_chosen == em for em in by_node[i]):
            dfs(i + 1, chosen, excluded | bit)

    dfs(0, 0, 0)
    return tuple(sorted((_set_of(m) for m in results), key=lambda s: tuple(sorted(s))))


@dataclass(frozen=True)
class CoverSolution:
    """Parts of a cover: node subsets that jointly cover every node."""

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
        union = frozenset().union(*self.parts) if self.parts else frozenset()
        if union != h.nodes:
            return False
        return all(is_independent(p, h) for p in self.parts)


def _bounded_cover(cand_masks: Sequence[int], full: int, limit: int) -> tuple[int, ...] | None:
    """First cover of <= limit candidate parts in deterministic search order.

    Branches on the lowest uncovered node over the candidates containing it;
    any cover made of candidates survives some branch, so a None result is an
    exhaustive refutation of covers within the limit.
    """
    if full == 0:
        return ()
    max_size = max((m.bit_count() for m in cand_masks), default=0)
    by_node: dict[int, list[int]] = {}

    def dfs(covered: int, chosen: tuple[int, ...]) -> tuple[int, ...] | None:
        if covered == full:
            return chosen
        depth_left = limit - len(chosen)
        if depth_left <= 0:
            return None
        uncovered = (full & ~covered).bit_count()
        if depth_left * max_size < uncovered:
            return None
        lowest = (full & ~covered) & -(full & ~covered)
        v = lowest.bit_length() - 1
        if v not in by_node:
            by_node[v] = [i for i, m in enumerate(cand_masks) if m >> v & 1]
        for i in by_node[v]:
            hit = dfs(covered | cand_masks[i], chosen + (i,))
            if hit is not None:
                return hit
        return None

    return dfs(0, ())


def min_cover(h: Hypergraph, candidates: Sequence[Iterable[int]]) -> CoverSolution:
    """Smallest cover of all nodes by the given independent candidate parts.

    Exhaustive and deterministic: candidates are ordered by descending size
    (ties by members) and the first minimum cover in branch order is
    returned.  Raises if a candidate is dependent or the candidates cannot
    jointly cover the nodes.
    """
    cands = [frozenset(c) for c in candidates]
    for c in cands:
        if not is_independent(c, h):
            raise ValueError(f"candidate part {sorted(c)} contains an edge")
    cands.sort(key=lambda c: (-len(c), tuple(sorted(c))))
    full = _mask_of(h.nodes)
    masks = [_mask_of(c) for c in cands]
    joint = 0
    for m in masks:
        joint |= m
    if joint & full != full:
        raise ValueError("candidates do not jointly cover the nodes; no cover exists")
    limit = 0
    while True:
        limit += 1
        hit = _bounded_cover(masks, full, limit)
        if hit is not None:
            solution = CoverSolution(cands[i] for i in hit)
            assert solution.verify(h)
            return solution


@dataclass(frozen=True)
class DualWeightCertificate:
    """Rational node weights refuting any cover with `bound` parts.

    Every maximal independent set, the optional excluded part aside, must
    weigh at most 1.  If the total weight exceeds the bound, no cover avoiding
    the excluded part can exist; with an excluded part of weight zero the
    total need only exceed bound - 1, refuting the covers that use it.
    """

    weights: tuple[Fraction, ...]
    bound: int
    excluded_part: frozenset[int] | None = None

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


# The 21 maximal independent sets of the council family (nodes are L1..L15),
# the only candidate parts a cover ever needs.
COUNCIL_MAXIMAL_PARTS: tuple[frozenset[int], ...] = tuple(
    frozenset(s)
    for s in (
        (1, 2), (1, 3, 6), (1, 4), (1, 7, 12), (2, 9), (2, 12, 14), (2, 13),
        (3, 8), (3, 11), (4, 5), (4, 7), (4, 10), (5, 6, 10), (5, 6, 12),
        (5, 9), (5, 10, 13), (6, 10, 12), (7, 8), (8, 13), (11, 14), (15,),
    )
)

# Bundled refutation weights for the council family: the first handles covers
# avoiding {L1, L3, L6}, the second the covers using it.
COUNCIL_DUALS: tuple[DualWeightCertificate, ...] = (
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


def council_hypergraph() -> Hypergraph:
    """The bundled 15-node, 80-edge non-separable family of the council game."""
    return Hypergraph(15, eu.nonseparable_edge_labels())


def is_council_family(h: Hypergraph) -> bool:
    return h.node_count == 15 and set(h.edges) == set(eu.nonseparable_edge_labels())


def _dual_replay(h: Hypergraph, k: int) -> tuple[DualWeightCertificate, ...]:
    """Verified dual certificates refuting every k-cover of h, if bundled."""
    if not is_council_family(h) or k != COUNCIL_DUALS[0].bound:
        return ()
    without, within = COUNCIL_DUALS
    if without.excluded_part != within.excluded_part or within.excluded_part is None:
        raise RuntimeError("bundled dual certificates do not split on the same part")
    if within.weight_of(within.excluded_part) != 0:
        raise RuntimeError("second bundled dual must weigh the excluded part zero")
    if not (verify_dual_certificate(without, h) and verify_dual_certificate(within, h)):
        return ()
    return COUNCIL_DUALS


@dataclass(frozen=True)
class Refutation:
    """Outcome of a k-cover search: either refuted or a counterexample cover."""

    k: int
    exhaustive: bool
    duals: tuple[DualWeightCertificate, ...] = ()
    counterexample: CoverSolution | None = None

    @property
    def refuted(self) -> bool:
        return self.counterexample is None


def no_k_cover(h: Hypergraph, k: int) -> Refutation:
    """Prove no k-cover of h exists, or produce one as a counterexample.

    The exhaustive path searches all covers by maximal independent sets (parts
    may always be enlarged to maximal ones).  For the bundled council family
    the dual-weight replay runs as an independent second path and must agree,
    anything else is an internal error.
    """
    if k < 1:
        raise ValueError("k must be positive")
    candidates = enumerate_maximal_independent(h)
    ordered = sorted(candidates, key=lambda c: (-len(c), tuple(sorted(c))))
    masks = [_mask_of(c) for c in ordered]
    full = _mask_of(h.nodes)
    hit = _bounded_cover(masks, full, k)
    duals = _dual_replay(h, k)
    if hit is not None:
        solution = CoverSolution(ordered[i] for i in hit)
        assert solution.verify(h)
        if duals:
            raise RuntimeError(
                "dual certificates refute a k-cover the exhaustive search found"
            )
        return Refutation(k=k, exhaustive=False, counterexample=solution)
    if is_council_family(h) and k == COUNCIL_DUALS[0].bound and not duals:
        raise RuntimeError(
            "exhaustive search refutes every cover but the dual replay fails"
        )
    return Refutation(k=k, exhaustive=True, duals=duals)


class CertifiedHypergraph(Protocol):
    """A hypergraph whose every edge carries a checked non-separability witness."""

    hypergraph: Hypergraph

    def check(self, game: SimpleGame) -> None: ...


def lower_bound_dimension(game: SimpleGame, family: CertifiedHypergraph) -> int:
    """Dimension lower bound from a certified non-separable family.

    Re-checks every edge certificate against the game, then returns the
    minimum cover number over the maximal independent sets: a game of smaller
    dimension would admit a smaller cover.
    """
    family.check(game)
    h = family.hypergraph
    solution = min_cover(h, enumerate_maximal_independent(h))
    return solution.k


def hypergraph_to_json(h: Hypergraph) -> dict:
    return {"nodes": h.node_count, "edges": [sorted(e) for e in h.edges]}


def hypergraph_from_json(obj: dict) -> Hypergraph:
    if not isinstance(obj, dict) or "nodes" not in obj or "edges" not in obj:
        raise ValueError("hypergraph description needs 'nodes' and 'edges'")
    if not isinstance(obj["nodes"], int):
        raise ValueError("'nodes' must be an integer")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and all(type(v) is int for v in e) for e in edges
    ):
        raise ValueError("'edges' must be a list of node index lists")
    return Hypergraph(obj["nodes"], edges)
