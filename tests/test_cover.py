import functools
import hashlib
import json
import operator
import random
import re
import sys
import warnings
from fractions import Fraction

import pytest

from gamedim import _packed, cover
from gamedim.certificates import (
    BalanceCertificate,
    CertificateError,
    CertifiedFamily,
    lower_bound_dimension,
)
from gamedim.cli import run_verification
from gamedim.cover import (
    CoverSolution,
    DualWeightCertificate,
    Hypergraph,
    dual_refutation,
    enumerate_maximal_independent,
    hypergraph_from_json,
    hypergraph_to_json,
    is_independent,
    min_cover,
    no_k_cover,
    verify_dual_certificate,
)
from gamedim.eu import COUNCIL_MAXIMAL_PARTS, NONSEPARABLE_PAIRS, NONSEPARABLE_TRIPLES
from gamedim.games import Coalition, IntersectionGame, WeightedGame, coalition_sort_key
from gamedim.simplex import phase_two

from helpers import (
    COUNCIL_DUALS,
    ODD_PIVOT_PHASE_TWO,
    ODD_PIVOT_ROWS,
    as_entries,
    as_masks,
    brute_maximal_independent,
    cycle_antichain,
    grown_maximal_independent,
    random_hypergraph,
    reference_cover_search,
    reference_phase_two,
    sylvester_minor,
)

TRIANGLE = Hypergraph(3, [(1, 2), (2, 3), (1, 3)])
SINGLE_EDGE = Hypergraph(2, [(1, 2)])
EDGELESS_3 = Hypergraph(3, [])


class TestHypergraph:
    def test_canonical_edge_order(self):
        h = Hypergraph(5, [(3, 1), (1, 2), (2, 3, 4)])
        assert h.edges == (
            frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3, 4})
        )

    def test_duplicate_edges_merged(self):
        h = Hypergraph(3, [(1, 2), (2, 1)])
        assert len(h.edges) == 1

    def test_small_edge_rejected(self):
        with pytest.raises(ValueError, match="fewer than two"):
            Hypergraph(3, [(1,)])

    def test_node_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(3, [(1, 4)])

    def test_redundant_superset_edge_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="redundant"):
            h = Hypergraph(4, [(1, 2), (1, 2, 3)])
        assert h.edges == (frozenset({1, 2}),)

    def test_council_family_is_an_antichain(self, council_h):
        # No warning fired and all 80 edges survive: no pair sits in a triple.
        assert len(council_h.edges) == 80
        assert council_h == Hypergraph(15, NONSEPARABLE_PAIRS + NONSEPARABLE_TRIPLES)
        for triple in (e for e in council_h.edges if len(e) == 3):
            for a in triple:
                assert frozenset(triple - {a}) not in council_h.edges

    def test_council_edges_cover_all_nodes(self, council_h):
        assert frozenset().union(*council_h.edges) == council_h.nodes

    def test_json_round_trip(self, council_h):
        again = hypergraph_from_json(hypergraph_to_json(council_h))
        assert again == council_h

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            hypergraph_from_json({"edges": [[1, 2]]})

    @pytest.mark.parametrize("node, message", [
        (True, "edge node True is a bool, not a node in 1..3"),
        (1.0, "edge node 1.0 is not an integer"),
        ("1", "edge node '1' is not an integer"),
    ])
    def test_non_integer_node_rejected(self, node, message):
        # True and 1.0 equal the node 1; a bool read as node 1 would be
        # written back as `[true, 2]`, which hypergraph_from_json rejects.
        with pytest.raises(ValueError, match=re.escape(message)):
            Hypergraph(3, [(node, 2)])
        with pytest.raises(ValueError):
            hypergraph_from_json({"nodes": 3, "edges": [[node, 2]]})

    @pytest.mark.parametrize("node_count", [True, 3.0, "3"])
    def test_non_integer_node_count_rejected(self, node_count):
        message = f"node count must be an int, got {node_count!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Hypergraph(node_count, [])

    def test_every_graph_round_trips_through_json_text(self):
        rng = random.Random(83)
        for _ in range(30):
            h = random_hypergraph(rng, rng.randint(0, 30), rng.randint(0, 40))
            text = json.dumps(hypergraph_to_json(h))
            assert "true" not in text and "." not in text
            assert hypergraph_from_json(json.loads(text)) == h


def antichain_reference(node_count, edges):
    """Edges kept and warnings raised, by frozenset comparison of every pair."""
    canonical = {frozenset(e) for e in edges}
    kept, dropped = [], []
    for e in sorted(canonical, key=lambda e: (len(e), tuple(sorted(e)))):
        if any(other < e for other in canonical if other != e):
            dropped.append(f"dropping redundant edge {sorted(e)}: it contains a smaller edge")
        else:
            kept.append(e)
    return tuple(kept), dropped


class TestAntichainCheck:
    def test_masks_keep_the_reference_edges_and_warnings(self):
        rng = random.Random(31)
        total_dropped = 0
        for _ in range(150):
            t = rng.randint(2, 24)
            edges = [rng.sample(range(1, t + 1), rng.randint(2, min(t, 5)))
                     for _ in range(rng.randint(0, 3 * t))]
            expected_edges, expected_warnings = antichain_reference(t, edges)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                h = Hypergraph(t, edges)
            assert h.edges == expected_edges
            assert [str(w.message) for w in caught] == expected_warnings
            total_dropped += len(expected_warnings)
        assert total_dropped > 100

    def test_redundant_supersets_dropped_at_any_width(self):
        # Each graph gets supersets of its own edges, so some must go.
        rng = random.Random(41)
        for t in (25, 30, 40, 64):
            for _ in range(10):
                edges = [rng.sample(range(1, t + 1), rng.randint(2, 4)) for _ in range(t)]
                edges += [e + rng.sample(sorted(set(range(1, t + 1)) - set(e)), 2)
                          for e in rng.sample(edges, 5)]
                rng.shuffle(edges)
                expected_edges, expected_warnings = antichain_reference(t, edges)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    h = Hypergraph(t, edges)
                assert h.edges == expected_edges
                assert [str(w.message) for w in caught] == expected_warnings
                assert len(expected_warnings) >= 5

    def test_edge_containing_only_a_dropped_edge_is_dropped(self):
        # {1,2,3} is dropped for {1,2}; {1,2,3,4} holds both and is dropped too.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h = Hypergraph(4, [(1, 2, 3, 4), (1, 2, 3), (1, 2)])
        assert h.edges == (frozenset({1, 2}),)
        assert [str(w.message) for w in caught] == [
            "dropping redundant edge [1, 2, 3]: it contains a smaller edge",
            "dropping redundant edge [1, 2, 3, 4]: it contains a smaller edge",
        ]


class TestIndependence:
    def test_empty_set_is_independent(self, council_h):
        assert is_independent((), council_h)

    def test_edge_is_dependent(self, council_h):
        assert not is_independent({1, 5}, council_h)

    def test_bundled_part_is_independent(self, council_h):
        assert is_independent({1, 3, 6}, council_h)

    def test_out_of_range_node_rejected(self, council_h):
        with pytest.raises(ValueError, match="out of range"):
            is_independent({16}, council_h)

    def test_non_integer_node_rejected(self, council_h):
        with pytest.raises(ValueError, match="node True is a bool, not a node in 1..15"):
            is_independent({True}, council_h)
        with pytest.raises(ValueError, match="node '2' is not an integer"):
            is_independent({1, "2"}, council_h)

    def test_matches_the_frozenset_reference(self):
        rng = random.Random(47)
        verdicts = set()
        for _ in range(60):
            t = rng.randint(2, 40)
            h = random_hypergraph(rng, t, rng.randint(0, 2 * t))
            for _ in range(20):
                s = frozenset(rng.sample(range(1, t + 1), rng.randint(0, t)))
                expected = not any(e <= s for e in h.edges)
                assert is_independent(s, h) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}


class TestEnumerateMaximal:
    def test_council_family_has_exactly_21(self, council_h):
        got = enumerate_maximal_independent(council_h)
        assert len(got) == 21
        assert frozenset({15}) in got
        assert frozenset({2, 12, 14}) in got
        assert set(got) == set(COUNCIL_MAXIMAL_PARTS)

    def test_single_edge(self):
        assert enumerate_maximal_independent(SINGLE_EDGE) == (
            frozenset({1}), frozenset({2})
        )

    def test_edgeless_graph(self):
        assert enumerate_maximal_independent(EDGELESS_3) == (frozenset({1, 2, 3}),)

    def test_resource_guard(self):
        with pytest.raises(ValueError, match="node count must be in 0..24, got 25$"):
            enumerate_maximal_independent(Hypergraph(25, [(1, 2)]))

    def test_matches_naive_double_loop(self, council_h):
        assert list(enumerate_maximal_independent(council_h)) == \
            brute_maximal_independent(council_h)

    def test_matches_naive_double_loop_on_random_hypergraphs(self):
        rng = random.Random(17)
        for _ in range(40):
            h = random_hypergraph(rng, rng.randint(2, 9), rng.randint(0, 12))
            assert list(enumerate_maximal_independent(h)) == brute_maximal_independent(h)

    def test_matches_naive_double_loop_up_to_14_nodes(self):
        # Edges of 2, 3 and 4 nodes over the first `span` nodes only, so the
        # nodes above it are isolated; t = 0 and edgeless graphs come first.
        rng = random.Random(61)
        graphs = [Hypergraph(0, []), Hypergraph(14, [])]
        for t in [rng.randint(1, 14) for _ in range(40)] + [14] * 6:
            span = rng.randint(max(2, t - 3), t) if t >= 2 else t
            edges = {frozenset(rng.sample(range(1, span + 1), size))
                     for size in rng.choices((2, 3, 4), k=rng.randint(0, 2 * t))
                     if size <= span}
            graphs.append(Hypergraph(t, [e for e in edges if not any(o < e for o in edges)]))
        assert any(len(e) == 4 for h in graphs for e in h.edges)
        assert sum(frozenset().union(*h.edges) < h.nodes for h in graphs if h.edges) > 5
        for h in graphs:
            assert list(enumerate_maximal_independent(h)) == brute_maximal_independent(h)

    def test_matches_grown_oracle_at_benchmark_sizes(self):
        # The cover-search graphs: sets and member-tuple order, which
        # no_k_cover relies on, against an oracle that needs no 2^t loop.
        rng = random.Random(4099)
        for t in [18, 19, 20, 21, 22, 23, 24] * 2:
            h = cycle_antichain(rng, t)
            got = list(enumerate_maximal_independent(h))
            assert got == grown_maximal_independent(h)
            assert len(set(got)) == len(got) > 20

    def test_grown_oracle_matches_naive_double_loop(self):
        rng = random.Random(83)
        for _ in range(30):
            h = random_hypergraph(rng, rng.randint(0, 10), rng.randint(0, 14))
            assert grown_maximal_independent(h) == brute_maximal_independent(h)

    @pytest.mark.parametrize("t, edges", [
        (5, [(1, 2, 3, 4, 5)]),
        (6, [(1, 2, 3, 4), (3, 4, 5, 6)]),
        (7, [(1, 2, 3, 4, 5), (1, 6), (5, 6, 7)]),
        (8, [(1, 2, 3, 4), (2, 3, 4, 5, 6), (5, 7, 8), (1, 8)]),
    ], ids=["one 5-edge", "two 4-edges", "5-edge and pair", "mixed"])
    def test_large_edges_block_only_when_the_rest_is_chosen(self, t, edges):
        # A node of a 4- or 5-node edge is blocked only once all the other
        # nodes of that edge are chosen, so choosing one node blocks nothing.
        h = Hypergraph(t, edges)
        assert list(enumerate_maximal_independent(h)) == grown_maximal_independent(h)

    def test_large_edges_on_random_graphs(self):
        rng = random.Random(101)
        for _ in range(40):
            t = rng.randint(5, 16)
            edges = {frozenset(rng.sample(range(1, t + 1), size))
                     for size in rng.choices((2, 4, 5), weights=(1, 3, 3), k=rng.randint(1, 2 * t))}
            h = Hypergraph(t, [e for e in edges if not any(o < e for o in edges)])
            assert list(enumerate_maximal_independent(h)) == grown_maximal_independent(h)

    def test_isolated_nodes_at_24(self):
        # Nodes 19..24 lie in no edge: each is its own smallest branch set
        # and nothing blocks it, so every maximal set holds all six.
        rng = random.Random(7)
        base = cycle_antichain(rng, 18)
        h = Hypergraph(24, base.edges)
        got = enumerate_maximal_independent(h)
        assert list(got) == grown_maximal_independent(h)
        assert len(got) == len(enumerate_maximal_independent(base))
        assert all(s >= set(range(19, 25)) for s in got)
        lone = Hypergraph(24, [(1, 2)])
        assert list(enumerate_maximal_independent(lone)) == grown_maximal_independent(lone) == [
            frozenset(range(1, 25)) - {2}, frozenset(range(2, 25))]

    def test_empty_and_edgeless_graphs(self):
        for h, only in [(Hypergraph(0, []), frozenset()),
                        (Hypergraph(24, []), frozenset(range(1, 25)))]:
            assert enumerate_maximal_independent(h) == (only,)
            assert grown_maximal_independent(h) == [only]

    def test_second_call_returns_the_same_tuple(self, council_h):
        h = Hypergraph(council_h.node_count, council_h.edges)
        first = enumerate_maximal_independent(h)
        assert enumerate_maximal_independent(h) is first

    def test_cache_leaves_equality_hash_and_repr_alone(self):
        edges = [(1, 2), (2, 3, 4), (4, 5)]
        h, twin = Hypergraph(5, edges), Hypergraph(5, edges)
        before = (repr(h), hash(h))
        enumerate_maximal_independent(h)
        assert (repr(h), hash(h)) == before == (repr(twin), hash(twin))
        assert h == twin and twin == h

    def test_resource_guard_raises_on_every_call(self):
        h = Hypergraph(25, [(1, 2)])
        for _ in range(2):
            with pytest.raises(ValueError, match="node count must be in 0..24, got 25$"):
                enumerate_maximal_independent(h)

    def test_one_replay_enumerates_once(self, monkeypatch):
        calls = []
        original = cover._maximal_independent

        def counted(h):
            calls.append(h)
            return original(h)

        monkeypatch.setattr(cover, "_maximal_independent", counted)
        assert run_verification().verified
        assert len(calls) == 1


def pinned_graphs():
    """Four seeded benchmark-sized antichains for each size from 18 to 24 nodes."""
    rng = random.Random(3407)
    return [cycle_antichain(rng, t) for t in range(18, 25) for _ in range(4)]


class TestPinnedOutputs:
    """The outputs and the enumeration's work on fixed graphs, pinned."""

    def test_outputs_are_pinned(self):
        # the reprs of the sets, the minimum cover and the refutation below it
        digest = hashlib.sha256()
        for h in pinned_graphs():
            maximal = enumerate_maximal_independent(h)
            solution = min_cover(h, maximal)
            refutation = no_k_cover(h, solution.k - 1)
            assert refutation.refuted
            digest.update(f"{maximal!r}\n{solution!r}\n{refutation!r}\n".encode())
        assert digest.hexdigest() == (
            "58d2676f8440dbb9ad981dd2f32b405b8fbcd3bd261d4556eaea21a95978a6de")

    @staticmethod
    def enumeration_calls(h):
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            code = frame.f_code
            if (event == "call" and code.co_filename == cover.__file__
                    and code.co_name == "extend"):
                calls += 1

        sys.setprofile(profile)
        try:
            cover._maximal_independent(h)
        finally:
            sys.setprofile(None)
        return calls

    def test_enumeration_calls_are_pinned(self, council_h):
        # One call per node of the branching tree: leaves, dead ends and
        # pivots.  A change of pivot rule moves these counts.
        assert self.enumeration_calls(council_h) == 42
        assert sum(map(self.enumeration_calls, pinned_graphs())) == 10549


class TestMinCover:
    def test_council_minimum_is_eight(self, council_h):
        solution = min_cover(council_h, COUNCIL_MAXIMAL_PARTS)
        assert solution.k == 8
        assert solution.verify(council_h)

    def test_single_candidate_covers_edgeless(self):
        solution = min_cover(EDGELESS_3, [{1, 2, 3}])
        assert solution.k == 1

    def test_triangle_needs_three(self):
        solution = min_cover(TRIANGLE, enumerate_maximal_independent(TRIANGLE))
        assert solution.k == 3

    def test_dependent_candidate_rejected(self, council_h):
        with pytest.raises(ValueError, match="contains an edge"):
            min_cover(council_h, [{1, 5}])

    def test_dependent_candidate_found_among_random_subsets(self):
        rng = random.Random(29)
        dependent = 0
        for _ in range(60):
            h = random_hypergraph(rng, rng.randint(3, 10), rng.randint(1, 14))
            maximal = list(enumerate_maximal_independent(h))
            for _ in range(5):
                part = frozenset(rng.sample(sorted(h.nodes), rng.randint(1, h.node_count)))
                if any(e <= part for e in h.edges):
                    dependent += 1
                    with pytest.raises(ValueError, match="contains an edge"):
                        min_cover(h, maximal + [part])
                else:
                    assert min_cover(h, maximal + [part]).verify(h)
        assert dependent > 50

    @pytest.mark.parametrize("candidates, message", [
        ([{1, 5}, {16}], "contains an edge"),
        ([{16}, {1, 5}], "node 16 out of range 1..15"),
        ([{1, 5}, {2, "3"}], "contains an edge"),
        ([{2, "3"}, {1, 5}], "node '3' is not an integer"),
        ([{3}, {1.0}, {1, 5}], "node 1.0 is not an integer"),
        ([{3}, {True, 2}], "node True is a bool, not a node in 1..15"),
        ([{1, 5}, [[2]]], "contains an edge"),  # before the unhashable member
    ])
    def test_first_bad_candidate_raises(self, council_h, candidates, message):
        # In input order, each candidate's nodes before its edges.
        with pytest.raises(ValueError, match=re.escape(message)):
            min_cover(council_h, candidates)

    @pytest.mark.parametrize("t", [30, 64])
    def test_explicit_candidates_above_the_node_guard(self, t):
        # A cycle over 1..t with a chord triple; the even and odd nodes
        # cover it with two parts.  Nothing else runs min_cover above 24.
        edges = [(v, v % t + 1) for v in range(1, t + 1)] + [(1, 3, 5)]
        h = Hypergraph(t, edges)
        odd = frozenset(range(1, t + 1, 2)) - {5}
        even = frozenset(range(2, t + 1, 2))
        rng = random.Random(t)
        noise = [frozenset(rng.sample(sorted(even), 5)) for _ in range(8)]
        solution = min_cover(h, noise + [odd, {5}, even, {t - 1, 5}])
        # Node 1 is only in `odd`; node 2 is first in `even`, the largest
        # candidate; node 5 is then first in {t - 1, 5}, larger than {5}.
        assert solution.parts == (odd, even, frozenset({t - 1, 5}))
        assert solution.verify(h)
        with pytest.raises(ValueError, match=re.escape(f"candidate part [{t - 1}, {t}]")):
            min_cover(h, [odd, even, {t - 1, t}])
        with pytest.raises(ValueError, match=f"node {t + 1} out of range 1..{t}"):
            min_cover(h, [odd, even, {t + 1}])

    def test_noncovering_candidates_rejected(self):
        with pytest.raises(ValueError, match="jointly cover"):
            min_cover(EDGELESS_3, [{1, 2}])

    def test_parts_are_independent(self, council_h):
        solution = min_cover(council_h, COUNCIL_MAXIMAL_PARTS)
        assert all(is_independent(p, council_h) for p in solution.parts)

    def test_shrinking_a_candidate_never_helps(self, council_h):
        # Swap each 3-node candidate for a 2-node subset; the optimum cannot drop.
        baseline = min_cover(council_h, COUNCIL_MAXIMAL_PARTS).k
        for target in [p for p in COUNCIL_MAXIMAL_PARTS if len(p) == 3][:3]:
            shrunk = [p if p != target else frozenset(sorted(target)[:2])
                      for p in COUNCIL_MAXIMAL_PARTS]
            assert min_cover(council_h, shrunk).k >= baseline

    def test_deterministic_witness(self, council_h):
        a = min_cover(council_h, COUNCIL_MAXIMAL_PARTS)
        b = min_cover(council_h, list(reversed(COUNCIL_MAXIMAL_PARTS)))
        assert a == b

    def test_random_hypergraph_covers_verify(self):
        rng = random.Random(23)
        for _ in range(25):
            h = random_hypergraph(rng, rng.randint(2, 8), rng.randint(0, 8))
            candidates = enumerate_maximal_independent(h)
            solution = min_cover(h, candidates)
            assert solution.verify(h)


def shared_search_graphs(council_h):
    """The council hypergraph and 20 seeded benchmark-sized antichains, each fresh."""
    rng = random.Random(7151)
    graphs = [Hypergraph(council_h.node_count, council_h.edges)]
    graphs += [cycle_antichain(rng, rng.randint(18, 24)) for _ in range(20)]
    return graphs


class TestSharedSearch:
    """min_cover over h's own maximal sets and no_k_cover share h's search."""

    def test_min_cover_is_the_same_over_own_list_and_shuffled(self, council_h):
        rng = random.Random(7159)
        for h in shared_search_graphs(council_h):
            own = enumerate_maximal_independent(h)
            first = min_cover(h, own)
            shuffled = list(own)
            rng.shuffle(shuffled)
            assert min_cover(h, list(own)) == first
            assert min_cover(h, shuffled) == first
            assert min_cover(h, own) == first
            fresh = Hypergraph(h.node_count, h.edges)
            assert min_cover(fresh, list(enumerate_maximal_independent(fresh))) == first
            assert first.verify(h)

    def test_no_k_cover_is_the_same_before_and_after_min_cover(self, council_h):
        minima = set()
        for h in shared_search_graphs(council_h):
            twin = Hypergraph(h.node_count, h.edges)
            k_min = min_cover(twin, list(enumerate_maximal_independent(twin))).k
            minima.add(k_min)
            before = [no_k_cover(h, k) for k in range(1, k_min + 1)]
            own = min_cover(h, enumerate_maximal_independent(h))
            assert own.k == k_min
            after = [no_k_cover(h, k) for k in range(k_min, 0, -1)][::-1]
            fresh = [no_k_cover(Hypergraph(h.node_count, h.edges), k)
                     for k in range(1, k_min + 1)]
            assert before == after == fresh
            assert all(r.refuted for r in before[:-1])
            assert not before[-1].refuted
        assert 8 in minima and len(minima) >= 2

    def test_one_search_per_hypergraph_and_a_refuted_limit_ends_at_the_root(
            self, monkeypatch):
        built, frames = [], []
        original = cover._cover_search

        def recording(cand_masks, full):
            built.append(full)
            return original(cand_masks, full)

        def profile(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_filename == cover.__file__
                    and code.co_name in ("dfs", "last")):
                frames.append(code.co_name)

        def frames_of(h, k):
            frames.clear()
            sys.setprofile(profile)
            try:
                refutation = no_k_cover(h, k)
            finally:
                sys.setprofile(None)
            assert refutation.refuted
            return frames

        monkeypatch.setattr(cover, "_cover_search", recording)
        rng = random.Random(7177)
        for t in range(18, 25):
            h = cycle_antichain(rng, t)
            solution = min_cover(h, enumerate_maximal_independent(h))
            assert solution.k >= 3
            # each refuted limit asked again is cut at the root: by the
            # failure memo or the size cut for k >= 2, by one scan for k = 1
            for k in range(solution.k - 1, 0, -1):
                assert frames_of(h, k) == (["dfs"] if k >= 2 else ["last"]), k
            assert no_k_cover(h, solution.k).counterexample == solution
            twin = Hypergraph(t, h.edges)
            assert no_k_cover(twin, solution.k - 1).refuted
            assert min_cover(twin, enumerate_maximal_independent(twin)) == solution
            assert built == [(1 << t) - 1] * 2
            built.clear()

    def test_bad_candidates_raise_as_before_once_the_sets_are_cached(self, council_h):
        for h in shared_search_graphs(council_h)[:6]:
            own = enumerate_maximal_independent(h)
            min_cover(h, own)
            t = h.node_count
            edge = sorted(h.edges[0])
            with pytest.raises(ValueError, match=re.escape(f"candidate part {edge}")):
                min_cover(h, own + (frozenset(edge),))
            with pytest.raises(ValueError, match=f"node {t + 1} out of range 1..{t}"):
                min_cover(h, list(own) + [{t + 1}])
            with pytest.raises(ValueError, match="node 0 out of range"):
                min_cover(h, [{0}] + list(own))
            with pytest.raises(ValueError, match="jointly cover"):
                min_cover(h, own[:1])

    @pytest.mark.parametrize("t", [30, 64])
    def test_explicit_candidates_above_the_node_guard_never_enumerate(self, t):
        h = Hypergraph(t, [(v, v % t + 1) for v in range(1, t + 1)])
        parts = (frozenset(range(1, t + 1, 2)), frozenset(range(2, t + 1, 2)))
        assert min_cover(h, parts).parts == parts
        assert min_cover(h, parts).parts == parts
        with pytest.raises(ValueError, match=f"node count must be in 0..24, got {t}$"):
            enumerate_maximal_independent(h)
        with pytest.raises(ValueError, match=f"node count must be in 0..24, got {t}$"):
            no_k_cover(h, 2)
        assert min_cover(h, list(parts)).parts == parts


class TestMaskConversion:
    def test_members_matches_the_comprehension_at_every_width(self):
        rng = random.Random(1009)
        for width in range(1, _packed.MAX_MEMBERS + 1):
            for _ in range(40):
                mask = rng.getrandbits(width) | 1 << (width - 1)
                assert _packed.members(mask) == tuple(
                    i + 1 for i in range(width) if mask >> i & 1)
        assert _packed.members(0) == ()

    def test_maximal_sets_are_inserted_in_ascending_order(self):
        # inserted in the same order as the sorted members, so the same repr
        rng = random.Random(1013)
        for _ in range(20):
            h = random_hypergraph(rng, rng.randint(1, cover.NODE_GUARD), 30)
            for s in enumerate_maximal_independent(h):
                assert repr(s) == repr(frozenset(sorted(s)))


class TestCoverSolution:
    def test_verify_rejects_missing_node(self, council_h):
        assert not CoverSolution([{1}]).verify(council_h)

    def test_verify_rejects_dependent_part(self, council_h):
        parts = [set(range(1, 16))]
        assert not CoverSolution(parts).verify(council_h)

    def test_a_found_cover_failing_verification_raises(self, monkeypatch):
        # A check that raises, not an assert, so `python -O` keeps it.
        monkeypatch.setattr(CoverSolution, "verify", lambda self, h: False)
        with pytest.raises(RuntimeError, match="^a found cover fails verification$"):
            min_cover(Hypergraph(3, [(1, 2), (2, 3), (1, 3)]), [(1,), (2,), (3,)])
        with pytest.raises(RuntimeError, match="^a found cover fails verification$"):
            no_k_cover(Hypergraph(3, [(1, 2), (2, 3), (1, 3)]), 3)


class TestDualCertificates:
    def test_first_council_dual(self, council_h):
        cert = COUNCIL_DUALS[0]
        assert verify_dual_certificate(cert, council_h)
        assert cert.total == Fraction(15, 2)
        assert cert.total > 7

    def test_second_council_dual(self, council_h):
        cert = COUNCIL_DUALS[1]
        assert verify_dual_certificate(cert, council_h)
        assert cert.total == Fraction(19, 3)
        assert cert.total > 6
        assert cert.weight_of(cert.excluded_part) == 0

    def test_bool_and_float_weights_rejected(self):
        # Fraction(True) is 1 and Fraction(0.5) the float's binary value
        with pytest.raises(ValueError, match="^weight of node 1 is a bool: True$"):
            DualWeightCertificate([True, 0.5], True)
        with pytest.raises(ValueError, match=r"^weight of node 2 is a float: 0\.5$"):
            DualWeightCertificate([1, 0.5], 1)

    @pytest.mark.parametrize("bound", [True, 2.0, Fraction(2)], ids=repr)
    def test_bound_must_be_a_plain_int(self, bound):
        with pytest.raises(ValueError, match=re.escape(f"bound must be an int, got {bound!r}")):
            DualWeightCertificate([1, "1/2"], bound)
        assert DualWeightCertificate([1, "1/2"], 2).weights == (1, Fraction(1, 2))

    def test_all_zero_weights_rejected(self):
        cert = DualWeightCertificate([0, 0], bound=1)
        assert not verify_dual_certificate(cert, SINGLE_EDGE)

    def test_negative_weight_raises(self, council_h):
        cert = DualWeightCertificate([-1] + [0] * 14, bound=1)
        with pytest.raises(ValueError, match="negative"):
            verify_dual_certificate(cert, council_h)

    def test_wrong_length_raises(self, council_h):
        with pytest.raises(ValueError, match="weights"):
            verify_dual_certificate(DualWeightCertificate([1], bound=1), council_h)

    def test_excluded_part_must_be_maximal(self, council_h):
        cert = DualWeightCertificate([1] * 15, bound=1, excluded_part=(1, 5))
        with pytest.raises(ValueError, match="maximal"):
            verify_dual_certificate(cert, council_h)

    def test_heavy_part_rejected_without_exclusion(self, council_h):
        weights = COUNCIL_DUALS[0].weights
        cert = DualWeightCertificate(weights, bound=7)  # {1,3,6} weighs 5/2
        assert not verify_dual_certificate(cert, council_h)

    def test_weight_of_rejects_nodes_out_of_range(self):
        cert = DualWeightCertificate([1, 2, 3], bound=1)
        assert cert.weight_of([1, 3]) == 4
        assert cert.weight_of(v for v in (2, 3)) == 5
        assert cert.weight_of([]) == 0
        for node in (0, -1, 4):
            with pytest.raises(ValueError, match=f"node {node} out of range 1..3"):
                cert.weight_of([1, node])
        with pytest.raises(ValueError, match="node True is a bool"):
            cert.weight_of([True])
        with pytest.raises(ValueError, match="node 1.0 is not an integer"):
            cert.weight_of([1.0])

    @staticmethod
    def fraction_reference(cert, h):
        maximal = enumerate_maximal_independent(h)
        excluded = cert.excluded_part

        def weight(nodes):
            return sum((cert.weights[v - 1] for v in nodes), Fraction(0))

        if any(weight(s) > 1 for s in maximal if s != excluded):
            return False
        threshold = cert.bound
        if excluded is not None and weight(excluded) == 0:
            threshold -= 1
        return cert.total > threshold

    def test_integer_check_matches_the_fraction_sums(self):
        rng = random.Random(6971)
        verdicts = []
        for _ in range(150):
            h = random_hypergraph(rng, rng.randint(2, 9), rng.randint(1, 12))
            maximal = enumerate_maximal_independent(h)
            denominators = rng.choice([(1,), (2, 3), (2, 3, 4, 6, 7), (10**9 + 7, 6)])
            weights = [Fraction(rng.randint(0, 3), rng.choice(denominators))
                       for _ in range(h.node_count)]
            excluded = rng.choice([None, rng.choice(maximal)])
            if excluded is not None and rng.random() < 0.5:
                weights = [Fraction(0) if v in excluded else w
                           for v, w in enumerate(weights, 1)]
            # put the heaviest set at, just below or just above weight 1
            heaviest = max(sum(weights[v - 1] for v in s) for s in maximal if s != excluded)
            if heaviest:
                factor = rng.choice([Fraction(1), Fraction(99, 100), Fraction(101, 100)])
                weights = [w * factor / heaviest for w in weights]
            for bound in (1, 2, 3):
                cert = DualWeightCertificate(weights, bound, excluded)
                verdict = verify_dual_certificate(cert, h)
                assert verdict == self.fraction_reference(cert, h)
                verdicts.append(verdict)
        assert 50 < sum(verdicts) < len(verdicts) - 50

    def test_sums_at_exactly_one_and_at_the_bound(self):
        # the two singletons of one edge weigh exactly 1: allowed; a total of
        # exactly the bound refutes nothing
        assert verify_dual_certificate(DualWeightCertificate([1, Fraction(2, 2)], 1), SINGLE_EDGE)
        assert not verify_dual_certificate(DualWeightCertificate([1, 1], 2), SINGLE_EDGE)
        third = Fraction(1, 3)
        assert not verify_dual_certificate(
            DualWeightCertificate([third, third, 1 + third], 2), TRIANGLE)
        assert verify_dual_certificate(
            DualWeightCertificate([1, 1, 0], 1, excluded_part={3}), TRIANGLE)
        assert not verify_dual_certificate(
            DualWeightCertificate([1, 1, 0], 3, excluded_part={3}), TRIANGLE)

    def test_errors_keep_their_order(self, council_h):
        # wrong length before a negative weight before a non-maximal exclusion
        with pytest.raises(ValueError, match="expected 15 weights"):
            verify_dual_certificate(DualWeightCertificate([-1] * 14, 1, (1, 5)), council_h)
        with pytest.raises(ValueError, match="negative weight -1 at node 2"):
            verify_dual_certificate(DualWeightCertificate([0, -1] + [0] * 13, 1, (1, 5)),
                                    council_h)

    def test_hand_built_duals_agree_with_search(self):
        # single edge: both singletons weigh 1, total 2 > 1, so no 1-cover
        cert = DualWeightCertificate([1, 1], bound=1)
        assert verify_dual_certificate(cert, SINGLE_EDGE)
        assert no_k_cover(SINGLE_EDGE, 1).refuted
        # triangle: three singleton parts of weight 1, total 3 > 2
        cert = DualWeightCertificate([1, 1, 1], bound=2)
        assert verify_dual_certificate(cert, TRIANGLE)
        assert no_k_cover(TRIANGLE, 2).refuted


class TestNoKCover:
    def test_council_seven_refuted_by_both_paths(self, council_h):
        refutation = no_k_cover(council_h, 7)
        assert refutation.refuted
        assert dual_refutation(council_h, 7) == COUNCIL_DUALS

    def test_council_eight_has_counterexample(self, council_h):
        refutation = no_k_cover(council_h, 8)
        assert not refutation.refuted
        assert refutation.counterexample.k <= 8
        assert refutation.counterexample.verify(council_h)

    def test_council_six_refuted_by_the_fractional_bound(self, council_h):
        refutation = no_k_cover(council_h, 6)
        assert refutation.refuted
        (cert,) = dual_refutation(council_h, 6)
        assert cert.total == 7 and cert.excluded_part is None

    def test_edgeless_graph_counterexample(self):
        refutation = no_k_cover(EDGELESS_3, 1)
        assert not refutation.refuted
        assert refutation.counterexample.parts == (frozenset({1, 2, 3}),)

    def test_k_must_be_positive(self, council_h):
        with pytest.raises(ValueError):
            no_k_cover(council_h, 0)

    @pytest.mark.parametrize("k", [True, 2.0], ids=repr)
    def test_k_must_be_a_plain_int(self, k):
        # True and 2.0 equal 1 and 2, and would be kept as the Refutation's k
        with pytest.raises(ValueError, match=re.escape(f"k must be an int, got {k!r}")):
            no_k_cover(SINGLE_EDGE, k)


def fractional_lp(h, nodes, parts):
    """phase_two on the cover LP: the given nodes' weights, each part at most 1."""
    rows = [(sum(1 << i for i, v in enumerate(nodes) if v in p), 0) for p in parts]
    x, y, denom, value = phase_two(rows, [1] * len(rows), [1] * len(nodes))
    return ([Fraction(w, denom) for w in x], [Fraction(w, denom) for w in y],
            Fraction(value, denom))


class TestDualRefutation:
    def test_council_derives_the_bundled_duals(self, council_h):
        assert dual_refutation(council_h, 7) == COUNCIL_DUALS

    def test_random_hypergraphs_are_sound(self):
        rng = random.Random(4049)
        outcomes = {0: 0, 1: 0, 2: 0}
        derived = hashlib.sha256()
        for _ in range(200):
            t = rng.randint(2, 12)
            h = random_hypergraph(rng, t, rng.randint(1, 3 * t))
            m = min_cover(h, enumerate_maximal_independent(h)).k
            assert dual_refutation(h, m) == ()
            for k in range(max(1, m - 2), m):
                certs = dual_refutation(h, k)
                derived.update(f"{certs!r}\n".encode())
                outcomes[len(certs)] += 1
                assert all(verify_dual_certificate(c, h) for c in certs)
                assert no_k_cover(h, k).refuted
        assert outcomes[1] > 100
        # the derived weightings themselves, not only their soundness
        assert derived.hexdigest() == (
            "f09cfdc7d52000866f91c286ea3a59ea8b2367ea6a811021fb164659774d6c00")

    def test_branch_refutes_what_the_fractional_bound_cannot(self):
        # The Grotzsch graph has fractional cover number 29/10 and needs 4
        # parts: the LP leaves k = 3 open, and no single branch closes it.
        edges = []
        for i in range(5):
            u, w = i + 1, i + 6
            edges += [(u, u % 5 + 1), (w, (i - 1) % 5 + 1), (w, (i + 1) % 5 + 1), (w, 11)]
        h = Hypergraph(11, edges)
        assert min_cover(h, enumerate_maximal_independent(h)).k == 4
        assert fractional_lp(h, range(1, 12), enumerate_maximal_independent(h))[2] == Fraction(29, 10)
        assert no_k_cover(h, 3).refuted
        assert dual_refutation(h, 3) == ()

    def test_part_with_a_lone_node_is_skipped(self, council_h):
        # Swapping L1 and L15 puts {1}, the only maximal set holding node 1,
        # first in the support of the fractional cover.
        swap = {1: 15, 15: 1}
        h = Hypergraph(15, [[swap.get(v, v) for v in e] for e in council_h.edges])
        maximal = enumerate_maximal_independent(h)
        lone = maximal[0]
        assert lone == frozenset({1}) and sum(1 in s for s in maximal) == 1
        _, support, total = fractional_lp(h, range(1, 16), maximal)
        assert total == 7 and support[0] > 0
        # Covering node 1 costs the fractional cover 1 on {1}, so the LP
        # with {1} weighing 0 cannot exceed 6, and the LP without the bound
        # on {1} is unbounded: the branch can never refute.
        assert fractional_lp(h, range(2, 16), maximal[1:])[2] <= 6
        with pytest.raises(RuntimeError, match="unbounded"):
            fractional_lp(h, range(1, 16), maximal[1:])
        without, within = dual_refutation(h, 7)
        assert without.excluded_part == within.excluded_part == frozenset({3, 6, 15})
        assert [without.weights[swap.get(v, v) - 1] for v in range(1, 16)] \
            == list(COUNCIL_DUALS[0].weights)
        assert [within.weights[swap.get(v, v) - 1] for v in range(1, 16)] \
            == list(COUNCIL_DUALS[1].weights)

    def test_single_edge_and_edgeless(self):
        assert dual_refutation(SINGLE_EDGE, 1) == (DualWeightCertificate([1, 1], 1),)
        assert dual_refutation(EDGELESS_3, 1) == ()

    def test_node_guard(self):
        with pytest.raises(ValueError, match="node count must be in 0..24, got 25$"):
            dual_refutation(Hypergraph(25, [(1, 2)]), 1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="^k must be at least 1, got 0$"):
            dual_refutation(SINGLE_EDGE, 0)

    def test_k_must_be_a_plain_int(self):
        # 2.5 would refute no 2-cover of the triangle but be kept as the bound
        with pytest.raises(ValueError, match=re.escape("k must be an int, got 2.5")):
            dual_refutation(TRIANGLE, 2.5)
        assert dual_refutation(TRIANGLE, 2)[0].bound == 2


def random_phase_two_system(rng, k, m):
    """k columns and m rows, with nonnegative or signed entries."""
    signed = rng.random() < 0.3
    rows = [[rng.choice((-1, 0, 1, 1) if signed else (0, 0, 1)) for _ in range(k)]
            for _ in range(m)]
    rhs = [rng.choice((0, 1, 1)) for _ in range(m)]
    return rows, rhs, [rng.choice((0, 1, 1, 2)) for _ in range(k)]


def check_phase_two(rows, rhs, objective):
    """phase_two matches the reference and its multipliers are optimal duals."""
    k = len(objective)
    masks = as_masks(rows)
    try:
        expected = reference_phase_two(rows, rhs, objective)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="unbounded"):
            phase_two(masks, rhs, objective)
        return "unbounded"
    x, y, denom, value = phase_two(masks, rhs, objective)
    assert denom > 0
    assert ([Fraction(v, denom) for v in x], [Fraction(v, denom) for v in y],
            Fraction(value, denom)) == expected
    assert all(v >= 0 for v in x + y)
    for j in range(k):
        assert sum(yi * row[j] for yi, row in zip(y, rows)) >= objective[j] * denom
    assert sum(yi * b for yi, b in zip(y, rhs)) == value
    return "optimal"


class TestPhaseTwo:
    """The packed Phase II against the dense `Fraction` reference."""

    def test_random_systems_match_reference(self):
        rng = random.Random(7207)
        outcomes = {"optimal": 0, "unbounded": 0}
        for _ in range(400):
            system = random_phase_two_system(rng, rng.randint(1, 10), rng.randint(0, 14))
            outcomes[check_phase_two(*system)] += 1
        assert outcomes["optimal"] > 150 and outcomes["unbounded"] > 50

    @pytest.mark.parametrize("k", range(8, 32))
    def test_every_field_width(self, k):
        # The fields round up to 32 bits from k = 9, to 64 from k = 15 and
        # to two 64-bit words from k = 26.
        # Every third row repeats, which makes Bland's ratio test break ties.
        rng = random.Random(6007 + k)
        for _ in range(4):
            rows, rhs, objective = random_phase_two_system(rng, k, rng.randint(20, 36))
            check_phase_two(rows + rows[::3], rhs + rhs[::3], objective)

    def test_pivot_off_an_odd_denominator(self):
        assert check_phase_two(ODD_PIVOT_ROWS, *ODD_PIVOT_PHASE_TWO) == "optimal"

    def test_council_duals_pinned(self, council_h, monkeypatch):
        # The three LPs `dual_refutation` solves on the council family, each
        # checked against the reference, and their raw outputs (vertex,
        # multipliers, D, value) pinned.
        outputs = []

        def record(rows, rhs, objective):
            check_phase_two(as_entries(rows, len(objective)), rhs, objective)
            outputs.append(phase_two(rows, rhs, objective))
            return outputs[-1]

        monkeypatch.setattr(cover, "phase_two", record)
        assert dual_refutation(council_h, 7) == COUNCIL_DUALS
        assert len(outputs) == 3
        assert hashlib.sha256(repr(outputs).encode()).hexdigest() == (
            "9d4c45b3d286e43e7e819774e8f36963a8365d190f235a8fac8f2fda5b86e5b6")

    @pytest.mark.parametrize("order, bits", [(32, 76), (64, 187)])
    def test_entries_wider_than_64_bits(self, order, bits):
        rows = [[-v for v in row] for row in sylvester_minor(order)]
        ones = [1] * len(rows)
        assert check_phase_two(rows, ones, ones) == "optimal"
        assert phase_two(as_masks(rows), ones, ones)[2].bit_length() == bits


class TestBoundedCoverMemo:
    @staticmethod
    def search_input(h):
        ordered = sorted(enumerate_maximal_independent(h),
                         key=lambda c: (-len(c), tuple(sorted(c))))
        masks = [sum(1 << (v - 1) for v in c) for c in ordered]
        return masks, (1 << h.node_count) - 1

    def assert_same_at_every_limit(self, masks, full):
        limit = 0
        while True:
            limit += 1
            hit = cover._cover_search(masks, full)(limit)
            assert hit == reference_cover_search(masks, full, limit), limit
            if hit is not None:
                return limit

    def test_same_result_as_without_memo_on_random_hypergraphs(self):
        rng = random.Random(37)
        minima = set()
        for _ in range(60):
            t = rng.randint(6, 18)
            h = random_hypergraph(rng, t, rng.randint(t, t * t // 2))
            masks, full = self.search_input(h)
            minima.add(self.assert_same_at_every_limit(masks, full))
            # a shuffled candidate order changes the search tree
            rng.shuffle(masks)
            self.assert_same_at_every_limit(masks, full)
        assert len(minima) >= 4 and max(minima) >= 5

    def test_same_result_on_the_council_family(self, council_h):
        masks, full = self.search_input(council_h)
        assert self.assert_same_at_every_limit(masks, full) == 8

    def test_same_result_on_benchmark_sized_antichains(self):
        rng = random.Random(6353)
        minima = set()
        for _ in range(20):
            h = cycle_antichain(rng, rng.randint(18, 24))
            masks, full = self.search_input(h)
            minima.add(self.assert_same_at_every_limit(masks, full))
            rng.shuffle(masks)
            self.assert_same_at_every_limit(masks, full)
        assert len(minima) >= 2

    @pytest.mark.parametrize("masks, full, first", [
        ([0b011, 0b111, 0b100], 0b111, (1,)),              # one covers all
        ([0b0011, 0b0110, 0b1100], 0b1111, (0, 2)),        # two are needed
        ([0b0011, 0b0110, 0b1000, 0b1100], 0b1111, (0, 3)),
        ([0b001, 0b010, 0b100, 0b011], 0b111, (3, 2)),
        ([0b01, 0b10], 0, ()),                             # nothing to cover
        ([], 0, ()),
        ([], 0b1, None),                                   # no candidates
        ([0b0110, 0b0110, 0b1001, 0b1001], 0b1111, (2, 0)),  # duplicates
    ])
    def test_edge_cases_of_the_last_two_levels(self, masks, full, first):
        search = cover._cover_search(masks, full)
        hits = [search(limit) for limit in range(5)]
        assert hits == [reference_cover_search(masks, full, limit) for limit in range(5)]
        assert next((hit for hit in hits if hit is not None), None) == first


class TestCoOccurrenceCut:
    """The co-occurrence cut drops only subtrees that hold no cover.

    On fresh copies of each hypergraph, `min_cover` and `no_k_cover` at
    every limit, asked in both orders, give the covers and refutations of
    the search that cuts nothing.
    """

    @staticmethod
    def assert_same_as_uncut(h):
        t = h.node_count
        maximal = enumerate_maximal_independent(Hypergraph(t, h.edges))
        masks = [sum(1 << (v - 1) for v in s) for s in maximal]
        expected = {}
        for k in range(1, t + 1):
            hit = reference_cover_search(masks, (1 << t) - 1, k)
            expected[k] = None if hit is None else CoverSolution(map(maximal.__getitem__, hit))
        first = next(k for k in expected if expected[k] is not None)
        twin = Hypergraph(t, h.edges)
        assert min_cover(twin, enumerate_maximal_independent(twin)) == expected[first]
        for order in (range(1, t + 1), range(t, 0, -1)):
            for k in order:
                assert no_k_cover(twin, k).counterexample == expected[k], k
            twin = Hypergraph(t, h.edges)
        return first

    def test_random_hypergraphs(self):
        rng = random.Random(5519)
        minima = set()
        for _ in range(80):
            t = rng.randint(2, 12)
            h = random_hypergraph(rng, t, rng.randint(1, t * (t - 1) // 2))
            minima.add(self.assert_same_as_uncut(h))
        assert len(minima) >= 4 and max(minima) >= 5

    def test_council_family(self, council_h):
        assert self.assert_same_as_uncut(council_h) == 8


@pytest.fixture
def searched(monkeypatch):
    """The candidate masks of every `_cover_search` built, in the order it tries them."""
    seen = []
    original = cover._cover_search

    def recording(cand_masks, full):
        seen.append(sorted(cand_masks, key=int.bit_count, reverse=True))
        return original(cand_masks, full)

    monkeypatch.setattr(cover, "_cover_search", recording)
    return seen


class TestSearchOrder:
    """The candidate order both searches use: (-size, member tuple)."""

    @staticmethod
    def full_sort(sets):
        return [sum(1 << (v - 1) for v in s)
                for s in sorted(sets, key=lambda s: (-len(s), tuple(sorted(s))))]

    def test_search_order_is_the_full_sort_at_any_width(self, searched):
        # explicit candidates, searched in the order min_cover gives them
        rng = random.Random(2221)
        for t in (1, 7, 8, 9, 24, 30, 64):
            sets = [frozenset(rng.sample(range(1, t + 1), rng.randint(0, t)))
                    for _ in range(60)]
            sets += sets[:10] + [frozenset(range(1, t + 1))]  # duplicates; a cover
            min_cover(Hypergraph(t, []), sets)
            assert searched.pop() == self.full_sort(sets)

    def test_member_tuple_order_is_shared_at_any_width(self, searched):
        # coalition_sort_key, Hypergraph edges and min_cover's search all
        # sort by the (size, member tuple) of the comprehension
        rng = random.Random(2237)
        for t in (1, 7, 8, 9, 24, 30, 64):
            masks = list({rng.getrandbits(t) for _ in range(80)} | {0, (1 << t) - 1})
            tuples = {m: tuple(i + 1 for i in range(t) if m >> i & 1) for m in masks}
            ascending = sorted(masks, key=lambda m: (len(tuples[m]), tuples[m]))
            coalitions = sorted((Coalition(t, m) for m in masks), key=coalition_sort_key)
            assert [c.mask for c in coalitions] == ascending
            # edges of one size form an antichain, so none is dropped; at
            # t=1 there is no edge of two nodes
            edges = {frozenset(rng.sample(range(1, t + 1), max(t // 2, 2)))
                     for _ in range(40 if t > 1 else 0)}
            assert Hypergraph(t, edges).edges == tuple(
                sorted(edges, key=lambda e: tuple(sorted(e))))
            descending = sorted(masks, key=lambda m: (-len(tuples[m]), tuples[m]))
            min_cover(Hypergraph(t, []), [tuples[m] for m in masks])
            assert searched.pop() == descending

    def test_no_k_cover_searches_the_full_sort(self, searched):
        rng = random.Random(2203)
        for t in range(18, 25):
            h = cycle_antichain(rng, t)
            no_k_cover(h, 3)
            assert searched.pop() == self.full_sort(enumerate_maximal_independent(h))

    def test_min_cover_searches_the_full_sort_of_any_input_order(self, monkeypatch):
        seen = []
        original = cover._cover_search

        def recording(cand_masks, full):
            seen.append(sorted(cand_masks, key=int.bit_count, reverse=True))
            return original(cand_masks, full)

        monkeypatch.setattr(cover, "_cover_search", recording)
        rng = random.Random(2213)
        for t in range(18, 25):
            h = cycle_antichain(rng, t)
            candidates = list(enumerate_maximal_independent(h))
            rng.shuffle(candidates)
            first = min_cover(h, candidates)
            assert seen.pop() == self.full_sort(candidates)
            assert min_cover(h, sorted(candidates, key=len)) == first

    def test_hit_names_candidates_by_input_index(self):
        rng = random.Random(2243)
        renamed = 0
        for t in range(18, 25):
            h = cycle_antichain(rng, t)
            k = min_cover(h, enumerate_maximal_independent(h)).k
            full = (1 << t) - 1
            masks = list(h._maximal_masks)
            rng.shuffle(masks)
            hit = cover._cover_search(masks, full)(k)
            assert len(hit) == k
            assert functools.reduce(operator.or_, (masks[i] for i in hit)) == full
            # the cover the search finds over its own order, named in the input
            ordered = sorted(masks, key=int.bit_count, reverse=True)
            in_order = cover._cover_search(ordered, full)(k)
            assert [masks[i] for i in hit] == [ordered[j] for j in in_order]
            renamed += hit != in_order
        assert renamed >= 5


def tiny_certified_family(game, losing_pair, winning_pair):
    cert = BalanceCertificate(losing=losing_pair, winning=winning_pair)
    return CertifiedFamily(
        nodes=tuple(losing_pair),
        hypergraph=Hypergraph(2, [(1, 2)]),
        certificates={frozenset({1, 2}): cert},
    )


class TestLowerBoundDimension:
    def test_council_bound_is_eight(self, eu_game, family):
        assert lower_bound_dimension(eu_game, family) == 8

    def test_single_edge_gives_two(self):
        game = IntersectionGame([
            WeightedGame(4, [1, 1, 0, 0], 1),
            WeightedGame(4, [0, 0, 1, 1], 1),
        ])
        family = tiny_certified_family(
            game,
            (Coalition.from_indices([1, 2], 4), Coalition.from_indices([3, 4], 4)),
            (Coalition.from_indices([1, 3], 4), Coalition.from_indices([2, 4], 4)),
        )
        assert lower_bound_dimension(game, family) == 2

    def test_uncertified_edge_rejected(self):
        game = WeightedGame(4, [1, 1, 1, 1], 3)
        # the "winning" pair below is losing, so verification must fail
        family = tiny_certified_family(
            game,
            (Coalition.from_indices([1, 2], 4), Coalition.from_indices([3, 4], 4)),
            (Coalition.from_indices([1, 3], 4), Coalition.from_indices([2, 4], 4)),
        )
        with pytest.raises(CertificateError):
            lower_bound_dimension(game, family)
