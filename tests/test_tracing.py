"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracing.py` patches gamedim functions by name; a refactor that
renames or deletes one would otherwise fail only in a traced bench run.
"""

import importlib.util
from pathlib import Path

from gamedim import cover, games

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored():
    tracing = load_tracing()
    recorder = tracing.Recorder()  # resolves every name in SPANS and COUNTED
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in recorder._patches]
    assert len(originals) == len(tracing.SPANS) + len(tracing.COUNTED)
    recorder.install()
    try:
        h = cover.Hypergraph(3, [(1, 2)])
        assert cover.no_k_cover(h, 2).counterexample is not None
        games.Coalition(3, 0b101)
    finally:
        recorder.uninstall()
    counts = recorder.snapshot()
    assert counts["cover.no_k_cover.calls"] == 1
    assert counts["cover.is_independent.calls"] == 2  # CoverSolution.verify
    assert counts["games.coalition.constructed"] == 1
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)


def test_traced_enumeration_returns_the_cached_tuple():
    # min_cover takes the shared search only for the identical tuple, so the
    # wrapper must hand back the hypergraph's own, as the bench's op passes it.
    tracing = load_tracing()
    recorder = tracing.Recorder()
    h = cover.Hypergraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    recorder.install()
    try:
        maximal = cover.enumerate_maximal_independent(h)
        assert maximal is h._maximal_sets
        assert cover.enumerate_maximal_independent(h) is maximal
        solution = cover.min_cover(h, maximal)
        assert "_cover" in h.__dict__
        assert cover.no_k_cover(h, solution.k - 1).refuted
    finally:
        recorder.uninstall()
    counts = recorder.snapshot()
    assert solution.k == 3
    assert counts["cover.enumerate_maximal_independent.calls"] == 3
    assert counts["cover.maximal_sets.found"] == 15
