"""Spans and counts around gamedim's public functions, recorded from outside.

`Recorder.install()` replaces module and class attributes of the gamedim
modules with wrappers; `uninstall()` puts the originals back, so untraced ops
run the unmodified program.  Calls made inside gamedim through a module
global or a class attribute (``certificates.verify_balance`` called from
``cli``, ``is_independent`` called from ``CoverSolution.verify``) resolve to
the wrapper too, so every span gets its parent without any change to
``src/gamedim``.

Spans are kept in memory until the run ends.  Each is a list
``[name_id, parent_index, op_id, start, end]``, appended as one object so a
time-limit signal can never leave a half-written record.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Any, Callable

from gamedim import certificates, cli, cover, eu, games, separation

MODULES = {
    "games": games,
    "eu": eu,
    "certificates": certificates,
    "separation": separation,
    "cover": cover,
    "cli": cli,
}


def _verdict(result: Any) -> str:
    if isinstance(result, separation.Separable):
        return "separation.verdict.separable"
    return "separation.verdict.not_separable"


# (module, attribute path, span name, result hook).  These are the public
# functions that carry each layer's work.  Per-element helpers (sort keys,
# generators, Coalition set operations, small methods) are left unwrapped:
# their time falls into the caller's self time.  A span per call would cost
# more than the call, and a generator's span would end before its work does.
# The four `contains` methods share one name, so nested parts of composed
# games are counted like any other membership test.
SPANS: tuple[tuple[str, str, str, Callable[[Any], Counter] | None], ...] = (
    ("games", "WeightedGame.contains", "games.contains", None),
    ("games", "ExplicitGame.contains", "games.contains", None),
    ("games", "IntersectionGame.contains", "games.contains", None),
    ("games", "UnionGame.contains", "games.contains", None),
    ("games", "minimal_winning", "games.minimal_winning", None),
    ("eu", "build_eu_game", "eu.build_eu_game", None),
    ("eu", "EuGame.is_winning", "eu.is_winning", None),
    ("eu", "EuGame.classify", "eu.classify", None),
    ("certificates", "transfer_split", "certificates.transfer_split", None),
    ("certificates", "build_pair_certificate", "certificates.build_pair_certificate", None),
    ("certificates", "build_anchor_certificate", "certificates.build_anchor_certificate", None),
    ("certificates", "verify_balance", "certificates.verify_balance", None),
    ("certificates", "nonseparable_family", "certificates.nonseparable_family", None),
    ("separation", "lp_feasible", "separation.lp_feasible",
     lambda r: Counter({_verdict(r): 1})),
    ("cover", "enumerate_maximal_independent", "cover.enumerate_maximal_independent",
     lambda r: Counter({"cover.maximal_sets.found": len(r)})),
    ("cover", "min_cover", "cover.min_cover", None),
    ("cover", "no_k_cover", "cover.no_k_cover", None),
    ("cover", "verify_dual_certificate", "cover.verify_dual_certificate", None),
    ("cover", "is_independent", "cover.is_independent", None),
    ("cli", "run_verification", "cli.run_verification", None),
)

# Counted without a span: one Coalition validation is a few comparisons.
COUNTED = (("games", "Coalition.__post_init__", "games.coalition.constructed"),)
# Counters set by the result hooks above and by the worker; reported as 0
# when nothing incremented them.
COUNTERS = ("separation.verdict.separable", "separation.verdict.not_separable",
            "separation.timeouts", "cover.maximal_sets.found")


def _owner(module_key: str, path: str) -> tuple[object, str]:
    owner: object = MODULES[module_key]
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Recorder:
    """Collects spans and counts while installed; aggregates them afterwards.

    The wrappers are built once; `install()` and `uninstall()` only swap
    attributes, so they are cheap enough to bracket every op.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._installed = False
        # (owner, attribute, original, wrapper)
        self._patches: list[tuple[object, str, object, object]] = []
        for module_key, path, name, hook in SPANS:
            owner, attr = _owner(module_key, path)
            original = getattr(owner, attr)
            self._patches.append(
                (owner, attr, original, self._span_wrapper(original, name, hook)))
        for module_key, path, name in COUNTED:
            owner, attr = _owner(module_key, path)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, self._count_wrapper(original, name)))

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span_wrapper(self, fn, name: str, hook):
        nid = self._name_id(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [nid, stack[-1], self.op_id, clock(), 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if hook is not None:
                counts.update(hook(result))
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracing is already installed")
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._installed = False

    def abandon_open_spans(self) -> None:
        """Close spans left open by an exception that hit before their `try`."""
        now = time.perf_counter()
        for record in self.spans:
            if record[4] == 0.0:
                record[4] = now
        del self._stack[1:]

    def snapshot(self) -> dict[str, int]:
        """Call counts per span name plus the plain counters, as integers.

        Every name that could be counted is present, with 0 if never hit.
        """
        out: dict[str, int] = Counter()
        out.update({f"{name}.calls": 0 for _, _, name, _ in SPANS})
        out.update({name: 0 for _, _, name in COUNTED})
        out.update({name: 0 for name in COUNTERS})
        for record in self.spans:
            out[self.names[record[0]] + ".calls"] += 1
        out.update(self.counts)
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name.

        Self time is a span's duration minus the durations of its child
        spans; children of one span run one after another in this
        single-threaded program, so their durations never overlap.
        """
        child = [0.0] * len(self.spans)
        for record in self.spans:
            if record[1] >= 0:
                child[record[1]] += record[4] - record[3]
        own: dict[str, float] = {name: 0.0 for _, _, name, _ in SPANS}
        for i, record in enumerate(self.spans):
            own[self.names[record[0]]] += record[4] - record[3] - child[i]
        return dict(own)
