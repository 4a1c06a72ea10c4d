"""Masks packed into one int, for a containment test against all of them.

Masks of n bits sit one per (n+1)-bit field, whose top bit is a guard.
Field i of packed & (~m * ones) is zero iff mask i lies inside m; with the
guards set, subtracting one per field clears exactly those fields' guards
and borrows nothing across fields.  So "does any packed mask lie inside m"
is one multiplication, one subtraction and a few bitwise operations, with
no Python frame per mask.
"""

from __future__ import annotations

from collections.abc import Iterable


class PackedMasks:
    """Masks of n bits, tested together: does any of them lie inside m?"""

    __slots__ = ("_n", "_full", "_packed", "_ones", "_guards", "_at")

    def __init__(self, n: int, masks: Iterable[int] = ()):
        self._n = n
        self._full = (1 << n) - 1
        self._packed = self._ones = self._guards = self._at = 0
        for m in masks:
            self.add(m)

    def add(self, m: int) -> None:
        at = self._at
        self._packed |= m << at
        self._ones |= 1 << at
        self._guards |= 1 << (at + self._n)
        self._at = at + self._n + 1

    def any_inside(self, m: int) -> bool:
        ones, guards = self._ones, self._guards
        return (((self._packed & ((self._full ^ m) * ones)) | guards) - ones) & guards != guards
