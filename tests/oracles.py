"""Plain enumerations that the tests use as oracles for the library's tables."""

from __future__ import annotations

from typing import Iterator


def multi_indices(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All length-n multi-indices of degree r, in decreasing lexicographic order."""
    if n == 1:
        yield (r,)
        return
    for first in range(r, -1, -1):
        for rest in multi_indices(n - 1, r - first):
            yield (first,) + rest
