"""Exact independence-number machinery: branch-and-bound alpha, full
enumeration of maximum independent sets, and their intersection (core).

These are desk-scale exponential routines; they serve as the oracle layer
against which the polynomial algorithms elsewhere are validated.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import LimitExceededError
from .graphs import Graph, VertexSet, bits, set_of

ALPHA_LIMIT = 40
ENUMERATION_LIMIT = 20
# The largest alpha limit `alpha` accepts: its branch-and-bound recurses
# once per branching, up to n deep, which must stay well inside Python's
# recursion limit.
ALPHA_CEILING = 200


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    xs = g.members(s)
    return all(xs.isdisjoint(g.nbrs[v]) for v in xs)


def alpha(g: Graph, limit: int = ALPHA_LIMIT) -> int:
    """Independence number, exact branch-and-bound.  A limit above
    ALPHA_CEILING raises ValueError, whatever the order of g."""
    if limit > ALPHA_CEILING:
        raise ValueError(
            f"alpha limit must be at most {ALPHA_CEILING}, got {limit}")
    if g.n > limit:
        raise LimitExceededError(f"n={g.n} exceeds alpha limit {limit}")
    return _alpha_mask(g, g.full_mask)


def _alpha_mask(g: Graph, start: int) -> int:
    adj = g.adj
    cache: dict[int, int] = {}

    def rec(mask: int) -> int:
        if mask == 0:
            return 0
        hit = cache.get(mask)
        if hit is not None:
            return hit
        orig = mask
        res = 0
        # Safe reductions: take isolated vertices and leaves greedily.
        changed = True
        while changed and mask:
            changed = False
            for v in bits(mask):
                nb = adj[v] & mask
                deg = nb.bit_count()
                if deg == 0:
                    mask ^= 1 << v
                    res += 1
                    changed = True
                    break
                if deg == 1:
                    mask &= ~((1 << v) | nb)
                    res += 1
                    changed = True
                    break
        if mask == 0:
            cache[orig] = res
            return res
        v = max(bits(mask), key=lambda u: ((adj[u] & mask).bit_count(), -u))
        res += max(rec(mask & ~(1 << v)),
                   1 + rec(mask & ~((1 << v) | adj[v])))
        cache[orig] = res
        return res

    return rec(start)


def _iter_maximum_independent_masks(g: Graph) -> Iterator[int]:
    """Yield every maximum independent set of g as a bitmask."""
    target = _alpha_mask(g, g.full_mask)
    adj = g.adj

    def rec(mask: int, chosen: int, size: int) -> Iterator[int]:
        if size + mask.bit_count() < target:
            return
        if mask == 0:
            if size == target:
                yield chosen
            return
        low = mask & -mask
        v = low.bit_length() - 1
        yield from rec(mask & ~(low | adj[v]), chosen | low, size + 1)
        yield from rec(mask ^ low, chosen, size)

    yield from rec(g.full_mask, 0, 0)


def enumerate_maximum_independent_sets(
        g: Graph, limit: int = ENUMERATION_LIMIT) -> list[VertexSet]:
    """All maximum independent sets, ordered lexicographically."""
    if g.n > limit:
        raise LimitExceededError(f"n={g.n} exceeds enumeration limit {limit}")
    out = [set_of(m) for m in _iter_maximum_independent_masks(g)]
    out.sort(key=sorted)
    return out


def core(g: Graph, limit: int = ENUMERATION_LIMIT) -> VertexSet:
    """Intersection of all maximum independent sets."""
    if g.n > limit:
        raise LimitExceededError(f"n={g.n} exceeds enumeration limit {limit}")
    inter = None
    for m in _iter_maximum_independent_masks(g):
        inter = m if inter is None else inter & m
        if inter == 0:
            break
    return set_of(inter or 0)
