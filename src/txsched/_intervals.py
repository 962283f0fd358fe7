"""Small helpers for sorted, disjoint interval lists.

Intervals are (start, end) tuples with end > start, kept sorted by
start.  The caller gives the tolerance in the time unit of its
intervals: `merge` joins intervals apart by at most `tol`, and
`intersect` and `subtract` drop pieces no longer than it.
"""

from __future__ import annotations


def measure(intervals) -> float:
    return sum(e - s for s, e in intervals)


def merge(intervals, tol: float) -> list[tuple[float, float]]:
    """Sort and coalesce intervals that touch or overlap within tol."""
    if not intervals:
        return []
    ivs = sorted(intervals)
    out = [ivs[0]]
    for s, e in ivs[1:]:
        ps, pe = out[-1]
        if s <= pe + tol:
            out[-1] = (ps, max(pe, e))
        else:
            out.append((s, e))
    return out


def intersect(a, b, tol: float) -> list[tuple[float, float]]:
    """Intersection of two sorted disjoint interval lists."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if e - s > tol:
            out.append((s, e))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract(a, b, tol: float) -> list[tuple[float, float]]:
    """Parts of `a` not covered by `b` (both sorted disjoint)."""
    out = []
    j = 0
    for s, e in a:
        cur = s
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < e:
            hs, he = b[k]
            if hs - cur > tol:
                out.append((cur, hs))
            cur = max(cur, he)
            if cur >= e:
                break
            k += 1
        if e - cur > tol:
            out.append((cur, e))
    return out
