"""Brute-force partition enumeration under constraint records.

This module is the ground truth the recurrence implementations are checked
against, so it stays independent of every counting formula.  One iterative
walk generates the part tuples largest-first with an explicit stack,
pruning on arithmetic bounds (part size, slot count, minimum part) and on
the set of part values: all-odd and all-even draw every other value, and
distinct draws each value at most once.  The run of smallest allowed parts
that ends a partition is emitted in one step instead of one node per part.

:func:`iter_parts` also prunes by four fields, each by restating its
definition:

- exact largest part a: the first part is fixed at a;
- unit count j: the other parts are at least 2, in the slots the j ones
  leave, and the ones are appended;
- hook frame h: a first part a takes exactly h - a + 1 parts;
- layer k: the hook frame total - k + 1, for total >= 1 (nothing, when a
  hook frame is set too and disagrees).

Mixed parity cannot be pruned by value and is only a filter, one C-level
pass over the parts' residues; at total 0 every field is only a filter.
Every constraint (exact largest part, unit count, parity, distinctness,
layer, hook frame) is still a filter on the finished tuple, built once per
record from the fields the record sets, so the pruning can only skip tuples
a filter would reject.

``classify`` consumes the stream and builds no list and no
:class:`Partition`; ``enumerate_partitions`` wraps the same stream and
builds each :class:`Partition` without re-checking the walk's tuples.

``count`` walks nothing: a table filled bottom-up from the bounds the walk
reads (``_plan``) counts the walk's tuples.  Mixed parity is the
plain count less the all-odd and all-even ones, for a total of at least 1;
when only unit parts are left to place (total 0 included), the one
candidate tuple goes through the filters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields, replace
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .partitions import Partition, require_ints

PARITY_CHOICES = ("none", "all-odd", "all-even", "mixed", "distinct")

# Enumeration above this total is refused outright: p(80) is 15.8 million
# partitions (walking them all takes about 10 s; ``count`` reads them from a
# table in about a millisecond), and a typo should not take down CI.
TOTAL_CAP = 80

@dataclass(frozen=True)
class ConstraintRecord:
    """Which partitions of ``total`` to enumerate.

    ``max_parts``/``exact_parts`` and ``max_part``/``exact_max_part`` are
    mutually exclusive pairs.  ``unit_count`` is the exact number of parts
    equal to 1.  ``layer`` and ``hook_frame`` refer to the hook (L-frame)
    decomposition of the Ferrers graph; the empty partition has layer 0 and
    hook frame 0.
    """

    total: int
    max_part: int | None = None
    max_parts: int | None = None
    exact_parts: int | None = None
    exact_max_part: int | None = None
    min_part: int | None = None
    parity: str = "none"
    unit_count: int | None = None
    layer: int | None = None
    hook_frame: int | None = None

    def __post_init__(self):
        bounds = [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "parity"]
        bounds = [(name, v) for name, v in bounds if v is not None or name == "total"]
        for name, v in bounds:
            require_ints(name, v)
        require_ints("total", self.total, low=0)
        if self.max_parts is not None and self.exact_parts is not None:
            raise ValueError("max_parts and exact_parts are mutually exclusive")
        if self.max_part is not None and self.exact_max_part is not None:
            raise ValueError("max_part and exact_max_part are mutually exclusive")
        for name, v in bounds:
            require_ints(name, v, low=0)
        if self.parity not in PARITY_CHOICES:
            raise ValueError(f"unknown parity filter {self.parity!r}")

    @property
    def padded_length(self) -> int:
        """Length the matches are zero-padded to: the part-count bound when
        the record sets one, else 0 (no padding)."""
        return next((b for b in (self.exact_parts, self.max_parts) if b is not None), 0)

    @property
    def largest_bound(self) -> int:
        """No match has a part above this: the least of the total and the
        part-size bounds the record sets."""
        return min(b for b in (self.total, self.max_part, self.exact_max_part) if b is not None)

    @property
    def slot_bound(self) -> int:
        """No match has more parts than this: the part-count bound when the
        record sets one, else the total."""
        return next((b for b in (self.exact_parts, self.max_parts) if b is not None), self.total)


def parity_class(parts: tuple[int, ...]) -> str:
    """'odd', 'even' or 'mixed'; the empty partition counts as 'even'."""
    residues = {v % 2 for v in parts}
    if len(residues) == 2:
        return "mixed"
    return "odd" if residues == {1} else "even"


def _largest(parts: tuple[int, ...]) -> int:
    return parts[0] if parts else 0


def _units(parts: tuple[int, ...]) -> int:
    return parts.count(1)


def _layer(parts: tuple[int, ...]) -> int:
    """1 + size of the interior (every row after the first, less its first
    cell); 0 for the empty partition."""
    if not parts:
        return 0
    return 1 + sum(v - 1 for v in parts[1:])


def _hook_frame(parts: tuple[int, ...]) -> int:
    """Cells in the first row plus first column; 0 for the empty partition."""
    return parts[0] + len(parts) - 1 if parts else 0


# Classifier name -> the key it reads from a part tuple.
_KEYS = {
    "exact_parts": len,
    "largest_part": _largest,
    "unit_count": _units,
    "layer": _layer,
    "hook_frame": _hook_frame,
    "parity_class": parity_class,
}

CLASSIFIERS = tuple(_KEYS)

# Each field a filter enforces -> the classifier whose key it fixes.
_FILTERED = {"exact_max_part": "largest_part", "unit_count": "unit_count", "layer": "layer",
             "hook_frame": "hook_frame"}

# Each byte value's residue mod 2, so that ``bytes(parts).translate(_MOD2)``
# maps a walk's parts (each at most ``TOTAL_CAP``) to residues in one
# C-level pass.
_MOD2 = bytes(v % 2 for v in range(256))


def _mixed(parts: tuple[int, ...]) -> bool:
    residues = bytes(parts).translate(_MOD2)
    return 0 in residues and 1 in residues


_PARITY_FILTERS = {
    "all-odd": lambda parts: 0 not in bytes(parts).translate(_MOD2),
    "all-even": lambda parts: 1 not in bytes(parts).translate(_MOD2),
    "mixed": _mixed,
    "distinct": lambda parts: len(set(parts)) == len(parts),
}


def _filters(c: ConstraintRecord) -> list:
    """One predicate per constraint the search does not enforce, for the
    fields ``c`` sets only."""
    keep = []
    for name, key in _FILTERED.items():
        want = getattr(c, name)
        if want is not None:
            keep.append(lambda parts, key=_KEYS[key], want=want: key(parts) == want)
    if c.parity != "none":
        keep.append(_PARITY_FILTERS[c.parity])
    return keep


def _walk(total: int, hi: int, lo: int, slots: int, exact: bool, step: int = 1,
          gap: int = 0) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` into parts lo, lo + step, lo + 2 step, ...
    up to ``hi``, at most ``slots`` of them (exactly ``slots`` when
    ``exact``), each part at least ``gap`` below the one before (0 allows
    repeats, 1 makes the parts distinct), in decreasing lexicographic order.

    ``stack`` holds the parts placed so far; ``v`` is the next value to try
    in the slot after them, always lo plus a multiple of ``step``.
    Descending places ``v``; backtracking pops the last part ``x`` and
    tries ``x - step`` in its slot.
    """
    if total == 0:
        if not exact or slots == 0:
            yield ()
        return
    drop = -(-gap // step) * step  # the least fall from one part to the next
    stack: list[int] = []
    remaining = total
    v = min(hi, total)
    v -= (v - lo) % step
    while True:
        left = slots - len(stack)
        if exact:
            # Every later slot needs at least ``lo``.
            top = remaining - (left - 1) * lo
            if v > top:
                v = top - (top - lo) % step
        # The most the ``left`` slots can hold from ``v`` down: copies of
        # ``v``, or v, v - drop, ... down to ``lo``.
        if drop:
            n = min(left, (v - lo) // drop + 1)
            room = n * v - drop * n * (n - 1) // 2
        else:
            room = v * left
        # A dead end when no slot is free, ``v`` is below ``lo`` or the
        # slots cannot hold what remains.
        if left and v >= lo and room >= remaining:
            if v > lo:
                stack.append(v)
                remaining -= v
                if remaining:
                    v -= drop
                    if v > remaining:
                        v = remaining - (remaining - lo) % step
                    continue
                yield tuple(stack)
            elif remaining % lo == 0:
                # Only copies of ``lo`` are left to place, and the room test
                # makes them fit the slots (fill them, when exact; one copy,
                # when the parts fall).
                yield tuple(stack) + (lo,) * (remaining // lo)
        if not stack:
            return
        x = stack.pop()
        remaining += x
        v = x - step


class _Plan(NamedTuple):
    """What the walk and the table read from a record: partitions of
    ``total`` into parts lo, lo + step, ... up to ``hi``, each at least
    ``gap`` below the one before, at most ``slots`` of them (exactly
    ``slots`` when ``exact``).  With ``firsts`` set, the first part is
    drawn from it, and a ``frame`` fixes the part count by the first part;
    ``ones`` unit parts are appended to each tuple."""

    total: int
    hi: int
    lo: int
    step: int
    gap: int
    slots: int
    exact: bool
    firsts: Sequence[int] | None
    frame: int | None
    ones: int


def _plan(c: ConstraintRecord) -> _Plan | None:
    """``c``'s bounds and pruned fields as one :class:`_Plan`, or None when
    they admit no tuple."""
    lo, step = max(c.min_part or 1, 1), 1
    if c.parity in ("all-odd", "all-even"):
        # Every other value, from ``lo`` rounded up to the parity.
        lo += (lo + (c.parity == "all-odd")) % 2
        step = 2
    gap = int(c.parity == "distinct")
    total, hi, slots, exact = c.total, c.largest_bound, c.slot_bound, c.exact_parts is not None
    frame = c.hook_frame
    if total and c.layer is not None:
        # A nonempty partition's layer is its total - hook frame + 1.
        if frame is None:
            frame = total - c.layer + 1
        elif frame != total - c.layer + 1:
            return None
    ones = 0
    if c.unit_count is not None:
        ones = c.unit_count
        # The ones take their slots, and need 1 to be an allowed value.
        if ones > min(total, slots) or ones and (lo > 1 or hi < 1 or ones > 1 and gap):
            return None
        total, slots = total - ones, slots - ones
        if frame is not None:
            frame -= ones
        if lo == 1:
            lo += step
    firsts = None
    if total and (frame is not None or c.exact_max_part is not None):
        top = min(hi, total)
        firsts = range(top - (top - lo) % step, lo - 1, -step)
        if c.exact_max_part is not None:
            firsts = [c.exact_max_part] if c.exact_max_part in firsts else []
    return _Plan(total, hi, lo, step, gap, slots, exact, firsts, frame, ones)


def _heads(p: _Plan) -> Iterator[tuple[int, int, bool]]:
    """(first part a, slots after it, whether they must all be filled) for
    each first part ``p.firsts`` allows, largest first; with a frame, a
    takes exactly ``frame - a + 1`` parts, the hook frame of such a
    partition."""
    for a in p.firsts:
        n = p.slots if p.frame is None else p.frame - a + 1
        if 1 <= n <= p.slots and (n == p.slots or not p.exact):
            yield a, n - 1, p.exact or p.frame is not None


def _pruned_walk(c: ConstraintRecord) -> Iterator[tuple[int, ...]]:
    """Nonzero part tuples within ``c``'s bounds and pruned fields, in
    decreasing lexicographic order: every match of ``c``, and nothing else
    when ``c`` sets one pruned field and a total of at least 1.

    With a unit count j, the walk covers the other parts, and the ones are
    appended to each tuple.
    """
    p = _plan(c)
    if p is None:
        return iter(())
    if p.firsts is None:
        stream = _walk(p.total, p.hi, p.lo, p.slots, p.exact, p.step, p.gap)
    else:
        stream = ((a,) + tail for a, slots, full in _heads(p)
                  for tail in _walk(p.total - a, a - p.gap, p.lo, slots, full, p.step, p.gap))
    if p.ones:
        tail = (1,) * p.ones
        stream = (parts + tail for parts in stream)
    return stream


def _any_parts(m: int, values: range, gap: int) -> int:
    """Partitions of m into any number of parts from ``values``, each used
    once when ``gap``: one row over the totals, one slice add per value."""
    row = [1] + [0] * m
    for a in values:
        if gap:
            row[a:] = map(add, row[a:], row[:m + 1 - a])
        else:
            # Each block of a totals adds the block below it, already final.
            for start in range(a, m + 1, a):
                row[start:start + a] = map(add, row[start:start + a], row[start - a:start])
    return row[m]


def _k_parts(reads: list[tuple[int, int, bool, int]], lo: int, step: int, gap: int) -> int:
    """The sum over ``reads`` (w, k, full, m) of the partitions of m into
    parts lo, lo + step, ... up to w, exactly k of them when ``full`` and at
    most k otherwise, each used once when ``gap``.

    The values are added in ascending order, and each read is taken once
    the values up to its w are in.  Row j of ``f`` counts the totals from
    j * lo up into exactly j parts from the values added so far; adding
    value a is one slice add per row, ascending j for repeated parts and
    descending j for distinct ones.  A row stops at the largest total a
    read needs from it or the values can reach.
    """
    top = max(m for _, _, _, m in reads)
    rows = min(max(k for _, k, _, _ in reads), top // lo)
    vmax = max(min(w, m - (k - 1) * lo if full else m) for w, k, full, m in reads)
    slack = max(m - k * lo if full else m for _, k, full, m in reads)
    f = [[0] * (min(slack, j * (vmax - lo), top - j * lo) + 1) for j in range(rows + 1)]
    f[0][0] = 1

    def read(w: int, k: int, full: bool, m: int) -> int:
        ks = (k,) if full else range(min(k, rows) + 1)
        return sum(f[j][m - j * lo] for j in ks if 0 <= m - j * lo < len(f[j]))

    answer = 0
    reads = sorted(reads, reverse=True)  # the next read due is the last
    for a in range(lo, vmax + 1, step):
        while reads and reads[-1][0] < a:
            answer += read(*reads.pop())
        for j in (range(rows, 0, -1) if gap else range(1, rows + 1)):
            row, below = f[j], f[j - 1]
            end = a - lo + len(below)
            row[a - lo:end] = map(add, row[a - lo:end], below)
    return answer + sum(read(*r) for r in reads)


def _tabled(c: ConstraintRecord) -> int:
    """How many matches ``c`` has, for any parity but mixed, counted from
    tables filled bottom-up instead of walked: the walk is partitions of m
    into parts up to w, exactly or at most k of them, once for the whole
    walk or once for the tail after each first part."""
    p = _plan(c)
    if p is None:
        return 0
    if not p.total:
        # Only the ones are left: one candidate tuple, which the filters judge.
        return sum(1 for _ in iter_parts(c))
    lo, step, gap = p.lo, p.step, p.gap
    if p.firsts is None:
        reads = [(p.hi, p.slots, p.exact, p.total)]
    else:
        reads = [(a - gap, k, full, p.total - a) for a, k, full in _heads(p)]
    # An empty tail fills once; of the rest, keep what k parts from lo to w
    # can fill.
    empty = sum(m == 0 and (k == 0 or not full) for _, k, full, m in reads)
    reads = [(w, k, full, m) for w, k, full, m in reads
             if 0 < m <= k * w and lo <= w and (m >= k * lo or not full)]
    if not reads:
        return empty
    w, k, full, m = reads[0]
    if len(reads) == 1 and not full and k * lo >= m:
        # No slot bound binds.
        return empty + _any_parts(m, range(lo, min(w, m) + 1, step), gap)
    return empty + _k_parts(reads, lo, step, gap)


def _refuse_past_cap(c: ConstraintRecord) -> None:
    if c.total > TOTAL_CAP:
        raise ValueError(f"total {c.total} exceeds the enumeration cap {TOTAL_CAP}")


def iter_parts(c: ConstraintRecord) -> Iterator[tuple[int, ...]]:
    """Nonzero part tuples of every matching partition, once each, in
    decreasing lexicographic order, generated lazily."""
    _refuse_past_cap(c)
    stream = _pruned_walk(c)
    for keep in _filters(c):
        stream = filter(keep, stream)
    return stream


def enumerate_partitions(c: ConstraintRecord) -> list[Partition]:
    """Every matching partition, once, in decreasing lexicographic order,
    zero-padded to ``c.padded_length``."""
    pad = c.padded_length
    return [Partition._trusted(parts, max(pad, len(parts))) for parts in iter_parts(c)]


def count(c: ConstraintRecord) -> int:
    """How many partitions match ``c``, counted without walking them.

    A nonempty partition is exactly one of all-odd, all-even and mixed, so
    the mixed count is the plain count less the other two, with every other
    field the same.
    """
    _refuse_past_cap(c)
    if c.parity == "mixed" and c.total:
        return (_tabled(replace(c, parity="none")) - _tabled(replace(c, parity="all-odd"))
                - _tabled(replace(c, parity="all-even")))
    return _tabled(c)


def classify(c: ConstraintRecord, key: str) -> dict:
    """Bucket the matching partitions by ``key``.

    Integer-valued keys come back as a contiguous dict from the smallest to
    the largest observed value, interior zeros included.
    """
    if key not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {key!r}; choose one of {CLASSIFIERS}")
    raw = Counter(map(_KEYS[key], iter_parts(c)))
    if key == "parity_class" or not raw:
        return dict(sorted(raw.items()))
    lo, hi = min(raw), max(raw)
    return {k: raw.get(k, 0) for k in range(lo, hi + 1)}
