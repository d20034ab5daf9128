import random
import sys
import tracemalloc
from dataclasses import fields
from itertools import combinations, islice, product

import pytest

from partlat import counting, oracle
from partlat.oracle import ConstraintRecord, classify, count, enumerate_partitions, iter_parts
from partlat.partitions import Partition


class TestRecordValidation:
    def test_exclusive_part_count_bounds(self):
        with pytest.raises(ValueError):
            ConstraintRecord(total=5, max_parts=2, exact_parts=2)

    def test_exclusive_largest_part_bounds(self):
        with pytest.raises(ValueError):
            ConstraintRecord(total=5, max_part=2, exact_max_part=2)

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            ConstraintRecord(total=5, max_part=-1)

    @pytest.mark.parametrize("name", [f.name for f in fields(ConstraintRecord)
                                      if f.name != "parity"])
    def test_each_negative_field_named(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            ConstraintRecord(**{"total": 5, name: -1})

    @pytest.mark.parametrize("value", (2.0, True, "2", -1.5), ids=("float", "bool", "str",
                                                                   "negative-float"))
    @pytest.mark.parametrize("name", [f.name for f in fields(ConstraintRecord)
                                      if f.name != "parity"])
    def test_each_non_int_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            ConstraintRecord(**{"total": 5, name: value})

    def test_total_is_required_as_an_integer(self):
        with pytest.raises(ValueError, match="^total must be an integer$"):
            ConstraintRecord(total=None)

    def test_type_check_runs_before_the_range_checks(self):
        with pytest.raises(ValueError, match="^max_part must be an integer$"):
            ConstraintRecord(total=-1, max_part=2.5, exact_max_part=1)
        with pytest.raises(ValueError, match="^layer must be an integer$"):
            ConstraintRecord(total=5, min_part=-1, layer=False, parity="weird")

    def test_checks_run_total_first_then_pairs_then_bounds(self):
        with pytest.raises(ValueError, match="^total must be >= 0$"):
            ConstraintRecord(total=-1, max_parts=1, exact_parts=1)
        with pytest.raises(ValueError, match="^max_parts and exact_parts are mutually exclusive$"):
            ConstraintRecord(total=5, max_part=-1, max_parts=1, exact_parts=1)
        with pytest.raises(ValueError, match="^max_part and exact_max_part are mutually exclusive$"):
            ConstraintRecord(total=5, min_part=-1, max_part=1, exact_max_part=1, parity="weird")
        with pytest.raises(ValueError, match="^layer must be >= 0$"):
            ConstraintRecord(total=5, layer=-1, parity="weird")

    def test_unknown_parity(self):
        with pytest.raises(ValueError):
            ConstraintRecord(total=5, parity="weird")

    def test_total_cap(self):
        with pytest.raises(ValueError):
            enumerate_partitions(ConstraintRecord(total=81))


class TestEnumerate:
    def test_unconstrained_seven(self):
        assert count(ConstraintRecord(total=7)) == 15

    def test_exact_frame_example(self):
        got = enumerate_partitions(
            ConstraintRecord(total=8, exact_max_part=4, exact_parts=3))
        assert [q.nonzero_parts for q in got] == [(4, 3, 1), (4, 2, 2)]

    def test_box_orbit_list(self):
        got = enumerate_partitions(ConstraintRecord(total=5, max_part=3, max_parts=3))
        assert [q.nonzero_parts for q in got] == [(3, 2), (3, 1, 1), (2, 2, 1)]

    def test_order_is_decreasing_lexicographic(self):
        got = [q.nonzero_parts for q in enumerate_partitions(ConstraintRecord(total=5))]
        assert got == sorted(got, reverse=True)
        assert got[0] == (5,) and got[-1] == (1, 1, 1, 1, 1)

    def test_empty_result_is_fine(self):
        assert enumerate_partitions(ConstraintRecord(total=3, max_part=1, max_parts=2)) == []

    def test_min_part(self):
        got = enumerate_partitions(ConstraintRecord(total=6, exact_parts=3, min_part=2))
        assert [q.nonzero_parts for q in got] == [(2, 2, 2)]

    def test_parity_filters(self):
        assert count(ConstraintRecord(total=9, parity="all-odd", exact_parts=3)) == 3
        assert count(ConstraintRecord(total=6, parity="all-even")) == 3
        assert count(ConstraintRecord(total=6, parity="mixed")) == 4
        assert count(ConstraintRecord(total=6, parity="distinct")) == 4

    def test_unit_count_filter(self):
        assert count(ConstraintRecord(total=6, unit_count=0)) == 4

    def test_layer_and_hook_filters(self):
        assert count(ConstraintRecord(total=8, layer=4)) == 3
        assert count(ConstraintRecord(total=4, hook_frame=3)) == 1

    def test_determinism(self):
        record = ConstraintRecord(total=10, max_part=5)
        one = [q.parts for q in enumerate_partitions(record)]
        two = [q.parts for q in enumerate_partitions(record)]
        assert one == two


class TestCount:
    def test_exact_parts(self):
        assert count(ConstraintRecord(total=6, exact_parts=3)) == 3

    def test_zero_into_zero_parts(self):
        assert count(ConstraintRecord(total=0, exact_parts=0)) == 1

    @pytest.mark.parametrize("total", range(13))
    def test_conjugation_symmetry(self, total):
        for a in range(1, total + 1):
            for b in range(1, total + 1):
                assert (
                    count(ConstraintRecord(total=total, exact_max_part=a, exact_parts=b))
                    == count(ConstraintRecord(total=total, exact_max_part=b, exact_parts=a))
                )

    def test_box_complement_symmetry(self):
        for a in range(1, 6):
            for b in range(1, 6):
                if a * b > 20:
                    continue
                for m in range(a * b + 1):
                    assert (
                        count(ConstraintRecord(total=m, max_part=a, max_parts=b))
                        == count(ConstraintRecord(total=a * b - m, max_part=b, max_parts=a))
                    )


class TestClassify:
    def test_unit_count_row(self):
        got = classify(ConstraintRecord(total=6), "unit_count")
        assert got == {0: 4, 1: 2, 2: 2, 3: 1, 4: 1, 5: 0, 6: 1}

    def test_distinct_by_parts(self):
        got = classify(ConstraintRecord(total=10, parity="distinct"), "exact_parts")
        assert got == {1: 1, 2: 4, 3: 4, 4: 1}

    def test_layer_row(self):
        assert classify(ConstraintRecord(total=8), "layer") == {1: 8, 2: 5, 3: 6, 4: 3}

    def test_parity_class(self):
        got = classify(ConstraintRecord(total=6), "parity_class")
        assert got == {"even": 3, "mixed": 4, "odd": 4}

    def test_unknown_classifier(self):
        with pytest.raises(ValueError):
            classify(ConstraintRecord(total=4), "sideways")

    @pytest.mark.parametrize("total", range(15))
    def test_buckets_cover_everything(self, total):
        qs = enumerate_partitions(ConstraintRecord(total=total))
        assert len({q.nonzero_parts for q in qs}) == len(qs)
        for key in ("exact_parts", "largest_part", "unit_count", "layer", "hook_frame",
                    "parity_class"):
            assert sum(classify(ConstraintRecord(total=total), key).values()) == len(qs)


# -- reference oracle ------------------------------------------------------------
#
# A test-only copy of the recursive oracle the streaming walk replaced: plain
# recursive descent, every constraint beyond the arithmetic bounds applied to
# the finished partition through Partition methods.  One change: the empty
# partition has hook frame 0, as ``classify`` always counted it.

def ref_keeps(c, parts):
    if c.exact_max_part is not None:
        largest = parts[0] if parts else 0
        if largest != c.exact_max_part:
            return False
    if c.unit_count is not None and parts.count(1) != c.unit_count:
        return False
    if c.parity == "all-odd" and any(v % 2 == 0 for v in parts):
        return False
    if c.parity == "all-even" and any(v % 2 == 1 for v in parts):
        return False
    if c.parity == "mixed" and not (any(v % 2 for v in parts)
                                    and any(v % 2 == 0 for v in parts)):
        return False
    if c.parity == "distinct" and len(set(parts)) != len(parts):
        return False
    q = Partition(parts)
    if c.layer is not None and q.layer() != c.layer:
        return False
    if c.hook_frame is not None:
        if (q.hook_frame_size() if parts else 0) != c.hook_frame:
            return False
    return True


def ref_enumerate(c):
    if c.exact_parts is not None:
        slots, exact = c.exact_parts, True
    elif c.max_parts is not None:
        slots, exact = c.max_parts, False
    else:
        slots, exact = c.total, False
    hi = c.total
    if c.max_part is not None:
        hi = min(hi, c.max_part)
    if c.exact_max_part is not None:
        hi = min(hi, c.exact_max_part)
    lo = max(c.min_part or 1, 1)
    pad = slots if (c.exact_parts is not None or c.max_parts is not None) else 0
    out = []

    def descend(remaining, bound, left, prefix):
        if remaining == 0:
            if exact and len(prefix) != slots:
                return
            parts = tuple(prefix)
            if ref_keeps(c, parts):
                out.append(Partition(parts, max(pad, len(parts))))
            return
        if left == 0 or bound * left < remaining:
            return
        for v in range(min(bound, remaining), lo - 1, -1):
            prefix.append(v)
            descend(remaining - v, v, left - 1, prefix)
            prefix.pop()

    descend(c.total, hi, slots, [])
    return out


def ref_classify(c, key):
    raw = {}
    for q in ref_enumerate(c):
        parts = q.nonzero_parts
        if key == "exact_parts":
            k = q.nonzero_count
        elif key == "largest_part":
            k = q.largest
        elif key == "unit_count":
            k = parts.count(1)
        elif key == "layer":
            k = q.layer()
        elif key == "hook_frame":
            k = q.hook_frame_size() if parts else 0
        else:
            odd = any(v % 2 for v in parts)
            even = any(v % 2 == 0 for v in parts)
            k = "mixed" if odd and even else "odd" if odd else "even"
        raw[k] = raw.get(k, 0) + 1
    if key == "parity_class" or not raw:
        return dict(sorted(raw.items()))
    return {k: raw.get(k, 0) for k in range(min(raw), max(raw) + 1)}


INT_FIELDS = ("max_part", "max_parts", "exact_parts", "exact_max_part", "min_part",
              "unit_count", "layer", "hook_frame")
EXCLUSIVE = {"max_parts": "exact_parts", "exact_parts": "max_parts",
             "max_part": "exact_max_part", "exact_max_part": "max_part"}


def assert_matches_reference(c, classifiers=()):
    got, want = enumerate_partitions(c), ref_enumerate(c)
    assert [(q.parts, q.padded_length) for q in got] == \
        [(q.parts, q.padded_length) for q in want], c
    assert count(c) == len(want), c
    assert list(iter_parts(c)) == [q.nonzero_parts for q in want], c
    for key in classifiers:
        assert classify(c, key) == ref_classify(c, key), (c, key)


def seeded_records():
    """600 records drawn with a fixed seed: totals 0..18, any parity and one
    to four integer fields."""
    rng = random.Random(20261018)
    for _ in range(600):
        total = rng.randint(0, 18)
        kw = {"total": total, "parity": rng.choice(oracle.PARITY_CHOICES)}
        for field in rng.sample(INT_FIELDS, rng.randint(1, 4)):
            if EXCLUSIVE.get(field) not in kw:
                kw[field] = rng.randint(0, total + 2)
        yield ConstraintRecord(**kw)


EDGE_CASES = [
    {"total": 5, "min_part": 6},
    {"total": 0, "min_part": 3},
    {"total": 7, "min_part": 7},
    {"total": 6, "exact_parts": 0},
    {"total": 0, "exact_parts": 0},
    {"total": 0, "exact_parts": 2},
    {"total": 6, "max_parts": 0},
    {"total": 0, "max_parts": 0},
    {"total": 6, "max_part": 0},
    {"total": 6, "exact_max_part": 0},
    {"total": 0, "exact_max_part": 0},
    {"total": 6, "max_part": 40, "max_parts": 40},
    {"total": 6, "exact_max_part": 40, "exact_parts": 40},
    {"total": 9, "exact_parts": 3, "min_part": 3},
    {"total": 9, "exact_parts": 4, "min_part": 3},
    {"total": 12, "exact_parts": 4, "min_part": 2, "max_part": 4, "parity": "all-even"},
    {"total": 0, "hook_frame": 0},
    {"total": 0, "layer": 0},
    {"total": 0, "unit_count": 0},
    {"total": 0, "parity": "all-odd"},
    {"total": 0, "parity": "mixed"},
    {"total": 0, "parity": "distinct"},
]


class TestAgainstReference:
    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_every_value_of_one_field(self, field):
        for total in range(19):
            for value in range(total + 3):
                assert_matches_reference(ConstraintRecord(total=total, **{field: value}))

    @pytest.mark.parametrize("parity", oracle.PARITY_CHOICES)
    def test_every_parity(self, parity):
        for total in range(19):
            assert_matches_reference(ConstraintRecord(total=total, parity=parity),
                                     oracle.CLASSIFIERS)
            for slots in (0, 1, total // 3 + 1, total + 2):
                assert_matches_reference(
                    ConstraintRecord(total=total, parity=parity, max_parts=slots))

    def test_seeded_random_records(self):
        for c in seeded_records():
            assert_matches_reference(c, oracle.CLASSIFIERS)

    @pytest.mark.parametrize("kw", EDGE_CASES)
    def test_edge_cases(self, kw):
        assert_matches_reference(ConstraintRecord(**kw), oracle.CLASSIFIERS)


def every_record_shape(parity):
    """The records ``TestAgainstReference`` checks, under ``parity`` and at
    totals 0..22, plus total 0 and a unit count equal to the total, each
    alone and with an exact part count, a hook frame or a layer."""
    for total in range(23):
        near = sorted({0, 1, total, total + 1})
        for field in INT_FIELDS:
            for value in range(total + 3):
                yield ConstraintRecord(total=total, parity=parity, **{field: value})
        for slots in (None, 0, 1, total // 3 + 1, total + 2):
            yield ConstraintRecord(total=total, parity=parity, max_parts=slots)
        units = [{"total": 0}, {"total": total, "unit_count": total}]
        extras = [{}] + [{name: v} for name in ("exact_parts", "hook_frame", "layer")
                         for v in near]
        for base in units:
            for extra in extras:
                yield ConstraintRecord(parity=parity, **base, **extra)
    yield from (c for c in seeded_records() if c.parity == parity)
    yield from (ConstraintRecord(**kw) for kw in EDGE_CASES
                if kw.get("parity", "none") == parity)


@pytest.mark.parametrize("parity", oracle.PARITY_CHOICES)
def test_count_walks_nothing(monkeypatch, parity):
    records = list(every_record_shape(parity))
    walked = [sum(1 for _ in iter_parts(c)) for c in records]

    def no_walk(*_):
        raise AssertionError("count walked the partitions")

    monkeypatch.setattr(oracle, "_walk", no_walk)
    monkeypatch.setattr(oracle, "iter_parts", no_walk)
    for c, want in zip(records, walked):
        assert count(c) == want, c


def test_total_zero_parity_conventions():
    """A parity filter asks whether every part is odd (even, distinct), so
    the empty partition passes all of them but mixed; ``parity_class`` and
    ``odd_even_mixed`` put each partition in one class, the empty one in
    'even'."""
    assert {parity: count(ConstraintRecord(total=0, parity=parity))
            for parity in oracle.PARITY_CHOICES} == \
        {"none": 1, "all-odd": 1, "all-even": 1, "mixed": 0, "distinct": 1}
    assert oracle.parity_class(()) == "even"
    assert counting.odd_even_mixed(0) == (0, 1, 0, 1)
    assert classify(ConstraintRecord(total=0, parity="all-odd"), "parity_class") == {"even": 1}


# Classifier key -> the record field that filters on the same value.
BUCKET_FIELDS = {
    "largest_part": "exact_max_part",
    "exact_parts": "exact_parts",
    "unit_count": "unit_count",
    "layer": "layer",
    "hook_frame": "hook_frame",
}


@pytest.mark.parametrize("key", BUCKET_FIELDS)
def test_buckets_equal_filtered_counts(key):
    field = BUCKET_FIELDS[key]
    for total in range(15):
        buckets = classify(ConstraintRecord(total=total), key)
        for value in range(total + 3):
            assert count(ConstraintRecord(total=total, **{field: value})) == \
                buckets.get(value, 0), (total, key, value)


def test_empty_partition_hook_frame_is_zero():
    assert count(ConstraintRecord(total=0, hook_frame=0)) == 1
    assert count(ConstraintRecord(total=0, hook_frame=1)) == 0
    assert classify(ConstraintRecord(total=0), "hook_frame") == {0: 1}
    assert [q.parts for q in enumerate_partitions(ConstraintRecord(total=0, hook_frame=0))] \
        == [()]


def test_count_against_sympy():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    assert count(ConstraintRecord(total=60)) == int(numbers.partition(60)) == 966467


def test_count_streams_without_a_list():
    tracemalloc.start()
    try:
        assert count(ConstraintRecord(total=45)) == 89134
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"count(total=45) peaked at {peak} bytes"


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_walk_does_not_recurse():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 20)
    try:
        first = list(islice(iter_parts(ConstraintRecord(total=80)), 2000))
    finally:
        sys.setrecursionlimit(limit)
    assert first[:3] == [(80,), (79, 1), (78, 2)]
    assert len(first) == 2000 and first == sorted(first, reverse=True)
    assert all(sum(parts) == 80 for parts in first)


def test_iter_parts_refuses_past_the_cap_at_the_call():
    with pytest.raises(ValueError, match="exceeds the enumeration cap 80"):
        iter_parts(ConstraintRecord(total=81))


def _unpruned(c):
    """The walk over every part value (step 1, gap 0) under the record's
    arithmetic bounds, with every filter: what the parity pruning must
    reproduce."""
    if c.exact_parts is not None:
        slots, exact = c.exact_parts, True
    else:
        slots, exact = (c.total if c.max_parts is None else c.max_parts), False
    hi = min(b for b in (c.total, c.max_part, c.exact_max_part) if b is not None)
    stream = oracle._walk(c.total, hi, max(c.min_part or 1, 1), slots, exact)
    for keep in oracle._filters(c):
        stream = filter(keep, stream)
    return list(stream)


BOUNDS = (0, 1, 2, 3, 5, 8)


@pytest.mark.parametrize("total", range(23))
def test_value_pruning_drops_only_filtered_tuples(total):
    """All-odd and all-even draw every other value and distinct draws each
    value once; the stream is still the full walk, filtered."""
    part_bounds = [{}] + [{k: b} for k in ("max_part", "exact_max_part") for b in BOUNDS]
    slot_bounds = [{}] + [{k: b} for k in ("max_parts", "exact_parts") for b in BOUNDS]
    for parity in oracle.PARITY_CHOICES:
        for parts in part_bounds:
            for slots in slot_bounds:
                for low in (None, 0, 1, 2, 3, 4):
                    c = ConstraintRecord(total=total, parity=parity, min_part=low,
                                         **parts, **slots)
                    matches = list(iter_parts(c))
                    assert matches == _unpruned(c), c
                    assert count(c) == len(matches), c


@pytest.mark.parametrize("parity,step,gap", [("all-odd", 2, 0), ("all-even", 2, 0),
                                             ("distinct", 1, 1)])
def test_walk_draws_only_allowed_values(monkeypatch, parity, step, gap):
    calls = []
    walk = oracle._walk
    monkeypatch.setattr(oracle, "_walk", lambda *a: calls.append(a[-2:]) or walk(*a))
    c = ConstraintRecord(total=30, parity=parity)
    assert len(list(iter_parts(c))) == len(_unpruned(c))
    assert calls[0] == (step, gap)


# Bounds each pruned field is crossed with: one at a time, then a parity with
# a slot bound or with part bounds.
CONTEXTS = ([{}] + [{"parity": p} for p in oracle.PARITY_CHOICES[1:]]
            + [{k: b} for k in ("max_part", "exact_max_part", "max_parts", "exact_parts")
               for b in BOUNDS]
            + [{"min_part": b} for b in (2, 3, 4)]
            + [{"parity": p, **b} for p in oracle.PARITY_CHOICES[1:]
               for b in ({"exact_parts": 3}, {"max_part": 5, "min_part": 2})])


def _buckets(c, names):
    """The unpruned, filtered walk of ``c`` grouped by the values the pruned
    fields ``names`` read from each tuple."""
    out = {}
    for parts in _unpruned(c):
        out.setdefault(tuple(oracle._KEYS[oracle._FILTERED[n]](parts) for n in names),
                       []).append(parts)
    return out


@pytest.mark.parametrize("total", range(23))
def test_field_pruning_drops_only_filtered_tuples(total):
    """Exact largest part, unit count, layer and hook frame prune the walk;
    for every value of each, under each bound and parity, and for every pair
    of values of two of them, the stream is still the full walk, filtered."""
    values = range(total + 2)
    for context in CONTEXTS:
        for name in oracle._FILTERED:
            if name in context or EXCLUSIVE.get(name) in context:
                continue
            want = _buckets(ConstraintRecord(total=total, **context), (name,))
            for v in values:
                c = ConstraintRecord(total=total, **context, **{name: v})
                matches = list(iter_parts(c))
                assert matches == want.get((v,), []), c
                assert count(c) == len(matches), c
    for names in combinations(oracle._FILTERED, 2):
        want = _buckets(ConstraintRecord(total=total), names)
        for pair in product(values, repeat=2):
            c = ConstraintRecord(total=total, **dict(zip(names, pair)))
            matches = list(iter_parts(c))
            assert matches == want.get(pair, []), c
            assert count(c) == len(matches), c


@pytest.mark.parametrize("parity", ("none", "all-odd", "all-even", "distinct"))
@pytest.mark.parametrize("name", oracle._FILTERED)
def test_a_pruned_field_walks_only_its_matches(monkeypatch, name, parity):
    yielded = []
    walk = oracle._walk

    def counting_walk(*args):
        for parts in walk(*args):
            yielded.append(parts)
            yield parts

    monkeypatch.setattr(oracle, "_walk", counting_walk)
    # Total 0 has one candidate, the empty tuple, which the filters judge.
    for total in range(1, 23):
        for value in range(total + 2):
            yielded.clear()
            matches = list(iter_parts(ConstraintRecord(total=total, parity=parity,
                                                       **{name: value})))
            assert len(matches) == len(yielded), (name, parity, total, value)
