import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partlat import cli, counting, series
from partlat.oracle import ConstraintRecord, count
from partlat.series import TruncatedSeries


# Schoolbook references: every coefficient of both operands, zeros included.
def schoolbook_mul(a, b):
    T = min(len(a), len(b)) - 1
    return tuple(sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(T + 1))


def schoolbook_invert(c):
    inv = [c[0]]
    for n in range(1, len(c)):
        inv.append(-c[0] * sum(c[k] * inv[n - k] for k in range(1, n + 1)))
    return tuple(inv)


# Mostly-zero coefficient lists ending in a run of 0..12 zeros.
sparse_coefficients = st.builds(
    lambda body, zeros: body + [0] * zeros,
    st.lists(st.one_of(st.just(0), st.just(0), st.integers(-9, 9)), min_size=1, max_size=30),
    st.integers(0, 12),
)

# Mixed-sign coefficients from one to about 200 bits wide, zeros included.
wide = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2 ** 200), 2 ** 200),
                 st.integers(-(2 ** 64), 2 ** 64))


class TestArithmetic:
    def test_geometric_identity(self):
        one_minus_t = TruncatedSeries((1, -1) + (0,) * 15)
        geometric = TruncatedSeries((1,) * 17)
        assert one_minus_t * geometric == TruncatedSeries.one(16)

    def test_multiply_by_one(self):
        s = TruncatedSeries((3, -1, 4, 1, -5))
        assert s * TruncatedSeries.one(4) == s

    def test_mismatched_orders_truncate_to_smaller(self):
        a = TruncatedSeries((1, 1, 1, 1, 1))
        b = TruncatedSeries((1, 2))
        assert (a * b).order == 1
        assert (a * b).coefficients == (1, 3)

    def test_refuses_an_empty_series(self):
        with pytest.raises(ValueError, match="a series carries at least the constant term"):
            TruncatedSeries(())

    def test_invert_requires_unit_constant(self):
        with pytest.raises(ValueError):
            TruncatedSeries((2, 1, 1)).invert()

    def test_invert_negative_unit(self):
        s = TruncatedSeries((-1, 4, 7))
        assert s * s.invert() == TruncatedSeries.one(2)

    def test_euler_inverse_round_trip(self):
        e = series.euler_product(12)
        assert e * e.invert() == TruncatedSeries.one(12)

    @given(st.lists(st.integers(-9, 9), min_size=0, max_size=32),
           st.sampled_from((1, -1)))
    def test_invert_is_exact(self, tail, c0):
        s = TruncatedSeries(tuple([c0] + tail))
        assert s * s.invert() == TruncatedSeries.one(s.order)


class TestSparseKernels:
    @given(sparse_coefficients, sparse_coefficients)
    def test_mul_matches_schoolbook(self, a, b):
        got = TruncatedSeries(tuple(a)) * TruncatedSeries(tuple(b))
        assert got.coefficients == schoolbook_mul(a, b)

    @given(sparse_coefficients, st.sampled_from((1, -1)))
    def test_invert_matches_schoolbook(self, tail, c0):
        c = [c0] + tail
        assert TruncatedSeries(tuple(c)).invert().coefficients == schoolbook_invert(c)

    @pytest.mark.parametrize("c0", (1, -1))
    def test_order_zero(self, c0):
        s = TruncatedSeries((c0,))
        assert s.invert() == s
        assert (s * TruncatedSeries((3, 4))).coefficients == (3 * c0,)

    def test_zero_series_times_anything(self):
        zero = TruncatedSeries((0, 0, 0))
        assert zero * TruncatedSeries((1, 2, 3, 4)) == zero

    @given(st.lists(wide, min_size=1, max_size=41), st.lists(wide, min_size=1, max_size=41),
           st.booleans())
    def test_wide_coefficients_match_schoolbook(self, a, b, zero):
        """Coefficients up to about 2^200 of either sign, so the product runs
        in slots of several 64-bit words; a zero operand's slots must still
        hold the other operand."""
        if zero:
            b = [0] * len(b)
        got = TruncatedSeries(tuple(a)) * TruncatedSeries(tuple(b))
        assert got.coefficients == schoolbook_mul(a, b)


class TestNegativeOrder:
    @pytest.mark.parametrize("make", (
        series.euler_product,
        series.partition_series,
        series.distinct_series,
        lambda order: cli.SERIES_KINDS["distinct-signed"].build(SimpleNamespace(order=order)),
        lambda order: series.capped_product([(1, 2), (3, None)], order),
        lambda order: series.capped_product([], order),
        TruncatedSeries.one,
    ))
    def test_refused(self, make):
        with pytest.raises(ValueError, match="order must be >= 0"):
            make(-5)


class TestPastBruteForce:
    """Independent checks at order 1500, far past the oracle's range."""

    def test_partition_series_matches_rademacher(self):
        numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
        ps = series.partition_series(1500)
        for m in list(range(0, 1500, 37)) + [1499, 1500]:
            assert ps[m] == int(numbers.partition(m)), m

    def test_euler_product_support_is_generalized_pentagonal(self):
        expected = {0: 1}
        for k in range(1, 33):
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= 1500:
                    expected[g] = (-1) ** k
        ep = series.euler_product(1500)
        assert {n: c for n, c in enumerate(ep.coefficients) if c} == expected


class TestEulerProduct:
    def test_first_coefficients(self):
        assert tuple(series.euler_coefficient(n) for n in range(8)) == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_third_pentagonal_pair(self):
        assert series.euler_coefficient(12) == -1
        assert series.euler_coefficient(15) == -1

    def test_support_is_pentagonal_with_unit_values(self):
        ep = series.euler_product(100)
        pairs = series.pentagonal_pairs(8)
        expected = {0: 1}
        for k, (g1, g2) in enumerate(pairs, start=1):
            expected[g1] = expected[g2] = (-1) ** k
        for n in range(101):
            assert ep[n] == expected.get(n, 0)
            assert ep[n] in (-1, 0, 1)

    def test_pentagonal_pairs(self):
        assert series.pentagonal_pairs(3) == [(1, 2), (5, 7), (12, 15)]


class TestPartitionSeries:
    def test_first_coefficients(self):
        assert series.partition_series(6).coefficients == (1, 1, 2, 3, 5, 7, 11)

    def test_larger_values(self):
        ps = series.partition_series(15)
        assert ps[9] == 30
        assert ps[15] == 176

    def test_matches_recurrence_to_sixty(self):
        ps = series.partition_series(60)
        for m in range(61):
            assert ps[m] == counting.p(m)


class TestDistinctSeries:
    def test_unsigned_counts(self):
        u = series.distinct_series(12)
        assert u[10] == 10
        assert u[12] == 15

    def test_signed_is_euler(self):
        signed = TruncatedSeries.one(20)
        for k in range(1, 21):
            signed = signed * TruncatedSeries((1,) + (0,) * (k - 1) + (-1,) + (0,) * (20 - k))
        assert signed == series.euler_product(20)

    @pytest.mark.parametrize("m", range(1, 31))
    def test_signed_matches_distinct_difference(self, m):
        _, diff = counting.distinct_row(m)
        assert series.euler_coefficient(m) == -diff

    @pytest.mark.parametrize("m", range(1, 16))
    def test_unsigned_matches_oracle(self, m):
        u = series.distinct_series(15)
        assert u[m] == count(ConstraintRecord(total=m, parity="distinct"))


def backtracking_box_caps(a, b):
    """The exhaustive search box_caps once ran: k from b down takes the
    first free numerator it divides, and a k that finds none moves the k
    before it on to its next numerator."""
    free = list(range(a + 1, a + b + 1))
    chosen, start = [], 0
    while (k := b - len(chosen)) != 0:
        i = next((i for i in range(start, len(free)) if free[i] % k == 0), None)
        if i is not None:
            chosen.append((i, free.pop(i)))
            start = 0
        elif chosen:
            i, value = chosen.pop()
            free.insert(i, value)
            start = i + 1
        else:
            return None
    return [(k, value // k - 1) for k, (_, value) in zip(range(1, b + 1), reversed(chosen))]


def has_perfect_matching(a, b):
    """Whether every k = 1..b gets its own numerator a + 1..a + b that it
    divides, by networkx's Hopcroft-Karp matching."""
    nx = pytest.importorskip("networkx")
    ks = [("k", k) for k in range(1, b + 1)]
    g = nx.Graph()
    g.add_nodes_from(ks)
    g.add_edges_from((("k", k), ("v", v)) for k in range(1, b + 1)
                     for v in range(a + 1, a + b + 1) if v % k == 0)
    matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=ks)
    return all(k in matching for k in ks)


class TestCappedProduct:
    def test_uncapped_parts_up_to_three(self):
        s = series.capped_product([(1, None), (2, None), (3, None)], 10)
        assert s[6] == 7
        assert s[6] == count(ConstraintRecord(total=6, max_part=3))

    def test_single_part(self):
        s = series.capped_product([(3, 2)], 12)
        assert [n for n in range(13) if s[n]] == [0, 3, 6]

    def test_three_by_three_box_caps(self):
        caps = series.box_caps(3, 3)
        assert caps is not None
        s = series.capped_product(caps, 9)
        assert s[5] == 3
        for m in range(10):
            assert s[m] == counting.p_box(3, 3, m)

    def test_box_caps_cover_most_small_boxes(self):
        missing = {(a, b) for a in range(1, 6) for b in range(1, 6)
                   if series.box_caps(a, b) is None}
        assert missing == {(3, 4), (4, 3), (4, 4)}

    @pytest.mark.parametrize("a,b", [(-1, 2), (-1, 0), (-3, 3)])
    def test_box_caps_of_a_negative_side_are_none(self, a, b):
        # (-1, 2) gave [(1, 0), (2, -1)], which capped_product refuses, and
        # (-1, 0) gave [], whose product 1 is not the empty box count 0.
        assert series.box_caps(a, b) is None
        assert not any(counting.p_box(a, b, m) for m in range(6))

    @pytest.mark.parametrize("a,b,name", [
        ("a", 2, "max_part"), (2.0, 2, "max_part"), (True, 2, "max_part"),
        (2, "b", "max_parts"), (2, 2.0, "max_parts"),
    ])
    def test_box_caps_refuse_a_non_integer_side_by_name(self, a, b, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            series.box_caps(a, b)

    def test_box_caps_past_the_recursion_limit(self):
        """Each k = 1..2000 gets a numerator 2..2001 it divides, each once."""
        caps = series.box_caps(1, 2000)
        assert caps is not None and [k for k, _ in caps] == list(range(1, 2001))
        assert sorted(k * (c + 1) for k, c in caps) == list(range(2, 2002))

    def test_box_caps_keep_the_backtracking_choice(self):
        for a in range(-3, 41):
            for b in range(-3, 31):
                want = None if a < 0 else backtracking_box_caps(a, b)
                assert series.box_caps(a, b) == want, (a, b)

    def test_box_caps_exist_exactly_when_a_perfect_matching_does(self):
        for a in range(21):
            for b in range(1, 21):
                assert (series.box_caps(a, b) is not None) == has_perfect_matching(a, b), (a, b)

    @pytest.mark.parametrize("a,b", [(30, 60), (50, 100), (100, 200)])
    def test_box_caps_in_polynomial_time(self, a, b):
        start = time.perf_counter()
        caps = series.box_caps(a, b)
        assert time.perf_counter() - start < 1
        assert (caps is not None) == has_perfect_matching(a, b)

    def test_box_caps_are_factorizations(self):
        """Cap c on part k is the block (1 - t^(k(c+1))) / (1 - t^k): the
        parts are 1..b, and the k(c+1) are the numerators a + 1..a + b."""
        boxes = [(a, b) for a in range(41) for b in range(31)] + [(1, 2000), (2, 300)]
        for a, b in boxes:
            caps = series.box_caps(a, b)
            if caps is not None:
                assert [k for k, _ in caps] == list(range(1, b + 1))
                assert min((c for _, c in caps), default=0) >= 0
                assert sorted(k * (c + 1) for k, c in caps) == list(range(a + 1, a + b + 1))

    def test_realizable_boxes_match_counts(self):
        for a in range(1, 6):
            for b in range(1, 6):
                caps = series.box_caps(a, b)
                if caps is None:
                    continue
                s = series.capped_product(caps, a * b)
                for m in range(a * b + 1):
                    assert s[m] == counting.p_box(a, b, m)

    def test_rejects_duplicate_part(self):
        with pytest.raises(ValueError):
            series.capped_product([(2, 1), (2, 3)], 8)

    def test_rejects_nonpositive_part(self):
        with pytest.raises(ValueError):
            series.capped_product([(0, 1)], 8)

    def test_parts_above_the_order_are_the_constant_one(self):
        caps = [(k, None) for k in range(1501, 11501)]
        assert series.capped_product(caps, 1500) == series.TruncatedSeries.one(1500)

    def test_caps_above_the_order_are_still_validated(self):
        with pytest.raises(ValueError, match="duplicate part value 2000"):
            series.capped_product([(2000, 1), (2000, 3)], 10)
        with pytest.raises(ValueError, match="cap -1"):
            series.capped_product([(2000, -1)], 10)


class TestSliceKernels:
    """The in-place expansions against constructions that share no code with
    them: Euler's odd-part identity, the distinct table and a schoolbook
    product of geometric factors (the Euler product meets the pentagonal
    theorem in TestPastBruteForce)."""

    def test_distinct_series_is_the_odd_part_product(self):
        odd = [1] + [0] * 600
        for k in range(1, 601, 2):
            for n in range(k, 601):
                odd[n] += odd[n - k]
        for order in (0, 1, 2, 7, 64, 599, 600):
            assert series.distinct_series(order).coefficients == tuple(odd[:order + 1])

    def test_distinct_series_matches_the_distinct_table(self):
        totals = counting.distinct_table(600).column("total")
        assert series.distinct_series(600).coefficients[1:] == totals

    @pytest.mark.parametrize("seed", range(12))
    def test_capped_product_matches_geometric_factors(self, seed):
        rng = random.Random(seed)
        order = rng.choice((0, 1, 5, 30, 120))
        parts = rng.sample(range(1, 160), rng.randint(0, 14))
        caps = [(k, rng.choice((None, 0, 1, 2, 5, order + 1, 10 ** 6))) for k in parts]
        want = [1] + [0] * order
        for k, c in caps:
            factor = [0] * (order + 1)
            for j in range(0, order + 1, k):
                if c is None or j <= c * k:
                    factor[j] = 1
            want = list(schoolbook_mul(want, factor))
        assert series.capped_product(caps, order).coefficients == tuple(want)
