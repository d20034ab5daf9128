#!/usr/bin/env python3
"""The classical counting tables, each cross-checked against brute-force
enumeration on the spot."""

from partlat import ConstraintRecord, count, counting

print("partitions into exactly n parts (rows m=0..6, sum column is p(m)):\n")
print("".join(counting.exact_table(6).export("tsv")))

print("partial row sums give partitions into at most n parts:\n")
print("".join(counting.atmost_table(6).export("tsv")))

print("odd / even / mixed split (row 9 ends 8, 0, 22, 30):\n")
print("".join(counting.odd_even_mixed_table(9).export("tsv")))

print("distinct parts, with the odd-minus-even difference column:\n")
print("".join(counting.distinct_table(12).export("tsv")))

print("partitions by number of unit parts:\n")
print("".join(counting.unit_diff_table(6).export("tsv")))

# Every cell above is backed by the enumeration oracle; spot-check one row.
m = 6
oracle_row = [count(ConstraintRecord(total=m, exact_parts=n)) for n in range(m + 1)]
recurrence_row = [counting.p_exact(m, n) for n in range(m + 1)]
print("oracle row m=6:    ", oracle_row)
print("recurrence row m=6:", recurrence_row)
assert oracle_row == recurrence_row

# Minimum-part counts come from the shift bijection, so negative bases work.
print("\npartitions of -5 into five parts, each at least -2:",
      counting.p_min_part(-5, 5, -2))
