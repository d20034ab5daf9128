#!/usr/bin/env python3
"""Partition schemes: the two-axis layout by largest part and number of
nonzero parts, its symmetry, and its exact inverse."""

from partlat import counting, intmatrix, schemes

seven = schemes.build_scheme(7)
print("scheme of 7 (rows: largest part, columns: nonzero parts):\n")
print("".join(seven.export("tsv")))

# The transversal symmetry is conjugation: cell (a,b) == cell (b,a).
print("symmetric about the transversal:",
      all(seven.cell(a, b) == seven.cell(b, a)
          for a in range(1, 8) for b in range(1, 8)))
print("cells add to p(7) =", seven.total)

# Column sums are the partitions into exactly n parts; row sums fix the
# largest part instead.
print("column sums:", seven.col_sums)
print("row sums:   ", seven.row_sums)

# Read as a matrix the scheme is lower unitriangular, so it inverts exactly
# over the integers.
inv = intmatrix.scheme_inverse(7)
print("\nexact inverse of the scheme matrix:")
for m1, row in zip(range(7, 0, -1), inv.entries):
    print(f"  largest {m1}: {row}")
check = intmatrix.multiply(intmatrix.scheme_matrix(7), inv)
print("scheme @ inverse == I:", check.entries == intmatrix.identity(7).entries)

# Bigger schemes have the same structure; the masked cells of the printed
# size-14 table are ordinary exact-frame counts.
fourteen = schemes.build_scheme(14)
print("\nscheme of 14, column sums:", fourteen.col_sums)
for cell in ((6, 4), (5, 5), (3, 6)):
    print(f"  masked cell {cell}: {fourteen.cell(*cell)}")
print("largest-exactly-5 row of 14:",
      [counting.exact_frame(5, n, 14) for n in range(1, 11)])
