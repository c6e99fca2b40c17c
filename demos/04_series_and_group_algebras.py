"""Closed-form Poincare series and abelian group algebras.

Each admissible word contributes one multiplicative factor to a
Poincare series: a free class gives a geometric factor, an exterior
class (1 + t^d), and a height-p class a truncated geometric sum.  For
a finitely generated abelian group the coefficients split into a free
part, a p-part, and an etale part, and the series of the group algebra
is the product of the ground-field series with the factors of all
three.
"""

from hochhom import (
    GroupSpec,
    hh_polynomial,
    hh_truncated,
    thh_fp,
    thh_group_algebra,
)

print("ground field F_2, iteration levels 1..4 (degree <= 16):")
for n in range(1, 5):
    s = thh_fp(n, 2, 16)
    print(f"  level {n}: {s}   [{s.validity}]")

print()
print("polynomial coefficients F_3[x], level 2 (free ranks over the base):")
s = hh_polynomial(2, 3, 12)
for line in s.text_table():
    print("  " + line)

print()
print("truncated coefficients F_3[x]/x^3, level 1: one rank per degree")
s = hh_truncated(1, 3, 1, 8)
print("  " + str(s))

print()
group = GroupSpec.parse("Z x Z/6")
print(f"group algebra F_3[{group}], level 2, degree <= 12:")
s = thh_group_algebra(group, 2, 3, 12)
print(f"  basis: {s.basis_note}")
print(f"  validity: {s.validity}")
for line in s.text_table():
    print("  " + line)
