"""Tour of the admissible word calculus.

Words are built from a base letter (mu for a degree-2 polynomial class, x
for a degree-0 one), an exterior operation eps, and two families of
indexed operations rho^k and phi^k.  Adjacency rules make most strings
inadmissible; the admissible ones of a given length follow a Fibonacci
count.  Each word carries a bidegree (homological, internal) computed by
a right-to-left recursion, and the word's first letter tells you the
multiplicative nature of the class it names.
"""

from hochhom import (
    bidegree,
    classify,
    enumerate_shapes,
    enumerate_words,
    family_b,
    family_bdoubleprime,
    render_human,
    render_key,
    total_degree,
)

p = 3
fam = family_b()

print("shape counts by word length (family B):")
for n in range(1, 10):
    print(f"  length {n}: {len(enumerate_shapes(n, fam))} shapes")

print()
print(f"words of length 3 at p={p} with total degree <= 108:")
for w in enumerate_words(3, fam, p, 108):
    bd = bidegree(w, p, fam)
    cls = classify(w, fam)
    print(f"  {render_key(w):10s} {render_human(w):8s} bidegree {bd} "
          f"total {total_degree(w, p, fam):4d}  {cls}")

print()
print("longer words mix the operations; length 5, degree <= 60:")
for w in enumerate_words(5, fam, p, 60):
    bd = bidegree(w, p, fam)
    print(f"  {render_key(w):16s} {render_human(w):14s} bidegree {bd}")

print()
m = 3
famm = family_bdoubleprime(m, 2)
print(f"the height-{m} family lets phi act directly on the base letter:")
for w in enumerate_words(2, famm, p, 40):
    bd = bidegree(w, p, famm)
    print(f"  {render_key(w):8s} {render_human(w):8s} bidegree {bd}")
