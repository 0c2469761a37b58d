"""Labelled digraphs and expansions in noncommuting variables.

With a vertex labelling, each proper colouring contributes a word of
colours read in label order. Letting the variables commute recovers
the unlabelled expansion. The set-partition bases (monomial, power
sum, elementary, complete homogeneous) and the Rosas-Sagan functions
all arise from labelled digraphs, and the fundamental elements attached
to permutations embed the permutation algebra.
"""

import math

from chromexp import expand, labelled, make, rho
from chromexp.combinat import runs_set_composition, set_partition
from chromexp.ncqsym import (
    basis_ncsym,
    expand_nc,
    mr_F,
    mr_inject_check,
    to_ncsym_m,
)
from chromexp.qsym import basis_sym
from chromexp.tpoly import pretty

lg = labelled(make(2, [(0, 1, "lt")]), (2, 1))
print("Y(path labelled 2,1):", expand_nc(lg).pretty())
print("rho of it:           ", rho(expand_nc(lg)).pretty())
print("matches X:           ", rho(expand_nc(lg)) == expand(lg.graph))
print()

pi = set_partition(((1, 3), (2, 4)))
print("m_13/24:", basis_ncsym("m", pi).pretty())
print("p_13/24:", basis_ncsym("p", pi).pretty())
print()

h = basis_ncsym("h", pi)
print("h_13/24 in monomial coordinates:")
for block_partition, coeff in sorted(to_ncsym_m(h).items()):
    blocks = "/".join("".join(str(x) for x in b) for b in block_partition)
    print(f"  {pretty(coeff):>2} * m_{blocks}")
print()

s = basis_ncsym("S", pi)
print("rho(S_13/24) == 4! s_(2,2):",
      rho(s) == basis_sym("s", (2, 2)).scale(math.factorial(4)))
print()

sigma = (8, 3, 6, 7, 9, 1, 5, 2, 4)
print("increasing runs of", "".join(map(str, sigma)), "->",
      runs_set_composition(sigma))
print("F image has", len(mr_F(sigma).terms), "monomial terms")
print("multiplicativity on a sample pair:",
      mr_inject_check((2, 1, 3), (1, 3, 2)))
