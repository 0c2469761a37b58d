"""Classical bases realized as chromatic expansions.

Every standard basis of the symmetric and quasisymmetric functions is
the expansion of a digraph assembled from cycles, paths, complete
blocks, and grids. This script builds each digraph and checks it
against the independent combinatorial definition.
"""

from chromexp import atom, expand, grid, make
from chromexp.graph import qsym_basis_digraph, sym_basis_digraph
from chromexp.qsym import basis_F, basis_Fbar, basis_M, basis_sym, family_basis
from chromexp.tpoly import pretty

lam = (2, 1)
print(f"partition {lam}:")
for kind, label in (("m", "monomial"), ("maug", "augmented monomial"),
                    ("e", "elementary"), ("eaug", "augmented elementary"),
                    ("h", "complete homogeneous"), ("p", "power sum"),
                    ("s", "schur")):
    from_digraph = expand(sym_basis_digraph(kind, lam)).at_t(1)
    from_definition = basis_sym(kind, lam)
    mark = "ok" if from_digraph == from_definition else "MISMATCH"
    print(f"  {label:22} {from_digraph.pretty():48} [{mark}]")
print()

alpha = (1, 2)
print(f"composition {alpha}:")
for kind, maker, label in (("M", basis_M, "monomial"),
                           ("F", basis_F, "fundamental"),
                           ("Fbar", basis_Fbar, "upper fundamental")):
    from_digraph = expand(qsym_basis_digraph(kind, alpha)).at_t(1)
    mark = "ok" if from_digraph == maker(alpha) else "MISMATCH"
    print(f"  {label:22} {from_digraph.pretty():48} [{mark}]")
print()

# Any family of double-edge digraphs, one of each size, gives a basis:
# the solid chain of its members of sizes alpha is M_alpha plus terms
# indexed by strictly finer compositions (unitriangular on M).
print("solid chains of double-edge families, n = 4:")
for label, family in (("cycles C(i)", lambda i: atom("C", i)),
                      ("paths Q(i)", lambda i: atom("Q", i)),
                      ("stars", lambda i: make(i, [(0, j, "leq") for j in range(1, i)]))):
    elements, report = family_basis(4, family)
    mark = "ok" if report.unitriangular else "MISMATCH"
    print(f"  {label:12} chain (1,3): {elements[(1, 3)].pretty():45} [{mark}]")
print()

# The Schur function is the expansion of the row/column grid: weak
# along rows, strict down columns, i.e. semistandard tableaux.
print("schur s_(2,1) from the grid:", expand(grid((2, 1))).at_t(1).pretty())
print("tableau count of content (1,1,1):",
      pretty(basis_sym("s", (2, 1)).coefficient((1, 1, 1))))
