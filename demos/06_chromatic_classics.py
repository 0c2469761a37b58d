"""The classical chromatic functions as special cases.

Dashed digraphs recover the chromatic (quasi)symmetric functions of
graphs and digraphs, cycle blowups handle vertex weights, posets give
partition generating functions, and restricting to p colours produces
the counting polynomial.
"""

from chromexp import simple_graph
from chromexp.chromatic import (
    crew_spirkl,
    dual_immaculate,
    ellzey,
    humpert,
    humpert_direct,
    p_partition_gf,
    shareshian_wachs,
    stanley,
)
from chromexp.graph import from_graph, make, underlying_graph
from chromexp.oracle import count_colourings
from chromexp.qsym import chromatic_polynomial, evaluate_ones, to_sym_basis

path = simple_graph(3, [(0, 1), (1, 2)])
f = stanley(path)
print("chromatic symmetric function of the 3-path:", f.pretty())
print("in the elementary basis:",
      {k: v.pretty() for k, v in to_sym_basis(f, "e").items()})
poly = chromatic_polynomial(f)
print("counting polynomial:", poly.pretty())
print("values:", [poly(p) for p in range(5)], "=", [evaluate_ones(f, p) for p in range(5)])
# the same values by listing the proper colourings with p colours one by one
counts = [count_colourings(from_graph(path), p) for p in range(5)]
print("colourings counted one by one:", counts,
      "[ok]" if counts == [poly(p) for p in range(5)] else "[MISMATCH]")
print()

edge = simple_graph(2, [(0, 1)])
print("ascent-graded function of one labelled edge:", shareshian_wachs(edge).pretty())
print()

d = make(3, [(0, 1, "lt"), (2, 1, "leq")])
print("digraph variant at t=1 equals the underlying graph's:",
      ellzey(d).at_t(1) == stanley(underlying_graph(d)))
print()

print("weighted single vertex of weight 2:", crew_spirkl(simple_graph(1, []), [2]).pretty())
print()

print("partitions of the chain poset 1 < 2:", p_partition_gf([(1, 2)]).pretty())
print()

print("dual immaculate at (1,2):", dual_immaculate((1, 2)).pretty())
print()

square = simple_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
for k in (1, 2):
    via_orientations = humpert(square, k)
    via_colourings = humpert_direct(square, k)
    print(f"balanced function of the 4-cycle at k={k}: "
          f"{via_orientations.pretty()} (two routes agree: "
          f"{via_orientations == via_colourings})")
