"""chromexp: exact chromatic expansions of edge-coloured digraphs.

A digraph whose edges carry one of three colour constraints (dashed:
different, solid: strictly increasing, double: weakly increasing) has a
colouring sum that is a quasisymmetric function; with vertex labels the
sum lives in noncommuting variables. This package computes those
expansions exactly, realizes the classical symmetric and quasisymmetric
bases (commutative and noncommutative) as such expansions, implements
the product, coproduct, and r-level structures, and checks everything
against independent brute-force oracles.
"""

from .tpoly import TPoly
from .combinat import (
    INFINITY,
    RComposition,
    RSetComposition,
    composition,
    partition,
    set_composition,
    set_partition,
)
from .graph import (
    EdgeColouredDigraph,
    EdgeConstraint,
    LabelledDigraph,
    SimpleGraph,
    LEQ,
    LT,
    NEQ,
    atom,
    atom_labelled,
    balanced_orientations,
    combine,
    combine_chain,
    combine_labelled,
    comp_grid,
    contract,
    closed_subsets,
    digraph_from_json,
    digraph_to_json,
    from_digraph_dashed,
    from_graph,
    from_poset,
    from_weighted,
    grid,
    is_k_balanced,
    labelled,
    make,
    orientations,
    parse_dsl,
    simple_graph,
)
from .chromatic import (
    chromatic_number,
    coproduct_digraph,
    crew_spirkl,
    dual_immaculate,
    ellzey,
    expand,
    humpert,
    humpert_direct,
    p_partition_gf,
    row_strict_dual_immaculate,
    shareshian_wachs,
    split_dashed,
    stanley,
)
from .qsym import (
    QSymExpr,
    QSymTensor,
    RationalPoly,
    basis_F,
    basis_Fbar,
    basis_M,
    basis_r,
    basis_sym,
    chromatic_polynomial,
    coproduct,
    evaluate_ones,
    family_basis,
    in_qsym_r,
    is_symmetric,
    qsym_from_json,
    qsym_to_json,
    to_qsym_basis,
    to_sym_basis,
)
from .ncqsym import (
    NCQSymExpr,
    NCQSymTensor,
    RegroupError,
    basis_nc,
    basis_ncr,
    basis_ncsym,
    basis_ncsym_e_paths,
    coproduct_nc,
    coproduct_nc_digraph,
    expand_nc,
    in_ncqsym_r,
    mr_F,
    mr_inject_check,
    ncqsym_from_json,
    ncqsym_to_json,
    r_regroup,
    r_regroup_tensor,
    rho,
    symmetrize,
    to_ncsym_m,
)
from .oracle import (
    TruncPoly,
    WordPoly,
    assert_equal,
    count_colourings,
    direct_expand,
    direct_expand_nc,
    realize,
    realize_nc,
)

__version__ = "0.1.0"
