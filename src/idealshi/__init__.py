"""Exact-arithmetic ideal-Shi hyperplane arrangements.

Construction of crystallographic root systems and their ideal-extended Shi
arrangements, exact intersection lattices and characteristic polynomials,
dual-partition exponent predictions, rank-2 multiarrangement exponents, and
the complete ambient-3 freeness criterion, all over arbitrary-precision
integers.
"""

__version__ = "0.1.0"

from .arrangement import (
    Arrangement,
    IntersectionLattice,
    LatticeCache,
    SizeBoundError,
    chain_parent,
    filtration_cone,
    intersection_lattice,
    restriction,
    root_arrangement,
    root_covector,
    shi_arrangement,
    z_covector,
    ziegler_multiplicity,
)
from .charpoly import (
    BadReductionError,
    CharPoly,
    FactorFailure,
    NotDivisibleError,
    TeraoVerdict,
    charpoly_finite_field,
    charpoly_mobius,
    charpoly_whitney,
    chi0,
    count_free_points,
    shi_charpoly,
    terao_check,
    try_factor_exponents,
)
from .ideals import (
    enumerate_ideals,
    weyl_catalan_number,
)
from .multiarr import (
    FreenessVerdict,
    derivation_space_dim,
    exp_rank2_multi,
    yoshinaga_check,
)
from .rootsys import (
    DualPartitionError,
    ExponentMultiset,
    Root,
    RootSystem,
    build,
    dual_partition,
    ideal_exponents,
    is_ideal,
    mask_of,
    roots_of,
    shi_exponents_dp,
    shift_predict,
    weyl_exponents,
)
