"""Invariants of monomial ideals over a polynomial ring.

Computes, exactly, every link of the chain

    height <= cd <= ara <= analytic spread <= mu

for monomial ideals, together with depth and projective dimension of the
quotient, formal grade, the dg gap between formal grade and the minimum
depth of powers, symbolic and bracket (Frobenius) powers, and a
Schmitt-Vogel upper bound for the arithmetic rank.  A reference suite and
fuzz campaigns exercise the known identities; the ``stci`` CLI exposes an
ideal-expression DSL.
"""

from .core import (
    ContextMismatchError,
    FieldSpec,
    MonomialIdeal,
    ResourceLimitError,
    RingContext,
)
from .decomposition import (
    dim_quotient,
    height,
    irreducible_decomposition,
    minimal_primes,
    symbolic_power,
)
from .homology import (
    ChainComplex,
    koszul_proj_dim,
    lcm_lattice,
    local_cohomology_nonvanishing,
    rank,
    taylor_proj_dim,
)
from .invariants import (
    analytic_spread,
    cohomological_dimension,
    depth,
    dg,
    formal_grade,
    is_valid_sv_partition,
    min_depth_powers,
    proj_dim,
    report,
    schmitt_vogel_upper,
)
from .parser import (
    EvaluationError,
    ParseError,
    evaluate,
    format_program,
    parse,
)
from .verification import (
    CheckResult,
    RandomIdealSpec,
    check_chain,
    check_dg_dichotomy,
    check_disjoint_prime_intersection,
    check_frobenius,
    check_one_dimensional_prime,
    check_squarefree_cm,
    fuzz,
    run_reference_suite,
    triangle_edge_ideal,
    two_planes_ideal,
)

__version__ = "0.1.0"
