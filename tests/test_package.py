"""The public names of the ``stci`` package."""

import types

import stci

# What the package re-exports: code that only the tests use lives in
# tests/oracles.py, so a name added here is a visible change of the API.
PUBLIC = {
    "ChainComplex", "CheckResult", "ContextMismatchError", "EvaluationError",
    "FieldSpec", "MonomialIdeal", "ParseError", "RandomIdealSpec",
    "ResourceLimitError", "RingContext",
    "analytic_spread", "check_chain", "check_dg_dichotomy",
    "check_disjoint_prime_intersection", "check_frobenius",
    "check_one_dimensional_prime", "check_squarefree_cm",
    "cohomological_dimension", "depth", "dg", "dim_quotient", "evaluate",
    "formal_grade", "format_program", "fuzz", "height",
    "irreducible_decomposition", "is_valid_sv_partition", "koszul_proj_dim",
    "lcm_lattice", "local_cohomology_nonvanishing", "min_depth_powers",
    "minimal_primes", "parse", "proj_dim", "rank", "report",
    "run_reference_suite", "schmitt_vogel_upper", "symbolic_power",
    "taylor_proj_dim", "triangle_edge_ideal", "two_planes_ideal",
}


def test_public_names_are_pinned():
    # submodules are bound on the package once imported, so they are left out
    names = sorted(
        name for name, value in vars(stci).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC)
