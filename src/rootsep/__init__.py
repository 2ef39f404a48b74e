"""Certified lower bounds for products of distances between polynomial roots.

The package exposes:

* exact polynomial arithmetic over the Gaussian rationals (`poly`),
* high-precision root finding with certified error disks (`roots`),
* Mahler measure, discriminant and subdiscriminants by independent routes
  (`invariants`),
* graphs on root indices with the canonical orientation (`graph`),
* the bound variants with reduction certificates and directed-rounding
  verdicts (`bounds`),
* parsing, sweeps, and the `rootsep` CLI.
"""

from .balls import CBall, RBall, working_precision
from .bounds import (
    BoundReport,
    ClusterHint,
    VandermondeCertificate,
    bound_classical,
    bound_main,
    bound_remark_degree,
    bound_remark_pairs,
    bound_sep_product,
    lemma_aux_check,
    multiplicity_product_bound,
    reduce_vandermonde,
    verify,
)
from . import divdiff  # noqa: F401  the layer of the reduction's rows
from .errors import (
    CertificationError,
    IndistinguishableRootsError,
    JensenUnavailableError,
    ParseError,
    PreconditionError,
    RootsepError,
    ValidationError,
)
from .gaussian import GaussianRational
from .graph import (
    RootGraph,
    check_classical_admissible,
    min_total_degree,
    orient,
    preset_edges,
)
from .invariants import (
    InvariantBundle,
    compute_invariants,
    discriminant,
    mahler_measure,
    mahler_measure_jensen,
    sdisc_abs_from_roots,
    sdisc_abs_from_subresultants,
    subdiscriminant,
)
from .parsing import parse_polynomial, render_exact_poly
from .poly import (
    ExactPoly,
    eval_poly,
    gcd_exact,
    square_free_decomposition,
)
from .roots import RootSet, find_roots, min_pairwise_distance, refine, sep
from .sweep import SweepParams, generate_instance, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CBall",
    "CertificationError",
    "ClusterHint",
    "ExactPoly",
    "GaussianRational",
    "IndistinguishableRootsError",
    "InvariantBundle",
    "JensenUnavailableError",
    "ParseError",
    "PreconditionError",
    "RBall",
    "RootGraph",
    "RootSet",
    "RootsepError",
    "SweepParams",
    "ValidationError",
    "VandermondeCertificate",
    "bound_classical",
    "bound_main",
    "bound_remark_degree",
    "bound_remark_pairs",
    "bound_sep_product",
    "check_classical_admissible",
    "compute_invariants",
    "discriminant",
    "eval_poly",
    "find_roots",
    "gcd_exact",
    "generate_instance",
    "lemma_aux_check",
    "mahler_measure",
    "mahler_measure_jensen",
    "min_pairwise_distance",
    "min_total_degree",
    "multiplicity_product_bound",
    "orient",
    "parse_polynomial",
    "preset_edges",
    "reduce_vandermonde",
    "refine",
    "render_exact_poly",
    "run_sweep",
    "sdisc_abs_from_roots",
    "sdisc_abs_from_subresultants",
    "sep",
    "square_free_decomposition",
    "subdiscriminant",
    "verify",
    "working_precision",
]
