"""Certified lower bounds for products of distances between polynomial roots.

The package exposes:

* exact polynomial arithmetic over the Gaussian rationals (`poly`),
* high-precision root finding with certified error disks (`roots`),
* the Mahler measure, |Disc| and |sDisc_{d-r}| from one subresultant chain,
  cross-checked by the root-product formula (`invariants`),
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
    reduce_vandermonde,
    verify,
)
from . import divdiff  # noqa: F401  the layer of the reduction's rows
from .errors import (
    CertificationError,
    IndistinguishableRootsError,
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
    mahler_measure,
    sdisc_abs_from_roots,
)
from .parsing import parse_polynomial, render_exact_poly
from .poly import (
    ExactPoly,
    gcd_exact,
    square_free_decomposition,
)
from .roots import RootSet, find_roots, refine, sep
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
    "find_roots",
    "gcd_exact",
    "generate_instance",
    "mahler_measure",
    "min_total_degree",
    "orient",
    "parse_polynomial",
    "preset_edges",
    "reduce_vandermonde",
    "refine",
    "render_exact_poly",
    "run_sweep",
    "sdisc_abs_from_roots",
    "sep",
    "square_free_decomposition",
    "verify",
    "working_precision",
]
