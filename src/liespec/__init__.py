"""Spectral gaps and diameters of left-invariant metrics on compact Lie groups.

Supported groups: flat tori T^m, SU(2), SO(3), and su2 x su2.  The package
computes certified first Laplace eigenvalues through representation theory,
diameters through exact lattice covering radii (tori), closed forms
(bi-invariant metrics) and geodesic-graph estimates (SU(2)/SO(3)), and drives
ratio scans and degeneration experiments over the metric space.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .lie_core import (GroupElement, LieGroupCatalogEntry, Subalgebra, bracket,
                       ell_index, entry_from_key, generated_subalgebra,
                       group_exp, group_inv, group_log, group_log_with_flag,
                       group_mul, identity_element, is_bracket_generating,
                       product_entry, so3_entry, su2_entry, su_n_k_max,
                       torus_entry)
from .metric_space import (MatrixFormatError, MetricSpec, SingularMatrixError,
                           canonical_form, loewner_leq, metric_from_matrix,
                           read_matrix, sample_metric, write_matrix)
from .rep_theory import (Irrep, SpectralResult, assemble_minus_CA,
                         biinvariant_lambda1, character_irrep,
                         enumerate_irreps, invariant_dim, lambda1_certified,
                         lambda1_restricted, lambda_min_hermitian, spin_irrep)
from .geometry import (DiameterEstimate, Net, PaperBounds,
                       biinvariant_diameter, biinvariant_distance, build_net,
                       graph_diameter, paper_diameter_bounds, torus_diameter)
from .egs_scan import (DiamConfig, DegenerationReport, PropertyReport,
                       ScanRecord, ScanSummary, degeneration_experiment,
                       egs_ratio, property_suite, scan)


def startup_self_test() -> None:
    """Assert the normalisation calibration.

    Checks that the spin-1/2 irrep reproduces the su(2) structure constants
    and that the identity metric on SU(2) has certified gap exactly 3.  The
    subgroup-index table is enforced where catalog entries are built.
    """
    import numpy as np

    su2 = su2_entry()
    spin_irrep("1/2").check_commutators(su2)
    res = lambda1_certified(su2, metric_from_matrix(np.eye(3)))
    if not (res.certified and abs(res.lambda1 - 3.0) < 1e-12):
        raise AssertionError("identity-metric spectral gap must be exactly 3")
