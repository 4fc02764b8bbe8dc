"""Coarse-grained homodyne quadrature analysis toolkit.

Simulates phase-diffused, lossy squeezed vacuum measurements, coarse-grains
them into bins, and certifies nonclassicality via the three-bin ratio test and
the normally-ordered-moment matrix, with parameter estimation, entanglement
potential and bootstrap significance on top.
"""

from .binning import bin_indices, histogram
from .data import (
    Dataset,
    inject_phase_noise,
    read_csv,
    sample_dataset,
    select_phase_window,
    simulation_params,
    write_csv,
)
from .detect import (
    MomentMatrix,
    analytic_three_bin_R,
    moment_matrix_from_moments,
    normally_ordered_moments,
    three_point_R,
)
from .errors import (
    CsvFormatError,
    EigensolverError,
    EstimationError,
    QuadbinError,
    UndefinedStatisticError,
)
from .estimate import (
    MomentSummary,
    db_from_variance,
    estimate_params,
    params_from_variances,
    squeezing_for_target,
    summarize,
    variance_from_db,
)
from .fock import (
    FockDensityMatrix,
    apply_loss,
    apply_phase_diffusion,
    beam_split_with_vacuum,
    entanglement_potential,
    partial_transpose,
    quadrature_variance,
    squeezed_vacuum_fock,
    state_from_params,
)
from .model import (
    QuadratureDistribution,
    StateParams,
    diffused_variance,
    kurtosis_x,
    rotated_variance,
)
from .stats import (
    REPLACEMENT,
    SUBSAMPLE,
    BootstrapResult,
    BootstrapSpec,
    ViolationReport,
    bootstrap,
    compare_methods,
    min_eigenvalue_statistic,
    resample_indices,
    resample_values,
    significant,
    three_bin_statistic,
)

__version__ = "0.1.0"
