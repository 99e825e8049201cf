"""Low-rank matrix completion with the transformed Schatten-1 penalty.

The penalty sums a linear-to-linear rational function of the singular
values, interpolating between rank and the nuclear norm.  Its proximal
operator has a closed form, which the iterative solvers here exploit:
a basic fixed-parameter scheme, two adaptive schemes that re-derive the
threshold from the spectrum every step, and a nuclear-norm baseline.
A benchmark harness generates synthetic Gaussian problems and grayscale
inpainting instances and serializes results as CSV.
"""

from .scalar import (ScalarThresholdParams, ThresholdRegime, critical_lambda_mu,
                     h_lambda, make_threshold_params, rho_a, ts1_prox_scalar)
from .matrix import (SvdFactors, compute_svd, ky_fan_norm, numerical_rank,
                     partial_trace, shrinkage_identity, singular_values,
                     threshold_spectrum, ts1_penalty, ts1_prox_matrix)
from .sampling import ObjectiveContext, SamplingOperator
from .problems import (Descriptors, GenParams, GroundTruth, MaskedMatrix,
                       add_noise, fr_display, gen_gaussian_lowrank,
                       image_to_lowrank_truth, make_descriptors,
                       max_recoverable_rank, sample_uniform,
                       synthetic_test_image)
from .metrics import (SUCCESS_REL_ERR, RecoveryMetrics, evaluate, mse, psnr,
                      relative_error)
from .solvers import (Algorithm, IterationRecord, KnownRank, RankEstimate,
                      SolveReport, SolverConfig, eigengap_from_sigma,
                      estimate_rank, nuclear_baseline_step, resolve_a, solve,
                      ts1_it_step, ts1_s1_select_lambda, ts1_s2_select_params)
from .bench import (CSV_COLUMNS, ExperimentRecord, ExperimentSpec, Suite,
                    SuccessPoint, aggregate_success, emit_csv, load_config,
                    read_csv, run_suite)

__version__ = "0.1.0"
