"""Bayesian identification of MISO FIR systems under collinear inputs.

Impulse responses carry a stable spline Gaussian prior; posteriors are
explored with Gibbs sampling, optionally augmented with jointly updated
blocks of channels chosen by input collinearity (the GSOB family of
samplers).
"""

from .blocks import (BlockSchedule, compute_block_probabilities,
                     compute_correlations, select_block)
from .conditionals import (HyperState, block_conditional, draw_gaussian,
                           sample_lambda_common, sample_lambda_k)
from .diagnostics import (analytic_posterior, build_report, fit_metric,
                          iact, joint_conditional, run_oracle_checks)
from .errors import DegenerateRateError, FactorizationError, SizeGuardError
from .kernel import StableSplineKernel, build_kernel, quad_form
from .regression import (Dataset, RegressorBank, load_dataset_csv,
                         save_dataset_csv)
from .sampler import (ChainRecord, Problem, SamplerConfig, VARIANTS,
                      build_problem, derive_seed, init_chain, load_record,
                      run, save_record, sweep)
from .simgen import (CollinearInputSpec, RandomSystemSpec, gamma_for_target_c,
                     generate_inputs, generate_system, load_truth_json,
                     synthesize_dataset, write_truth_json)

__version__ = "0.1.0"
