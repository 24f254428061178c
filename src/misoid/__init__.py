"""Bayesian identification of MISO FIR systems under collinear inputs.

Impulse responses carry a stable spline Gaussian prior; posteriors are
explored with Gibbs sampling, optionally augmented with jointly updated
blocks of channels chosen by input collinearity (the GSOB family of
samplers).  The package binds the library path; everything else is
imported from the module that defines it.
"""

from .blocks import BlockSchedule
from .conditionals import HyperState
from .diagnostics import analytic_posterior, iact
from .regression import Dataset, load_dataset_csv, save_dataset_csv
from .sampler import (ChainRecord, Problem, SamplerConfig, VARIANTS,
                      build_problem, init_chain, load_record, run,
                      save_record)
from .simgen import (CollinearInputSpec, RandomSystemSpec, generate_inputs,
                     generate_system, synthesize_dataset, write_truth_json)

__version__ = "0.1.0"
