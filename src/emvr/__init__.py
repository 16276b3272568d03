"""Variance-reduced incremental EM in the sufficient-statistic space.

The package iterates EM and its stochastic variants on statistic vectors
rather than parameters: a model maps statistics to fitted parameters and
back to per-sample conditional expectations, and the optimizers differ
only in how they estimate the full refit average between full passes.
"""

__version__ = "0.1.0"

from .core import (WITH_REPLACEMENT, WITHOUT_REPLACEMENT, Dataset,
                   DomainError, MinibatchSampler, Model, OracleCounters,
                   fd_natural_jacobian, fd_objective_gradient, full_stats,
                   mean_field, minibatch_stats, mstep, objective)
from .algorithms import (PerSampleStatStore, RunTrace, StepSchedule,
                         TraceRecord, randomized_terminate, run_algorithm,
                         theoretical_step_size)
from .gmm import (GmmParams, PooledGmm, ScalarTwoGmm, ScalarTwoGmmParams,
                  gmm_m_step, gmm_phi, gmm_posterior, init_kmeans,
                  init_random_responsibility, load_params, save_params,
                  scalar2_m_step)
from .data import (PcaTransform, gen_multivariate_mixture, gen_scalar_mixture,
                   load_dataset, pca_apply, pca_fit, remove_constant_features,
                   save_dataset)

__all__ = [name for name in dir() if not name.startswith("_")]
