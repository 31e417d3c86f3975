"""Bayesian reconstruction of two-sex populations of the recent past.

A deterministic cohort-component projection maps baseline counts and
period vital rates to a full population trajectory; a hierarchical
model ties those inputs to initial estimates and census counts; a
Metropolis-within-Gibbs sampler draws the joint posterior of the
demographic parameters and their error variances; summaries turn the
draws into credible intervals, indicator trajectories and trend
probabilities.
"""

__version__ = "0.2.1"

from .grid import (FEMALE, MALE, PARAM_CLASSES, SEX_LABELS,
                   CensusData, Elicitation, ModelGrid, ThetaVector, validate)
from .projection import Trajectory, positivity_indicator, project_full, total_births
from .priors import (ElicitationError, HyperParams, beta_from_elicitation, log_invgamma,
                     log_likelihood_census, log_prior_theta, t_quantile_95, transform,
                     untransform)
from .sampler import (ChainState, ConfigError, PosteriorSample, SamplerConfig,
                      SamplingError, log_posterior, parameter_names, run_chain,
                      variance_posterior)
from .diagnostics import RunLengthReport, gelman_rubin, raftery_lewis
from .summaries import (INDICATOR_NAMES, TrajectoryMatrix, endpoint_diff,
                        exceedance_prob, indicator_trajectories, joint_event_prob,
                        marginal_quantiles, mean_half_width, ols_slope, summary_rows)
from .simulate import SimulatedData, draw_joint, prior_sample, simulate_dataset
from .io import (ParseError, RunManifest, load_census, load_elicitation,
                 load_grid, load_sampler_settings, load_theta, make_manifest,
                 read_samples, sha256_file, write_census, write_samples,
                 write_theta, write_trajectory)
