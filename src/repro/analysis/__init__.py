"""Theoretical machinery from Section V: CDFs, DKW bounds, sampling sizes."""

from repro.analysis.cdf import EmpiricalCDF, dkw_confidence, dkw_epsilon
from repro.analysis.sampling import (
    RandomWalkSampler,
    sample_size_for_mds_error,
    sample_size_for_subtree_error,
)
from repro.analysis.theory import BoundExperiment, balance_bound, run_bound_experiment

__all__ = [
    "BoundExperiment",
    "EmpiricalCDF",
    "RandomWalkSampler",
    "balance_bound",
    "dkw_confidence",
    "dkw_epsilon",
    "run_bound_experiment",
    "sample_size_for_mds_error",
    "sample_size_for_subtree_error",
]
