"""Density-based clustering of noisy multivariate time series.

Pipeline: smooth each raw series with a left-side Epanechnikov
Nadaraya-Watson estimator, evaluate it on the clustering grid 1/d .. 1,
flatten into one point of [0,1]^(s*d), and cluster the flattened points
with a simplified DBSCAN whose levels correspond exactly to spherical-kernel
density thresholds. The experiments module replays the convergence and
geometry claims behind that pipeline at desk scale.
"""

from .clustering import (
    NOISE,
    ClusterTree,
    Labeling,
    ball_union_components,
    cluster_tree,
    components_bruteforce,
    core_points,
    dbscan_cluster,
    hartigan_disjoint,
    smallest_containing_cluster,
)
from .density import (
    KdeModel,
    delta_schedule,
    k_of_lambda,
    kde_eval,
    lambda_of_k,
)
from .geometry import ball_sym_diff_bound, ball_sym_diff_volume, ball_volume, reg_inc_beta
from .io import PipelineConfig, ingest_series_csv, run_cluster, run_smooth
from .series import GridSeries, RawSeries, SeriesBatch, flatten
from .smoothing import (
    estimate_grid_series,
    gamma_schedule,
    kernel_le,
    nw_weights,
    smooth_at,
    smooth_batch,
)
from .synthetic import FunctionFamilySpec, MixtureSpec, sample_raw_series, sample_series_batch

__version__ = "0.1.0"
