"""Statistics utilities: K-S test, descriptive stats, bootstrap, NLS."""

from .bootstrap import BootstrapCI, bootstrap_ci, bootstrap_paired_ci
from .descriptive import BoxplotStats, boxplot_stats, pearson, quantile
from .ks import KSResult, kolmogorov_sf, ks_2sample, ks_statistic
from .regression import LogFitResult, fit_log_params, nonnegative_lstsq

__all__ = [
    "BootstrapCI",
    "bootstrap_ci",
    "bootstrap_paired_ci",
    "BoxplotStats",
    "boxplot_stats",
    "pearson",
    "quantile",
    "KSResult",
    "kolmogorov_sf",
    "ks_2sample",
    "ks_statistic",
    "LogFitResult",
    "fit_log_params",
    "nonnegative_lstsq",
]
