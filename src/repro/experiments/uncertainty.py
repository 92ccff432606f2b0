"""Fit-uncertainty quantification (beyond the paper).

The paper reports point estimates; a reproduction can do better and ask
how tightly the campaign + fit pipeline pins each constant.  This
module re-runs the whole measurement campaign under independent seeds
and summarises the dispersion of every recovered parameter -- a
seed-bootstrap over the *entire* pipeline, not just the regression.

Interpretation: the coefficient of variation (CV) measures pipeline
reproducibility; whether the paper's value falls inside the seed range
measures accuracy.  Power-decomposition parameters (``pi1`` vs
``delta_pi``) show the widest spreads on weakly-capped platforms,
matching the identifiability analysis in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..microbench.suite import FittedPlatform
from ..report.tables import Table
from .common import CampaignSettings, run_platform_fit

__all__ = ["ParameterSpread", "UncertaintyResult", "quantify"]

_PARAMETERS = ("tau_flop", "tau_mem", "eps_flop", "eps_mem", "pi1", "delta_pi")


@dataclass(frozen=True)
class ParameterSpread:
    """Seed-to-seed dispersion of one fitted parameter."""

    name: str
    values: np.ndarray  #: one fitted value per seed.
    truth: float  #: simulator ground truth.

    @property
    def median(self) -> float:
        return float(np.median(self.values))

    @property
    def cv(self) -> float:
        """Coefficient of variation (std / mean)."""
        mean = float(np.mean(self.values))
        if mean == 0:
            raise ValueError(f"degenerate parameter {self.name}")
        return float(np.std(self.values) / abs(mean))

    @property
    def covers_truth(self) -> bool:
        """Whether the seed range brackets the ground truth."""
        return (
            float(np.min(self.values)) <= self.truth <= float(np.max(self.values))
        )

    @property
    def median_bias(self) -> float:
        """Signed relative deviation of the seed-median from truth."""
        return (self.median - self.truth) / self.truth


@dataclass(frozen=True)
class UncertaintyResult:
    """Per-parameter spreads for one platform."""

    platform_id: str
    n_seeds: int
    spreads: dict[str, ParameterSpread]
    fits: tuple[FittedPlatform, ...]

    def to_table(self) -> Table:
        table = Table(
            columns=["parameter", "median", "truth", "bias", "CV", "covers truth"],
            title=f"Fit uncertainty for {self.platform_id} "
            f"({self.n_seeds} independent campaigns)",
        )
        for spread in self.spreads.values():
            table.add_row(
                spread.name,
                f"{spread.median:.4g}",
                f"{spread.truth:.4g}",
                f"{spread.median_bias:+.1%}",
                f"{spread.cv:.1%}",
                "yes" if spread.covers_truth else "no",
            )
        return table

    @property
    def worst_cv(self) -> tuple[str, float]:
        name = max(self.spreads, key=lambda k: self.spreads[k].cv)
        return name, self.spreads[name].cv


def quantify(
    platform_id: str,
    *,
    n_seeds: int = 5,
    base_seed: int = 7000,
    settings: CampaignSettings | None = None,
) -> UncertaintyResult:
    """Re-run the campaign under ``n_seeds`` seeds and summarise the
    dispersion of the capped fit's parameters."""
    if n_seeds < 2:
        raise ValueError("need at least 2 seeds")
    base = settings or CampaignSettings()
    fits = []
    for k in range(n_seeds):
        seeded = replace(
            base,
            seed=base_seed + 101 * k,
            include_double=False,  # single precision carries the fit
        )
        fits.append(run_platform_fit(platform_id, seeded))
    truth = fits[0].truth
    spreads = {}
    for name in _PARAMETERS:
        values = np.array([getattr(f.capped.params, name) for f in fits])
        spreads[name] = ParameterSpread(
            name=name, values=values, truth=float(getattr(truth, name))
        )
    return UncertaintyResult(
        platform_id=platform_id,
        n_seeds=n_seeds,
        spreads=spreads,
        fits=tuple(fits),
    )
