import numpy as np
import pytest

from demrecon import (PARAM_CLASSES, Elicitation, ModelGrid, PosteriorSample,
                      SamplerConfig, ThetaVector, beta_from_elicitation)


@pytest.fixture
def desk_grid():
    """Small grid used throughout: 4 age groups, 3 periods, 2 fertile groups."""
    return ModelGrid(start_year=1960, end_year=1975, open_age=15,
                     fert_min_age=10, fert_max_age=15,
                     census_years=(1960, 1965, 1975))


@pytest.fixture
def full_grid():
    """Application-sized grid: 17 age groups, 4 periods."""
    return ModelGrid(start_year=1960, end_year=1980, open_age=80,
                     fert_min_age=15, fert_max_age=45,
                     census_years=(1960, 1980))


def make_theta(grid, seed=0, mig_width=0.02):
    """A random parameter vector that is comfortably inside every domain."""
    rng = np.random.default_rng(seed)
    K, P, F = grid.n_ages, grid.n_periods, grid.n_fertile
    return ThetaVector(
        baseline=rng.uniform(50.0, 150.0, (K, 2)),
        fertility=rng.uniform(0.05, 0.2, (F, P)),
        survival=rng.uniform(0.7, 0.95, (K + 1, P, 2)),
        migration=rng.uniform(-mig_width, mig_width, (K, P, 2)),
        srb=rng.uniform(1.0, 1.1, P),
    )


def sample_from_thetas(grid, thetas):
    """A one-chain PosteriorSample whose draws are the given parameter sets."""
    draws = {c: np.stack([t.by_class()[c] for t in thetas]) for c in PARAM_CLASSES}
    n = len(thetas)
    return PosteriorSample(
        grid=grid, draws=draws, sigma2=np.full((n, 5), 1e-4),
        chain=np.zeros(n, dtype=int), acceptance={},
        config=SamplerConfig(iterations=n, burn_in=0))


def flat_elicitation(eta=0.1):
    return Elicitation(eta={c: eta for c in
                            ("counts", "fertility", "survival", "migration", "srb")})


@pytest.fixture
def desk_theta(desk_grid):
    return make_theta(desk_grid, seed=1)


@pytest.fixture
def desk_hyper(desk_theta):
    return beta_from_elicitation(flat_elicitation(), desk_theta)
