"""Run-length and convergence diagnostics."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from demrecon import RunLengthReport, gelman_rubin, raftery_lewis


def _two_state_report(x, q=0.025, r=0.005, s=0.95, eps=0.001, kthin=1):
    """Hand recomputation of the run-length numbers from a chain already
    known to binarize to a first-order Markov chain at the given thinning."""
    z_alpha = norm.ppf(0.5 * (1.0 + s))
    binary = (x <= np.quantile(x, q)).astype(int)[::kthin]
    pairs = np.zeros((2, 2))
    for i, j in zip(binary[:-1], binary[1:]):
        pairs[i, j] += 1
    a = pairs[0, 1] / pairs[0].sum()
    b = pairs[1, 0] / pairs[1].sum()
    m_star = math.log(eps * (a + b) / max(a, b)) / math.log(abs(1.0 - a - b))
    n_star = a * b * (2.0 - a - b) / (a + b) ** 3 * (z_alpha / r) ** 2
    nmin = math.ceil(q * (1.0 - q) * (z_alpha / r) ** 2)
    return (nmin, int(math.ceil(m_star)) * kthin, int(math.ceil(n_star)) * kthin)


def test_nmin_default_settings():
    rng = np.random.default_rng(0)
    report = raftery_lewis(rng.standard_normal(20000))
    assert report.nmin == 3746


def test_iid_chain_dependence_near_one():
    rng = np.random.default_rng(1)
    report = raftery_lewis(rng.standard_normal(50000))
    assert 0.8 < report.dependence < 1.25
    assert report.thin <= 2
    assert report.burn_in <= 10 * report.thin


def test_correlated_chain_demands_more():
    rng = np.random.default_rng(2)
    n, rho = 50000, 0.95
    x = np.empty(n)
    x[0] = 0.0
    innov = rng.standard_normal(n) * math.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + innov[t]
    report = raftery_lewis(x)
    assert report.dependence > 3.0
    assert report.n_required > report.nmin
    assert report.burn_in > 1


def test_formulas_match_hand_recomputation():
    """On an iid chain the first-order fit wins at k=1, so every reported
    number must equal the closed-form recomputation from the pair counts."""
    rng = np.random.default_rng(3)
    x = rng.random(20000)
    report = raftery_lewis(x)
    assert report.thin == 1
    nmin, burn, n_req = _two_state_report(x)
    assert report.nmin == nmin
    assert report.burn_in == burn
    assert report.n_required == n_req
    assert report.dependence == pytest.approx(n_req / nmin, rel=1e-12)


def test_parameter_validation():
    x = np.random.default_rng(4).random(5000)
    for bad in [dict(q=0.0), dict(q=1.0), dict(r=0.0), dict(r=-1.0),
                dict(s=0.0), dict(s=1.0)]:
        with pytest.raises(ValueError):
            raftery_lewis(x, **bad)


def test_short_chain_raises():
    x = np.random.default_rng(5).random(100)
    with pytest.raises(ValueError, match="below the minimum"):
        raftery_lewis(x)


def test_degenerate_binary_chain_raises():
    # all values identical: the chain never leaves the low state
    x = np.ones(5000)
    with pytest.raises(ValueError):
        raftery_lewis(x)


def test_period_two_binary_chain_raises():
    # alternating values: a = b = 1, so |1 - a - b| = 1 and its log is 0
    with pytest.raises(ValueError, match="period 2"):
        raftery_lewis(np.tile([0.0, 1.0], 2500))


def test_looser_tolerance_needs_fewer_draws():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(60000)
    tight = raftery_lewis(x, r=0.005)
    loose = raftery_lewis(x, r=0.02)
    assert loose.nmin < tight.nmin
    assert loose.n_required < tight.n_required


def test_gelman_rubin_identical_chains():
    """With zero between-chain variance the estimate is sqrt((n-1)/n),
    a hair below 1."""
    x = np.random.default_rng(7).standard_normal(500)
    n = x.size
    assert gelman_rubin([x, x.copy()]) == pytest.approx(math.sqrt((n - 1) / n),
                                                        rel=1e-12)


def test_gelman_rubin_same_distribution_near_one():
    rng = np.random.default_rng(8)
    chains = [rng.standard_normal(4000) for _ in range(3)]
    r = gelman_rubin(chains)
    assert 0.99 < r < 1.02


def test_gelman_rubin_flags_diverged_chains():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(1000)
    b = rng.standard_normal(1000) + 5.0
    assert gelman_rubin([a, b]) > 1.1


def test_gelman_rubin_hand_value():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([2.0, 3.0, 4.0])
    n = 3
    w = 0.5 * (np.var(a, ddof=1) + np.var(b, ddof=1))
    bn = np.var([a.mean(), b.mean()], ddof=1)
    want = math.sqrt(((n - 1) / n * w + bn) / w)
    assert gelman_rubin([a, b]) == pytest.approx(want, rel=1e-14)


def test_gelman_rubin_input_validation():
    with pytest.raises(ValueError):
        gelman_rubin([np.arange(4.0)])
    with pytest.raises(ValueError):
        gelman_rubin([np.arange(4.0), np.arange(5.0)])
    with pytest.raises(ValueError):
        gelman_rubin([np.array([1.0]), np.array([2.0])])


def test_gelman_rubin_constant_chains():
    assert gelman_rubin([np.zeros(10), np.zeros(10)]) == 1.0


def test_gelman_rubin_flags_chains_stuck_at_different_values():
    assert gelman_rubin([np.zeros(10), np.ones(10)]) == math.inf


@pytest.mark.xfail(strict=True, reason=(
    "gelman_rubin squares deviations on the data's own scale: above about 1.3e154"
    " they overflow, numpy warns and R-hat is nan. The postprocess reference"
    " diagnostics record three such nan rows, so the fix waits for a benchmark change"))
def test_gelman_rubin_is_scale_invariant_near_overflow():
    rng = np.random.default_rng(11)
    chains = [rng.standard_normal(200), rng.standard_normal(200) + 0.3]
    want = gelman_rubin(chains)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gelman_rubin([1e160 * c for c in chains])
    assert got == pytest.approx(want, rel=1e-12)


def test_report_is_plain_record():
    rng = np.random.default_rng(10)
    report = raftery_lewis(rng.random(10000))
    assert isinstance(report, RunLengthReport)
    assert report.n_required > 0 and report.thin >= 1
