"""Run-length and convergence diagnostics."""

import math
import warnings

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.stats import norm

from demrecon import RunLengthReport, diagnostics, gelman_rubin, raftery_lewis
from demrecon.diagnostics import _g2_second_vs_first, _run_counts
from oracles import binary_run_counts_oracle, g2_second_vs_first_oracle


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


@pytest.mark.parametrize("r", [1e-160, math.inf, 1e200])
def test_settings_without_a_finite_positive_nmin_raise(r):
    """A tiny r takes (z/r)^2 past the largest float and a huge one rounds
    Nmin to 0: both raise ValueError before the chain is looked at."""
    with pytest.raises(ValueError, match=r"Nmin = ceil\(q\(1-q\)\(z/r\)\^2\) finite"):
        raftery_lewis(np.random.default_rng(4).random(5000), r=r)


def test_short_chain_raises():
    x = np.random.default_rng(5).random(100)
    with pytest.raises(ValueError, match="below the minimum"):
        raftery_lewis(x)


def test_chain_too_short_after_thinning_raises():
    """Nmin is 1 at q = r = s = 0.5, so only the thinned length refuses. Three
    draws hold one triple, whose BIC is G^2 - 2 log 1 >= 0, so they are
    thinned to two draws and refused; four draws stop at thinning 1."""
    with pytest.raises(ValueError, match="chain too short to estimate the transition matrix"
                                         " after thinning"):
        raftery_lewis([0.0, 1.0, 2.0], q=0.5, r=0.5, s=0.5)
    assert isinstance(raftery_lewis([0.0, 1.0, 2.0, 3.0], q=0.5, r=0.5, s=0.5), RunLengthReport)


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
    for chains in ([np.arange(4.0)],
                   [np.arange(4.0), np.arange(5.0)],
                   [np.array([1.0]), np.array([2.0])],
                   [np.zeros((5, 3))],
                   [np.zeros((5, 3)), np.zeros((5, 2))],
                   [np.zeros((5, 3)), np.zeros((6, 3))],
                   [np.zeros((1, 3)), np.zeros((1, 3))],
                   [np.zeros((5, 3, 2)), np.zeros((5, 3, 2))]):
        with pytest.raises(ValueError):
            gelman_rubin(chains)


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


@pytest.mark.parametrize("chain", ["random", "all_zero", "alternating"])
@pytest.mark.parametrize("width", [2, 3])
def test_run_counts_match_tally(chain, width):
    """The pair and triple tables of the run-length diagnostic, at every
    thinning its search tries, against a window-by-window tally."""
    z = {"random": (np.random.default_rng(12).random(997) < 0.3).astype(np.intp),
         "all_zero": np.zeros(500, dtype=np.intp),
         "alternating": np.tile(np.array([0, 1], dtype=np.intp), 250)}[chain]
    for k in (1, 2, 3, 7):
        zt = z[::k]
        got = _run_counts(zt, width)
        assert got.shape == (2,) * width
        assert got.tolist() == binary_run_counts_oracle(zt, width)
        assert got.sum() == zt.size - width + 1


def _binary_chains():
    """Binary chains for the G2 statistic: random ones with and without
    memory, constant and alternating ones, and ones whose middle state of
    every triple is the same (the other state only at both ends)."""
    rng = np.random.default_rng(13)
    sticky = np.cumsum(rng.random(1500) < 0.1) % 2
    middle = np.zeros(43, dtype=np.intp)  # 42 steps: every thinning keeps both ends
    middle[[0, -1]] = 1
    chains = {f"iid_{p}_{n}": (rng.random(n) < p).astype(np.intp)
              for p in (0.03, 0.3, 0.5) for n in (50, 997)}
    chains.update(sticky=sticky.astype(np.intp), all_zero=np.zeros(500, dtype=np.intp),
                  all_one=np.ones(500, dtype=np.intp),
                  alternating=np.tile(np.array([0, 1], dtype=np.intp), 250),
                  middle_never_one=middle, middle_never_zero=1 - middle)
    return chains


@pytest.mark.parametrize("name", list(_binary_chains()))
def test_g2_matches_cell_by_cell_formula(name):
    """G2 of the second- against the first-order fit, at every thinning of
    the first few the run-length search tries, against the formula."""
    z = _binary_chains()[name]
    for k in (1, 2, 3, 7):
        zt = z[::k]
        want = g2_second_vs_first_oracle(zt)
        assert _g2_second_vs_first(zt) == pytest.approx(want, rel=1e-12, abs=0.0)


def _outcome(chain, **settings):
    try:
        return raftery_lewis(chain, **settings)
    except ValueError as e:
        return str(e)


def test_raftery_lewis_same_with_cell_by_cell_g2(monkeypatch):
    """Every report and every error of the run-length diagnostic on AR(1)
    chains of 0.9 to 3 times the iid minimum is the same when G2 comes from
    the scalar formula."""
    rng = np.random.default_rng(14)
    cases = []
    for _ in range(240):
        rho = float(rng.choice([0.0, 0.5, 0.9, 0.99]))
        q, r = float(rng.choice([0.025, 0.1, 0.5, 0.9])), float(rng.choice([0.01, 0.02, 0.05]))
        n = int(q * (1.0 - q) * (norm.ppf(0.975) / r) ** 2 * rng.uniform(0.9, 3.0))
        cases.append((lfilter([1.0], [1.0, -rho], rng.standard_normal(n)), dict(q=q, r=r)))
    got = [_outcome(x, **settings) for x, settings in cases]
    monkeypatch.setattr(diagnostics, "_g2_second_vs_first", g2_second_vs_first_oracle)
    assert got == [_outcome(x, **settings) for x, settings in cases]
    reports = sum(isinstance(g, RunLengthReport) for g in got)
    assert 200 <= reports < len(cases)


def test_gelman_rubin_columns_match_scalar_calls():
    """A block of m parameters gives, column by column, what one call per
    parameter gives, to the digits diagnose writes."""
    rng = np.random.default_rng(13)
    for n_chains, n, m in [(2, 1000, 351), (3, 57, 20), (4, 4, 9), (5, 300, 3)]:
        shift = rng.normal(0.0, 0.05, (n_chains, 1, m))
        scale = 10.0 ** rng.uniform(-6, 6, m)
        chains = list((rng.standard_normal((n_chains, n, m)) + shift) * scale)
        got = gelman_rubin(chains)
        assert isinstance(got, np.ndarray) and got.shape == (m,)
        for j in range(m):
            want = gelman_rubin([c[:, j] for c in chains])
            assert isinstance(want, float)
            assert got[j] == pytest.approx(want, rel=1e-13)
            assert f"{got[j]:.4g}" == f"{want:.4g}"


def test_gelman_rubin_edge_columns_in_one_block():
    """Constant columns, at one value or stuck at different values per
    chain, next to an ordinary column: each gives its own verdict."""
    rng = np.random.default_rng(14)
    n = 1000
    chains = []
    for c in range(3):
        block = np.empty((n, 4))
        block[:, 0] = rng.standard_normal(n)
        block[:, 1] = 0.1  # n copies of 0.1 do not sum to n * 0.1 exactly
        block[:, 2] = 123.456
        block[:, 3] = 0.3 * c + 0.1  # one value per chain, different values
        chains.append(block)
    got = gelman_rubin(chains)
    assert 0.99 < got[0] < 1.02
    assert got[1] == 1.0 and got[2] == 1.0
    assert got[3] == math.inf
    assert [gelman_rubin([c[:, j] for c in chains]) for j in range(4)] == pytest.approx(got.tolist())


def test_gelman_rubin_block_overflow_stays_nan():
    """A column whose deviations overflow when squared is nan, also in a
    block; the other columns are unaffected (see the strict xfail above)."""
    rng = np.random.default_rng(15)
    chains = [rng.standard_normal((200, 3)), rng.standard_normal((200, 3)) + 0.3]
    want = gelman_rubin(chains)
    for c in chains:
        c[:, 1] *= 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = gelman_rubin(chains)
    assert math.isnan(got[1])
    assert got[[0, 2]].tolist() == want[[0, 2]].tolist()


def test_report_is_plain_record():
    rng = np.random.default_rng(10)
    report = raftery_lewis(rng.random(10000))
    assert isinstance(report, RunLengthReport)
    assert report.n_required > 0 and report.thin >= 1
