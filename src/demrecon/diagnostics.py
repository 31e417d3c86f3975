"""Chain-length and convergence diagnostics.

The run-length calculation answers: how many more iterations do I need
to estimate the q-quantile of this scalar's posterior to within +-r
with probability s? It binarizes the chain at the empirical q-quantile,
thins until the binary chain is compatible with a first-order Markov
chain (BIC comparison of second- versus first-order fits on the triple
counts), and then reads burn-in and required length off the two-state
transition matrix:

  m* = log(eps*(a+b) / max(a,b)) / log|1 - a - b|      burn-in (thinned)
  n* = a*b*(2-a-b) / (a+b)^3 * (z/r)^2                 post burn-in
  Nmin = q*(1-q) * (z/r)^2                             iid baseline

with a = P(0 -> 1), b = P(1 -> 0), z the standard normal quantile at
(s+1)/2, and eps the transition-probability convergence tolerance. The
reported burn-in and required length are m**k and n**k for thinning k.
The dependence factor is N / Nmin; values near 1 mean the chain mixes
like an iid sequence over the event of interest.

``gelman_rubin`` takes chains with an optional trailing parameter axis,
(n, m), and then returns one R-hat per parameter from one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class RunLengthReport:
    nmin: int
    burn_in: int
    n_required: int
    thin: int
    dependence: float


def _run_counts(z: np.ndarray, width: int) -> np.ndarray:
    """How often each run of ``width`` successive states occurs in the
    binary chain z, as a (2,) * width table: pairs for 2, triples for 3."""
    n = z.size - width + 1
    code = z[:n]
    for lag in range(1, width):
        code = 2 * code + z[lag:lag + n]
    return np.bincount(code, minlength=2 ** width).reshape((2,) * width)


def _g2_second_vs_first(z: np.ndarray) -> float:
    """Likelihood-ratio statistic of a second-order binary Markov fit
    against a first-order one, from the chain's triple counts: 2 sum
    n_ijk log(n_ijk n_.j. / (n_ij. n_.jk)) over the triples seen."""
    t = _run_counts(z, 3)
    seen = t > 0
    fitted = t.sum(2, keepdims=True) * t.sum(0, keepdims=True) / t.sum((0, 2), keepdims=True).clip(1)
    return float(2.0 * np.sum(t[seen] * np.log(t[seen] / fitted[seen])))


def check_run_length_settings(q: float, r: float, s: float) -> int:
    """The iid minimum Nmin of these settings. Raise ValueError unless
    0 < q < 1, 0 < s < 1, r > 0 and Nmin is a finite integer of at least
    1: a tiny r takes (z/r)^2 past the largest float, a huge one rounds
    Nmin to 0."""
    nmin = 0
    if 0.0 < q < 1.0 and 0.0 < s < 1.0 and r > 0.0:
        try:
            nmin = math.ceil(q * (1.0 - q) * (float(ndtri(0.5 * (1.0 + s))) / r) ** 2)
        except OverflowError:
            pass
    if nmin < 1:
        raise ValueError("need 0 < q < 1, 0 < s < 1 and r > 0,"
                         " with Nmin = ceil(q(1-q)(z/r)^2) finite and at least 1")
    return nmin


def raftery_lewis(chain, q: float = 0.025, r: float = 0.005, s: float = 0.95,
                  eps: float = 0.001) -> RunLengthReport:
    """Run-length diagnostic for estimating one posterior quantile.

    chain is a 1-d scalar sample. Raises ValueError when the chain is
    shorter than the iid minimum Nmin (too short for the transition
    matrix to mean anything) or when the binarized chain never leaves
    one of its states or alternates on every step.
    """
    nmin = check_run_length_settings(q, r, s)
    x = np.asarray(chain, dtype=np.float64).ravel()
    z_alpha = float(ndtri(0.5 * (1.0 + s)))
    if x.size < nmin:
        raise ValueError(f"chain of length {x.size} is below the minimum {nmin} for these (q, r, s)")

    cutoff = np.quantile(x, q)
    binary = (x <= cutoff).astype(np.intp)

    kthin = 1
    while True:
        zt = binary[::kthin]
        if zt.size < 3:
            raise ValueError("chain too short to estimate the transition matrix after thinning")
        bic = _g2_second_vs_first(zt) - 2.0 * math.log(zt.size - 2.0)
        if bic < 0.0:
            break
        kthin += 1

    pairs = _run_counts(zt, 2)
    from0, from1 = pairs[0].sum(), pairs[1].sum()
    if from0 == 0 or from1 == 0:
        raise ValueError("binarized chain never leaves one state; cannot estimate transitions")
    a = pairs[0, 1] / from0
    b = pairs[1, 0] / from1

    lam = 1.0 - a - b
    if a == b == 1.0:  # |1 - a - b| = 1: the chain never forgets its start
        raise ValueError("binarized chain alternates on every step (period 2);"
                         " burn-in is undefined")
    if abs(lam) == 0.0:
        m_star = 1.0
    else:
        m_star = math.log(eps * (a + b) / max(a, b)) / math.log(abs(lam))
    burn = int(math.ceil(m_star)) * kthin

    n_star = a * b * (2.0 - a - b) / (a + b) ** 3 * (z_alpha / r) ** 2
    n_req = int(math.ceil(n_star)) * kthin

    return RunLengthReport(nmin=nmin, burn_in=max(burn, 0), n_required=n_req,
                           thin=kthin, dependence=n_req / nmin)


def gelman_rubin(chains):
    """Potential scale reduction factor across chains, one per parameter.

    chains is a sequence of arrays of one shape, one per chain: (n,) for
    one scalar, or (n, m) for m parameters with draws along the first
    axis. Returns a float for (n,) chains and an (m,) array otherwise.
    Values near 1 indicate the chains sample the same distribution;
    above about 1.1 they have not converged (inf: constant chains apart).
    Each chain is shifted by its first draw and the chain means by the
    first mean before the variances are taken, so a parameter constant
    within every chain has variances exactly 0.
    """
    seqs = [np.asarray(c, dtype=np.float64) for c in chains]
    if len(seqs) < 2:
        raise ValueError("need at least two chains")
    shape = seqs[0].shape
    if len(shape) not in (1, 2) or shape[0] < 2 or any(s.shape != shape for s in seqs):
        raise ValueError("chains must share one shape, (n,) or (n, m), with n >= 2")
    n = shape[0]
    means, w = [], 0.0
    for s in seqs:
        d = s - s[0]
        means.append(s[0] + d.mean(axis=0))
        w = w + d.var(axis=0, ddof=1)
    w = w / len(seqs)
    means = np.array(means)
    b_over_n = (means - means[0]).var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(((n - 1.0) / n * w + b_over_n) / w)
    r = np.where(w == 0.0, np.where(b_over_n == 0.0, 1.0, math.inf), r)
    return float(r) if r.ndim == 0 else r
