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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm


@dataclass(frozen=True)
class RunLengthReport:
    nmin: int
    burn_in: int
    n_required: int
    thin: int
    dependence: float


def _g2_second_vs_first(z: np.ndarray) -> float:
    """Likelihood-ratio statistic of a second-order binary Markov fit
    against a first-order one, from the chain's triple counts."""
    triples = np.zeros((2, 2, 2))
    np.add.at(triples, (z[:-2], z[1:-1], z[2:]), 1.0)
    g2 = 0.0
    for i in range(2):
        for j in range(2):
            mid = triples[:, j, :].sum()
            if mid == 0:
                continue
            for k in range(2):
                obs = triples[i, j, k]
                if obs == 0:
                    continue
                fitted = triples[i, j, :].sum() * triples[:, j, k].sum() / mid
                g2 += 2.0 * obs * math.log(obs / fitted)
    return g2


def check_run_length_settings(q: float, r: float, s: float):
    """Raise ValueError unless 0 < q < 1, 0 < s < 1 and r > 0."""
    if not (0.0 < q < 1.0 and 0.0 < s < 1.0 and r > 0.0):
        raise ValueError("need 0 < q < 1, 0 < s < 1 and r > 0")


def raftery_lewis(chain, q: float = 0.025, r: float = 0.005, s: float = 0.95,
                  eps: float = 0.001) -> RunLengthReport:
    """Run-length diagnostic for estimating one posterior quantile.

    chain is a 1-d scalar sample. Raises ValueError when the chain is
    shorter than the iid minimum Nmin (too short for the transition
    matrix to mean anything) or when the binarized chain never leaves
    one of its states or alternates on every step.
    """
    check_run_length_settings(q, r, s)
    x = np.asarray(chain, dtype=np.float64).ravel()
    z_alpha = float(norm.ppf(0.5 * (1.0 + s)))
    nmin = int(math.ceil(q * (1.0 - q) * (z_alpha / r) ** 2))
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

    pairs = np.zeros((2, 2))
    np.add.at(pairs, (zt[:-1], zt[1:]), 1.0)
    from0, from1 = pairs[0].sum(), pairs[1].sum()
    if from0 == 0 or from1 == 0:
        raise ValueError("binarized chain never leaves one state; cannot estimate transitions")
    a = pairs[0, 1] / from0
    b = pairs[1, 0] / from1

    lam = 1.0 - a - b
    if a + b == 0.0:
        raise ValueError("no transitions observed between the two states")
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


def gelman_rubin(chains) -> float:
    """Potential scale reduction factor for one scalar across chains.

    chains is a sequence of equal-length 1-d arrays, one per chain.
    Values near 1 indicate the chains sample the same distribution;
    above about 1.1 they have not converged (inf: constant chains apart).
    """
    seqs = [np.asarray(c, dtype=np.float64).ravel() for c in chains]
    if len(seqs) < 2:
        raise ValueError("need at least two chains")
    n = seqs[0].size
    if n < 2 or any(s.size != n for s in seqs):
        raise ValueError("chains must share one length of at least 2")
    means = np.array([s.mean() for s in seqs])
    w = float(np.mean([s.var(ddof=1) for s in seqs]))
    b_over_n = float(means.var(ddof=1))
    if w == 0.0:
        return 1.0 if b_over_n == 0.0 else math.inf
    v_hat = (n - 1.0) / n * w + b_over_n
    return float(math.sqrt(v_hat / w))
