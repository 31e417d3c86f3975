"""Independent reference implementations for the test suite.

Everything here is written directly from the model description in plain
scalar Python (plus mpmath where extra precision matters), deliberately
avoiding the package's vectorized code paths. Agreement between the two
routes is then evidence of correctness rather than a tautology.
"""

import csv
import math
from itertools import zip_longest

import mpmath as mp
import numpy as np

FEMALE, MALE = 0, 1


# ---------------------------------------------------------------------------
# projection


def births_oracle(counts_f, survival_f, fertility, fertile_index):
    """Period births: 5 * f_a * (n_a + n_{a-5} s_a) / 2, summed left to right.

    counts_f and survival_f are per-age sequences for the female side;
    fertile_index gives the age-group index of each fertility entry.
    """
    b = 0.0
    for f, ia in zip(fertility, fertile_index):
        already_there = counts_f[ia]
        surviving_in = counts_f[ia - 1] * survival_f[ia] if ia > 0 else 0.0
        b += 5.0 * f * (already_there + surviving_in) / 2.0
    return b


def step_oracle(counts, fertility, survival, migration, srb, fertile_index):
    """One projection step as scalar loops over age and sex.

    counts is K x 2, survival (K+1) x 2 indexed by destination age,
    migration K x 2; returns a K x 2 list of lists. Half the migrants
    move at the start of the period and age with their cohort, half
    arrive at the end, landing in the cohort's destination group.
    """
    K = len(counts)
    out = [[0.0, 0.0] for _ in range(K)]
    for sex in (FEMALE, MALE):
        for a in range(K - 1):
            n = counts[a][sex]
            half = n * migration[a][sex] / 2.0
            out[a + 1][sex] += (n + half) * survival[a + 1][sex] + half
        a = K - 1
        n = counts[a][sex]
        half = n * migration[a][sex] / 2.0
        out[a][sex] += (n + half) * survival[K][sex] + half

    b = births_oracle([c[FEMALE] for c in counts],
                      [s[FEMALE] for s in survival],
                      fertility, fertile_index)
    for sex, share in ((FEMALE, 1.0 / (1.0 + srb)), (MALE, srb / (1.0 + srb))):
        g0 = migration[0][sex] / 2.0
        out[0][sex] = b * share * (survival[0][sex] * (1.0 + g0) + g0)
    return out


def project_oracle(baseline, fertility, survival, migration, srb, fertile_index):
    """Full trajectory by repeated step_oracle application.

    baseline (K, 2); fertility (F, P); survival (K+1, P, 2); migration
    (K, P, 2); srb length P. Returns a (P+1) x K x 2 nested list.
    """
    K = len(baseline)
    P = len(srb)
    state = [[float(baseline[a][l]) for l in (0, 1)] for a in range(K)]
    traj = [state]
    for p in range(P):
        fert = [float(fertility[i][p]) for i in range(len(fertility))]
        surv = [[float(survival[a][p][l]) for l in (0, 1)] for a in range(K + 1)]
        mig = [[float(migration[a][p][l]) for l in (0, 1)] for a in range(K)]
        state = step_oracle(state, fert, surv, mig, float(srb[p]), fertile_index)
        traj.append(state)
    return traj


# ---------------------------------------------------------------------------
# indicators


def tfr_oracle(fertility_col):
    total = 0.0
    for f in fertility_col:
        total += f
    return 5.0 * total


def e0_oracle(survival_col):
    """Life expectancy: 5 years per surviving product level, plus the
    open-ended geometric tail at the last level."""
    alive = 1.0
    lived = 0.0
    for s in survival_col[:-1]:
        alive *= s
        lived += alive
    s_open = survival_col[-1]
    return 5.0 * (lived + alive * s_open / (1.0 - s_open))


# ---------------------------------------------------------------------------
# densities


def logit_oracle(p):
    return math.log(p / (1.0 - p))


def normal_logpdf_oracle(x, mean, var):
    return -0.5 * (math.log(2.0 * math.pi * var) + (x - mean) ** 2 / var)


def log_prior_oracle(theta, initial, variances):
    """Term-by-term scalar evaluation of the parameter prior; variances
    holds the counts, fertility, survival, migration and srb variances, in
    that order."""
    blocks = [
        ("log", theta.baseline, initial.baseline, variances[0]),
        ("log", theta.fertility, initial.fertility, variances[1]),
        ("logit", theta.survival, initial.survival, variances[2]),
        ("id", theta.migration, initial.migration, variances[3]),
        ("log", theta.srb, initial.srb, variances[4]),
    ]
    total = 0.0
    for scale, x, c, var in blocks:
        for xv, cv in zip(x.ravel().tolist(), c.ravel().tolist()):
            if scale == "log":
                xv, cv = math.log(xv), math.log(cv)
            elif scale == "logit":
                xv, cv = logit_oracle(xv), logit_oracle(cv)
            total += normal_logpdf_oracle(xv, cv, var)
    return total


def log_likelihood_oracle(trajectory, census, sigma2_counts, grid):
    """Scalar-loop census log likelihood over the post-baseline years."""
    total = 0.0
    for year in grid.likelihood_years:
        if year not in census.years:
            continue
        proj = trajectory.at(year).ravel().tolist()
        obs = census.at(year).ravel().tolist()
        for pv, ov in zip(proj, obs):
            total += normal_logpdf_oracle(math.log(ov), math.log(pv), sigma2_counts)
    return total


def invgamma_logpdf_oracle(x, alpha, beta):
    with mp.workdps(40):
        a, b, xx = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        val = a * mp.log(b) - mp.loggamma(a) - (a + 1) * mp.log(xx) - b / xx
        return float(val)


def invgamma_cdf_oracle(x, alpha, beta):
    """P(X <= x) for X ~ InvGamma(alpha, beta), via the regularized
    upper incomplete gamma function at beta / x."""
    if x <= 0.0:
        return 0.0
    with mp.workdps(40):
        return float(mp.gammainc(mp.mpf(alpha), mp.mpf(beta) / mp.mpf(x),
                                 mp.inf, regularized=True))


def log_posterior_oracle(theta, variances, initial, hyper, census, grid,
                         trajectory):
    """Composition of the scalar density oracles at one valid point."""
    total = log_prior_oracle(theta, initial, variances)
    if census is not None:
        total += log_likelihood_oracle(trajectory, census, variances[0], grid)
    for cls, var in zip(("counts", "fertility", "survival", "migration", "srb"), variances):
        total += invgamma_logpdf_oracle(var, hyper.alpha[cls], hyper.beta[cls])
    return total


# ---------------------------------------------------------------------------
# quantiles


def t_quantile_oracle(p, df):
    """Student-t quantile (p > 0.5) by bisection on the exact CDF."""
    assert 0.5 < p < 1.0
    with mp.workdps(40):
        target = mp.mpf(p)
        v = mp.mpf(df)

        def cdf(x):
            tail = mp.betainc(v / 2, mp.mpf("0.5"), 0, v / (v + x * x),
                              regularized=True) / 2
            return 1 - tail

        lo, hi = mp.mpf(0), mp.mpf(1)
        while cdf(hi) < target:
            hi *= 2
        for _ in range(200):
            mid = (lo + hi) / 2
            if cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def quantile_type7_oracle(values, p):
    """Linear-interpolation sample quantile on the sorted values."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 1:
        return xs[0]
    h = (n - 1) * p
    lo = int(math.floor(h))
    if lo >= n - 1:
        return xs[-1]
    frac = h - lo
    return xs[lo] + frac * (xs[lo + 1] - xs[lo])


def ols_slope_oracle(xs, ys):
    """Least-squares slope from the raw normal equations."""
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


# ---------------------------------------------------------------------------
# prior draws


def prior_draws_oracle(initial, hyper, grid, rng, n_draws):
    """n_draws from the positivity-restricted joint prior, one candidate at
    a time: five inverse-gamma variances in class order, one standard-normal
    block per class, one projection, kept if every count is finite and
    nonnegative, else discarded with its variances. Returns the kept
    (sigma2 rows, theta list) and the number of candidates tried.

    The transforms and the projection are the package's own; what this
    loop is the reference for is the order of draws and the acceptance.
    """
    from demrecon import PARAM_CLASSES, ThetaVector, project_full, transform, untransform

    mus = {c: transform(c, v) for c, v in initial.by_class().items()}
    sig, thetas, tried = [], [], 0
    for _ in range(n_draws):
        for _ in range(100000):
            tried += 1
            v = [float(1.0 / rng.gamma(hyper.alpha[c], 1.0 / hyper.beta[c], size=1)[0])
                 for c in PARAM_CLASSES]
            with np.errstate(all="ignore"):
                theta = ThetaVector.from_classes({
                    c: untransform(c, mus[c] + np.sqrt(v[j]) * rng.standard_normal(mus[c].shape))
                    for j, c in enumerate(PARAM_CLASSES)})
                counts = project_full(theta.baseline, theta, grid).counts
            if np.all(np.isfinite(counts)) and np.all(counts >= 0):
                break
        else:
            raise RuntimeError("no positive draw in 100000 tries")
        sig.append(v)
        thetas.append(theta)
    return sig, thetas, tried


# ---------------------------------------------------------------------------
# diagnostics


def binary_run_counts_oracle(z, width):
    """Tally of a binary chain's runs of ``width`` successive states (pairs
    for 2, triples for 3), one window at a time, as nested lists indexed
    by the states in chain order."""
    states = [int(v) for v in z]
    counts = {}
    for t in range(len(states) - width + 1):
        key = tuple(states[t:t + width])
        counts[key] = counts.get(key, 0) + 1

    def table(prefix):
        if len(prefix) == width:
            return counts.get(prefix, 0)
        return [table(prefix + (s,)) for s in (0, 1)]

    return table(())


def g2_second_vs_first_oracle(z):
    """Likelihood-ratio statistic of a second-order binary Markov fit
    against a first-order one, 2 sum O log(O / E) over the triples (i, j, k)
    that occur in the chain, one cell at a time: O = n_ijk is the observed
    count and E = n_ij. n_.jk / n_.j. the count the first-order fit expects,
    so the sum is 2 sum n_ijk log(n_ijk n_.j. / (n_ij. n_.jk))."""
    n = binary_run_counts_oracle(z, 3)
    g2 = 0.0
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                if n[i][j][k] == 0:
                    continue
                n_ij = n[i][j][0] + n[i][j][1]
                n_jk = n[0][j][k] + n[1][j][k]
                n_j = n[0][j][0] + n[0][j][1] + n[1][j][0] + n[1][j][1]
                g2 += 2.0 * n[i][j][k] * math.log(n[i][j][k] / (n_ij * n_jk / n_j))
    return g2


# ---------------------------------------------------------------------------
# sample files


def read_samples_oracle(path, columns):
    """A draw-matrix sample table read one csv record at a time: (chain
    labels, draw matrix) in (chain, draw) order, or ValueError("path:line:
    message") for the header or the first bad record, counting blank lines.

    Each cell is stripped of whitespace and must be ASCII without digit
    separators; chain and draw are integers from 0 to 2**63 - 1, values
    any float literal."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != columns:
            i = next(i for i, (a, b) in enumerate(zip_longest(header, columns)) if a != b)
            got = repr(header[i]) if i < len(header) else "missing"
            if i < len(header) and header[i] not in columns:
                got = "unknown parameter " + got
            want = repr(columns[i]) if i < len(columns) else "no more columns"
            raise ValueError(f"{path}:1: column {i + 1} is {got}, expected {want}")
        rows = {}  # (chain, draw) -> (line number, values)
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            at = f"{path}:{lineno}"
            if len(rec) != len(columns):
                raise ValueError(f"{at}: expected {len(columns)} fields, got {len(rec)}")
            cells = [c.strip() for c in rec]
            try:
                key = (int(cells[0]), int(cells[1]))
                values = [float(c) for c in cells[2:]]
            except ValueError as e:
                raise ValueError(f"{at}: bad row: {e}") from None
            for c in cells:
                if "_" in c or not c.isascii():
                    raise ValueError(f"{at}: bad row: {c!r} is not an ASCII number")
            if not all(0 <= k < 2**63 for k in key):
                raise ValueError(f"{at}: bad row: chain {rec[0]!r} and draw {rec[1]!r} "
                                 f"must be integers from 0 to 2**63 - 1")
            if key in rows:
                raise ValueError(f"{at}: chain {key[0]} draw {key[1]} repeats line {rows[key][0]}")
            rows[key] = (lineno, values)
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    keys = sorted(rows)
    return (np.array([k[0] for k in keys], dtype=np.int64),
            np.array([rows[k][1] for k in keys], dtype=np.float64))
