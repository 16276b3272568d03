"""Plain-numpy reference computations the benchmark checks `emvr` against.

Nothing here imports `emvr`: the E-steps, M-steps and closed-form oracle
counters are written again from their definitions, so a fault in the
library's kernels or accounting cannot also hide in its own check.
"""

from __future__ import annotations

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def _log_sum_exp_rows(lj: np.ndarray):
    """Row-wise max and sum of exp(lj - max): log-sum-exp = log(den) + mx."""
    mx = lj.max(axis=1)
    ex = np.exp(lj - mx[:, None])
    return mx, ex


def pooled_gmm_pass(X: np.ndarray, s: np.ndarray, g: int):
    """Refit-average statistics and mean NLL of the pooled-covariance mixture
    fitted to statistics ``s``.

    The M-step is the closed form (weights = masses, means = moments /
    masses, covariance = second moment - sum_l mass_l mu_l mu_l^T); the
    E-step loops over components so its footprint stays at a few (n, p)
    arrays.  Returns ``(sbar, nll)``.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    s = np.asarray(s, dtype=np.float64)
    masses = s[:g]
    moments = s[g:].reshape(g, p)
    if (masses <= 0).any():
        raise ValueError("reference M-step: a component has no mass")
    means = moments / masses[:, None]
    weights = masses / masses.sum()
    m2 = X.T @ X / n
    cov = (m2 + m2.T) / 2.0 - (means * masses[:, None]).T @ means
    chol = np.linalg.cholesky(cov)
    log_det = 2.0 * np.log(np.diag(chol)).sum()
    lj = np.empty((n, g))
    for ell in range(g):
        z = np.linalg.solve(chol, (X - means[ell]).T)
        lj[:, ell] = (np.log(weights[ell]) - 0.5 * (p * LOG_2PI + log_det)
                      - 0.5 * np.einsum("ij,ij->j", z, z))
    mx, ex = _log_sum_exp_rows(lj)
    den = ex.sum(axis=1)
    post = ex / den[:, None]
    sbar = np.concatenate([post.sum(axis=0) / n, (post.T @ X / n).reshape(-1)])
    nll = float(-(np.log(den) + mx).mean())
    return sbar, nll


def scalar_two_pass(y: np.ndarray, s: np.ndarray, weights=(0.2, 0.8),
                    variance: float = 1.0):
    """Refit-average statistics and mean NLL of the scalar two-component
    mixture with known weights and variance fitted to ``s``.

    Statistics are ``(mass_1, mass_2, wsum_1, wsum_2)`` and the M-step is
    ``mu_l = wsum_l / mass_l``.  Returns ``(sbar, nll)``.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    s = np.asarray(s, dtype=np.float64)
    if (s[:2] <= 0).any():
        raise ValueError("reference M-step: a component has no mass")
    mu = s[2:] / s[:2]
    lj = np.stack([np.log(weights[j]) - (y - mu[j]) ** 2 / (2.0 * variance)
                   for j in range(2)], axis=1)
    mx, ex = _log_sum_exp_rows(lj)
    den = ex.sum(axis=1)
    post = ex / den[:, None]
    sbar = np.concatenate([post.mean(axis=0), (post * y[:, None]).mean(axis=0)])
    nll = float(-(np.log(den) + mx).mean() + 0.5 * np.log(variance) + 0.5 * LOG_2PI)
    return sbar, nll


def h_sq(sbar: np.ndarray, s: np.ndarray) -> float:
    """Squared norm of the mean field ``sbar - s``."""
    return float(((np.asarray(sbar) - np.asarray(s)) ** 2).sum())


# ---------------------------------------------------------------------------
# closed-form oracle counters
#
# Conventions: every run starts with one full refit (n CE, 1 M-step).  An
# epoch selects n examples.  A warm start runs plain minibatch updates
# (b CE, 1 M-step each) for ``warm`` epochs and counts its own initial refit.
# Every checkpoint costs the monitor n CE and one M-step.


def em_counters(n: int, k_max: int) -> tuple[int, int]:
    """(ce, mstep) of batch EM after k_max updates."""
    return n * (1 + k_max), 1 + k_max


def minibatch_counters(algo: str, n: int, b: int, epochs: int, warm: int):
    """(ce, mstep, monitor_ce, monitor_mstep) of a fixed-epoch minibatch run
    with a checkpoint at every whole epoch.

    ``online-em`` and ``iem`` take n/b updates per epoch at b CE; ``fiem``
    takes n/b updates per epoch at 2b CE; ``spider-em`` alternates an inner
    epoch of n/b updates at 2b CE with a refresh of n CE and one update, so
    k_in = n/b + 1 and k_out = (epochs - warm) / 2.  ``warm`` applies to
    fiem and spider-em only.
    """
    if n % b:
        raise ValueError("closed forms assume b divides n")
    per = n // b
    if algo in ("online-em", "iem"):
        k = epochs * per
        ce, ms = n + b * k, 1 + k
        checkpoints = epochs + 1
    else:
        ce, ms = (n + b * warm * per, 1 + warm * per) if warm else (0, 0)
        span = epochs - warm
        if algo == "fiem":
            k = span * per
            ce, ms = ce + n + 2 * b * k, ms + 1 + k
        elif algo == "spider-em":
            if span % 2:
                raise ValueError("spider-em needs an even number of main epochs")
            k_in, k_out = per + 1, span // 2
            ce += n + k_out * (n + 2 * b * (k_in - 1))
            ms += 1 + k_out * k_in
        else:
            raise ValueError(f"no closed form for {algo!r}")
        # a warm start's handoff checkpoint is evaluated by both phases
        checkpoints = epochs + 1 + (1 if warm else 0)
    return ce, ms, n * checkpoints, checkpoints


def spider_hit_counters(n: int, b: int, k_in: int, t: int, tau: int):
    """(ce, mstep, monitor_ce, monitor_mstep) of a SPIDER-EM run checked
    after every update that first crosses epsilon at outer loop t, update
    count tau (refreshes count as updates).

    t - 1 refreshes at n CE each have run, and tau - (t - 1) inner updates
    at 2b CE each.
    """
    if not 0 <= tau - (t - 1) * k_in <= k_in - 1:
        raise ValueError(f"update {tau} is not in outer loop {t} with k_in={k_in}")
    inner = tau - (t - 1)
    return n + (t - 1) * n + 2 * b * inner, 1 + tau, n * (1 + tau), 1 + tau
