"""Synthetic data generators on networks.

Every generator takes either an integer seed (via its config) or an
explicit numpy Generator, so Monte Carlo harnesses can hand out one
sub-stream per replicate. Draw order inside each generator is part of the
contract: for the transmission process the first kappa steps of a run at
horizon kappa' > kappa consume exactly the same draws, which lets paired
comparisons across horizons share noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateStatisticError, _count, _real
from .graph import degrees, geodesic_distances

__all__ = [
    "TransmissionConfig",
    "LatentConfig",
    "ConfoundConfig",
    "transmission_operator",
    "transmission_covariance",
    "direct_transmission",
    "latent_variable_outcome",
    "degree_confounded_covariate",
    "standardized_degrees",
    "monotone_pair",
]


@dataclass(frozen=True)
class TransmissionConfig:
    """Direct-transmission process settings.

    a : mixing weight on the neighbour average, in [0, 1].
    sigma : innovation scale per step, >= 0.
    kappa : number of transmission steps, >= 0.
    seed : non-negative seed, used when no Generator is supplied.
    """

    a: float = 0.5
    sigma: float = 0.5
    kappa: int = 3
    seed: int = 0

    def _checked(self):
        """This config, its fields checked and its counts Python ints."""
        _real("a", self.a, 0, 1)
        _real("sigma", self.sigma, 0)
        return replace(self, kappa=_count("kappa", self.kappa, 0),
                       seed=_count("seed", self.seed, 0))


@dataclass(frozen=True)
class LatentConfig:
    """Latent-variable outcome settings: kernel length scale and noise."""

    length_scale: float = 2.0
    noise: float = 0.5
    seed: int = 0

    def _checked(self):
        """This config, its fields checked and its seed a Python int."""
        _real("length_scale", self.length_scale, 0, strict=True)
        _real("noise", self.noise, 0)
        return replace(self, seed=_count("seed", self.seed, 0))


@dataclass(frozen=True)
class ConfoundConfig:
    """Degree-confounded covariate settings: degree loading b and noise scale."""

    b: float = 1.0
    noise: float = 1.0
    seed: int = 0

    def _checked(self):
        """This config, its fields checked and its seed a Python int."""
        _real("b", self.b)
        _real("noise", self.noise, 0, strict=True)
        return replace(self, seed=_count("seed", self.seed, 0))


def transmission_operator(net, a):
    """One-step transmission matrix T = (1 - a) I + a P.

    P is the row-normalized adjacency; a node with no neighbours keeps its
    own value (P_ii = 1), so T is always row-stochastic.
    """
    _real("a", a, 0, 1)
    deg = degrees(net)
    t = net.adjacency.toarray()
    t *= (a / np.maximum(deg, 1))[:, None]
    np.fill_diagonal(t, np.where(deg > 0, 1.0 - a, 1.0))
    return t


def transmission_covariance(net, a, sigma, kappa):
    """Exact covariance of the transmission process after kappa steps.

    With Y0 ~ N(0, I) and Yt = T Y(t-1) + sigma * eps_t, eps_t iid standard
    normal, the covariance obeys Sigma_t = T Sigma_(t-1) T' + sigma^2 I.
    Unrolling from Sigma_0 = I:

        Sigma_kappa = T^kappa (T^kappa)' + sigma^2 * sum_{s=0}^{kappa-1} T^s (T^s)'

    Returned exactly symmetric (the average with its transpose is taken to
    scrub accumulated rounding).
    """
    kappa = TransmissionConfig(a=a, sigma=sigma, kappa=kappa)._checked().kappa
    t = transmission_operator(net, a)
    m = net.n
    tk = np.eye(m)
    acc = np.zeros((m, m))
    for _ in range(kappa):
        acc += tk @ tk.T
        tk = t @ tk
    cov = tk @ tk.T + sigma**2 * acc
    return (cov + cov.T) / 2.0


def direct_transmission(net, cfg, rng=None):
    """Simulate the transmission process; returns the node values after kappa steps.

    Starts from an iid standard normal field (kappa=0 returns it unchanged)
    and repeatedly mixes each node toward the mean of its neighbours while
    adding fresh innovation noise:

        y <- T y + sigma * eps,   eps ~ N(0, I).
    """
    cfg = cfg._checked()
    t = transmission_operator(net, cfg.a)
    rng = _resolve_rng(cfg.seed, rng)
    y = rng.standard_normal(net.n)
    for _ in range(cfg.kappa):
        y = t @ y + cfg.sigma * rng.standard_normal(net.n)
    return y


def latent_field(z, dist, length_scale):
    """Kernel-smooth z over the distance matrix: row-normalized exp(-d/l) weights.

    Unreachable pairs (d = inf) get zero weight; the self weight is always 1,
    so the row sums never vanish.
    """
    _real("length_scale", length_scale, 0, strict=True)
    k = np.exp(-dist / length_scale)
    return (k @ z) / k.sum(axis=1)


def latent_variable_outcome(net, cfg, rng=None):
    """Outcome driven by a smoothed latent field plus iid noise.

    Draws z ~ N(0, I), smooths it over geodesic distance with length scale
    cfg.length_scale, and adds cfg.noise * eps. As length_scale -> 0 the
    kernel collapses to the identity and the outcome is iid.
    """
    cfg = cfg._checked()
    rng = _resolve_rng(cfg.seed, rng)
    z = rng.standard_normal(net.n)
    eps = rng.standard_normal(net.n)
    smooth = latent_field(z, geodesic_distances(net), cfg.length_scale)
    return smooth + cfg.noise * eps


def standardized_degrees(net):
    """Degrees centered and scaled to unit population variance."""
    deg = degrees(net).astype(float)
    sd = deg.std()
    if sd == 0.0:
        raise DegenerateStatisticError(
            "all nodes have equal degree; standardized degree undefined"
        )
    return (deg - deg.mean()) / sd


def degree_confounded_covariate(net, cfg, rng=None):
    """Covariate loaded on standardized degree: x = b * zdeg + noise * eps."""
    cfg = cfg._checked()
    zdeg = standardized_degrees(net)
    rng = _resolve_rng(cfg.seed, rng)
    return cfg.b * zdeg + cfg.noise * rng.standard_normal(net.n)


def monotone_pair(n, seed=0, rng=None):
    """Deterministic comonotone ramp pair with independent fair-coin signs.

    x = s_x * (1..n)/n and y = s_y * (1..n)/n, so |corr(x, y)| is exactly 1
    and the correlation sign is s_x * s_y.
    """
    n, seed = _count("n", n, 2), _count("seed", seed, 0)
    rng = _resolve_rng(seed, rng)
    sx = 2.0 * rng.integers(0, 2) - 1.0
    sy = 2.0 * rng.integers(0, 2) - 1.0
    ramp = np.arange(1, n + 1) / n
    return sx * ramp, sy * ramp


def _resolve_rng(seed, rng):
    return rng if rng is not None else np.random.default_rng(seed)
