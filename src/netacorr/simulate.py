"""Synthetic data generators on networks.

Every generator takes either an integer seed (via its config) or an
explicit numpy Generator, so Monte Carlo harnesses can hand out one
sub-stream per replicate. Draw order inside each generator is part of the
contract: for the transmission process the first kappa steps of a run at
horizon kappa' > kappa consume exactly the same draws, which lets paired
comparisons across horizons share noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateStatisticError, InputError, _count, _float_array, _real
from .graph import degrees, geodesic_distances

__all__ = [
    "TransmissionConfig",
    "LatentConfig",
    "ConfoundConfig",
    "transmission_covariance",
    "direct_transmission",
    "latent_field",
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


def _transmit(net, a, y):
    """T y for a vector or an (n, k) block y, in O(edges) per column. The
    neighbour sums are taken on y * s, s = 2^-j < 1 / max degree, so none
    leaves the float range where T y does not."""
    deg = degrees(net).reshape((-1,) + (1,) * (y.ndim - 1))
    s = 0.5 ** int(deg.max()).bit_length()
    out = net.adjacency @ (y * s)
    out *= a / np.maximum(deg, 1) / s
    out += np.where(deg > 0, 1.0 - a, 1.0) * y
    return out


def transmission_covariance(net, a, sigma, kappa):
    """Exact covariance of the transmission process after kappa steps.

    With Y0 ~ N(0, I) and Yt = T Y(t-1) + sigma * eps_t, eps_t iid standard
    normal, the covariance obeys Sigma_t = T Sigma_(t-1) T' + sigma^2 I from
    Sigma_0 = I. Returned exactly symmetric (the average with its transpose
    is taken to scrub accumulated rounding).
    """
    kappa = TransmissionConfig(a=a, sigma=sigma, kappa=kappa)._checked().kappa
    # Entries of Sigma + Sigma' reach 2 (1 + sigma^2 kappa); kappa 0 checks sigma^2 too
    if not math.isfinite(2.0 * (1.0 + float(sigma) * float(sigma) * max(kappa, 1))):
        raise InputError(f"sigma is too large: sigma={sigma!r} overflows the transmission "
                         f"covariance at kappa={kappa}")
    cov = np.eye(net.n)
    for _ in range(kappa):
        cov = _transmit(net, a, _transmit(net, a, cov).T)  # T (T Sigma)' = T Sigma T'
        cov.flat[::net.n + 1] += sigma**2
    return (cov + cov.T) / 2.0


def direct_transmission(net, cfg, rng=None):
    """Simulate the transmission process; returns the node values after kappa steps.

    Starts from an iid standard normal field (kappa=0 returns it unchanged)
    and repeatedly mixes each node toward the mean of its neighbours while
    adding fresh innovation noise:

        y <- T y + sigma * eps,   eps ~ N(0, I).

    Raises InputError when sigma is so large that the values overflow.
    """
    cfg = cfg._checked()
    rng = _resolve_rng(cfg.seed, rng)
    y = rng.standard_normal(net.n)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.kappa):
            y = _transmit(net, cfg.a, y) + cfg.sigma * rng.standard_normal(net.n)
    return _finite(y, f"sigma is too large: sigma={cfg.sigma!r} overflows the transmission "
                      f"process at kappa={cfg.kappa}")


def latent_field(z, dist, length_scale):
    """Kernel-smooth z (n finite values) over the n x n distance matrix dist
    (>= 0, no NaN): row-normalized exp(-d/l) weights.

    Unreachable pairs (d = inf) get zero weight; the self weight is always 1,
    so the row sums never vanish.
    """
    _real("length_scale", length_scale, 0, strict=True)
    z, dist = _float_array("z", z), _float_array("dist", dist)
    if z.ndim != 1 or not np.isfinite(z).all():
        raise InputError(f"z must be a 1-D array of finite values, got shape {z.shape}")
    if dist.shape != (len(z), len(z)):
        raise InputError(f"dist must be {len(z)}x{len(z)} to match z, got shape {dist.shape}")
    if np.isnan(dist).any() or (dist < 0).any():
        raise InputError("dist must be non-negative and not NaN (inf marks unreachable pairs)")
    # d / l overflows to inf for a tiny l, and exp(-inf) = 0 is the weight's limit
    with np.errstate(over="ignore"):
        k = np.exp(-dist / length_scale)
    return (k @ z) / k.sum(axis=1)


def latent_variable_outcome(net, cfg, rng=None):
    """Outcome driven by a smoothed latent field plus iid noise.

    Draws z ~ N(0, I), smooths it over geodesic distance with length scale
    cfg.length_scale, and adds cfg.noise * eps. As length_scale -> 0 the
    kernel collapses to the identity and the outcome is iid.

    Raises InputError when noise is so large that the outcome overflows.
    """
    cfg = cfg._checked()
    rng = _resolve_rng(cfg.seed, rng)
    z = rng.standard_normal(net.n)
    eps = rng.standard_normal(net.n)
    smooth = latent_field(z, geodesic_distances(net), cfg.length_scale)
    with np.errstate(over="ignore"):
        y = smooth + cfg.noise * eps
    return _finite(y, f"noise is too large: noise={cfg.noise!r} overflows the latent outcome")


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
    """Covariate loaded on standardized degree: x = b * zdeg + noise * eps.

    Raises InputError when b and noise are so large that x overflows.
    """
    cfg = cfg._checked()
    zdeg = standardized_degrees(net)
    rng = _resolve_rng(cfg.seed, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        x = cfg.b * zdeg + cfg.noise * rng.standard_normal(net.n)
    return _finite(x, f"b and noise are too large: b={cfg.b!r} and noise={cfg.noise!r} "
                      "overflow the covariate")


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


def _finite(values, message):
    """values, if every entry is finite; else an InputError with message.

    The generators compute their values with overflow warnings off and call
    this once, so a setting that overflows is named instead of a NaN or an
    inf reaching the caller.
    """
    if not np.isfinite(values).all():
        raise InputError(message)
    return values


def _resolve_rng(seed, rng):
    return rng if rng is not None else np.random.default_rng(seed)
