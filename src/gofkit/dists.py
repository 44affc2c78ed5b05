"""Null and alternative distributions: samplers, densities, divergences.

Cube alternatives are product densities on [0,1]^d built from named 1-D
mixtures of normals (affinely mapped from their +-3 sigma range and
renormalized); spherical alternatives are von Mises-Fisher and Watson
families and mixtures thereof; spectral alternatives perturb the null along
basis eigenfunctions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import special

from .spectrum import SpectralBasis, parse_null_id, sphere_surface_area

_GL_NODES = 256


@dataclass
class AlternativeSpec:
    """Declarative description of a distribution under the alternative."""

    family: str
    dim: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        _validate_spec(self)


def _validate_spec(spec: "AlternativeSpec") -> None:
    fam = spec.family
    p = spec.params
    if fam in ("uniform-cube", "uniform-sphere"):
        return
    if fam == "gaussian-mixture":
        w = np.asarray(p["weights"], float)
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be positive and sum to 1")
        means = np.asarray(p["means"], float)
        if means.shape != (w.size, spec.dim):
            raise ValueError("component means have wrong shape")
        u = float(p.get("uniform_weight", 0.0))
        if not 0.0 <= u < 1.0:
            raise ValueError("uniform_weight must lie in [0, 1)")
        return
    if fam.startswith("marron-wand:"):
        _mw_components(fam.split(":", 1)[1])
        return
    if fam in ("vmf", "watson"):
        mu = np.asarray(p["mu"], float)
        if abs(np.linalg.norm(mu) - 1.0) > 1e-8:
            raise ValueError("mu must be a unit vector")
        if mu.size != spec.dim:
            raise ValueError("mu has wrong dimension")
        if p["kappa"] < 0:
            raise ValueError("kappa must be nonnegative")
        return
    if fam == "sphere-mixture":
        w = np.asarray([c["weight"] for c in p["components"]], float)
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be positive and sum to 1")
        _mixture_components(spec)
        return
    if fam == "spectral":
        basis: SpectralBasis = p["basis"]
        a = np.asarray(p["coefficients"], float)
        if a.size > basis.truncation:
            raise ValueError("more coefficients than basis eigenfunctions")
        if basis.sup_norms is None:
            raise ValueError("spectral family requires eigenfunction sup norms")
        bound = float(np.sum(np.abs(a) * basis.sup_norms[: a.size]))
        if bound >= 1.0:
            raise ValueError("sup-norm bound >= 1: density 1 + u may be negative")
        return
    raise ValueError("unknown alternative family: %r" % fam)


def _mixture_components(spec: AlternativeSpec) -> list:
    """(weight, vmf or watson AlternativeSpec) for each sphere-mixture
    component; building the spec validates the component."""
    out = []
    for c in spec.params["components"]:
        if c["type"] not in ("vmf", "watson"):
            raise ValueError("unknown sphere-mixture component type")
        out.append((c["weight"], AlternativeSpec(
            family=c["type"], dim=spec.dim,
            params={"mu": c["mu"], "kappa": c["kappa"]})))
    return out


# ---------------------------------------------------------------------------
# null samplers


def uniform_sphere(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def null_sampler(null_id: str):
    """Sampler (n, rng) -> points for a named null distribution."""
    family, d = parse_null_id(null_id)
    if family == "uniform-cube":
        return lambda n, rng: rng.random((n, d))
    return lambda n, rng: uniform_sphere(n, d, rng)


# ---------------------------------------------------------------------------
# Marron-Wand 1-D mixtures, mapped to [0,1]

_MW_TABLE = {
    "skewed-unimodal": (
        [0.2, 0.2, 0.6],
        [0.0, 0.5, 13.0 / 12.0],
        [1.0, 2.0 / 3.0, 5.0 / 9.0],
    ),
    "asymmetric-claw": (
        [0.5] + [2.0 ** (1 - l) / 31.0 for l in range(-2, 3)],
        [0.0] + [l + 0.5 for l in range(-2, 3)],
        [1.0] + [2.0 ** (-l) / 10.0 for l in range(-2, 3)],
    ),
    "smooth-comb": (
        [2.0 ** (5 - l) / 63.0 for l in range(6)],
        [(65.0 - 96.0 * 0.5 ** l) / 21.0 for l in range(6)],
        [(32.0 / 63.0) / 2.0 ** l for l in range(6)],
    ),
}


def _mw_components(name: str):
    try:
        w, mu, sd = _MW_TABLE[name]
    except KeyError:
        raise ValueError("unknown Marron-Wand density: %r" % name) from None
    return np.asarray(w, float), np.asarray(mu, float), np.asarray(sd, float)


class _Mapped1D:
    """A 1-D mixture of normals restricted to its +-3 sigma box and mapped to [0,1]."""

    def __init__(self, w, mu, sd):
        self.w, self.mu, self.sd = w, mu, sd
        self.lo = float(np.min(mu - 3.0 * sd))
        self.hi = float(np.max(mu + 3.0 * sd))
        self.width = self.hi - self.lo
        z = special.ndtr((self.hi - mu) / sd) - special.ndtr((self.lo - mu) / sd)
        self.mass = float(np.sum(w * z))

    def pdf01(self, y):
        y = np.asarray(y, float)
        x = self.lo + y * self.width
        dens = np.zeros_like(x)
        for wj, mj, sj in zip(self.w, self.mu, self.sd):
            dens += wj * np.exp(-0.5 * ((x - mj) / sj) ** 2) / (sj * math.sqrt(2 * math.pi))
        out = dens * self.width / self.mass
        return np.where((y >= 0) & (y <= 1), out, 0.0)

    def sample01(self, n, rng):
        def propose(left):
            m = max(left, 16)
            comp = rng.choice(self.w.size, size=m, p=self.w)
            x = rng.standard_normal(m) * self.sd[comp] + self.mu[comp]
            return x[(x >= self.lo) & (x <= self.hi)]

        return (_accepted(n, propose) - self.lo) / self.width

    def square_integral(self):
        y, w = np.polynomial.legendre.leggauss(_GL_NODES)
        y = (y + 1.0) / 2.0
        return float(np.sum(w / 2.0 * self.pdf01(y) ** 2))


def _mapped_mw(name: str) -> _Mapped1D:
    return _Mapped1D(*_mw_components(name))


# ---------------------------------------------------------------------------
# spherical constants

def vmf_log_const(d: int, kappa: float) -> float:
    """log of C(kappa) = kappa^{d/2-1} / ((2 pi)^{d/2} I_{d/2-1}(kappa))."""
    if kappa == 0:
        return -math.log(sphere_surface_area(d))
    nu = d / 2.0 - 1.0
    # ive = I_nu(kappa) * exp(-kappa)
    log_bessel = math.log(special.ive(nu, kappa)) + kappa
    return nu * math.log(kappa) - (d / 2.0) * math.log(2.0 * math.pi) - log_bessel


def watson_const(d: int, kappa: float) -> float:
    """C_W(kappa) = Gamma(d/2) / (2 pi^{d/2} M(1/2, d/2, kappa))."""
    m = float(special.hyp1f1(0.5, d / 2.0, kappa))
    return math.gamma(d / 2.0) / (2.0 * math.pi ** (d / 2.0) * m)


# ---------------------------------------------------------------------------
# sampling


def _accepted(n: int, propose) -> np.ndarray:
    """The first n candidates accepted by an accept-reject sampler, in draw
    order.  ``propose(left)`` draws one batch sized for the ``left`` still
    missing and returns the candidates it accepted; the surplus of the last
    batch is dropped.  n = 0 draws nothing and gives an empty 1-D array."""
    parts, left = [], n
    while left > 0:
        keep = propose(left)[:left]
        parts.append(keep)
        left -= keep.shape[0]
    return np.concatenate(parts) if parts else np.empty(0)


def sample(spec: AlternativeSpec, n: int, seed=None) -> np.ndarray:
    """n i.i.d. draws from the alternative; deterministic given the seed."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    fam, d, p = spec.family, spec.dim, spec.params
    if fam == "uniform-cube":
        return rng.random((n, d))
    if fam == "uniform-sphere":
        return uniform_sphere(n, d, rng)
    if fam.startswith("marron-wand:"):
        m = _mapped_mw(fam.split(":", 1)[1])
        return np.column_stack([m.sample01(n, rng) for _ in range(d)])
    if fam == "gaussian-mixture":
        return _sample_gaussian_mixture(p, n, d, rng)
    if fam == "vmf":
        return sample_vmf(np.asarray(p["mu"], float), p["kappa"], n, rng)
    if fam == "watson":
        return sample_watson(np.asarray(p["mu"], float), p["kappa"], n, rng)
    if fam == "sphere-mixture":
        comps = _mixture_components(spec)
        w = np.asarray([weight for weight, _ in comps], float)
        which = rng.choice(len(comps), size=n, p=w)
        out = np.empty((n, d))
        for i, (_, sub) in enumerate(comps):
            idx = np.flatnonzero(which == i)
            if idx.size:
                # default_rng(rng) is rng itself, so the stream continues
                out[idx] = sample(sub, idx.size, seed=rng)
        return out
    if fam == "spectral":
        return _sample_spectral(p, n, rng)
    raise ValueError("unknown alternative family: %r" % fam)


def _sample_gaussian_mixture(p, n, d, rng):
    w = np.asarray(p["weights"], float)
    means = np.asarray(p["means"], float)
    scale = float(p.get("scale", 0.05))
    uniform_weight = float(p.get("uniform_weight", 0.0))

    def propose(left):
        m = max(left, 16)
        comp = rng.choice(w.size, size=m, p=w)
        x = means[comp] + scale * rng.standard_normal((m, d))
        return x[np.all((x >= 0.0) & (x <= 1.0), axis=1)]

    out = _accepted(n, propose)
    if uniform_weight > 0.0:
        # contamination toward the null: with prob u the draw is uniform
        mask = rng.random(n) < uniform_weight
        out[mask] = rng.random((int(mask.sum()), d))
    return out


def sample_vmf(mu: np.ndarray, kappa: float, n: int,
               rng: np.random.Generator) -> np.ndarray:
    """von Mises-Fisher draws by the tangent-normal decomposition (Wood 1994)."""
    d = mu.size
    if kappa == 0:
        return uniform_sphere(n, d, rng)
    t = _sample_vmf_radial(kappa, d, n, rng)
    return _tangent_normal(mu, t, n, rng)


def _sample_vmf_radial(kappa, d, n, rng):
    p = d - 1
    b = p / (math.sqrt(4.0 * kappa * kappa + p * p) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + p * math.log(1.0 - x0 * x0)

    def propose(left):
        m = max(left, 16)
        z = rng.beta(p / 2.0, p / 2.0, size=m)
        t = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.random(m)
        return t[kappa * t + p * np.log1p(-x0 * t) - c >= np.log(u)]

    return _accepted(n, propose)


def _tangent_normal(mu, t, n, rng):
    """Combine radial coordinates t with uniform tangential directions."""
    d = mu.size
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ mu, mu)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    v = g / norms
    return t[:, None] * mu[None, :] + np.sqrt(np.maximum(1.0 - t * t, 0.0))[:, None] * v


def sample_watson(mu: np.ndarray, kappa: float, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Watson draws: rejection on the radial coordinate, uniform tangent."""
    d = mu.size
    if kappa == 0:
        return uniform_sphere(n, d, rng)
    # unnormalized radial density h(t) = exp(kappa t^2) (1-t^2)^{(d-3)/2}
    expo = (d - 3) / 2.0
    if expo > 0 and 2.0 * kappa > (d - 3):
        t2 = 1.0 - (d - 3) / (2.0 * kappa)
        log_env = kappa * t2 + expo * math.log((d - 3) / (2.0 * kappa))
    elif expo > 0:
        log_env = 0.0  # maximum at t = 0 when kappa small
    else:
        log_env = kappa  # expo == 0 (d == 3): max at t = +-1

    def propose(left):
        m = max(2 * left, 16)
        t = rng.uniform(-1.0, 1.0, size=m)
        with np.errstate(divide="ignore"):
            logh = kappa * t * t + expo * np.log1p(-t * t)
        u = rng.random(m)
        return t[np.log(u) + log_env <= logh]

    return _tangent_normal(mu, _accepted(n, propose), n, rng)


def _sample_spectral(p, n, rng):
    basis: SpectralBasis = p["basis"]
    a = np.asarray(p["coefficients"], float)
    envelope = 1.0 + float(np.sum(np.abs(a) * basis.sup_norms[: a.size]))
    proposal = null_sampler(basis.null_id)
    active = np.flatnonzero(a != 0.0)

    def propose(left):
        m = max(2 * left, 64)
        x = proposal(m, rng)
        feats = basis.head(x, a.size)[:, active]
        dens = 1.0 + feats @ a[active]
        if np.any(dens < -1e-9):
            raise RuntimeError("spectral density went negative despite envelope")
        u = rng.random(m)
        return x[u * envelope <= dens]

    return _accepted(n, propose)


# ---------------------------------------------------------------------------
# densities


def density(spec: AlternativeSpec, x) -> np.ndarray:
    """Density w.r.t. Lebesgue measure (cube) or surface measure (sphere)."""
    x = np.atleast_2d(np.asarray(x, float))
    fam, d, p = spec.family, spec.dim, spec.params
    if fam == "uniform-cube":
        inside = np.all((x >= 0.0) & (x <= 1.0), axis=1)
        return inside.astype(float)
    if fam == "uniform-sphere":
        return np.full(x.shape[0], 1.0 / sphere_surface_area(d))
    if fam.startswith("marron-wand:"):
        m = _mapped_mw(fam.split(":", 1)[1])
        out = np.ones(x.shape[0])
        for j in range(d):
            out *= m.pdf01(x[:, j])
        return out
    if fam == "gaussian-mixture":
        return _density_gaussian_mixture(p, x, d)
    if fam == "vmf":
        mu = np.asarray(p["mu"], float)
        return np.exp(vmf_log_const(d, p["kappa"]) + p["kappa"] * (x @ mu))
    if fam == "watson":
        mu = np.asarray(p["mu"], float)
        return watson_const(d, p["kappa"]) * np.exp(p["kappa"] * (x @ mu) ** 2)
    if fam == "sphere-mixture":
        out = np.zeros(x.shape[0])
        for weight, sub in _mixture_components(spec):
            out += weight * density(sub, x)
        return out
    if fam == "spectral":
        basis: SpectralBasis = p["basis"]
        a = np.asarray(p["coefficients"], float)
        u = basis.head(x, a.size) @ a
        base = (1.0 if basis.null_id.startswith("uniform-cube")
                else 1.0 / sphere_surface_area(d))
        return base * (1.0 + u)
    raise ValueError("unsupported family: %r" % fam)


def _gaussian_mixture_mass(w, means, scale) -> float:
    """sum_j w_j P(N(mean_j, scale^2 I) in [0,1]^d): the sampler keeps a
    whole-mixture draw only inside the cube, so its law is the mixture
    divided by this mass."""
    z = special.ndtr((1.0 - means) / scale) - special.ndtr((0.0 - means) / scale)
    return float(w @ np.prod(z, axis=1))


def _density_gaussian_mixture(p, x, d):
    w = np.asarray(p["weights"], float)
    means = np.asarray(p["means"], float)
    scale = float(p.get("scale", 0.05))
    out = np.zeros(x.shape[0])
    for wj, mj in zip(w, means):
        logpdf = -0.5 * np.sum(((x - mj) / scale) ** 2, axis=1) \
            - d * math.log(scale * math.sqrt(2 * math.pi))
        out += wj * np.exp(logpdf)
    out /= _gaussian_mixture_mass(w, means, scale)
    u = float(p.get("uniform_weight", 0.0))
    out = u + (1.0 - u) * out
    inside = np.all((x >= 0.0) & (x <= 1.0), axis=1)
    return np.where(inside, out, 0.0)


def make_gaussian_mixture_spec(d: int, seed=None, *, n_components: int = 5,
                               scale: float = 0.05,
                               uniform_weight: float = 0.0) -> AlternativeSpec:
    """Equal-weight Gaussian mixture with seeded means in [0.2, 0.8]^d.

    ``uniform_weight`` mixes the density toward the uniform null,
    f = u + (1 - u) mixture, which tempers the separation.
    """
    rng = np.random.default_rng(seed)
    means = 0.2 + 0.6 * rng.random((n_components, d))
    return AlternativeSpec(
        family="gaussian-mixture", dim=d,
        params={"weights": np.full(n_components, 1.0 / n_components),
                "means": means, "scale": scale,
                "uniform_weight": uniform_weight})


# ---------------------------------------------------------------------------
# chi-square divergence


def chi_square_divergence(spec: AlternativeSpec) -> float:
    """chi^2(P, P0) = int (dP/dP0)^2 dP0 - 1 against the family's null."""
    fam, d, p = spec.family, spec.dim, spec.params
    if fam == "spectral":
        a = np.asarray(p["coefficients"], float)
        return float(np.sum(a * a))
    if fam in ("uniform-cube", "uniform-sphere"):
        return 0.0
    if fam.startswith("marron-wand:"):
        m = _mapped_mw(fam.split(":", 1)[1])
        return m.square_integral() ** d - 1.0
    if fam == "gaussian-mixture":
        return _chi2_gaussian_mixture(p, d)
    if fam == "vmf":
        k = p["kappa"]
        log_ratio = 2.0 * vmf_log_const(d, k) - vmf_log_const(d, 2.0 * k)
        return math.exp(math.log(sphere_surface_area(d)) + log_ratio) - 1.0
    if fam == "watson":
        k = p["kappa"]
        ratio = watson_const(d, k) ** 2 / watson_const(d, 2.0 * k)
        return sphere_surface_area(d) * ratio - 1.0
    raise ValueError("no quadrature path for family %r" % fam)


def _chi2_gaussian_mixture(p, d):
    w = np.asarray(p["weights"], float)
    means = np.asarray(p["means"], float)
    scale = float(p.get("scale", 0.05))
    y, gw = np.polynomial.legendre.leggauss(_GL_NODES)
    y = (y + 1.0) / 2.0
    gw = gw / 2.0
    total = 0.0
    for a in range(w.size):
        for b in range(w.size):
            prod = 1.0
            for j in range(d):
                fa = np.exp(-0.5 * ((y - means[a, j]) / scale) ** 2) \
                    / (scale * math.sqrt(2 * math.pi))
                fb = np.exp(-0.5 * ((y - means[b, j]) / scale) ** 2) \
                    / (scale * math.sqrt(2 * math.pi))
                prod *= float(np.sum(gw * fa * fb))
            total += w[a] * w[b] * prod
    total /= _gaussian_mixture_mass(w, means, scale) ** 2
    u = float(p.get("uniform_weight", 0.0))
    # chi^2 of u + (1-u) f against uniform scales by (1-u)^2
    return (1.0 - u) ** 2 * (total - 1.0)


# ---------------------------------------------------------------------------
# least-favorable spectral alternatives


def least_favorable(basis: SpectralBasis, n: int, s: float, theta: float,
                    delta: float, seed=None, *,
                    mode: str = "multi") -> AlternativeSpec:
    """Spectral alternative at exact chi-square separation delta.

    ``multi`` spreads sqrt(delta / K_n) with random signs over the first K_n
    frequencies, K_n = floor(delta^{-(theta+1)/(2s)}); ``single`` puts all
    mass on the single frequency floor(n^{1/(4s)}).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    dim = parse_null_id(basis.null_id)[1]
    if mode == "single":
        k_n = int(n ** (1.0 / (4.0 * s)))
        if k_n < 1 or k_n > basis.truncation:
            raise ValueError("single frequency outside the basis truncation")
        coeffs = np.zeros(k_n)
        coeffs[k_n - 1] = math.sqrt(delta)
    elif mode == "multi":
        k_n = int(delta ** (-(theta + 1.0) / (2.0 * s)))
        k_n = max(k_n, 1)
        if k_n > basis.truncation:
            raise ValueError("K_n exceeds the basis truncation")
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], size=k_n)
        coeffs = math.sqrt(delta / k_n) * signs
    else:
        raise ValueError("mode must be 'multi' or 'single'")
    return AlternativeSpec(family="spectral", dim=dim,
                           params={"basis": basis, "coefficients": coeffs})


# ---------------------------------------------------------------------------
# serialization helpers for the CLI / plan files


def spec_from_config(cfg: dict, basis: Optional[SpectralBasis] = None) -> AlternativeSpec:
    cfg = dict(cfg)
    family = cfg.pop("family")
    dim = int(cfg.pop("dim"))
    if family == "spectral":
        if basis is None:
            raise ValueError("spectral alternative needs a basis")
        cfg["basis"] = basis
    return AlternativeSpec(family=family, dim=dim, params=cfg)


def alt_from_flag(text: str, basis: Optional[SpectralBasis] = None) -> AlternativeSpec:
    """Parse a `family:key=val,...` flag value into an AlternativeSpec.

    Vector values use semicolons, e.g. "vmf:dim=3,mu=0;0;1,kappa=2".
    Marron-Wand names keep their colon: "marron-wand:smooth-comb:dim=5".
    """
    head, _, rest = text.partition(":")
    if head == "marron-wand":
        name, _, rest = rest.partition(":")
        head = "marron-wand:%s" % name
    cfg: dict = {"family": head}
    for pair in filter(None, rest.split(",")):
        key, eq, val = pair.partition("=")
        if not eq:
            raise ValueError("malformed key=val pair %r in --alt" % pair)
        if ";" in val:
            cfg[key] = [float(v) for v in val.split(";")]
        else:
            try:
                cfg[key] = float(val)
            except ValueError:
                cfg[key] = val
    if "dim" not in cfg:
        raise ValueError("--alt requires a dim=... entry")
    return spec_from_config(cfg, basis=basis)
