"""Named kernels used by the CLI and the spectrum files.

A kernel id is either a bare name ("cosine-ref", "linear", "constant") or a
name with parameters separated by colons ("gaussian:0.1").  All kernels are
vectorized: ``kernel(X, Y)`` returns the (len(X), len(Y)) matrix, where a
1-D input is a column of 1-D points.  The finite-rank ones also carry their
expansion (see :func:`expansion_kernel`).
"""
from __future__ import annotations

import math

import numpy as np


def as_points(X) -> np.ndarray:
    """X as float rows; a scalar is one point, a 1-D array a column of points."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 0:
        X = X.reshape(1, 1)
    elif X.ndim == 1:
        X = X[:, None]
    return X


def cosine_features(x, K: int) -> np.ndarray:
    """sqrt(2) cos(k pi x) for k = 1..K at the points x, as a (K, len(x)) array.

    Row k is the real part of sqrt(2) e^{i k pi x}, stepped from row k-1 by
    one complex multiplication by e^{i pi x} over all points at once, which
    costs a fraction of ``np.cos`` on every cell.  Its error grows like
    k eps; the Chebyshev form cos(k t) = 2 cos(t) cos((k-1) t) - cos((k-2) t)
    costs as much but grows like k^2 eps near t = 0 and t = pi (2.3e-11 at
    K = 512).  A call with fewer points than degrees evaluates ``np.cos``
    once instead, so that a huge K at a few points costs no Python loop.
    """
    x = np.asarray(x, dtype=float)
    if x.size < K:
        return math.sqrt(2.0) * np.cos(np.outer(np.arange(1, K + 1), x) * math.pi)
    out = np.empty((K, x.size))
    step = np.exp(1j * math.pi * x)
    z = math.sqrt(2.0) * step
    for k in range(K):
        out[k] = z.real
        z *= step
    return out


def expansion_kernel(features, weights):
    """K(x,y) = sum_t w_t f_t(x) f_t(y), from ``features(X) -> (terms, len(X))``.

    The kernel carries ``kernel.expansion = (features, weights)``, so code
    that only needs K(X, Y) @ M for a fixed Y can form f(X)' (w f(Y) M)
    without the (len(X), len(Y)) matrix.  ``weights`` is a 1-D array over
    the terms, or of length 1 for equal weights.
    """
    weights = np.atleast_1d(np.asarray(weights, dtype=float))

    def kernel(X, Y):
        return (features(X) * weights[:, None]).T @ features(Y)

    kernel.expansion = (features, weights)
    return kernel


def cosine_reference_kernel(n_terms: int = 200):
    """K(x,y) = sum_{k<=n_terms} 2 cos(k pi x) cos(k pi y) / (k pi)^2 on [0,1]."""
    if n_terms < 1:
        raise ValueError("cosine-ref needs at least one term, got %d" % n_terms)
    k = np.arange(1, n_terms + 1, dtype=float)
    return expansion_kernel(lambda X: cosine_features(as_points(X)[:, 0], n_terms),
                            1.0 / (k * math.pi) ** 2)


def gaussian_kernel(bandwidth: float):
    """K(x,y) = exp(-||x-y||^2 / (2 bw^2))."""
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")

    def kernel(X, Y):
        X, Y = as_points(X), as_points(Y)
        sq = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * X @ Y.T
            + np.sum(Y * Y, axis=1)[None, :]
        )
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * bandwidth ** 2))

    return kernel


# x'y and 1: one expansion each, the coordinates and a row of ones
linear_kernel = expansion_kernel(lambda X: as_points(X).T, 1.0)
constant_kernel = expansion_kernel(lambda X: np.ones((1, as_points(X).shape[0])), 1.0)


def gaussian_sphere_profile(sigma2: float):
    """Zonal profile g(t) = exp(-2 (1 - t) / sigma2) of the Gaussian kernel on a sphere."""
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")

    def profile(t):
        return np.exp(-2.0 * (1.0 - np.asarray(t, float)) / sigma2)

    return profile


# what each kernel name takes after a colon: None for nothing, else how to
# read it, what it must be, and its value when the colon is left out
_ARGUMENTS = {
    "cosine-ref": (int, "at least one term, given as an integer count", 200),
    "gaussian": (float, "a finite positive bandwidth", None),
    "gaussian-sphere": (float, "a finite positive sigma^2", None),
    "linear": None,
    "constant": None,
}


def parse_kernel_id(kernel_id: str):
    """(name, argument) of a kernel id "name" or "name:arg", with the argument
    read as ``_ARGUMENTS`` says; ValueError, naming the id, for an unknown
    name or a bad argument."""
    name, colon, arg = kernel_id.partition(":")
    if name not in _ARGUMENTS:
        raise ValueError("unknown kernel id: %r" % kernel_id)
    if _ARGUMENTS[name] is None:
        if colon:
            raise ValueError("kernel id %r: %s takes no argument" % (kernel_id, name))
        return name, None
    read, what, default = _ARGUMENTS[name]
    if not colon and default is not None:
        return name, default
    try:
        value = read(arg)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:  # NaN fails too
        raise ValueError("kernel id %r: %s needs %s" % (kernel_id, name, what))
    return name, value


def zonal_profile(kernel_id: str):
    """Look up the profile g(t) of a zonal kernel k(x, y) = g(<x, y>) on a
    sphere: "gaussian-sphere:S2" or "constant"; ValueError for other ids."""
    name, arg = parse_kernel_id(kernel_id)
    if name == "gaussian-sphere":
        return gaussian_sphere_profile(arg)
    if name == "constant":
        return lambda t: np.ones_like(np.asarray(t, float))
    raise ValueError("sphere nulls need a zonal kernel "
                     "(gaussian-sphere:S2 or constant), got %r" % kernel_id)


def resolve_kernel(kernel_id: str):
    """Look up a pointwise kernel by id; raises ValueError for unknown ids."""
    name, arg = parse_kernel_id(kernel_id)
    if name == "cosine-ref":
        return cosine_reference_kernel(arg)
    if name == "gaussian":
        return gaussian_kernel(arg)
    if name == "linear":
        return linear_kernel
    if name == "constant":
        return constant_kernel
    raise ValueError("unknown kernel id: %r" % kernel_id)
