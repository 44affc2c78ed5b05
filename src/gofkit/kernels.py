"""Named kernels used by the CLI and the spectrum files.

A kernel id is a name ("cosine-ref") or a name and its argument separated by
a colon ("gaussian:0.1").  Kernels on the cube are vectorized:
``kernel(X, Y)`` returns the (len(X), len(Y)) matrix, where a 1-D input is a
column of 1-D points.  Kernels on spheres are zonal profiles g(t) of the
inner product t = <x, y>.
"""
from __future__ import annotations

import math
import sys

import numpy as np

# the largest bandwidth whose 2 bw^2 is finite
_GAUSSIAN_MAX_BANDWIDTH = math.sqrt(sys.float_info.max / 2.0)


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


def cosine_reference_kernel(n_terms: int = 200):
    """K(x,y) = sum_{k<=n_terms} 2 cos(k pi x) cos(k pi y) / (k pi)^2 on [0,1]."""
    if n_terms < 1:
        raise ValueError("cosine-ref needs at least one term, got %d" % n_terms)
    weights = 1.0 / (np.arange(1, n_terms + 1) * math.pi) ** 2

    def kernel(X, Y):
        fx = cosine_features(as_points(X)[:, 0], n_terms)
        return (fx * weights[:, None]).T @ cosine_features(as_points(Y)[:, 0], n_terms)

    return kernel


def gaussian_kernel(bandwidth: float):
    """K(x,y) = exp(-||x-y||^2 / (2 bw^2))."""
    if not 0 < bandwidth <= _GAUSSIAN_MAX_BANDWIDTH:
        raise ValueError("bandwidth must be positive, with 2 bw^2 finite")

    def kernel(X, Y):
        X, Y = as_points(X), as_points(Y)
        sq = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * X @ Y.T
            + np.sum(Y * Y, axis=1)[None, :]
        )
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * bandwidth ** 2))

    return kernel


def gaussian_sphere_profile(sigma2: float):
    """Zonal profile g(t) = exp(-2 (1 - t) / sigma2) of the Gaussian kernel on a sphere."""
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")

    def profile(t):
        return np.exp(-2.0 * (1.0 - np.asarray(t, float)) / sigma2)

    return profile


# what each kernel name takes after a colon: how to read it, what it must
# be, its value when the colon is left out, and the largest value it may take
_ARGUMENTS = {
    "cosine-ref": (int, "at least one term, given as an integer count", 200,
                   sys.float_info.max),
    "gaussian": (float, "a positive bandwidth with a finite 2 bw^2", None,
                 _GAUSSIAN_MAX_BANDWIDTH),
    "gaussian-sphere": (float, "a finite positive sigma^2", None, sys.float_info.max),
}


def parse_kernel_id(kernel_id: str):
    """(name, argument) of a kernel id "name" or "name:arg", with the argument
    read as ``_ARGUMENTS`` says; ValueError, naming the id, for an unknown
    name or a bad argument."""
    name, colon, arg = kernel_id.partition(":")
    if name not in _ARGUMENTS:
        raise ValueError("unknown kernel id: %r" % kernel_id)
    read, what, default, top = _ARGUMENTS[name]
    if not colon and default is not None:
        return name, default
    try:
        value = read(arg)
    except ValueError:
        value = math.nan
    if not 0 < value <= top:  # NaN fails too
        raise ValueError("kernel id %r: %s needs %s" % (kernel_id, name, what))
    return name, value


def zonal_profile(kernel_id: str):
    """Look up the profile g(t) of a zonal kernel k(x, y) = g(<x, y>) on a
    sphere: "gaussian-sphere:S2"; ValueError for other ids."""
    name, arg = parse_kernel_id(kernel_id)
    if name == "gaussian-sphere":
        return gaussian_sphere_profile(arg)
    raise ValueError("sphere nulls need a zonal kernel "
                     "(gaussian-sphere:S2), got %r" % kernel_id)


def resolve_kernel(kernel_id: str):
    """Look up a kernel on the cube by id: "cosine-ref[:T]" or "gaussian:BW";
    ValueError, naming the id, for any other id."""
    name, arg = parse_kernel_id(kernel_id)
    if name == "cosine-ref":
        return cosine_reference_kernel(arg)
    if name == "gaussian":
        return gaussian_kernel(arg)
    raise ValueError("kernel id %r is a zonal kernel for sphere nulls; cube nulls need "
                     "cosine-ref[:T] or gaussian:BW" % kernel_id)
