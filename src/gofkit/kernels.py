"""Named kernels used by the CLI and the spectrum cache.

A kernel id is either a bare name ("cosine-ref", "linear", "constant") or a
name with parameters separated by colons ("gaussian:0.1").  All kernels are
vectorized: ``kernel(X, Y)`` returns the (len(X), len(Y)) matrix, where a
1-D input is a column of 1-D points.
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


def cosine_reference_kernel(n_terms: int = 200):
    """K(x,y) = sum_{k<=n_terms} 2 cos(k pi x) cos(k pi y) / (k pi)^2 on [0,1]."""
    k = np.arange(1, n_terms + 1, dtype=float)
    lam = 1.0 / (k * math.pi) ** 2

    def kernel(X, Y):
        fx = math.sqrt(2.0) * np.cos(np.outer(as_points(X)[:, 0], k) * math.pi)
        fy = math.sqrt(2.0) * np.cos(np.outer(as_points(Y)[:, 0], k) * math.pi)
        return (fx * lam) @ fy.T

    return kernel


def gaussian_kernel(bandwidth: float):
    """K(x,y) = exp(-||x-y||^2 / (2 bw^2))."""
    if bandwidth <= 0:
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


def linear_kernel(X, Y):
    return as_points(X) @ as_points(Y).T


def constant_kernel(X, Y):
    return np.ones((as_points(X).shape[0], as_points(Y).shape[0]))


def gaussian_sphere_profile(sigma2: float):
    """Zonal profile g(t) = exp(-2 (1 - t) / sigma2) of the Gaussian kernel on a sphere."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")

    def profile(t):
        return np.exp(-2.0 * (1.0 - np.asarray(t, float)) / sigma2)

    return profile


def zonal_profile(kernel_id: str):
    """Look up the profile g(t) of a zonal kernel k(x, y) = g(<x, y>) on a
    sphere: "gaussian-sphere:S2" or "constant"; ValueError for other ids."""
    name, _, arg = kernel_id.partition(":")
    if name == "gaussian-sphere":
        return gaussian_sphere_profile(float(arg))
    if name == "constant":
        return lambda t: np.ones_like(np.asarray(t, float))
    raise ValueError("sphere nulls need a zonal kernel "
                     "(gaussian-sphere:S2 or constant), got %r" % kernel_id)


def resolve_kernel(kernel_id: str):
    """Look up a pointwise kernel by id; raises ValueError for unknown ids."""
    name, _, arg = kernel_id.partition(":")
    if name == "cosine-ref":
        return cosine_reference_kernel(int(arg) if arg else 200)
    if name == "gaussian":
        return gaussian_kernel(float(arg))
    if name == "linear":
        return linear_kernel
    if name == "constant":
        return constant_kernel
    raise ValueError("unknown kernel id: %r" % kernel_id)
