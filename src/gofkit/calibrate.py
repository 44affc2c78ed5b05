"""Null-distribution quantiles and p-values for the three tests.

The MMD null sum_k lambda_k Z_k^2 is drawn with one variate per distinct
eigenvalue: lambda * chi^2_m for a value shared by m eigenfunctions.  The
draws go through one buffer of at most ``_CHISQ_BYTES``, so the working
memory of a calibration does not grow with the spectrum; blocks of
``_CHISQ_CHUNK`` rows fix only the order in which the random stream is read.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from statistics import NormalDist
from typing import Callable, Optional

import numpy as np

# default Monte-Carlo sizes: chi-square-mixture draws (mmd) and null
# replications of the statistic (adaptive)
CHISQ_REPS = 100_000
EMPIRICAL_REPS = 200
# chi-square-mixture rows per block.  It fixes only the stream order: each
# block reads all its normals, then all its tied chi-square variates, so a
# change here changes the replicates.  Memory is bounded by _CHISQ_BYTES
_CHISQ_CHUNK = 8192
# bytes of the one buffer a block's variates are drawn and reduced through
_CHISQ_BYTES = 1 << 20


@dataclasses.dataclass(frozen=True)
class NullCalibration:
    """A calibrated rejection threshold plus enough state for p-values.

    For Monte-Carlo methods the replicate statistics are kept so that
    p-values are tail fractions consistent with the stored quantile.
    ``kind``, ``n`` and ``spectrum`` say what the null was made for; the
    calibrators below leave them unset, ``embedding.null_calibration`` sets them.
    """

    method: str  # chisq-mixture-mc | normal | empirical-mc | theory-loglog
    alpha: float
    quantile: float
    reps: Optional[int]
    seed: Optional[int]
    kind: Optional[str] = None
    n: Optional[int] = None  # None when the null does not depend on n
    spectrum: Optional[str] = None  # sha256 of the eigenvalues, little-endian f8
    replicates: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.method.endswith("-mc") and (self.reps is None or self.reps < 100):
            raise ValueError("Monte-Carlo calibration requires reps >= 100")

    def p_value(self, statistic: float) -> Optional[float]:
        """Upper-tail p-value; None when the method admits none."""
        if self.method == "normal":
            return normal_cdf(-statistic)
        if self.replicates is not None:
            # plain tail fraction: exactly consistent with the stored
            # ceil((1-alpha) reps) order-statistic threshold
            return float(np.sum(self.replicates >= statistic)) / self.replicates.size
        return None


def order_stat_quantile(values: np.ndarray, alpha: float) -> float:
    """Order statistic at 1-based index ceil((1-alpha) * len(values)), found
    by selection rather than a full sort."""
    values = np.asarray(values, dtype=float)
    idx = min(math.ceil((1.0 - alpha) * values.size), values.size)
    return float(np.partition(values, idx - 1)[idx - 1])


def normal_cdf(x: float) -> float:
    """Phi(x) of the standard normal.  Through erfc, not the 1 + erf of
    ``NormalDist.cdf``, so the lower tail keeps its relative accuracy: an
    upper-tail p-value Phi(-z) is good to ~1e-14 relative out to z = 37,
    where 1 + erf rounds to 0 from z = 8.4."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(alpha: float) -> float:
    """z_{1-alpha} of the standard normal (Wichura's AS241 rational approximation)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return NormalDist().inv_cdf(1.0 - alpha)


def normal_calibration(alpha: float) -> NullCalibration:
    return NullCalibration(method="normal", alpha=alpha,
                           quantile=normal_quantile(alpha), reps=None, seed=None)


def chisq_mix_quantile(eigenvalues, alpha: float, reps: int = CHISQ_REPS,
                       seed: Optional[int] = None) -> NullCalibration:
    """Empirical (1-alpha) quantile of W = sum_k lambda_k Z_k^2 over MC draws.

    The simulation is truncated at the given spectrum.  Each block draws the
    simple eigenvalues' squared normals first, in spectrum order, so an
    all-distinct spectrum gives the replicates of one normal per eigenfunction.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if not np.all(lam > 0):
        raise ValueError("eigenvalues must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if reps < 100:
        raise ValueError("reps must be at least 100")
    values, counts = np.unique(lam, return_counts=True)
    simple = lam[counts[np.searchsorted(values, lam)] == 1]
    tied, dof = values[counts > 1], counts[counts > 1]
    # sub-blocks of a power of two rows: they tile each block, and every row
    # falls in the same place of BLAS gemv's row groups as in one
    # whole-block product, so the replicates keep their bits
    fit = _CHISQ_BYTES // (8 * max(simple.size, tied.size, 1))
    rows = min(1 << max(fit.bit_length() - 1, 4), _CHISQ_CHUNK)
    z = np.empty((rows, simple.size))
    rng = np.random.default_rng(seed)
    draws = np.empty(reps)
    for start in range(0, reps, _CHISQ_CHUNK):
        subs = [(a, min(a + rows, reps))
                for a in range(start, min(start + _CHISQ_CHUNK, reps), rows)]
        for a, b in subs:
            zs = rng.standard_normal(out=z[:b - a])
            np.dot(np.square(zs, out=zs), simple, out=draws[a:b])
        for a, b in subs if tied.size else ():
            draws[a:b] += rng.chisquare(dof, (b - a, dof.size)) @ tied
    return NullCalibration(
        method="chisq-mixture-mc", alpha=alpha,
        quantile=order_stat_quantile(draws, alpha),
        reps=reps, seed=seed, replicates=draws)


def empirical_null_quantile(statistic: Callable, null_sampler: Callable,
                            n: int, alpha: float, reps: int = EMPIRICAL_REPS,
                            seed: Optional[int] = None) -> NullCalibration:
    """Sample (1-alpha) quantile of ``statistic`` over null replications.

    Replicate RNG streams are spawned from a SeedSequence keyed by
    (seed, replicate index), so aggregation is order-independent.
    """
    if reps < 100:
        raise ValueError("reps must be at least 100")
    children = np.random.SeedSequence(seed).spawn(reps)
    stats = np.empty(reps)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        stats[i] = statistic(null_sampler(n, rng))
    return NullCalibration(
        method="empirical-mc", alpha=alpha,
        quantile=order_stat_quantile(stats, alpha),
        reps=reps, seed=seed, replicates=stats)


# ---------------------------------------------------------------------------
# the calibration file: the JSON of a record's fields, replicates last


def calibration_file_chunks(c: NullCalibration):
    """The calibration file's JSON text, in pieces: the record's other fields
    in order, then "replicates".

    The C encoder writes the replicates 8192 at a time, so neither all of
    them as Python floats nor the whole text is ever held at once.
    """
    head = json.dumps({f.name: getattr(c, f.name) for f in dataclasses.fields(c)
                       if f.name != "replicates"})[:-1]  # without its "}"
    if c.replicates is None:
        yield (head + ', "replicates": null}\n').encode()
        return
    yield (head + ', "replicates": [').encode()
    for i in range(0, c.replicates.size, 8192):
        block = json.dumps(c.replicates[i:i + 8192].tolist())[1:-1]
        yield ((", " if i else "") + block).encode()
    yield b"]}\n"


_REPLICATES = b'"replicates": ['
_READ_BLOCK = 1 << 16


def _fill(out: np.ndarray, filled: int, piece: bytes) -> int:
    """Write the values of ``piece``, JSON array elements, to ``out[filled:]``
    as ``json.load`` and ``np.asarray(..., float)`` read them, and return the
    new fill.  ValueError unless they are one or more numbers that fit."""
    values = json.loads("[" + piece.decode("ascii") + "]")
    if not 0 < len(values) <= out.size - filled:  # an empty piece is ", , " text
        raise ValueError("not a run of replicates")
    out[filled:filled + len(values)] = values  # refuses a nested array
    return filled + len(values)


def _record_in_writer_layout(path) -> Optional[dict]:
    """The JSON record of a calibration file in the layout
    :func:`calibration_file_chunks` writes, its replicates read into one
    float64 array: the fields up to ``"replicates": [``, then ``reps`` values
    joined by ``", "``, then ``]}``.  None for any other file.

    The text is read 64 KiB at a time and json decodes it a piece at a time,
    cut at ``", "``, so only a piece's few thousand Python floats exist at once."""
    with open(path, "rb") as fh:
        head = fh.read(_READ_BLOCK)
        at = head.find(_REPLICATES)
        if at < 0:
            return None
        start = at + len(_REPLICATES)
        try:
            record = json.loads(head[:start - 1].decode("ascii") + "null}")
        except ValueError:  # UnicodeDecodeError is one too
            return None
        reps = record.get("reps") if isinstance(record, dict) else None
        # the writer's values take at least 5 bytes each with their separators
        if type(reps) is not int or not 0 < 5 * reps <= os.fstat(fh.fileno()).st_size - start:
            return None
        out, filled, text = np.empty(reps), 0, head[start:]
        try:
            while block := fh.read(_READ_BLOCK):
                cut = text.rfind(b", ")  # the value after it may go on in block
                if cut >= 0:
                    filled = _fill(out, filled, text[:cut])
                    text = text[cut + 2:]
                text += block
            end = text.find(b"]")
            if (end < 0 or text[end:].rstrip(b" \t\n\r") != b"]}"
                    or _fill(out, filled, text[:end]) != reps):
                return None
        except (ValueError, TypeError, OverflowError, RecursionError):
            return None  # json.load then reads, or refuses, the file
    record["replicates"] = out
    return record


def read_calibration(path) -> NullCalibration:
    """The record of the calibration file at ``path``; ValueError, naming the
    file and the field, for one that :func:`calibration_file_chunks` did not write."""
    d = _record_in_writer_layout(path)
    if d is None:  # json.load reads, or refuses, any other file
        with open(path) as fh:
            d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError("calibration file %s does not hold a JSON object" % path)
    if not {"kind", "n", "spectrum"} <= d.keys():
        raise ValueError("calibration file %s does not record the kind, n and spectrum "
                         "it was made for (written before gofkit 0.9.0); rerun "
                         "`gofkit calibrate`" % path)
    fields = {f.name: d[f.name] for f in dataclasses.fields(NullCalibration)
              if f.name in d}  # ignores keys of earlier releases, e.g. truncation_bias
    missing = [f.name for f in dataclasses.fields(NullCalibration)
               if f.default is dataclasses.MISSING and f.name not in d]
    if missing:
        raise ValueError("calibration file %s has no %r field" % (path, missing[0]))
    # a field of another type fails the checks below, or the test's decision,
    # with a Python error; reps only in a Monte-Carlo file, which compares it
    # with its replicate count
    mc = isinstance(d["method"], str) and d["method"].endswith("-mc")
    number = (int, float)
    for name, types, what in (
            ("method", str, "a string"), ("alpha", number, "a number"),
            ("quantile", number, "a number"),
            ("reps", (*number, type(None)) if mc else object, "a number or null"),
            ("replicates", (list, np.ndarray, type(None)), "an array or null")):
        if not isinstance(d.get(name), types):
            raise ValueError("calibration file %s: %r must be %s, not %s"
                             % (path, name, what, type(d.get(name)).__name__))
    if fields.get("replicates") is not None:
        try:
            fields["replicates"] = np.asarray(fields["replicates"], float)
        except (TypeError, OverflowError):  # {} or 10**400, say
            raise ValueError("calibration file %s: 'replicates' must hold numbers that "
                             "fit a float" % path) from None
    c = NullCalibration(**fields)
    values = c.replicates
    if values is not None or c.method.endswith("-mc"):
        count = 0 if values is None else values.size
        if count != c.reps:
            raise ValueError("calibration file %s: 'replicates' holds %d values but "
                             "'reps' is %s" % (path, count, c.reps))
        if not np.all(np.isfinite(values)):
            raise ValueError("calibration file %s: 'replicates' holds a non-finite "
                             "value" % path)
        if c.quantile != order_stat_quantile(values, c.alpha):
            raise ValueError("calibration file %s: 'quantile' %r is not the "
                             "ceil((1-alpha) reps) order statistic of its replicates"
                             % (path, c.quantile))
    return c
