"""Synthetic data generation, preprocessing and dataset I/O.

Generators are pure functions of their configuration and seed.  Component
labels, when a generator knows them, ride along for diagnostics only; no
algorithm reads them.  The preprocessing pipeline mirrors the usual
image-style protocol at desk scale: drop exactly-constant columns, then
project onto the leading principal components.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .core import Dataset

_MAGIC = b"EMDS"


def gen_scalar_mixture(n: int, weights=(0.2, 0.8), means=(0.5, -0.5),
                       variance: float = 1.0, seed=0) -> Dataset:
    """n i.i.d. draws from a scalar two-component Gaussian mixture."""
    w1, w2 = float(weights[0]), float(weights[1])
    if w1 < 0 or w2 < 0 or abs(w1 + w2 - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    if variance <= 0:
        raise ValueError("variance must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) >= w1).astype(np.intp)
    mu = np.array([means[0], means[1]])
    y = mu[labels] + np.sqrt(variance) * rng.standard_normal(n)
    prov = f"scalar-mixture(n={n},w={w1},means={means},var={variance},seed={seed})"
    return Dataset(y[:, None], provenance=prov, labels=labels)


def gen_multivariate_mixture(n: int, g: int, p: int, separation: float,
                             seed=0) -> Dataset:
    """Equal-weight Gaussians with identity covariance and means of norm
    ``separation`` in random directions on the sphere drawn from ``seed``."""
    if g < 1 or p < 1:
        raise ValueError("need g >= 1 and p >= 1")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((g, p))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    centers = separation * dirs / np.maximum(norms, 1e-300)
    labels = rng.integers(0, g, size=n)
    y = centers[labels] + rng.standard_normal((n, p))
    prov = f"multivariate-mixture(n={n},g={g},p={p},sep={separation},seed={seed})"
    return Dataset(y, provenance=prov, labels=labels)


def remove_constant_features(data: Dataset) -> tuple[Dataset, np.ndarray]:
    """Drop columns whose entries are all exactly equal; returns the kept
    column indices.  Raises if nothing survives."""
    X = data.values
    constant = (X == X[0]).all(axis=0)
    keep = np.flatnonzero(~constant)
    if keep.size == 0:
        raise ValueError("degenerate dataset: every column is constant")
    out = Dataset(X[:, keep], provenance=data.provenance + "|dense", labels=data.labels)
    return out, keep


@dataclass(frozen=True)
class PcaTransform:
    mean: np.ndarray                # (d,)
    components: np.ndarray          # (d, d_pc), orthonormal columns
    explained_variance: np.ndarray  # (d_pc,), non-increasing


def pca_fit(data: Dataset, d_pc: int) -> PcaTransform:
    """Top principal components of the (1/n-normalized) sample covariance."""
    if not 1 <= d_pc <= data.dim:
        raise ValueError(f"d_pc must be in [1, {data.dim}], got {d_pc}")
    Xc = data.values - data.mean
    cov = Xc.T @ Xc / data.n
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:d_pc]
    comps = evecs[:, order]
    # sign convention: largest-magnitude loading positive, for stable output
    flip = comps[np.abs(comps).argmax(axis=0), np.arange(d_pc)] < 0
    comps = comps * np.where(flip, -1.0, 1.0)
    return PcaTransform(mean=data.mean, components=comps,
                        explained_variance=np.maximum(evals[order], 0.0))


def pca_apply(transform: PcaTransform, data: Dataset) -> Dataset:
    """Project centered observations onto the fitted components."""
    proj = (data.values - transform.mean) @ transform.components
    return Dataset(proj, provenance=data.provenance + "|pca", labels=data.labels)


def save_dataset(data: Dataset, path, fmt: str = "csv", header: bool = False) -> None:
    """Write observations as CSV or as the packed binary format.

    Binary layout: magic ``EMDS``, little-endian u64 n and d, then n*d
    float64 values row-major; a bit-exact round trip.
    """
    if fmt == "csv":
        with open(path, "w") as fh:
            if header:
                fh.write(",".join(f"x{j}" for j in range(data.dim)) + "\n")
            for row in data.values:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    elif fmt == "packed-binary":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<QQ", data.n, data.dim))
            fh.write(data.values.astype("<f8").tobytes(order="C"))
    else:
        raise ValueError(f"unknown dataset format {fmt!r}")


def load_dataset(path, fmt: str = "csv", header: bool = False) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

    CSV parse failures name the offending (row, column), 1-based.
    """
    if fmt == "packed-binary":
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != _MAGIC:
            raise ValueError(f"{path}: bad magic, not a packed dataset")
        n, d = struct.unpack("<QQ", blob[4:20])
        expected = 20 + 8 * n * d
        if len(blob) != expected:
            raise ValueError(f"{path}: truncated payload ({len(blob)} vs {expected} bytes)")
        values = np.frombuffer(blob, dtype="<f8", offset=20).reshape(n, d).copy()
        digest = hashlib.sha256(blob).hexdigest()[:12]
        return Dataset(values, provenance=f"file:{path}#{digest}")
    if fmt != "csv":
        raise ValueError(f"unknown dataset format {fmt!r}")
    rows = []
    width = None
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()[:12]
    lines = raw.decode().splitlines()
    start = 1 if header else 0
    for lineno, line in enumerate(lines[start:], start + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ValueError(f"{path}: row {lineno} has {len(cells)} cells, expected {width}")
        parsed = []
        for col, cell in enumerate(cells, 1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {lineno}, column {col}: {cell!r}"
                ) from None
        rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(rows), provenance=f"file:{path}#{digest}")
