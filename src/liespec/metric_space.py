"""Left-invariant metrics parameterised by invertible matrices.

The metric attached to an invertible A has Gram matrix (A A^t)^{-1} in the
reference basis.  One SVD A = U diag(sigma) V^t gives all of it: the
descending scale parameters sigma_k, the canonical presentation
A = P_sort * diag(sigma) with P_sort = U (right-multiplying A by an
orthogonal matrix leaves the metric unchanged), and the Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lie_core import LieGroupCatalogEntry

__all__ = [
    "MetricSpec",
    "SingularMatrixError",
    "MatrixFormatError",
    "metric_from_matrix",
    "sample_metric",
    "random_rotation",
    "read_matrix",
    "write_matrix",
    "parse_matrix_text",
]


class SingularMatrixError(ValueError):
    """A is numerically singular relative to its entry scale."""


class MatrixFormatError(ValueError):
    """Matrix file/inline text is malformed or contains NaN/Inf."""


@dataclass(frozen=True)
class MetricSpec:
    """An invertible matrix together with the cached metric data derived from it.

    ``A = P_sort diag(sigma) V^t`` is the SVD, ``sigma`` descending and each
    column of ``P_sort`` with its largest-magnitude entry positive, so
    ``AAt = P_sort diag(sigma^2) P_sort^t`` and ``gram = (AAt)^{-1}``, the
    Gram matrix of the metric in the reference basis, is
    ``P_sort diag(sigma^-2) P_sort^t``.
    """

    A: np.ndarray
    AAt: np.ndarray
    sigma: np.ndarray
    P_sort: np.ndarray
    gram: np.ndarray

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def __post_init__(self):
        for name in ("A", "AAt", "sigma", "P_sort", "gram"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        # Through the constructor, so that unpickled arrays are read-only too.
        return MetricSpec, (self.A, self.AAt, self.sigma, self.P_sort, self.gram)


_TINY = float(np.finfo(float).tiny)  # the smallest normal double


def metric_from_matrix(A: np.ndarray) -> MetricSpec:
    """Build a MetricSpec from an invertible matrix.

    Raises SingularMatrixError when the singular values of A have
    sigma_m <= 1e-10 sigma_1, a test of conditioning alone, so a homothety
    changes it only by rounding (LAPACK's SVD scales an A whose entries would
    over- or underflow), and when double precision cannot hold A A^t: an
    entry overflows or sigma_m^2 falls below the smallest normal double.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not np.isfinite(A).all():
        raise MatrixFormatError("matrix entries must be finite")
    m = A.shape[0]
    U, sigma, _ = np.linalg.svd(A)  # A = U diag(sigma) V^t, sigma descending
    if not sigma[-1] > 1e-10 * sigma[0]:
        raise SingularMatrixError("matrix is singular or too ill-conditioned")
    with np.errstate(over="ignore"):  # refused just below
        AAt = A @ A.T
    if not np.isfinite(AAt).all():
        raise SingularMatrixError("A A^t overflows double precision")
    vals = sigma ** 2  # the eigenvalues of A A^t
    if not vals[-1] >= _TINY:
        raise SingularMatrixError("A A^t has an eigenvalue below the smallest normal double")
    # Sign convention: the largest-magnitude entry of each column is positive,
    # whatever signs LAPACK returned; entries within a few ulps of the largest
    # tie, and the first of them leads.  Adding 0.0 turns -0 into 0.
    mag = np.abs(U)
    tied = mag >= (1.0 - 8 * np.finfo(float).eps) * mag.max(axis=0)
    lead = U[tied.argmax(axis=0), np.arange(m)]
    U = U * np.sign(lead) + 0.0
    gram = (U * (1.0 / vals)) @ U.T  # U diag(sigma^-2) U^t
    gram = 0.5 * (gram + gram.T)
    spec = MetricSpec(A=A, AAt=AAt, sigma=sigma, P_sort=U, gram=gram)
    _check_spec(spec)
    return spec


def _check_spec(spec: MetricSpec) -> None:
    # Written as "not <=" so that a NaN residual fails; max-abs residuals
    # against sigma_1^2 cannot overflow where A A^t does not.
    recon = (spec.P_sort * spec.sigma ** 2) @ spec.P_sort.T
    if not np.abs(spec.AAt - recon).max() <= 1e-10 * spec.sigma[0] ** 2:
        raise AssertionError("A A^t is not P_sort diag(sigma^2) P_sort^t")
    # The inverse residual of a double-precision inverse floors out at
    # roughly eps * cond, so the fixed gate only binds at desk-scale
    # conditioning.
    cond = (spec.sigma[0] / spec.sigma[-1]) ** 2
    tol = max(1e-9, 1e-13 * cond)
    if not np.abs(spec.gram @ spec.AAt - np.eye(spec.m)).max() <= tol:
        raise AssertionError("gram is not the inverse of A A^t")


def random_rotation(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish rotation from the sign-fixed QR of a Gaussian matrix, det +1."""
    g = rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    q = q * np.sign(r.diagonal())
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def sample_metric(entry: LieGroupCatalogEntry, lo: float, hi: float,
                  seed: int) -> MetricSpec:
    """Seeded random metric: sigma log-uniform in [lo, hi], A = P * diag(sigma)."""
    if not (0.0 < lo <= hi < math.inf):
        raise ValueError("need 0 < lo <= hi < inf")
    rng = np.random.default_rng(seed)
    m = entry.dim
    sigma = np.exp(rng.uniform(math.log(lo), math.log(hi), size=m))
    sigma = np.sort(sigma)[::-1]
    return metric_from_matrix(random_rotation(m, rng) * sigma)  # R diag(sigma)


# ---------------------------------------------------------------------------
# Matrix text: the file format is "m" on the first line, then m rows of m
# entries; the inline format is one line of all m*m entries, row-major.
# Entries are separated by spaces or commas.
# ---------------------------------------------------------------------------

def parse_matrix_text(text: str, m: Optional[int] = None) -> np.ndarray:
    """Matrix from text in the file or the inline format.

    ``m`` is the size the caller needs.  The file format states its own size,
    which must then equal ``m``; the inline format needs ``m``.
    """
    try:
        lines = [[float(t) for t in ln.replace(",", " ").split()]
                 for ln in text.splitlines()]
    except ValueError as e:
        raise MatrixFormatError(f"cannot parse matrix entries: {text!r}") from e
    lines = [ln for ln in lines if ln]
    if not lines:
        raise MatrixFormatError("empty matrix text")
    if len(lines) == 1:
        if m is None:
            raise MatrixFormatError("an inline matrix needs its size")
        if len(lines[0]) != m * m:
            raise MatrixFormatError(f"need {m * m} entries, got {len(lines[0])}")
        A = np.array(lines[0]).reshape(m, m)
    else:
        header, rows = lines[0], lines[1:]
        if len(header) != 1 or not header[0].is_integer() or header[0] < 1:
            raise MatrixFormatError("first line must be the dimension")
        size = int(header[0])
        if len(rows) != size or any(len(r) != size for r in rows):
            raise MatrixFormatError(f"expected {size} rows of {size} entries after the header")
        A = np.array(rows)
    if not np.all(np.isfinite(A)):
        raise MatrixFormatError("NaN/Inf entries are not allowed")
    if m is not None and A.shape != (m, m):
        raise MatrixFormatError(f"matrix is {A.shape[0]}x{A.shape[1]}, need {m}x{m}")
    return A


def read_matrix(path: str, m: Optional[int] = None) -> np.ndarray:
    """Matrix from a file in either format; see ``parse_matrix_text``."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_matrix_text(f.read(), m)


def write_matrix(path: str, A: np.ndarray) -> None:
    """Write A to a file in the file format, every entry to 17 digits."""
    A = np.asarray(A, dtype=float)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{A.shape[0]}\n")
        for row in A:
            f.write(" ".join(f"{x:.17g}" for x in row) + "\n")
