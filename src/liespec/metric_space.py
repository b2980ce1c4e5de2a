"""Left-invariant metrics parameterised by invertible matrices.

The metric attached to an invertible A has Gram matrix (A A^t)^{-1} in the
reference basis; its scale parameters sigma_k are the descending square roots
of the eigenvalues of A A^t.  Right-multiplying A by an orthogonal matrix
leaves the metric unchanged, so every metric has a canonical presentation
A = P_sort * diag(sigma).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .lie_core import LieGroupCatalogEntry

__all__ = [
    "MetricSpec",
    "SingularMatrixError",
    "MatrixFormatError",
    "metric_from_matrix",
    "canonical_form",
    "loewner_leq",
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

    ``sigma`` is descending, ``AAt = P_sort diag(sigma^2) P_sort^t`` (each
    column of ``P_sort`` has its largest-magnitude entry positive) and
    ``gram = (AAt)^{-1}`` is the Gram matrix of the metric in the reference
    basis.
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
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def metric_from_matrix(A: np.ndarray) -> MetricSpec:
    """Build a MetricSpec from an invertible matrix.

    Raises SingularMatrixError when |det(A / max |entry|)| <= 1e-10, a test
    that no homothety can over- or underflow, and when double precision
    cannot hold A A^t: an entry overflows or its smallest eigenvalue falls
    below the smallest normal double.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not np.all(np.isfinite(A)):
        raise MatrixFormatError("matrix entries must be finite")
    m = A.shape[0]
    scale = np.max(np.abs(A))
    if scale == 0.0 or abs(np.linalg.det(A / scale)) <= 1e-10:
        raise SingularMatrixError("matrix is singular or too ill-conditioned")
    with np.errstate(over="ignore"):  # refused just below
        AAt = A @ A.T
    if not np.all(np.isfinite(AAt)):
        raise SingularMatrixError("A A^t overflows double precision")
    vals, vecs = np.linalg.eigh(AAt)
    # Descending; ties keep eigh's column order, so the identity keeps
    # P_sort = I.
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    # Sign convention: the largest-magnitude entry of each column (the first
    # on a tie) is positive, whatever signs LAPACK returned; adding 0.0 turns
    # -0 into 0.
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(m)]
    vecs = vecs * np.sign(lead) + 0.0
    if not vals[-1] >= np.finfo(float).tiny:
        raise SingularMatrixError("A A^t has an eigenvalue below the smallest normal double")
    sigma = np.sqrt(vals)
    gram = vecs @ np.diag(1.0 / vals) @ vecs.T
    gram = 0.5 * (gram + gram.T)
    spec = MetricSpec(A=A, AAt=AAt, sigma=sigma, P_sort=vecs, gram=gram)
    _check_spec(spec)
    return spec


def _check_spec(spec: MetricSpec) -> None:
    # Written as "not <=" so that a NaN residual fails; max-abs residuals
    # against sigma_1^2 cannot overflow where A A^t does not.
    recon = spec.P_sort @ np.diag(spec.sigma ** 2) @ spec.P_sort.T
    if not np.max(np.abs(spec.AAt - recon)) <= 1e-10 * spec.sigma[0] ** 2:
        raise AssertionError("eigendecomposition reconstruction failed")
    # The inverse residual of a double-precision inverse floors out at
    # roughly eps * cond, so the fixed gate only binds at desk-scale
    # conditioning.
    cond = (spec.sigma[0] / spec.sigma[-1]) ** 2
    tol = max(1e-9, 1e-13 * cond)
    if not np.max(np.abs(spec.gram @ spec.AAt - np.eye(spec.m))) <= tol:
        raise AssertionError("gram is not the inverse of A A^t")


def canonical_form(spec: MetricSpec) -> tuple[np.ndarray, np.ndarray]:
    """Return (P_sort, D) with the same metric as spec, A = P_sort @ D."""
    return spec.P_sort.copy(), np.diag(spec.sigma)


def loewner_leq(spec_a: MetricSpec, spec_b: MetricSpec) -> bool:
    """True iff B B^t - A A^t is positive semidefinite (up to 1e-10 relative)."""
    if spec_a.m != spec_b.m:
        raise ValueError("metrics live on different dimensions")
    diff = spec_b.AAt - spec_a.AAt
    return bool(np.linalg.eigvalsh(diff)[0] >= -1e-10 * spec_b.sigma[0] ** 2)


def random_rotation(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish rotation from the sign-fixed QR of a Gaussian matrix, det +1."""
    g = rng.standard_normal((m, m))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
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
    return metric_from_matrix(random_rotation(m, rng) @ np.diag(sigma))


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


def write_matrix(path_or_file: Union[str, io.TextIOBase], A: np.ndarray) -> None:
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    own = isinstance(path_or_file, str)
    f = open(path_or_file, "w", encoding="utf-8") if own else path_or_file
    try:
        f.write(f"{m}\n")
        for row in A:
            f.write(" ".join(f"{x:.17g}" for x in row) + "\n")
    finally:
        if own:
            f.close()
