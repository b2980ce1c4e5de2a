"""Irreducible representations and certified spectral-gap computations.

The smallest positive Laplace eigenvalue of a left-invariant metric is the
minimum, over nontrivial irreducibles, of the smallest eigenvalue of the
assembled operator -sum_ij (A A^t)_ij pi(X_i) pi(X_j).  Enumerating irreps in
ascending order of their bi-invariant eigenvalue lambda^pi gives a sound
stopping rule: every unexamined irrep satisfies
lambda_min >= sigma_m^2 * lambda^pi, so once sigma_m^2 * lambda^pi exceeds the
running minimum the result is certified.

Irrep catalog:

* su2: spins j = 1/2, 1, 3/2, ..., keyed by the twice-spin n = 2j: lambda^pi
  = n (n + 2), dim n + 1, generators -2i J_a built from ladder matrices.
* so3: integer spins only, the even n.
* torus: characters n in Z^m with lambda^pi = 4 pi^2 |n|^2, dim 1.  Every
  torus question is a lattice one, answered by ellipsoid enumeration
  (``_lattice.short_vectors``): the characters up to a cutoff are the points
  of a ball, the gap is 4 pi^2 min n^t (A A^t) n, and the restricted gap the
  shortest n that the prefix annihilates.
* products of two su2/so3 factors: outer Kronecker pairs of validated spins,
  never re-validated, lambda^pi additive; ``_merge_streams`` merges the two
  factor streams best-first into (Casimir, a, b) factor pairs.  A pair
  assembles -C_A from its factors' small blocks; its Kronecker stack is built
  afresh on each read of ``generators``.

Every catalog stream starts with the trivial irrep.  ``_irrep_stream`` is the
one walk over a group's irreps: it drops the trivial irrep, stops at a Casimir
cutoff and rejects a cutoff that is not positive, or not finite on a torus.
Enumeration and restricted spectra off tori read it, and a product's stream
makes one pair ``Irrep`` per factor pair of the merge.  The certified gap on
products reads the factor pairs of the same merge (``_factor_pairs``): a pair
it skips costs no object, and it formats a label only for a new witness.  The
gap on su2 and so3 names its spins by their twice-spins.

On products the walk needs the eigenvalue of an irrep only where it could
move the running minimum.  Every irrep it assembles after the first is
screened by one Cholesky factorisation of -C_A - (minimum + margin) I; one
that completes proves the irrep lies above the minimum (``_lies_above``
derives the margin from the backward errors of Cholesky and eigvalsh), and
only an irrep that fails the screen pays for ``eigvalsh``.  A completed
factorisation implies that eigvalsh would have returned more than the
minimum, so an irrep that would become the witness, or tie it, always fails
the screen.

On su2 and so3 the gap needs no walk.  Write q = sigma^2, descending.  In the
principal frame -C_A on spin j is 4 (q1 Jx^2 + q2 Jy^2 + q3 Jz^2): spin 1/2
gives (q1 + q2 + q3) I, spin 1 has smallest eigenvalue 4 (q2 + q3), and for
j >= 3/2 every eigenvalue is at least 4 j (q2 + j q3) >= 6 q2 + 9 q3, above
spin 1's.  So spin 1/2 and spin 1, the irreps with Casimir <= 8, settle it.
The floor follows from Jx^2 >= 0 and Jz^2 <= j^2: 4 (q1 Jx^2 + q2 Jy^2 +
q3 Jz^2) >= 4 (q2 j (j + 1) - (q2 - q3) Jz^2) >= 4 j (q2 + j q3).  It needs
only q1 >= q2 >= q3, and a rotation takes any symmetric 3x3 block to its
eigenframe, so ``_spin_floor`` applies it to any such block.

On a product the walk also skips, and stops before, the pairs that the
factor spin bounds put above the running minimum.  For v in a pair,
<v, -C_A v> = sum_ij Q_ij <pi(X_i) v, pi(X_j) v> with Q = A A^t, so -C_A is
monotone in Q (Loewner).  A split Q >= blockdiag(D1, D2) thus puts
pair(j1, j2) above its value on blockdiag(D1, D2), a Kronecker sum, which
is E(j1, D1) + E(j2, D2): E(j, D) is the smallest eigenvalue of 4 (q1 Jx^2 +
q2 Jy^2 + q3 Jz^2) on spin j, q the eigenvalues of D (``_spin_minima``), and
E >= F, the spin floor, with equality up to spin 1.  ``_PairBounds`` tables
the largest F(j1, D1) + F(j2, D2) over a few splits, which also sets where
the walk stops.  A pair that the table cannot exclude and that has a spin
of 3/2 or more gets the sharper E(j1, D1) + E(j2, D2), each E solved once
per walk, factor and spin over all the splits.  ``_PairBounds`` derives the
rounding both need.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import _lattice
from .lie_core import (RANK_TOL, LieGroupCatalogEntry, _numerical_rank, _orthogonal_matrix,
                       is_bracket_generating)
from .metric_space import MetricSpec

__all__ = [
    "Irrep",
    "SpectralResult",
    "spin_irrep",
    "character_irrep",
    "enumerate_irreps",
    "assemble_minus_CA",
    "lambda_min_hermitian",
    "lambda1_certified",
    "biinvariant_lambda1",
    "invariant_dim",
    "lambda1_restricted",
]

FOUR_PI_SQ = 4.0 * math.pi ** 2

_OVERFLOW = "the spectral operator overflows the float range; rescale the metric"


def _contract(G: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sum_i G[i] @ W[i] for stacks of shape (m, d, d), as one matrix product."""
    m, d, _ = G.shape
    return G.transpose(1, 0, 2).reshape(d, m * d) @ W.reshape(m * d, d)


def _stack_minus_CA(G: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """-sum_ij Q_ij G[i] @ G[j] for a generator stack G and an m x m block Q."""
    m = G.shape[0]
    return -_contract(G, (Q @ G.reshape(m, -1)).reshape(G.shape))


def _kron_sums(a: Irrep, b: Irrep) -> np.ndarray:
    """Generator stack of the pair (a, b): np.kron(g, I_b), then np.kron(I_a, h)."""
    d = a.dim * b.dim
    ia = np.eye(a.dim, dtype=complex)
    ib = np.eye(b.dim, dtype=complex)
    # Broadcast over the index order (gen, row_a, row_b, col_a, col_b).
    G = np.concatenate([
        (a.generators[:, :, None, :, None] * ib[None, None, :, None, :]).reshape(-1, d, d),
        (ia[None, :, None, :, None] * b.generators[:, None, :, None, :]).reshape(-1, d, d),
    ])
    G.flags.writeable = False
    return G


class _GeneratorStack:
    """The ``generators`` field of ``Irrep``, a dataclass descriptor field.

    A stack passed in is stored as given.  A pair stores none: each read
    builds its stack afresh by ``_kron_sums``.  Its readers
    (``check_commutators``, ``invariant_dim`` and ``verify``'s mixed-Casimir
    check) read it once, and the assembly of a pair works from its factors.
    """

    def __get__(self, irrep, owner=None):
        if irrep is None:
            return None  # the dataclass default
        if irrep.factors:
            return _kron_sums(*irrep.factors)
        return irrep.__dict__["_generators"]

    def __set__(self, irrep, G):
        irrep.__dict__["_generators"] = G


@dataclass(frozen=True)
class Irrep:
    """One irreducible unitary representation, differentiated at the identity.

    ``generators[j]`` is the anti-hermitian matrix representing the j-th basis
    vector; ``casimir`` is the scalar by which minus the bi-invariant Casimir
    acts.  A product irrep, a pair, takes only ``factors = (a, b)``, two
    irreps that are not pairs; its dim and Casimir follow from them and hold
    without a check.  Its stack of Kronecker sums is built on each read of
    ``generators``.
    """

    label: str
    dim: int | None = None
    generators: np.ndarray | None = _GeneratorStack()  # (m, d, d) complex, read-only
    casimir: float | None = None
    factors: tuple[Irrep, ...] = ()

    def __post_init__(self):
        if self.factors:
            a, b = self.factors
            if a.factors or b.factors:
                raise ValueError(f"{self.label}: a factor of a pair cannot be a pair")
            d, cas = a.dim * b.dim, a.casimir + b.casimir
            if (self.__dict__["_generators"] is not None or self.dim not in (None, d)
                    or self.casimir not in (None, cas)):
                raise ValueError(f"{self.label}: stack, dim and Casimir come from the factors")
            object.__setattr__(self, "dim", d)
            object.__setattr__(self, "casimir", cas)
            return
        G = np.asarray(self.generators, dtype=complex)
        if G.ndim != 3 or G.shape[1] != self.dim or G.shape[2] != self.dim:
            raise ValueError("generator stack has wrong shape")
        G = G.copy()
        G.flags.writeable = False
        object.__setattr__(self, "generators", G)
        skew = np.max(np.abs(G + np.conj(np.swapaxes(G, 1, 2))))
        if skew > 1e-12 * max(1.0, float(np.max(np.abs(G)))):
            raise ValueError(f"{self.label}: generators are not anti-hermitian")
        cas = -_contract(G, G)
        if np.max(np.abs(cas - self.casimir * np.eye(self.dim))) > 1e-10 * max(1.0, self.casimir):
            raise ValueError(f"{self.label}: Casimir does not act by the stated scalar")

    def check_commutators(self, entry: LieGroupCatalogEntry) -> float:
        """Max residual of [pi(X_i), pi(X_j)] - sum_k c_ij^k pi(X_k)."""
        G = self.generators
        comm = np.matmul(G[:, None], G[None, :])
        comm = comm - np.swapaxes(comm, 0, 1)
        target = np.einsum("ijk,kab->ijab", entry.structure_constants, G)
        res = float(np.max(np.abs(comm - target)))
        if res > 1e-11 * max(1.0, float(np.max(np.abs(G))) ** 2):
            raise ValueError(f"{self.label}: commutators do not match the bracket")
        return res


@dataclass(frozen=True)
class SpectralResult:
    """Output of a spectral-gap computation.

    ``window`` is the certification boundary: every irrep whose Casimir is at
    or beyond it provably lies above ``lambda1``.  On products it is the
    smallest Casimir the walk did not reach, and the stop rule or the factor
    spin bounds prove it; on su2 and so3 the spin bound does (window 15 on
    su2, 24 on so3); on tori it is the shell 4 pi^2 k past the gap, which
    need not be a character's Casimir.  On products ``evaluations`` counts
    the irreps below the window, assembled or skipped by the spin bounds, so
    the first ``evaluations`` of ``enumerate_irreps(entry, window)`` are the
    irreps the walk went through.  Every gap is certified, so ``certified``
    is always true.
    """

    lambda1: float
    witness: str
    certified: bool
    window: float
    evaluations: int


# ---------------------------------------------------------------------------
# Irrep constructors
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _spin_irrep(n: int) -> Irrep:
    """Spin n/2 by its twice-spin n, weights k/2 for k = n, n - 2, ..., -n.

    Irreps are immutable, so every caller shares one validated instance.
    """
    k = np.arange(n, -n - 1, -2)
    jz = np.diag(0.5 * k).astype(complex)
    jp = np.diag(np.sqrt((n * (n + 2) - k[1:] * (k[1:] + 2)) / 4.0), 1).astype(complex)
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = (jp - jm) / 2j
    return Irrep(label=f"spin({Fraction(n, 2)})", dim=n + 1,
                 generators=np.stack([-2j * jx, -2j * jy, -2j * jz]),
                 casimir=float(n * (n + 2)))


def spin_irrep(j) -> Irrep:
    """Spin-j irrep of su2/so3 under the fixed normalisation; Casimir 4j(j+1)."""
    n = 2 * Fraction(j)
    if n < 0 or n.denominator != 1:
        raise ValueError("spin must be a nonnegative half-integer")
    return _spin_irrep(int(n))


def _character_label(n: Sequence[int]) -> str:
    return "char(" + ",".join(str(int(v)) for v in n) + ")"


def character_irrep(n: Sequence[int]) -> Irrep:
    """Torus character with frequency vector n; Casimir 4 pi^2 |n|^2."""
    n = np.asarray(n, dtype=np.int64)
    gens = (2j * math.pi * n.astype(complex)).reshape(-1, 1, 1)
    return Irrep(label=_character_label(n), dim=1, generators=gens,
                 casimir=FOUR_PI_SQ * float(n @ n))


# ---------------------------------------------------------------------------
# Ascending enumeration
# ---------------------------------------------------------------------------

def _merge_streams(s1: Iterator[Irrep],
                   s2: Iterator[Irrep]) -> Iterator[tuple[float, Irrep, Irrep]]:
    """Best-first merge of two ascending irrep streams into ascending
    (Casimir, a, b) pairs, the Casimir being a.casimir + b.casimir."""
    l1: list[Irrep] = [next(s1)]
    l2: list[Irrep] = [next(s2)]
    heap = [(l1[0].casimir + l2[0].casimir, 0, 0)]
    # Cell (i, j) is pushed once: after (i-1, j), or after (0, j-1) when i = 0.
    while heap:
        cas, i, j = heapq.heappop(heap)
        yield cas, l1[i], l2[j]
        if i + 1 == len(l1):
            l1.append(next(s1))
        heapq.heappush(heap, (l1[i + 1].casimir + l2[j].casimir, i + 1, j))
        if i == 0:
            l2.append(next(s2))
            heapq.heappush(heap, (l1[0].casimir + l2[j + 1].casimir, 0, j + 1))


def _pair_label(a: Irrep, b: Irrep) -> str:
    return f"pair({a.label},{b.label})"


def _factor_pairs(entry: LieGroupCatalogEntry) -> Iterator[tuple[float, Irrep, Irrep]]:
    """The merge of a product's two factor streams, the trivial pair first."""
    return _merge_streams(*map(_catalog_stream, entry.factors))


def _catalog_stream(entry: LieGroupCatalogEntry) -> Iterator[Irrep]:
    """Every irrep of su2, so3 or a product, ascending, the trivial one first."""
    if entry.kind in ("su2", "so3"):
        # Twice-spins: every one on su2, the even ones (integer spins) on so3.
        return map(_spin_irrep, itertools.count(0, 1 if entry.kind == "su2" else 2))
    if entry.kind == "product":
        return (Irrep(label=_pair_label(a, b), factors=(a, b))
                for _, a, b in _factor_pairs(entry))
    raise ValueError(f"no irrep catalog for kind {entry.kind!r}")


def _irrep_stream(entry: LieGroupCatalogEntry, cutoff: float = math.inf) -> Iterator[Irrep]:
    """The one walk: nontrivial irreps with Casimir <= cutoff, ascending.

    The cutoff must be positive; math.inf walks a whole (infinite) catalog.
    A torus needs a finite one: its characters are the lattice points of a
    ball (``_lattice.short_vectors``), in (|n|^2, lexicographic) order.
    """
    if not cutoff > 0:
        raise ValueError(f"Casimir cutoff must be positive, got {cutoff:g}")
    if entry.kind != "torus":
        stream = itertools.islice(_catalog_stream(entry), 1, None)
    elif cutoff == math.inf:
        raise ValueError("a torus lists its characters up to a finite Casimir cutoff")
    else:
        pts = _lattice.short_vectors(np.eye(entry.dim), cutoff / FOUR_PI_SQ)
        stream = map(character_irrep, pts[np.argsort((pts * pts).sum(1), kind="stable")])
    return itertools.takewhile(lambda irrep: irrep.casimir <= cutoff, stream)


def enumerate_irreps(entry: LieGroupCatalogEntry, casimir_cutoff: float) -> list[Irrep]:
    """All nontrivial irreps with Casimir eigenvalue <= a finite cutoff, ascending."""
    if casimir_cutoff == math.inf:
        raise ValueError("Casimir cutoff must be finite; every irrep catalog is infinite")
    return list(_irrep_stream(entry, casimir_cutoff))


# ---------------------------------------------------------------------------
# Operator assembly and eigenvalues
# ---------------------------------------------------------------------------

def _pair_minus_CA(a: Irrep, b: Irrep, Q: np.ndarray, blocks: dict) -> np.ndarray:
    """-C_A of the pair (a, b) from its factors.

    With Q split into the blocks Q11, Q22 and Q12 it is kron(M_a(Q11), I)
    + kron(I, M_b(Q22)) - 2 sum_i kron(g_i, (Q12 . h)_i), that is
    sum_k kron(S_k, T_k) over the factor stacks S = [M_a, I, g] and
    T = [I, M_b, -2 Q12 . h]: one matrix product of shape (da^2, k) @
    (k, db^2), so only the factors pay d^3 work.  ``blocks`` keeps a
    factor's (S, T) by label for the other pairs of the same metric that
    share it (``_factor_blocks``).
    """
    for f in (a, b):
        if f.label not in blocks:
            blocks[f.label] = _factor_blocks(f.generators, Q)
    da, db = a.dim, b.dim
    M = blocks[a.label][0] @ blocks[b.label][1]  # index order (ra, ca, rb, cb)
    return M.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)


def _factor_blocks(g: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S as a (d^2, k) and T as a (k, d^2) matrix for the factor with
    generator stack g, in either role of a pair, under a 2m x 2m Q.

    One product gives Q11 . g, Q12 . g and Q22 . g, and M_a and M_b contract
    them as ``_stack_minus_CA`` does.
    """
    m, d = g.shape[0], g.shape[1]
    X = (np.concatenate([Q[:m, :m], Q[:, m:]]) @ g.reshape(m, -1)).reshape(3, m, d, d)
    eye = np.eye(d)[None]
    S = np.concatenate([-_contract(g, X[0])[None], eye, g])
    T = np.concatenate([eye, -_contract(g, X[2])[None], -2.0 * X[1]])
    return S.reshape(-1, d * d).T, T.reshape(-1, d * d)


def assemble_minus_CA(irrep: Irrep, spec: MetricSpec) -> np.ndarray:
    """PSD operator -sum_ij (A A^t)_ij pi(X_i) pi(X_j), hermitian up to rounding.

    One BLAS product over the stacked generators; a product irrep assembles
    from its factors.  ``lambda_min_hermitian`` checks and symmetrises it.
    """
    if sum(f.generators.shape[0] for f in irrep.factors or (irrep,)) != spec.m:
        raise ValueError("irrep and metric have different dimensions")
    if not irrep.factors:
        return _stack_minus_CA(irrep.generators, spec.AAt)
    return _pair_minus_CA(*irrep.factors, spec.AAt, {})


def _hermitian(M: np.ndarray) -> tuple[np.ndarray, float]:
    """The hermitian part H of M, after the checks of ``lambda_min_hermitian``,
    and the largest |m_ij|, which bounds every |h_ii| = |Re m_ii|."""
    M = np.asarray(M)
    peak = float(np.abs(M).max()) if M.size else 0.0
    if not math.isfinite(2.0 * peak):  # M + M^* must not overflow either
        raise ValueError(_OVERFLOW)
    MH = M.conj().T
    if np.abs(M - MH).max() > 1e-10 * max(1.0, peak):
        raise ValueError("matrix is not hermitian")
    return 0.5 * (M + MH), peak


def lambda_min_hermitian(M: np.ndarray) -> float:
    """Smallest eigenvalue of a hermitian matrix.

    Rejects inputs with an entry that is not finite or so large that
    symmetrising would overflow, such as an operator that overflowed the
    float range, and inputs whose anti-hermitian part exceeds 1e-10 relative
    to the entry scale.
    """
    return float(np.linalg.eigvalsh(_hermitian(M)[0])[0])


_EPS = float(np.finfo(float).eps)  # 2u, u the unit roundoff
_ETA = float(np.finfo(float).smallest_subnormal)


def _lies_above(H: np.ndarray, peak: float, lam: float) -> bool:
    """True when one Cholesky factorisation proves eigvalsh(H)[0] > lam.

    H is an exactly hermitian matrix of order d and peak >= max_i |h_ii|, as
    ``_hermitian`` returns them.  With T = d (peak + |lam|), at least
    sum_i |h_ii| + d |lam|, the test factors the computed B = fl(H - s I),
    s = fl(lam + margin), where

        margin = 12 (d + 1) (eps T + d eta),

    eps = 2u is the machine epsilon and eta the smallest subnormal.  When the
    factorisation completes, eigvalsh(H)[0] > lam, so the running minimum of
    a walk, which moves only on a strict ``<``, would not have moved:

    * Shift.  |s - (lam + margin)| <= u |s|, and only the diagonal of H is
      rounded: B = H - s I + E, E diagonal, ||E||_2 <= u max_i |h_ii - s|
      <= u (T + 2 margin).
    * Cholesky.  A factorisation that completes gives R with
      R* R = B + dB, |dB| <= gamma |R*| |R| (Higham, *Accuracy and
      Stability of Numerical Algorithms*, 2nd ed., Thm 10.3).  A complex
      flop errs by at most sqrt(2) gamma_2 < 3u (ibid. sec. 3.6), so
      gamma = gamma_{3(d+1)}.  As ||R||_F^2 = tr(B + dB) <= tr B
      + gamma ||R||_F^2, ||dB||_2 <= gamma / (1 - gamma) tr B, and
      tr B <= (1 + u) sum_i |h_ii - s| <= (1 + u) (T + 2 d margin).
      Gradual underflow adds a few eta to each of the O(d) flops behind an
      entry of R* R; the d eta term of the margin covers it.
    * So H - (lam + margin - ||E||_2 - ||dB||_2) I is positive definite.
      Once the margin exceeds those two norms every eigenvalue of H lies
      above lam, hence ||H||_2 <= max(tr H - (d - 1) lam, -lam) <= T.
    * eigvalsh.  LAPACK's symmetric eigensolvers are backward stable: the
      computed eigenvalues are those of H + F, ||F||_2 <= p(d) u ||H||_2,
      with p(d) a modestly growing function (LAPACK Users' Guide, sec.
      4.7).  Taking p(d) u = 4 d eps, Weyl's inequality puts eigvalsh(H)[0]
      within 4 d eps T of lambda_min(H).

    For 1 <= d <= 10^7 the sum of the four bounds is at most 6 (d + 1) eps T
    plus half the margin plus the underflow term, so the margin above covers
    it with room for the rounding of T and of the margin itself.  A
    factorisation that fails proves nothing: the caller runs eigvalsh.
    """
    d = H.shape[0]
    T = d * (peak + abs(lam))
    s = lam + 12 * (d + 1) * (_EPS * T + d * _ETA)
    if not math.isfinite(T + abs(s)):  # a finite T + |s| bounds every |h_ii - s|
        return False
    B = H.copy()
    B.reshape(-1)[::d + 1] -= s
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        return False
    return True


def _spin_floor(n: np.ndarray, q: np.ndarray) -> np.ndarray:
    """F: a floor under lambda_min(-C_A) on spin n/2 for a symmetric 3x3 block.

    ``n`` holds twice-spins and ``q`` the block's eigenvalues, descending, on
    its last axis; the result has shape ``q.shape[:-1] + n.shape``.  F is 0 at
    spin 0, q1 + q2 + q3 at spin 1/2 and 4 j (q2 + j q3) from spin 1 on,
    exact up to spin 1 (module docstring).  It grows with each of q1, q2, q3,
    and lowering the block by s I lowers it by exactly s 4 j (j + 1), s times
    the spin's Casimir.
    """
    j = 0.5 * n
    q1, q2, q3 = (q[..., i, None] for i in range(3))
    return np.where(n == 1, q1 + q2 + q3, 4.0 * j * (q2 + j * q3))


# F on spins 0, 1/2 and 1 as weights of (q1, q2, q3): 0, q1 + q2 + q3, 4 (q2 + q3).
_LOW_SPINS = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 4.0, 4.0]])


def _spin_minima(n: int, q: np.ndarray) -> np.ndarray:
    """E: lambda_min(-C_A) on spin n/2 for each block of eigenvalues q.

    ``q`` has shape (k, 3), descending on its last axis.  E is the smallest
    eigenvalue of 4 (q1 Jx^2 + q2 Jy^2 + q3 Jz^2) (module docstring).  In
    the Jz basis of ``_spin_irrep`` each 4 J_i^2 = -G_i G_i is real, so the
    operators are the real symmetric q @ K, solved in one batched eigvalsh.
    Up to spin 1 E is the spin floor F, q @ _LOW_SPINS[n].  Like F, E grows
    with each of q1, q2, q3 (each J_i^2 >= 0), and lowering the block by
    s I lowers it by exactly s n (n + 2), the Casimir.
    """
    if n <= 2:
        return q @ _LOW_SPINS[n]
    G = _spin_irrep(n).generators
    K = -(G @ G).real
    return np.linalg.eigvalsh((q @ K.reshape(3, -1)).reshape(-1, n + 1, n + 1))[:, 0]


_SPLIT_THETAS = (1e-3, 0.03, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
_THETA = np.array(_SPLIT_THETAS)[:, None, None]
_TABLE_CELLS = 1 << 18  # the most pairs a bound table holds, 4 MiB


class _PairBounds:
    """The pairs of a product of two su2/so3 factors that spin bounds exclude.

    The bound of pair(j1, j2) is the largest F(j1, D1) + F(j2, D2) over the
    splits Q >= blockdiag(D1, D2) of Q = A A^t (module docstring):

    * the isotropic split sigma_m^2 I, whose bound is sigma_m^2 times the
      Casimir: the walk's stop rule, computed as the walk computes it;
    * for each theta in ``_SPLIT_THETAS``, D1 = Q11 - Q12 Q22^-1 Q21 /
      (1 - theta) with D2 = theta Q22, and its mirror, the roles of the two
      blocks swapped.  Q - blockdiag(D1, D2) is [[Q12 Q22^-1 Q21 / (1 -
      theta), Q12], [Q21, (1 - theta) Q22]], PSD since its Schur complement
      is 0.

    Rounding.  A computed split holds only up to rounding, so both blocks of
    each are lowered by

        s = max(0, -r) + 2^-35 N,   r = eigvalsh(fl(Q - blockdiag(D1, D2)))[0],

    with N = ||Q||_inf + ||blockdiag(D1, D2)||_inf.  A split is kept only
    when every figure of it is finite, both blocks are positive definite
    before the lowering, and both lowered blocks pass the extent rule below.
    Let u be the unit roundoff and eps = 2u, and take a pair of order d <
    16000 and Casimir C >= 3 whose computed bound exceeds the running
    minimum:

    * Shift.  Lowering both blocks by s I lowers the bound by exactly s C
      (``_spin_floor``).
    * Split.  fl(Q - D) errs by at most u |Q - D| entrywise, and eigvalsh by
      at most 24 eps times the 2-norm on order 6 (p(d) u = 4 d eps, as in
      ``_lies_above``).  Both norms are below 2.5 N, so Q - blockdiag(D1,
      D2) has no eigenvalue below r - 2^-46 N, and the split lowered by
      max(0, -r) + 2^-46 N holds exactly.
    * Blocks.  eigvalsh puts each eigenvalue of D1 and D2 within 12 eps N of
      the exact one, and F grows with each, so the computed bound of the
      pair errs high by at most 24 u N C from this; rounding q - s, F, the
      sum and the maximum adds at most 16 u N C.
    * The walk.  -C_A on the pair has 2-norm at most lambda_max(Q) C <= N C.
      Its assembly is taken to err by at most 8 d u N C, the growth that
      eigvalsh's p(d) allows, and eigvalsh by 8 d u N C.

    For d < 16000 the remaining (2^-35 - 2^-46) N C covers (40 + 16 d) u N C,
    so the value that assembling and solving the pair would give lies above
    the minimum: it would neither move nor tie it, and ``lambda1``, the
    witness and ties come out as from a walk that solves every pair.  A
    complex operator of order 16000 takes 4 GiB.  The isotropic split is
    not lowered: its bound is the stop rule of a walk without spin bounds.

    Extent.  Write n for a twice-spin, S = sqrt(lam / sigma_m^2), lam the
    first minimum, and q for the eigenvalues of a lowered block, descending.
    From spin 1 on F is the parabola 2 n q2 + n^2 q3.  The table holds the
    bound of every pair with twice-spins up to floor(t) + 1 per factor, t
    the smallest of S and, over the kept splits, that factor's extent:

    * q3 > 0: min(lam / (2 q2), sqrt(lam / q3)), past which F > lam.
    * q3 <= 0: the parabola is concave.  With w = q2 + sqrt(q2^2 + q3 lam)
      it exceeds lam between its roots lam / w and w / -q3, and it stays
      nonnegative up to 2 q2 / -q3, past the upper root.  The extent is the
      lower root.  Such a block is kept only when q2 > 0 and both roots
      exist with the upper one past 2 S; twice S, so that rounding the
      roots and S cannot matter.  w is computed as q2 (1 + sqrt(1 + (q3 /
      q2) (lam / q2))), which does not overflow; a NaN drops the split.

    A pair outside the table has a twice-spin n > t + 1 in one factor, say
    the first, and m in the other.  When n or m passes S, the pair's
    Casimir exceeds lam / sigma_m^2.  Otherwise the split that attains t
    gives F(n) > lam, n lying past the extent and below 2 S, and F(m) >= 0,
    m lying below S (below 2 q2 / -q3 when q3 <= 0; at m = 1, q1 + q2 + q3
    >= 2 q2 + q3).  So the pair lies above lam and every later minimum, by
    the rounding note.  On an so3 factor odd twice-spins name no irrep;
    their bound is inf.

    Exact minima.  F is exact only up to spin 1.  ``excludes`` tests a pair
    that the table keeps once more when one of its spins is 3/2 or more and
    its order d = d1 d2 has d + 3 max(d1, d2) < 16000: its bound is then the
    largest E(j1, D1) + E(j2, D2) over the kept lowered splits, E the exact
    minimum (``_spin_minima``).  E >= F, and E has the three properties of F
    that the rounding note uses: it depends only on the block's eigenvalues,
    grows with each, and lowering the block by s lowers it by exactly s
    times the Casimir.  So the Shift, Split and Blocks bullets hold for E,
    bar the 16 u N C of rounding F, which two terms replace:

    * Each lowered eigenvalue has |q_i| < 2.5 N.  A factor's operator 4 (q1
      Jx^2 + q2 Jy^2 + q3 Jz^2) has its spectrum in [q3 C_f, q1 C_f], C_f
      the factor's Casimir, so its 2-norm is below 2.5 N C_f.  Its assembly
      fl(q @ K) is taken to err by at most 8 d_f u times that norm, as the
      pair's assembly is, and eigvalsh errs by as much (p(d) u = 4 d eps).
      So each E errs by at most 40 d_f u N C_f, and their sum by at most 40
      max(d1, d2) u N C, as C_1 + C_2 = C.
    * Rounding q - s, the sum and the maximum adds at most 8 u N C.

    With the walk's 16 d u N C the total is (32 + 40 max(d1, d2) + 16 d) u N
    C, and 16 d + 48 max(d1, d2) < 256000 keeps it below the remaining
    (2^-35 - 2^-46) N C = 262016 u N C.  Each E is solved on first use, once
    per walk, factor and twice-spin, over all the kept splits at once.
    ``stop`` reads the table alone, so the window and the evaluations are
    those of the table.

    The floors of all kept splits enter the table in blocked broadcasts: a
    block of splits sums its two factors' floor vectors into one (split, j1,
    j2) array of at most ``_TABLE_CELLS`` entries, and its maximum over the
    splits raises the table.  The maximum is exact, so the table equals the
    split-by-split one.
    """

    def __init__(self, casimir: np.ndarray, bound: np.ndarray, q: np.ndarray):
        self.casimir = casimir  # (rows, cols) by twice-spins (2 j1, 2 j2)
        self.bound = bound      # the pair bounds, isotropic split included
        self.q = q              # (factor, split, 3): the kept lowered eigenvalues
        self.minima: dict = {}  # E over the splits by (factor, twice-spin)

    def excludes(self, a: Irrep, b: Irrep, lam: float) -> bool:
        """True when the bound of the pair (a, b) lies strictly above lam.

        A spin's dimension is its twice-spin plus one, so it indexes the
        table; a pair the table keeps may still fall to the exact minima.
        """
        rows, cols = self.bound.shape
        if a.dim > rows or b.dim > cols or self.bound[a.dim - 1, b.dim - 1] > lam:
            return True
        big = max(a.dim, b.dim)
        if big < 4 or a.dim * b.dim + 3 * big >= 16000:
            return False
        return bool((self._minima(0, a.dim - 1) + self._minima(1, b.dim - 1)).max() > lam)

    def _minima(self, factor: int, n: int) -> np.ndarray:
        """E of the factor's twice-spin n over the kept splits, solved once."""
        key = (factor, n)
        if key not in self.minima:
            self.minima[key] = _spin_minima(n, self.q[factor])
        return self.minima[key]

    def stop(self, lam: float) -> float:
        """The largest Casimir of a pair whose bound does not exceed lam."""
        return float(self.casimir[self.bound <= lam].max())


def _pair_bounds(entry: LieGroupCatalogEntry, spec: MetricSpec,
                 lam: float) -> _PairBounds | None:
    """The spin bounds of a product, sized by the first minimum lam; None
    when no Schur split is kept or the table would pass ``_TABLE_CELLS``:
    the stop rule alone then ends the walk."""
    Q = spec.AAt
    inv = np.stack([Q[3:, 3:], Q[:3, :3]])  # Q22 and Q11, which the complements invert
    cross = np.stack([Q[:3, 3:].T, Q[:3, 3:]])  # Q12^t and Q12
    P = cross[::-1] @ np.linalg.solve(inv, cross)  # Q12 Q22^-1 Q21 and Q21 Q11^-1 Q12
    diag = inv[::-1, None]  # Q11 and Q22, against theta
    schur, scaled = diag - P[:, None] / (1.0 - _THETA), _THETA * diag  # factor, theta, block
    # D[factor, split]: the Schur splits (D1 a Schur complement), then their mirrors.
    D = np.concatenate([schur[:1], scaled[:1], scaled[1:], schur[1:]], axis=1).reshape(2, -1, 3, 3)
    R = np.repeat(Q[None], D.shape[1], axis=0)
    R[:, :3, :3] -= D[0]
    R[:, 3:, 3:] -= D[1]
    N = np.abs(Q).sum(1).max() + np.abs(D).sum(3).max(axis=(0, 2))
    keep = np.isfinite(R).all(axis=(1, 2)) & np.isfinite(N)
    if not keep.any():
        return None
    q = np.linalg.eigvalsh(D[:, keep])[..., ::-1]  # descending
    pd = (q[..., 2] > 0).all(axis=0)  # positive definite before the lowering
    if not pd.any():
        return None
    keep[keep] = pd
    s = np.maximum(0.0, -np.linalg.eigvalsh(R[keep])[:, 0]) + 2.0 ** -35 * N[keep]
    q = q[:, pd] - s[:, None]  # lowered
    sm2 = spec.sigma[-1] ** 2
    reach = math.sqrt(lam / sm2)  # S
    q2, q3 = q[..., 1], q[..., 2]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # NaN drops a split
        w = q2 * (1.0 + np.sqrt(1.0 + (q3 / q2) * (lam / q2)))
        extent = np.where(q3 > 0, np.minimum(lam / (2.0 * q2), np.sqrt(lam / q3)), lam / w)
        fits = ((q3 > 0) | ((q2 > 0) & (w > -2.0 * reach * q3))).all(axis=0)
    if not fits.any():
        return None
    q = q[:, fits]
    rows, cols = (math.floor(min(t, reach)) + 2 for t in extent[:, fits].min(axis=1))
    if rows * cols > _TABLE_CELLS:
        return None
    n1, n2 = np.arange(rows, dtype=float), np.arange(cols, dtype=float)
    casimir = (n1 * (n1 + 2.0))[:, None] + (n2 * (n2 + 2.0))[None, :]
    bound = sm2 * casimir
    step = _TABLE_CELLS // (rows * cols)  # splits per block: at most _TABLE_CELLS sums live
    for k in range(0, q.shape[1], step):
        F1, F2 = _spin_floor(n1, q[0, k:k + step]), _spin_floor(n2, q[1, k:k + step])
        np.maximum(bound, (F1[:, :, None] + F2[:, None, :]).max(axis=0), out=bound)
    if entry.factors[0].kind == "so3":
        bound[1::2] = math.inf
    if entry.factors[1].kind == "so3":
        bound[:, 1::2] = math.inf
    return _PairBounds(casimir, bound, q)


# ---------------------------------------------------------------------------
# Certified spectral gap
# ---------------------------------------------------------------------------

def lambda1_certified(entry: LieGroupCatalogEntry, spec: MetricSpec) -> SpectralResult:
    """Smallest positive Laplace eigenvalue of the metric, with certification.

    On products, walks the (Casimir, a, b) factor pairs of ``_factor_pairs``
    in ascending Casimir order keeping the running minimum of
    lambda_min(-C_A), strict ``<`` in stream order; it stops certified at the
    first Casimir nu with sigma_m^2 * nu > running minimum.  The first pair's
    value also sizes the factor spin bounds (``_PairBounds``): a pair they
    put above the running minimum is skipped without assembly, looked up by
    its factors' dimensions, and the walk stops past the largest Casimir of a
    pair they cannot exclude, recomputed whenever the minimum moves.  Only a
    new witness has its label formatted.  The su2/so3 gap evaluates spin 1/2
    and spin 1, and a torus gap is an exact shortest-vector search.  Every
    result is certified.  Overflow of the operator is refused by
    ``lambda_min_hermitian``'s checks (``_hermitian``), which run on every
    pair assembled.  An assembled pair after the first whose Cholesky screen
    (``_lies_above``) proves it above the running minimum needs no
    eigensolve.  The margins of the screen and of the spin bounds keep
    ``lambda1``, the witness and ties exactly as a walk that solves every
    irrep would give them.
    """
    if spec.m != entry.dim:
        raise ValueError("metric and group have different dimensions")
    if entry.kind == "torus":
        return _torus_lambda1_certified(spec)
    if entry.kind in ("su2", "so3"):
        return _spin_lambda1_certified(entry, spec)
    sm2 = float(spec.sigma[-1] ** 2)
    lam_hat = math.inf
    witness = ""
    evals = 0
    bounds = None  # the spin bounds, built once the first irrep sets the minimum
    last = math.inf  # the largest Casimir the spin bounds cannot exclude
    blocks: dict = {}  # factor blocks shared by the pairs of this walk
    Q = spec.AAt
    # An overflow is refused right after it happens, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for cas, a, b in itertools.islice(_factor_pairs(entry), 1, None):  # no trivial pair
            if sm2 * cas > lam_hat or cas > last:
                return SpectralResult(lambda1=lam_hat, witness=witness, certified=True,
                                      window=cas, evaluations=evals)
            evals += 1
            if bounds is not None and bounds.excludes(a, b, lam_hat):
                continue
            H, peak = _hermitian(_pair_minus_CA(a, b, Q, blocks))
            if _lies_above(H, peak, lam_hat):
                continue
            lm = float(np.linalg.eigvalsh(H)[0])
            if lm < lam_hat:
                lam_hat = lm
                witness = _pair_label(a, b)
                if evals == 1:
                    bounds = _pair_bounds(entry, spec, lam_hat)
                if bounds is not None:
                    last = bounds.stop(lam_hat)
    raise AssertionError("irrep stream is infinite")  # pragma: no cover


def _spin_lambda1_certified(entry: LieGroupCatalogEntry, spec: MetricSpec) -> SpectralResult:
    """The su2/so3 gap: the smallest lambda_min(-C_A) over the spins up to 1.

    Every spin j >= 3/2 lies above spin 1 (module docstring), so the result
    is always certified and its window is the next spin's Casimir, 15 on su2
    and 24 on so3.  The first minimum wins: a tie goes to spin(1/2).
    """
    step = 1 if entry.kind == "su2" else 2  # so3 has integer spins only
    with np.errstate(over="ignore", invalid="ignore"):  # refused by lambda_min_hermitian
        gaps = [(lambda_min_hermitian(_stack_minus_CA(irrep.generators, spec.AAt)),
                 irrep.label) for irrep in map(_spin_irrep, range(step, 3, step))]
    lam, witness = min(gaps, key=lambda gap: gap[0])
    n = 2 + step
    return SpectralResult(lambda1=lam, witness=witness, certified=True,
                          window=float(n * (n + 2)), evaluations=len(gaps))


def biinvariant_lambda1(entry: LieGroupCatalogEntry) -> float:
    """Spectral gap of the reference bi-invariant metric, the first Casimir: 4 pi^2
    on a torus, 3 where su2 is the group or a factor (spin 1/2), else 8 (spin 1)."""
    if entry.kind == "torus":
        return FOUR_PI_SQ
    return 3.0 if "su2" in (entry.kind, *(f.kind for f in entry.factors)) else 8.0


def _torus_lambda1_certified(spec: MetricSpec) -> SpectralResult:
    """Shortest character: 4 pi^2 min n^t (A A^t) n over nonzero integer n.

    The coordinate character with the smallest diagonal entry seeds the
    minimum; every character that could beat it lies in the ellipsoid
    n^t (A A^t) n <= (A A^t)_jj, which ``_lattice.short_vectors`` lists
    completely.  The seed stays unless strictly beaten, otherwise the first
    minimiser in lexicographic order wins.  The enumeration is exact, so the
    result is always certified; its window is the certification boundary of
    the shell order.
    """
    Q = spec.AAt
    m = spec.m
    if m > 4:
        raise ValueError("torus spectral enumeration is limited to m <= 4")
    sm2 = spec.sigma[-1] ** 2
    diag = np.diag(Q)
    j0 = int(np.argmin(diag))
    lam_hat = FOUR_PI_SQ * float(diag[j0])
    if not math.isfinite(lam_hat):
        raise ValueError(_OVERFLOW)
    witness_n = np.eye(m, dtype=np.int64)[j0]
    pts = _lattice.short_vectors(Q, float(diag[j0]))
    vals = FOUR_PI_SQ * np.einsum("ni,ij,nj->n", pts, Q.astype(float), pts)
    idx = int(np.argmin(vals))
    if vals[idx] < lam_hat:
        lam_hat = float(vals[idx])
        witness_n = pts[idx]
    boundary = FOUR_PI_SQ * (math.floor(lam_hat / (FOUR_PI_SQ * sm2) + 1e-12) + 1)
    return SpectralResult(lambda1=lam_hat, witness=_character_label(witness_n),
                          certified=True, window=boundary,
                          evaluations=m + pts.shape[0])


# ---------------------------------------------------------------------------
# Invariant vectors and restricted spectra
# ---------------------------------------------------------------------------

def invariant_dim(irrep: Irrep, H) -> int:
    """Dimension of the joint null space of pi(X) over X in the span of H.

    H is a nonempty array of m-vectors (rows).
    """
    rows = np.asarray(H, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("H must contain at least one vector")
    if not np.any(np.abs(rows) > 0):
        raise ValueError("H must be nonzero")
    stacked = np.tensordot(rows, irrep.generators, axes=(1, 0))
    stacked = stacked.reshape(rows.shape[0] * irrep.dim, irrep.dim)
    scale = float(np.linalg.norm(rows, axis=1).max() * np.abs(irrep.generators).max())
    return irrep.dim - _numerical_rank(np.linalg.svd(stacked, compute_uv=False), scale)


_RESTRICTED_CUTOFF = 1.0e6  # the Casimir past which a restricted search gives up
_THIN = 1.0e8  # the weight of the prefix directions in a torus's search form


def lambda1_restricted(entry: LieGroupCatalogEntry, P: np.ndarray, k: int) -> float:
    """Spectral gap of the bi-invariant Laplacian on functions annihilated by
    the first k-1 rotated basis directions.

    Returns math.inf when the prefix is bracket generating (only constants
    survive).  k = 1 imposes no constraint, so the plain bi-invariant gap
    comes back.  On a torus it is 4 pi^2 min |n|^2 over nonzero integer n with
    |prefix n| <= RANK_TOL |n|.  Such n have n^t Q n <= (1 + 1e-10) |n|^2 on
    Q = I + _THIN prefix^t prefix, so ``_lattice.short_vectors(Q, b)`` holds
    each with |n|^2 <= b, b growing 4x up to the cutoff, past which it raises.
    """
    if not 1 <= k <= entry.dim:
        raise ValueError("need 1 <= k <= m")
    P = _orthogonal_matrix(entry, P)
    if k == 1:
        return biinvariant_lambda1(entry)
    prefix = P[:, :k - 1].T
    if entry.kind == "torus":
        Q = np.eye(entry.dim) + _THIN * prefix.T @ prefix
        bound, cap = 1.0, _RESTRICTED_CUTOFF / FOUR_PI_SQ
        while bound < 4.0 * cap:  # the last pass has bound >= cap
            pts = _lattice.short_vectors(Q, min(bound, cap))
            norm2 = (pts * pts).sum(1)
            hit = np.linalg.norm(pts @ prefix.T, axis=1) <= RANK_TOL * np.sqrt(norm2)
            if hit.any():
                return FOUR_PI_SQ * float(norm2[hit].min())
            bound *= 4.0
    elif is_bracket_generating(entry, prefix):
        return math.inf
    else:
        for irrep in _irrep_stream(entry, _RESTRICTED_CUTOFF):
            if invariant_dim(irrep, prefix) > 0:
                return irrep.casimir
    raise RuntimeError(f"no invariant vector found below Casimir {_RESTRICTED_CUTOFF:g}; "
                       "the prefix may generate a dense (non-closed) subgroup")
