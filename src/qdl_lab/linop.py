"""Interferometer sampling and exact multiphoton photodetection distributions.

The mode convention is that of passive linear optics: a unitary U maps
input creation operator i to ``sum_j U[i, j] a_j^dag``.  A transition
amplitude between occupation states is then a matrix permanent of the
submatrix of U whose rows repeat per input occupancy and whose columns
repeat per output occupancy, divided by the usual sqrt-factorial
normalisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError, ResourceError
from .fock import ModeConfig, _check_basis, basis_tables

#: Largest matrix size ``permanent`` accepts.
PERMANENT_CAP = 25

UNITARITY_TOL = 1e-12

#: Bytes of complex input gathered per block: each _permanent_batch call of
#: output_distributions, each QR call of stiefel_batch.  On 2 vCPUs, under the
#: CLI's malloc thresholds, a 1024-trial `simulate 8 3 --K 64 --eta 0.8` took
#: a median 19.6, 16.1, 15.3 and 15.0 ms of CPU with 128 KB, 256 KB, 512 KB
#: and 1 MB blocks (512 KB beat 256 KB in 8 of 8 interleaved rounds); a
#: 20 000-trial `simulate 4 2 --K 16 --eta 0.5` took 19.9-20.0 ms at each size,
#: and `estimate gamma` at (100, 2), (60, 3) and (16, 8) moved by under 3%.
#: 512 KB raised the peak RSS of 30 in-process `estimate gamma` ops at
#: (100, 2), (60, 3) and (250, 4) by 1.1 MB at workers 1 and 2.3 MB at
#: workers 2.  1 MB saves no more CPU than 512 KB and doubles the blocks again.
BLOCK_BYTES = 1 << 19

#: Largest frame batch stiefel_batch draws, count * height * ncols * 16 bytes
#: (height is m, or rows + ncols on its truncated path).  On 2 vCPUs a full
#: batch at the cap took 2.3 s and 800 MB peak RSS at (count, m, ncols) =
#: (4096, 8192, 1), 2.5 s at (4096, 2048, 4) and 6.4 s at (2048, 128, 128).
FRAME_CAP_BYTES = 1 << 29


@dataclass(frozen=True)
class UnitaryMatrix:
    """An m-by-m complex matrix verified unitary at construction."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        check_unitary(a)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def check_unitary(a: np.ndarray) -> None:
    """DomainError unless every matrix of the (..., m, m) stack has |U^dag U - I| <= UNITARITY_TOL."""
    m = a.shape[-1]
    b = a.reshape(-1, m, m)
    step = max(1, BLOCK_BYTES // (16 * m * m))  # blocks keep the temporaries small
    dev = np.max([
        np.abs(np.swapaxes(c, 1, 2).conj() @ c - np.eye(m)).max()
        for c in (b[s:s + step] for s in range(0, len(b), step))
    ])
    if not dev <= UNITARITY_TOL:  # a NaN fails too
        raise DomainError(f"matrix is not unitary: max |U^dag U - I| = {dev:.3e}")


def haar_unitary(m: int, rng: Union[int, np.random.Generator]) -> UnitaryMatrix:
    """Draw one unitary from the Haar measure on U(m).

    Uses QR of a complex Ginibre matrix with the phase of the triangular
    factor's diagonal divided out, which makes the density exactly
    invariant rather than merely unitary.
    """
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    return UnitaryMatrix(haar_batch(np.random.default_rng(rng), 1, m)[0])


def haar_batch(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    """Stack of ``count`` Haar unitaries, shape (count, m, m)."""
    return stiefel_batch(rng, count, m, m)


def stiefel_batch(
    rng: np.random.Generator, count: int, m: int, ncols: int, rows: Optional[int] = None
) -> np.ndarray:
    """Top ``rows`` rows (default m) of Haar m-by-ncols frames, shape (count, rows, ncols).

    The result is distributed as those rows of the first ``ncols`` columns
    of a Haar unitary.  When ``m - rows > ncols`` only ``height = rows +
    ncols`` rows are drawn: QR's R depends on the bottom m - rows rows only
    through their Gram matrix, a complex Wishart_ncols(m - rows), so they
    are replaced by its Bartlett factor B, upper triangular with B_ii =
    sqrt(2 Gamma(m - rows - i)) and N(0,1) + iN(0,1) entries above the
    diagonal, the Gaussians' own scale (Mezzadri, Notices AMS 54, 2007).
    Otherwise ``height = m``.  Draw order: the real, then the imaginary
    parts of the (count, height, ncols) stack, then on the truncated path
    the (count, ncols) gamma variates of B's diagonal; B's lower triangle
    is zeroed.  So ``haar_batch`` keeps the full frame's draws.  Drawn
    entries above ``FRAME_CAP_BYTES`` raise ResourceError before any draw.
    """
    rows = m if rows is None else rows
    if not (1 <= ncols <= m and 1 <= rows <= m):
        raise DomainError(f"need 1 <= ncols, rows <= m, got ncols={ncols}, rows={rows}, m={m}")
    tail = m - rows
    height = rows + ncols if tail > ncols else m
    if 16 * count * height * ncols > FRAME_CAP_BYTES:  # before any draw
        raise ResourceError(
            f"{count} frames of {height} x {ncols} drawn entries exceed the {FRAME_CAP_BYTES}-byte cap"
        )
    g = np.empty((count, height, ncols), dtype=complex)
    # blocks of frames share one buffer; consecutive draws continue one stream,
    # so the values equal those of one draw per part
    step = max(1, BLOCK_BYTES // (16 * height * ncols))
    buf = np.empty((min(step, count), height, ncols))
    for part in (g.real, g.imag):
        for s in range(0, count, step):
            part[s:s + step] = rng.standard_normal(out=buf[:min(step, count - s)])
    if height < m:  # Bartlett factor of the bottom rows' Gram matrix
        diag = np.arange(ncols)
        bartlett = g[:, rows:]
        bartlett[:, diag, diag] = np.sqrt(2.0 * rng.standard_gamma(tail - diag, size=(count, ncols)))
        below = np.tril_indices(ncols, -1)
        bartlett[:, below[0], below[1]] = 0.0
    # LAPACK factors one matrix at a time, so blocking changes no bit of q;
    # each block's factors are written back over its Gaussians
    for s in range(0, count, step):
        q, r = np.linalg.qr(g[s:s + step])
        d = np.einsum("...ii->...i", r)
        q *= (d / np.abs(d))[:, None, :]
        g[s:s + step] = q
    return g[:, :rows]


def permanent(a: np.ndarray) -> complex:
    """Exact permanent of a square complex matrix via Glynn's formula.

    Sign vectors are walked in Gray-code order so each step updates the
    column sums with a single row; compensated accumulation is switched
    on for k >= 16 where the alternating sum starts losing digits.  A
    matrix larger than ``PERMANENT_CAP`` raises DomainError.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"permanent needs a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(_permanent_batch(a[None, :, :])[0])


def _permanent_batch(a: np.ndarray) -> np.ndarray:
    """Glynn permanents of a stack of k-by-k matrices, shape (b, k, k).

    perm(A) = 2^-(k-1) sum_delta (prod_i delta_i) prod_j sum_i delta_i a_ij
    over sign vectors with delta_0 = +1.  Column sums live in a contiguous
    (k, b) array and each Gray-code step flips one row's sign.  A batch of
    one is run as two copies, since numpy reduces a (k, 1) array in another
    order than a (k, b) one: so a matrix's permanent has the same bits in
    any batch.  k above ``PERMANENT_CAP`` raises DomainError before any work.
    """
    b, k, _ = a.shape
    if k > PERMANENT_CAP:
        raise DomainError(f"matrix size {k} exceeds permanent cap {PERMANENT_CAP}")
    if b == 1:
        return _permanent_batch(np.concatenate((a, a)))[:1]
    rows = np.transpose(a, (1, 2, 0)).astype(complex, order="C")  # (row, col, b) copy
    col_sums = rows.sum(axis=0)
    rows *= 2.0
    total = np.prod(col_sums, axis=0)
    comp = np.zeros(b, dtype=complex)
    term = np.empty(b, dtype=complex)
    compensated = k >= 16
    negated = 0  # bit j set: row j + 1 has sign -1
    for step in range(1, 1 << (k - 1)):
        bit = step & -step
        negated ^= bit
        if negated & bit:
            col_sums -= rows[bit.bit_length()]
        else:
            col_sums += rows[bit.bit_length()]
        np.prod(col_sums, axis=0, out=term)
        # one sign flips per step, so the parity alternates with step
        if compensated:  # keeps the alternating sum accurate
            total = _neumaier_add(total, comp, -term if step & 1 else term)
        elif step & 1:
            total -= term
        else:
            total += term
    return (total + comp) / (1 << (k - 1))


def _neumaier_add(total: np.ndarray, comp: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Neumaier-compensated ``total + term``, elementwise.

    Returns the new total and adds the low-order part it lost to ``comp``
    in place; the compensated sum is ``total + comp``.
    """
    t = total + term
    comp += np.where(np.abs(total) >= np.abs(term), (total - t) + term, (term - t) + total)
    return t


def output_distribution(u: UnitaryMatrix, config_in: ModeConfig) -> np.ndarray:
    """Photodetection probabilities over the canonical basis for U|in>.

    One row of ``output_distributions``, under the same ``fock`` basis checks.
    """
    if config_in.m != u.m:
        raise DomainError("config does not match the unitary's mode count")
    if config_in.n == 0:
        return np.ones(1)
    _check_basis(u.m, config_in.n)  # before the input norm n! can overflow
    in_norm = float(math.prod(math.factorial(v) for v in config_in.occupations))
    rows = np.array([config_in.modes])
    return output_distributions(u.entries[None], np.zeros(1, dtype=np.intp), rows, in_norm)[0]


def output_distributions(
    units: np.ndarray,
    keys: np.ndarray,
    rows: np.ndarray,
    in_norm: float = 1.0,
) -> np.ndarray:
    """Photodetection distributions of p input states, shape (p, d).

    State i is ``units[keys[i]]`` applied to the input whose occupied
    modes, each repeated by its occupancy, are ``rows[i]``; all p inputs
    hold the same n photons and occupation norm ``in_norm``.  Permanent
    submatrices are gathered over the cached basis tables, in blocks of
    outputs whose input to _permanent_batch is at most ``BLOCK_BYTES``
    while ``p * 16 * n**2`` is.  A basis over ``fock.BASIS_CAP`` raises
    ResourceError from ``fock.basis_tables``.
    """
    p, n = rows.shape
    cols, out_norms = basis_tables(units.shape[1], n)
    picked = units[keys[:, None], rows].transpose(1, 2, 0)  # (row, mode, pair)
    step = max(1, BLOCK_BYTES // (16 * n * n * p))
    perms = np.empty((p, len(out_norms)), dtype=complex)
    for t in range(0, len(out_norms), step):
        # (row, col, output, pair) is the (row, col, batch) layout the kernel copies into
        sub = np.take(picked, cols[t:t + step].T, axis=1)
        batch = np.moveaxis(sub.reshape(n, n, -1), 2, 0)
        perms[:, t:t + step] = _permanent_batch(batch).reshape(-1, p).T
    return np.abs(perms) ** 2 / (in_norm * out_norms)
