"""Momentum-space 2D Hubbard Hamiltonian as a sparse column oracle.

The Hamiltonian on an ``L1 x L2`` periodic lattice is

    H = t * sum_{k,s} eps(k) n_{k,s}
        + (U / N_orb) * sum_{k,p,q} cdag_{p-q,up} cdag_{k+q,dn} c_{k,dn} c_{p,up}

with ``eps(k) = -2 (cos k1 + cos k2)`` and ``k = (2*pi*r1/L1, 2*pi*r2/L2)``
for orbital ``r = (r1, r2)``.  Momentum transfer is conserved, so H is block
diagonal over total lattice momentum; we work in the block containing the
Hartree-Fock determinant, where the ground state has large overlap with the
HF basis vector.  The sector is assembled once into CSC sparse form, and
every column the oracle serves is a slice of it, so the sector's nonzeros
must fit in memory.

An electron's move depends only on its own spin's mask, so the moves are
tabulated once per distinct up mask and once per distinct down mask of the
basis (560 of each at 4x4 3+3, against 19,600 columns): the new mask, the
Jordan-Wigner parity and whether the destination is empty, for every
(occupied orbital, transfer).  The entries per column are then one product
of the two spins' allowed-move counts, summed over the transfer.  One
kernel, :func:`_column_kernel`, builds a block of columns at once: it
gathers each column's rows of the two tables and pairs them into one array
over (column, occupied up orbital, occupied down orbital, transfer), and
each target determinant is found by ``np.searchsorted`` on the basis'
sorted keys ``(up << n_orb) | down``.  :meth:`HubbardOracle.prepare` runs
the kernel block by block into the CSC arrays; :func:`hamiltonian_column`
runs it on one column, independently of any assembled matrix.

Fermion convention: modes are ordered as all up orbitals (ascending index)
followed by all down orbitals (ascending index).  A creation/annihilation
at mode position m picks up (-1)**(number of occupied modes strictly before
m at the moment of application).  Because the interaction moves exactly one
electron per spin channel, up- and down-parities factorize.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .operators import Column, ColumnOracle

DEFAULT_SECTOR_CAP = 5_000_000
MAX_ORBITALS = 31  # two masks of this many bits pack into one int64 key
_EPS_QUANTUM = 1e-9
# Columns per kernel call in prepare(): large enough to amortise numpy call
# overhead, small enough that the block's candidate arrays stay a few MB.
_BLOCK_COLUMNS = 256


class Determinant(NamedTuple):
    """Occupation bitmasks over momentum orbitals, one per spin."""

    up: int
    down: int


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic 2D lattice with hopping ``t_hop`` and on-site ``u``."""

    l1: int
    l2: int
    n_up: int
    n_down: int
    t_hop: float = 1.0
    u: float = 4.0

    def __post_init__(self):
        if self.l1 < 1 or self.l2 < 1:
            raise ValueError(f"lattice sides must be positive, got {self.l1}x{self.l2}")
        if self.n_orb > MAX_ORBITALS:
            raise ValueError(f"{self.l1}x{self.l2} lattice has {self.n_orb} orbitals; "
                             f"at most {MAX_ORBITALS} are supported")
        if not 0 <= self.n_up <= self.n_orb or not 0 <= self.n_down <= self.n_orb:
            raise ValueError(
                f"electron counts {self.n_up}+{self.n_down} exceed {self.n_orb} orbitals")
        for name in ("t_hop", "u"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)}")

    @property
    def n_orb(self) -> int:
        return self.l1 * self.l2

    def orbital_vector(self, p: int) -> tuple[int, int]:
        return p % self.l1, p // self.l1

    @cached_property
    def dispersions(self) -> np.ndarray:
        out = np.empty(self.n_orb)
        for p in range(self.n_orb):
            r1, r2 = self.orbital_vector(p)
            out[p] = -2.0 * (np.cos(2 * np.pi * r1 / self.l1)
                             + np.cos(2 * np.pi * r2 / self.l2))
        return out

    @cached_property
    def _transfer_tables(self) -> tuple[np.ndarray, np.ndarray]:
        # sub[p, q] = p - q and add[p, q] = p + q, component-wise mod lattice
        r1, r2 = np.divmod(np.arange(self.n_orb), self.l1)[::-1]
        sub = (r1[:, None] - r1) % self.l1 + self.l1 * ((r2[:, None] - r2) % self.l2)
        add = (r1[:, None] + r1) % self.l1 + self.l1 * ((r2[:, None] + r2) % self.l2)
        return sub, add

    @cached_property
    def fill_order(self) -> list[int]:
        """Orbitals by ascending dispersion; ties by unwrapped |k|^2, then index.

        Dispersion is quantized before comparison so exactly degenerate
        shells are not split by trig rounding.  Within a shell, orbitals
        with smaller stored wave numbers ``k = 2*pi*r/L in [0, 2*pi)`` come
        first; this pins the sector of the reference calculations.
        """
        def key(p: int):
            r1, r2 = self.orbital_vector(p)
            k1 = 2 * np.pi * r1 / self.l1
            k2 = 2 * np.pi * r2 / self.l2
            return (round(self.dispersions[p] / _EPS_QUANTUM) * _EPS_QUANTUM,
                    round((k1 * k1 + k2 * k2) / _EPS_QUANTUM) * _EPS_QUANTUM,
                    p)

        return sorted(range(self.n_orb), key=key)

    def momentum_of(self, mask: int) -> tuple[int, int]:
        m1 = m2 = 0
        for p in _occupied(mask, self.n_orb):
            r1, r2 = self.orbital_vector(p)
            m1 += r1
            m2 += r2
        return m1 % self.l1, m2 % self.l2


def dispersion(spec: LatticeSpec, k_index: int) -> float:
    """Single-particle energy of momentum orbital ``k_index``."""
    if not 0 <= k_index < spec.n_orb:
        raise IndexError(f"orbital index {k_index} out of range for {spec.n_orb} orbitals")
    return float(spec.dispersions[k_index])


def _occupied(mask: int, n_orb: int) -> list[int]:
    return [p for p in range(n_orb) if mask >> p & 1]


def hf_determinant(spec: LatticeSpec) -> Determinant:
    """Lowest-dispersion filling per spin, deterministic under degeneracy."""
    up = 0
    for p in spec.fill_order[:spec.n_up]:
        up |= 1 << p
    down = 0
    for p in spec.fill_order[:spec.n_down]:
        down |= 1 << p
    return Determinant(up, down)


class SectorTooLarge(RuntimeError):
    """Sector dimension exceeds the configured enumeration cap."""


class MomentumBasis:
    """All determinants in one total-momentum block, lexicographically sorted.

    ``keys[i] = (up << n_orb) | down`` of determinant ``i`` ascends strictly,
    so a binary search over ``keys`` is the index of the basis.
    """

    def __init__(self, spec: LatticeSpec, sector_momentum: tuple[int, int],
                 up_masks: np.ndarray, down_masks: np.ndarray):
        self.spec = spec
        self.sector_momentum = sector_momentum
        self.up_masks = up_masks
        self.down_masks = down_masks
        self.keys = (up_masks << spec.n_orb) | down_masks
        if np.any(self.keys[1:] <= self.keys[:-1]):
            raise ValueError("determinants must be distinct and sorted by (up, down)")

    @property
    def dim(self) -> int:
        return self.up_masks.size

    def state(self, i: int) -> Determinant:
        return Determinant(int(self.up_masks[i]), int(self.down_masks[i]))

    def index_of(self, det: Determinant) -> int:
        """Position of ``det`` in the basis; ``KeyError`` if it is not in the sector."""
        n = self.spec.n_orb
        if 0 <= det.up < 1 << n and 0 <= det.down < 1 << n:
            key = (det.up << n) | det.down
            i = int(np.searchsorted(self.keys, key))
            if i < self.dim and self.keys[i] == key:
                return i
        raise KeyError(f"{det} is not in the sector of momentum {self.sector_momentum}")

    @cached_property
    def diagonal(self) -> np.ndarray:
        """t * sum of occupied dispersions plus the constant Hubbard term."""
        spec = self.spec
        kin = np.zeros(self.dim)
        for p in range(spec.n_orb):
            eps = spec.dispersions[p]
            kin += eps * ((self.up_masks >> p) & 1)
            kin += eps * ((self.down_masks >> p) & 1)
        hub = (spec.u / spec.n_orb) * spec.n_up * spec.n_down
        return spec.t_hop * kin + hub

    @cached_property
    def up_moves(self) -> SpinMoves:
        """Up moves ``p -> p - q``, ``q != 0``, per distinct up mask."""
        return _spin_moves(self.up_masks, self.spec._transfer_tables[0])

    @cached_property
    def down_moves(self) -> SpinMoves:
        """Down moves ``k -> k + q``, ``q != 0``, per distinct down mask."""
        return _spin_moves(self.down_masks, self.spec._transfer_tables[1])


def _spin_masks_by_momentum(spec: LatticeSpec, count: int) -> dict[tuple[int, int], list[int]]:
    buckets: dict[tuple[int, int], list[int]] = {}
    for combo in itertools.combinations(range(spec.n_orb), count):
        mask = sum(1 << p for p in combo)
        buckets.setdefault(spec.momentum_of(mask), []).append(mask)
    return buckets


def _sector_blocks(spec: LatticeSpec):
    """The HF sector's momentum and its (up masks, down masks) blocks.

    Every up mask of one momentum pairs with every down mask of the
    complementary momentum, so the blocks' products tile the sector.
    """
    hf = hf_determinant(spec)
    mu = spec.momentum_of(hf.up)
    md = spec.momentum_of(hf.down)
    tgt1, tgt2 = (mu[0] + md[0]) % spec.l1, (mu[1] + md[1]) % spec.l2
    up_buckets = _spin_masks_by_momentum(spec, spec.n_up)
    if spec.n_down == spec.n_up:
        down_buckets = up_buckets
    else:
        down_buckets = _spin_masks_by_momentum(spec, spec.n_down)
    blocks = []
    for (m1, m2), ups in up_buckets.items():
        downs = down_buckets.get(((tgt1 - m1) % spec.l1, (tgt2 - m2) % spec.l2))
        if downs:
            blocks.append((ups, downs))
    return (tgt1, tgt2), blocks


def sector_dimension(spec: LatticeSpec) -> int:
    """Dimension of the HF momentum sector without materializing it."""
    _, blocks = _sector_blocks(spec)
    return sum(len(ups) * len(downs) for ups, downs in blocks)


def enumerate_sector(spec: LatticeSpec, max_dim: int = DEFAULT_SECTOR_CAP) -> MomentumBasis:
    """Enumerate the total-momentum block of the HF determinant."""
    momentum, blocks = _sector_blocks(spec)
    dim = sum(len(ups) * len(downs) for ups, downs in blocks)
    if dim > max_dim:
        raise SectorTooLarge(
            f"sector dimension {dim} exceeds cap {max_dim}; raise max_dim to proceed")
    n_orb = spec.n_orb
    keys = np.concatenate([((np.array(ups, dtype=np.int64)[:, None] << n_orb)
                            | np.array(downs, dtype=np.int64)).ravel()
                           for ups, downs in blocks])
    keys.sort()
    return MomentumBasis(spec, momentum, keys >> n_orb, keys & ((1 << n_orb) - 1))


class SpinMoves(NamedTuple):
    """One spin's moves, tabulated per distinct mask of a basis.

    ``index[j]`` is the table row of column ``j``'s mask; ``new``, ``parity``
    and ``allowed`` are shaped (distinct masks, occupied orbitals, transfer
    ``q = 1 .. n_orb-1``).
    """

    index: np.ndarray
    new: np.ndarray
    parity: np.ndarray
    allowed: np.ndarray


def _spin_moves(masks: np.ndarray, table: np.ndarray) -> SpinMoves:
    """Every move of one electron from occupied ``o`` to ``table[o, q]``,
    ``q != 0``, for each distinct mask of ``masks``: the new mask, the
    Jordan-Wigner parity of the move (odd is True) and whether the
    destination is empty."""
    masks, index = np.unique(masks, return_inverse=True)
    n_orb = table.shape[0]
    bits = (masks[:, None] >> np.arange(n_orb)) & 1
    below = np.cumsum(bits, axis=1) - bits  # occupied orbitals strictly below
    occ = np.nonzero(bits)[1].reshape(masks.size, -1)[:, :, None]
    dest = table[occ, np.arange(1, n_orb)]
    rows = np.arange(masks.size)[:, None, None]
    allowed = bits[rows, dest] == 0
    # the annihilation passes below(occ) occupied modes; the creation passes
    # below(dest), one fewer if the electron left from under dest
    parity = ((below[rows, occ] + below[rows, dest] - (occ < dest)) & 1) == 1
    new = (masks[:, None, None] ^ (1 << occ)) | (1 << dest)
    return SpinMoves(index.astype(np.min_scalar_type(masks.size)), new, parity, allowed)


def _column_counts(spec: LatticeSpec, basis: MomentumBasis) -> np.ndarray:
    """Entries per column of :func:`_column_kernel`, without forming them.

    For each transfer q, every allowed up move pairs with every allowed down
    move; the diagonal adds one.
    """
    if spec.u / spec.n_orb == 0.0:
        return np.ones(basis.dim, dtype=np.int64)
    up, dn = basis.up_moves, basis.down_moves
    # at most 31 moves per (mask, q) fit a byte; a column's pairs, below
    # 30 * 31**2, are summed in int32 without a widened copy of either side
    up_ok = up.allowed.sum(axis=1, dtype=np.uint8)[up.index]
    dn_ok = dn.allowed.sum(axis=1, dtype=np.uint8)[dn.index]
    return 1 + np.einsum("jq,jq->j", up_ok, dn_ok, dtype=np.int32).astype(np.int64)


def _column_kernel(spec: LatticeSpec, basis: MomentumBasis, lo: int, hi: int) -> Column:
    """Columns ``lo .. hi-1`` of H as ``(rows, vals)``.

    Column ``lo + b`` holds the next :func:`_column_counts` entries of
    ``rows`` and ``vals``, ascending by row.  Off-diagonal entries come from the moves
    ``p -> p - q`` (up) with ``k -> k + q`` (down), ``q != 0``, gathered from
    the basis' per-mask tables for the whole block as one array over
    (column, p, k, q).
    """
    n_orb = spec.n_orb
    diag = basis.diagonal[lo:hi]
    amp = spec.u / n_orb
    if amp == 0.0:
        return np.arange(lo, hi), diag.copy()
    up, dn = basis.up_moves, basis.down_moves
    ui, di = up.index[lo:hi], dn.index[lo:hi]
    up_new, up_par, up_ok = up.new[ui], up.parity[ui], up.allowed[ui]
    dn_new, dn_par, dn_ok = dn.new[di], dn.parity[di], dn.allowed[di]
    ok = up_ok[:, :, None, :] & dn_ok[:, None, :, :]
    counts = ok.sum(axis=(1, 2, 3)) + 1
    keys = np.concatenate([((up_new[:, :, None, :] << n_orb) | dn_new[:, None, :, :])[ok],
                           basis.keys[lo:hi]])
    vals = np.concatenate([
        np.where((up_par[:, :, None, :] ^ dn_par[:, None, :, :])[ok], -amp, amp), diag])
    # the narrowest column type lets the stable sort below run as a radix sort
    cols = np.arange(hi - lo, dtype=np.min_scalar_type(hi - lo))
    col_of = np.concatenate([np.repeat(cols, counts - 1), cols])
    # searching with sorted keys keeps the binary search in cache; a stable
    # sort by column then leaves each column ascending by key, hence by row
    by_key = np.argsort(keys)
    keys = keys[by_key]
    rows = np.searchsorted(basis.keys, keys)
    if not np.array_equal(basis.keys.take(rows, mode="clip"), keys):
        raise KeyError("a Hamiltonian move left the basis: is it a whole momentum sector?")
    by_col = np.argsort(col_of[by_key], kind="stable")
    return rows[by_col], vals[by_key[by_col]]


def hamiltonian_column(spec: LatticeSpec, basis: MomentumBasis, j: int) -> Column:
    """Sparse column ``H[:, j]`` as (row indices ascending, values)."""
    if not 0 <= j < basis.dim:
        raise IndexError(f"state index {j} out of range for dim {basis.dim}")
    return _column_kernel(spec, basis, j, j + 1)


class HubbardOracle(ColumnOracle):
    """Column oracle over the HF momentum sector of a lattice spec.

    Columns are slices of the CSC matrix that :meth:`prepare` assembles; the
    first column or product assembles it, while :meth:`nnz_per_column`
    counts entries without it.  Assembly changes cost only, never
    accounting: every ``column`` call counts.
    """

    def __init__(self, spec: LatticeSpec, max_dim: int = DEFAULT_SECTOR_CAP):
        self.spec = spec
        self.basis = enumerate_sector(spec, max_dim)
        super().__init__(self.basis.dim)
        self._csc: sp.csc_matrix | None = None

    def _column(self, j: int) -> Column:
        if self._csc is None:
            self.prepare()
        lo, hi = self._csc.indptr[j], self._csc.indptr[j + 1]
        return self._csc.indices[lo:hi], self._csc.data[lo:hi]

    def _diagonal(self) -> np.ndarray:
        return self.basis.diagonal

    @property
    def hf_index(self) -> int:
        return self.basis.index_of(hf_determinant(self.spec))

    def prepare(self) -> None:
        """Assemble the sector into CSC sparse form, block by block (uncounted).

        The column counts of :meth:`nnz_per_column` fix ``indptr``; the
        block kernel then writes each block's sorted entries straight into
        the final index and value arrays, so no block outlives its copy.
        """
        if self._csc is not None:
            return
        dim = self.dim
        indptr = np.zeros(dim + 1, dtype=np.int64)
        np.cumsum(self.nnz_per_column(), out=indptr[1:])
        index_dtype = np.int32 if dim < 2**31 else np.int64
        rows = np.empty(indptr[-1], dtype=index_dtype)
        data = np.empty(indptr[-1])
        for lo in range(0, dim, _BLOCK_COLUMNS):
            hi = min(lo + _BLOCK_COLUMNS, dim)
            rows[indptr[lo]:indptr[hi]], data[indptr[lo]:indptr[hi]] = \
                _column_kernel(self.spec, self.basis, lo, hi)
        self._csc = sp.csc_matrix((data, rows, indptr), shape=(dim, dim))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        self.prepare()
        return self._csc @ x

    def nnz_per_column(self) -> np.ndarray:
        """Entries per column: read from the CSC once it exists, otherwise
        counted from the per-mask move tables without forming any entry."""
        if self._csc is not None:
            return np.diff(self._csc.indptr)
        return _column_counts(self.spec, self.basis)


def ground_state_reference(spec: LatticeSpec, oracle: HubbardOracle | None = None,
                           shift: float = 100.0) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and eigenvector of H via the harness eigensolver.

    Runs on ``shift*I - H`` so the ground state becomes the leading
    eigenpair of a positive definite operator; returns
    ``(shift - lambda_max(shift*I - H), v)``.
    """
    from .harness import compute_reference
    from .operators import shift_scale

    if oracle is None:
        oracle = HubbardOracle(spec)
    ref = compute_reference(shift_scale(oracle, -1.0, shift))
    return shift - ref.lambda1, ref.v1


@dataclass(frozen=True)
class SectorInfo:
    dim: int
    sector_momentum: tuple[int, int]
    nnz_min: int
    nnz_median: int
    nnz_max: int
    diag_min: float
    diag_max: float
    hf_index: int


def sector_info(spec: LatticeSpec, max_dim: int = DEFAULT_SECTOR_CAP) -> SectorInfo:
    """Structural summary used by ``eigencd hubbard info``."""
    oracle = HubbardOracle(spec, max_dim=max_dim)
    nnz = oracle.nnz_per_column()
    return SectorInfo(
        dim=oracle.dim,
        sector_momentum=oracle.basis.sector_momentum,
        nnz_min=int(nnz.min()),
        nnz_median=int(np.median(nnz)),
        nnz_max=int(nnz.max()),
        diag_min=float(oracle.diagonal.min()),
        diag_max=float(oracle.diagonal.max()),
        hf_index=oracle.hf_index,
    )
