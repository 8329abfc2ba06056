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

Set-up takes three steps.  First the sector is counted: each spin's masks
are tallied by total momentum, orbital by orbital, so its dimension is
checked against the cap before any mask is listed.  Then it is laid out:
each spin's masks are listed once, ascending, and each up mask is followed
by the down masks of the complementary momentum, ascending, which is the
order (up, down).  Last, one assembly pass writes the CSC arrays.

An electron's move depends only on its own spin's mask, so the moves are
tabulated once per distinct up mask and once per distinct down mask of the
basis (560 of each at 4x4 3+3, against 19,600 columns): the new mask, the
Jordan-Wigner parity and whether the destination is empty, for every
(occupied orbital, transfer).  The entries per column are then one product
of the two spins' allowed-move counts, summed over the transfer.

Rows are found by arithmetic, not by search, as in the string addressing of
determinant FCI (Knowles & Handy, Chem. Phys. Lett. 1984).  Laid out so,
the sector is a union of whole products: every up mask of one momentum
pairs with every down mask of the complementary momentum.  So
determinant (u, d) is row ``start[u] + rank[d]``, and
:attr:`MomentumBasis.addressing` turns each tabulated move's new mask into
its part of that sum once per distinct mask, after checking that structure.
One kernel, :func:`_column_kernel`, builds a block of columns at once: it
gathers each column's rows of the move tables, pairs them into one array
over (column, occupied up orbital, occupied down orbital, transfer), adds
the two parts of each target's row, and sorts the block by (column, row).
:meth:`HubbardOracle.prepare` runs the kernel block by block into the CSC
arrays; :func:`hamiltonian_column` runs it on one column, independently of
any assembled matrix.  Products (the uncounted set-up product, and a full
sweep's, charged n accesses at once) run through the CSR view of the same
arrays, split once into two halves of rows with about equal entries, the
second half on a helper thread.  The diagonal positions a shift wrapper
needs and the squared column norms of the norm surveys are read from each
block as the assembly pass writes it.

Fermion convention: modes are ordered as all up orbitals (ascending index)
followed by all down orbitals (ascending index).  A creation/annihilation
at mode position m picks up (-1)**(number of occupied modes strictly before
m at the moment of application).  Because the interaction moves exactly one
electron per spin channel, up- and down-parities factorize.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .operators import Column, ColumnOracle

DEFAULT_SECTOR_CAP = 5_000_000
MAX_ORBITALS = 31  # two masks of this many bits pack into one int64 key
_EPS_QUANTUM = 1e-9
# Columns per kernel call in prepare(): large enough to amortise numpy call
# overhead, small enough that a block's scratch arrays stay near 1 MB.
# prepare()'s kernel loop on 4x4 3+3 / 4+3, minimum of 3, 2-CPU x86 VM, by
# block: 128 columns 43 / 176 ms, 256 38 / 158, 512 37 / 199, 1024 52 / 155.
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

    @cached_property
    def _coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Each orbital's lattice coordinates ``(r1, r2)``, orbital ``r1 + l1 * r2``."""
        r2, r1 = np.divmod(np.arange(self.n_orb), self.l1)
        return r1, r2

    @cached_property
    def _wave_numbers(self) -> tuple[np.ndarray, np.ndarray]:
        """Each orbital's ``k = 2*pi*r/L``, component-wise, in ``[0, 2*pi)``."""
        r1, r2 = self._coordinates
        return 2 * np.pi * r1 / self.l1, 2 * np.pi * r2 / self.l2

    @cached_property
    def dispersions(self) -> np.ndarray:
        k1, k2 = self._wave_numbers
        return -2.0 * (np.cos(k1) + np.cos(k2))

    @cached_property
    def _transfer_tables(self) -> tuple[np.ndarray, np.ndarray]:
        # sub[p, q] = p - q and add[p, q] = p + q, component-wise mod lattice
        r1, r2 = self._coordinates
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
        k1, k2 = self._wave_numbers
        quantized = [np.rint(key / _EPS_QUANTUM) for key in (k1 * k1 + k2 * k2, self.dispersions)]
        return np.lexsort(quantized).tolist()

    def momentum_of(self, mask: int) -> tuple[int, int]:
        return tuple(int(m[0]) for m in _momenta(self, np.array([mask])))


def hf_determinant(spec: LatticeSpec) -> Determinant:
    """Lowest-dispersion filling per spin, deterministic under degeneracy."""
    return Determinant(*(sum(1 << p for p in spec.fill_order[:count])
                         for count in (spec.n_up, spec.n_down)))


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

    @cached_property
    def addressing(self) -> tuple[np.ndarray, np.ndarray]:
        """The row of every move's target, in two parts shaped like ``SpinMoves.target``.

        A whole momentum sector sorted by (up, down) pairs each up mask u with
        every down mask of the complementary momentum, so determinant (u, d)
        is row ``start[u] + rank[d]``: ``start[u]`` is u's first row and
        ``rank[d]`` is d's place among the down masks of its momentum.  The
        up part of a move is ``start`` of its target and the down part
        ``rank`` of its target (0 where the move is not allowed or its new
        mask is not in the basis), so a paired move's row is one add.  Raises ``KeyError`` unless the basis is such
        a union of whole products and every move that pairs with a move of
        the other spin lands on masks of the basis.
        """
        spec, up, dn = self.spec, self.up_moves, self.down_moves
        start = np.searchsorted(up.index, np.arange(up.masks.size))
        rank = np.empty(dn.masks.size, dtype=np.intp)
        rank[dn.index] = np.arange(self.dim) - start[up.index]
        partner, code = _pairing(spec, self.sector_momentum, up.masks, dn.masks)
        whole = (np.array_equal(code[dn.index], partner[up.index])
                 and np.array_equal(np.bincount(up.index),
                                    np.bincount(code, minlength=spec.n_orb)[partner]))
        parts, stray = [], []
        for moves, part in ((up, start), (dn, rank)):
            found = moves.target >= 0
            parts.append(np.where(moves.allowed & found, part[moves.target], 0).astype(np.int32))
            stray.append((moves.allowed & ~found).any(axis=1))
        # momentum is conserved, so in such a union a paired move whose two
        # target masks are in the basis lands on a determinant of the basis
        paired = up.allowed.any(axis=1)[up.index] & dn.allowed.any(axis=1)[dn.index]
        if not whole or np.any(paired & (stray[0][up.index] | stray[1][dn.index])):
            raise KeyError("a Hamiltonian move left the basis: is it a whole momentum sector?")
        return parts[0], parts[1]


def _momenta(spec: LatticeSpec, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each mask's momentum ``(m1, m2)``: the sum of its occupied orbitals' coordinates."""
    r1, r2 = spec._coordinates
    bits = (masks[:, None] >> np.arange(spec.n_orb)) & 1
    return bits @ r1 % spec.l1, bits @ r2 % spec.l2


def _pairing(spec: LatticeSpec, momentum: tuple[int, int], up: np.ndarray,
             down: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The momentum code ``m1 + l1 * m2`` each up mask's partners need to
    make up ``momentum``, and each down mask's own code."""
    (u1, u2), (d1, d2) = _momenta(spec, up), _momenta(spec, down)
    t1, t2 = momentum
    return (t1 - u1) % spec.l1 + spec.l1 * ((t2 - u2) % spec.l2), d1 + spec.l1 * d2


def _momentum_tally(spec: LatticeSpec, count: int) -> np.ndarray:
    """``tally[k, m1, m2]``, the number of masks of k electrons with momentum
    (m1, m2), for k up to ``count``; counted orbital by orbital, each one
    either left empty or adding its coordinates to the momentum."""
    tally = np.zeros((count + 1, spec.l1, spec.l2), dtype=np.int64)
    tally[0, 0, 0] = 1
    for shift in zip(*spec._coordinates):
        tally[1:] += np.roll(tally[:-1], shift, axis=(1, 2))
    return tally


def _spin_masks(spec: LatticeSpec, count: int) -> np.ndarray:
    """Every mask of ``count`` electrons, ascending."""
    return np.sort(np.fromiter((sum(1 << p for p in combo) for combo in
                                itertools.combinations(range(spec.n_orb), count)), np.int64))


def enumerate_sector(spec: LatticeSpec, max_dim: int = DEFAULT_SECTOR_CAP) -> MomentumBasis:
    """The total-momentum block of the HF determinant, counted before it is listed.

    The dimension, ``sum_m N_up(m) N_down(target - m)`` over each spin's
    tally of masks by momentum, is checked against ``max_dim`` first.  Then
    each up mask, ascending, is followed by the down masks of its partner
    momentum, ascending: the sector sorted by (up, down).
    """
    l1, l2 = spec.l1, spec.l2
    m1, m2 = _momenta(spec, np.array(hf_determinant(spec)))
    t1, t2 = int(m1.sum()) % l1, int(m2.sum()) % l2
    tally = _momentum_tally(spec, max(spec.n_up, spec.n_down))
    complement = np.ix_((t1 - np.arange(l1)) % l1, (t2 - np.arange(l2)) % l2)
    dim = int(np.sum(tally[spec.n_up] * tally[spec.n_down][complement]))
    if dim > max_dim:
        raise SectorTooLarge(
            f"sector dimension {dim} exceeds cap {max_dim}; raise max_dim to proceed")
    up = _spin_masks(spec, spec.n_up)
    down = up if spec.n_down == spec.n_up else _spin_masks(spec, spec.n_down)
    partner, code = _pairing(spec, (t1, t2), up, down)
    # in the down masks grouped by code, each group ascending, up mask i's
    # rows read its partner code's group: row r takes place r + skip[i]
    by_code = np.argsort(code, kind="stable")
    sizes = np.bincount(code, minlength=spec.n_orb)
    reps = sizes[partner]
    skip = (np.cumsum(sizes) - sizes)[partner] - (np.cumsum(reps) - reps)
    down_at = by_code[np.repeat(skip, reps) + np.arange(dim)]
    return MomentumBasis(spec, (t1, t2), np.repeat(up, reps), down[down_at])


class SpinMoves(NamedTuple):
    """One spin's moves, tabulated per distinct mask of a basis.

    ``masks`` are the distinct masks, ascending, and ``index[j]`` is the
    table row of column ``j``'s mask; ``target``, ``parity`` and ``allowed``
    are shaped (distinct masks, occupied orbitals, transfer
    ``q = 1 .. n_orb-1``).  ``target`` is the table row of the move's new
    mask, -1 where that mask is not one of ``masks``.
    """

    masks: np.ndarray
    index: np.ndarray
    target: np.ndarray
    parity: np.ndarray
    allowed: np.ndarray


def _spin_moves(masks: np.ndarray, table: np.ndarray) -> SpinMoves:
    """Every move of one electron from occupied ``o`` to ``table[o, q]``,
    ``q != 0``, for each distinct mask of ``masks``: the new mask's table
    row, the Jordan-Wigner parity of the move (odd is True) and whether the
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
    target = np.searchsorted(masks, new).clip(max=masks.size - 1).astype(np.int32)
    target[masks[target] != new] = -1
    return SpinMoves(masks, index.astype(np.min_scalar_type(masks.size)), target, parity, allowed)


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
    (column, p, k, q); each target's row is the sum of its two spins' parts
    in :attr:`MomentumBasis.addressing`.
    """
    diag = basis.diagonal[lo:hi]
    amp = spec.u / spec.n_orb
    if amp == 0.0:
        return np.arange(lo, hi), diag.copy()
    up, dn = basis.up_moves, basis.down_moves
    up_row, dn_row = basis.addressing
    ui, di = up.index[lo:hi], dn.index[lo:hi]
    ok = up.allowed[ui][:, :, None, :] & dn.allowed[di][:, None, :, :]
    counts = ok.sum(axis=(1, 2, 3)) + 1
    # Each spin's part enters as 4 * part + parity, so one add gives
    # 4 * row + (odd parities), whose low bit is the sign; the diagonal is
    # tagged 3, which no two parities sum to.  A column holds each row once,
    # so sorting (column, that sum) is the one order that groups the block
    # by column, ascending by row.
    span = 4 * basis.dim
    dtype = np.int32 if span * (hi - lo) < 2**31 else np.int64
    up_key = 4 * up_row[ui].astype(dtype) + up.parity[ui]
    dn_key = 4 * dn_row[di].astype(dtype) + dn.parity[di]
    cols = np.arange(hi - lo, dtype=dtype) * span
    key = np.concatenate([
        np.compress(ok.ravel(), up_key[:, :, None, :] + dn_key[:, None, :, :])
        + np.repeat(cols, counts - 1),
        cols + 4 * np.arange(lo, hi, dtype=dtype) + 3])
    key.sort()
    key -= np.repeat(cols, counts)
    vals = np.array([amp, -amp]).take(key & 1)
    vals[(key & 3) == 3] = diag
    return key >> 2, vals


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
    accounting: every ``column`` call counts, and a full sweep counts n.
    A sweep is :meth:`matvec` (:attr:`bulk_product`), which runs two halves
    of the CSR view, the second on a helper thread, and the uncounted
    surveys (:meth:`diagonal_positions`, :meth:`column_sq_norms`) return
    what the assembly recorded, with no ``column`` call.
    """

    bulk_product = True

    def __init__(self, spec: LatticeSpec, max_dim: int = DEFAULT_SECTOR_CAP):
        self.spec = spec
        self.basis = enumerate_sector(spec, max_dim)
        super().__init__(self.basis.dim)
        self._csc: sp.csc_matrix | None = None
        self._indptr: list[int] | None = None
        self._halves: tuple[sp.csr_matrix, sp.csr_matrix] | None = None
        self._diag_pos: np.ndarray | None = None
        # each column's sum of squares without, then with, its diagonal entry
        self._sq_norms: tuple[np.ndarray, np.ndarray] | None = None

    def _column(self, j: int) -> Column:
        if self._indptr is None:
            self.prepare()
        lo, hi = self._indptr[j], self._indptr[j + 1]
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
        Each block's diagonal positions and sums of squares, with and
        without the diagonal entry, are read from the kernel's block before
        it goes; every column stores its diagonal entry, so each column has
        one position and no column's run is empty.
        """
        if self._csc is not None:
            return
        dim = self.dim
        indptr = np.zeros(dim + 1, dtype=np.int64)
        np.cumsum(self.nnz_per_column(), out=indptr[1:])
        index_dtype = np.int32 if dim < 2**31 else np.int64
        rows = np.empty(indptr[-1], dtype=index_dtype)
        data = np.empty(indptr[-1])
        diag_pos = np.empty(dim, dtype=np.int64)
        sq_norms = np.empty(dim), np.empty(dim)
        for lo in range(0, dim, _BLOCK_COLUMNS):
            hi = min(lo + _BLOCK_COLUMNS, dim)
            block_rows, block_vals = _column_kernel(self.spec, self.basis, lo, hi)
            rows[indptr[lo]:indptr[hi]], data[indptr[lo]:indptr[hi]] = block_rows, block_vals
            starts = indptr[lo:hi] - indptr[lo]
            cols = np.repeat(np.arange(lo, hi, dtype=block_rows.dtype), np.diff(indptr[lo:hi + 1]))
            on_diagonal = block_rows == cols
            diag_pos[lo:hi] = np.flatnonzero(on_diagonal) - starts
            sq = np.square(block_vals)
            sq_norms[1][lo:hi] = np.add.reduceat(sq, starts)
            sq[on_diagonal] = 0.0
            sq_norms[0][lo:hi] = np.add.reduceat(sq, starts)
        for recorded in (diag_pos, *sq_norms):
            recorded.flags.writeable = False
        self._diag_pos, self._sq_norms = diag_pos, sq_norms
        self._csc = sp.csc_matrix((data, rows, indptr), shape=(dim, dim))
        self._indptr = self._csc.indptr.tolist()  # Python ints slice faster
        self._halves = _row_halves(self._csc)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Uncounted ``H @ x`` through the CSR view of the CSC arrays, in the
        two row halves :meth:`prepare` made; the second half runs on a
        helper thread.

        H is exactly symmetric, so row i of the view is column i: each row
        sums its terms in the column order of ``_csc @ x``, bit for bit, but
        the product gathers from x where the CSC one scatters into the result.
        scipy's product releases the GIL, so on two CPUs the halves overlap;
        on one they run one after the other.  A full sweep returns this
        product in place of its n ``column`` calls, bit for bit their sum.
        """
        self.prepare()
        top, bottom = self._halves
        lower = _helper().submit(bottom.dot, x)
        return np.concatenate((top @ x, lower.result()))

    def diagonal_positions(self) -> np.ndarray:
        """Each column's diagonal position, as :meth:`prepare` recorded it."""
        self.prepare()
        return self._diag_pos

    def column_sq_norms(self, diagonal: bool = True) -> np.ndarray:
        """Each column's sum of squares, with or without its diagonal entry,
        as :meth:`prepare` recorded it."""
        self.prepare()
        return self._sq_norms[bool(diagonal)]

    def nnz_per_column(self) -> np.ndarray:
        """Entries per column, counted from the per-mask move tables without
        forming any entry."""
        return _column_counts(self.spec, self.basis)


def _row_halves(csc: sp.csc_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The CSR view of ``csc`` (its transpose) as its first rows up to half
    the entries and the rest, both on views of the CSC's index and value
    arrays."""
    indptr, indices, data = csc.indptr, csc.indices, csc.data
    n = csc.shape[0]
    m = int(np.searchsorted(indptr, indptr[-1] // 2))
    halves = []
    for lo, hi in ((0, m), (m, n)):
        half = sp.csr_matrix((hi - lo, n), dtype=data.dtype)
        # the arrays go in after construction: the constructor copies a
        # view that holds less than half of its array
        entries = slice(indptr[lo], indptr[hi])
        half.indptr, half.indices, half.data = \
            indptr[lo:hi + 1] - indptr[lo], indices[entries], data[entries]
        halves.append(half)
    return tuple(halves)


@cache
def _helper() -> ThreadPoolExecutor:
    """The one thread that runs a product's second half, started on first use."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="eigencd-matvec")


# a forked child inherits the cached executor but not its thread
os.register_at_fork(after_in_child=_helper.cache_clear)
