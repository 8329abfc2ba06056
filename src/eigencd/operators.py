"""Matrix-free symmetric operators with column-access accounting.

Every solver in this package touches the matrix exclusively through single
columns, and the number of column evaluations is the hardware-independent
cost unit the benchmark harness reports.  Setup work (norm surveys,
reference eigenpairs, sparse assembly) runs with counting paused so it never
pollutes a solver budget.  The norm surveys read every column's squared
norm from one uncounted pass, :meth:`ColumnOracle.column_sq_norms`: column
by column by default, in bulk where an oracle holds its columns in bulk.
The diagonal is the one other fact a solver reads; each oracle states it
once, as a vector, and reading it is free.  A column meets a vector in one
way, :meth:`ColumnOracle.add_column`, and each oracle has one uncounted
product, :meth:`ColumnOracle.matvec`.  A full sweep,
:meth:`ColumnOracle.sweep`, adds every column once, in order: an oracle
whose class states :attr:`ColumnOracle.bulk_product` (an assembled Hubbard
sector, and a shift of one) charges its n accesses in one counter move and
returns its product, reading no column; any other reads them one
``column()`` call each.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Column = tuple["np.ndarray | None", np.ndarray]

# Column values are scaled as ``vals * scalar``: the same product as
# ``scalar * vals``, but a Python float on the left takes numpy's slower
# reflected path (about 0.6 us more per column on a 2-CPU x86 VM).


class ColumnOracle(ABC):
    """Symmetric matrix of order ``dim`` exposed one column at a time.

    ``column(j)`` returns ``(rows, values)``; ``rows`` of ``None`` means the
    values cover every row (dense column).  Sparse implementations return
    row indices sorted ascending.  Each ``column`` call increments the
    access counter by exactly one; diagonal reads are free.  A full sweep
    (:meth:`sweep`) charges n: through n ``column`` calls, or, where the
    class sets :attr:`bulk_product`, in one counter move with no ``column``
    call.  A subclass states its diagonal once, in :meth:`_diagonal`, and
    its product once, in :meth:`matvec`.  Returned arrays may be views and
    must not be modified by callers; solvers add columns into vectors
    through :meth:`add_column`, :meth:`add_columns` and :meth:`sweep` only.
    """

    # Whether sweep() is matvec() charged n in one counter move, not n
    # column() calls: a fact of each class, never an option.
    bulk_product = False

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"operator dimension must be positive, got {dim}")
        self._dim = int(dim)
        self._accesses = 0
        self._counting = True

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def access_count(self) -> int:
        """Number of counted column evaluations so far."""
        return self._accesses

    @contextmanager
    def counting_paused(self):
        """Suspend access counting for setup passes (norms, references)."""
        prev = self._counting
        self._counting = False
        try:
            yield self
        finally:
            self._counting = prev

    def column(self, j: int) -> Column:
        if not 0 <= j < self._dim:
            raise IndexError(f"column index {j} out of range for dim {self._dim}")
        if self._counting:
            self._accesses += 1
        return self._column(j)

    def add_column(self, j: int, coeff: float, out: np.ndarray) -> np.ndarray | None:
        """``out += coeff * A[:, j]``, the one way a column is added into a vector.

        Makes exactly one :meth:`column` call, so it charges one access even
        when ``coeff == 0`` (the addition is then skipped).  Returns the rows
        the column covers, or None for a dense column, which covers every row.
        """
        rows, vals = self.column(j)
        if coeff != 0.0:
            if rows is None:
                out += vals * coeff
            else:
                np.add.at(out, rows, vals * coeff)
        return rows

    def add_columns(self, idx, coeffs, out: np.ndarray) -> None:
        """``out += A[:, idx] @ coeffs``: the loop of :meth:`add_column` over
        ``zip(idx, coeffs)``, so each index charges one access, a zero
        coefficient too (its column then adds nothing)."""
        for j, coeff in zip(np.asarray(idx).tolist(),
                            np.asarray(coeffs, dtype=float).tolist(), strict=True):
            self.add_column(j, coeff, out)

    def sweep(self, coeffs: np.ndarray) -> np.ndarray:
        """``A @ coeffs``, every column added once, in order: n accesses.

        Where the class sets :attr:`bulk_product`, it is :meth:`matvec`, its
        n accesses charged in one counter move (none while
        :meth:`counting_paused` is active), and no column is read.
        Otherwise it is :meth:`add_columns` over every index into zeros: one
        :meth:`column` call per column.
        """
        if not self.bulk_product:
            out = np.zeros(self._dim)
            self.add_columns(range(self._dim), coeffs, out)
            return out
        product = self.matvec(coeffs)
        if self._counting:
            self._accesses += self._dim
        return product

    @abstractmethod
    def _column(self, j: int) -> Column:
        """Raw column evaluation, no accounting."""

    @abstractmethod
    def _diagonal(self) -> np.ndarray:
        """The vector of diagonal entries ``A[j, j]``, no accounting."""

    @cached_property
    def diagonal(self) -> np.ndarray:
        """``A[j, j]`` for every j, computed once; never counted."""
        return self._diagonal()

    def diagonal_positions(self) -> np.ndarray:
        """Where each column stores ``A[j, j]``, uncounted: j for a dense
        column, its place among a sparse column's rows, -1 when it stores
        none.  Searches one column at a time; an oracle that holds its
        columns in bulk can answer in one pass."""
        out = np.empty(self._dim, dtype=np.int64)
        for j in range(self._dim):
            rows, _ = self._column(j)
            at = j
            if rows is not None:
                at = int(np.searchsorted(rows, j))
                at = at if at < rows.size and rows[at] == j else -1
            out[j] = at
        return out

    def column_sq_norms(self, diagonal: bool = True) -> np.ndarray:
        """``sum_i A[i, j]**2`` for every j, uncounted; with ``diagonal``
        False the sum leaves out ``A[j, j]``.  Reads one column at a time
        through :meth:`column` with counting paused, each sum one dot product
        of the column with itself (the diagonal entry, found by
        :meth:`diagonal_positions`, zeroed in a copy when left out); an
        oracle that holds its columns in bulk can answer in one pass."""
        at = None if diagonal else self.diagonal_positions().tolist()
        out = np.empty(self._dim)
        with self.counting_paused():
            for j in range(self._dim):
                _, vals = self.column(j)
                if at is not None and at[j] >= 0:
                    vals = vals.copy()
                    vals[at[j]] = 0.0
                out[j] = vals @ vals
        return out

    def prepare(self) -> None:
        """Optional expensive setup (e.g. sparse assembly); uncounted."""

    @abstractmethod
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Uncounted ``A @ x``, the oracle's one product.

        Setup and reference work call it directly; a solver reaches it only
        through :meth:`sweep`, which charges n where :attr:`bulk_product`
        holds, and otherwise pays per column.
        """


class DenseSymmetric(ColumnOracle):
    """In-memory dense symmetric matrix; mirrored on construction."""

    # ``a @ u`` would do as a sweep, but perfbench counts every column() call
    # as charged or free, so a dense power step must stay column() calls
    # until the oracle counts its free evaluations itself (ROADMAP item 1(a)).
    bulk_product = False

    def __init__(self, entries: np.ndarray):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        super().__init__(a.shape[0])
        # halved before the add, so entries near the float limit do not overflow
        self._a = 0.5 * a + 0.5 * a.T

    @property
    def array(self) -> np.ndarray:
        return self._a

    def _column(self, j: int) -> Column:
        # symmetric: row j is column j, and rows are contiguous in C order
        return None, self._a[j]

    def _diagonal(self) -> np.ndarray:
        return self._a.diagonal()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._a @ x


@dataclass(frozen=True)
class SpectrumSpec:
    """Target spectrum for a randomly rotated synthetic test matrix.

    ``eigenvalues`` must be non-increasing with a positive, simple leading
    value; a non-negative ``seed`` fixes the random eigenbasis.
    """

    eigenvalues: np.ndarray
    seed: int = 0

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", lam)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a non-empty 1-d sequence")
        bad = np.flatnonzero(~np.isfinite(lam))
        if bad.size:
            raise ValueError(f"eigenvalues must be finite, got {lam[bad[0]]} "
                             f"as eigenvalue {bad[0] + 1}")
        if lam[0] <= 0:
            raise ValueError(f"leading eigenvalue must be positive, got {lam[0]}")
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted non-increasing")
        if lam.size > 1 and lam[0] <= lam[1]:
            raise ValueError(f"leading eigenvalue must be simple: {lam[0]} <= {lam[1]}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @classmethod
    def gapped_grid(cls, n: int, lam1: float, low: float = 1.0,
                    high: float = 100.0, seed: int = 0) -> "SpectrumSpec":
        """Leading value ``lam1`` over a descending equispaced tail.

        The tail places ``n - 1`` values on ``[low, high)`` with spacing
        ``(high - low) / (n - 1)``, so the second eigenvalue stays strictly
        below ``high``.
        """
        if n < 2:
            raise ValueError("gapped_grid needs n >= 2")
        if not np.isfinite([lam1, low, high]).all():
            raise ValueError(f"gapped_grid needs finite values, got lam1={lam1}, "
                             f"low={low}, high={high}")
        tail = high - (high - low) * np.arange(1, n) / (n - 1)
        return cls(eigenvalues=np.concatenate(([lam1], tail)), seed=seed)


def build_synthetic(spec: SpectrumSpec) -> DenseSymmetric:
    """Rotate ``diag(eigenvalues)`` by the Q factor of a seeded Gaussian QR."""
    rng = np.random.default_rng(spec.seed)
    n = spec.dim
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * spec.eigenvalues) @ q.T
    return DenseSymmetric(a)


class ShiftScaled(ColumnOracle):
    """Lazy ``a * M + b * I`` over a wrapped oracle.

    :meth:`prepare` reads where every base column stores its diagonal entry
    (:meth:`ColumnOracle.diagonal_positions`) once, so a column read writes
    the shifted entry without a search; the first column read prepares if
    nothing did.  The entry written is this oracle's own ``diagonal[j]``,
    ``fl(fl(a A_jj) + b)``: the two roundings of adding b to the scaled
    stored entry, since a base's diagonal is its stored entry.
    """

    def __init__(self, base: ColumnOracle, a: float, b: float):
        super().__init__(base.dim)
        self._base = base
        self._a = float(a)
        self._b = float(b)
        self._diag_pos: np.ndarray | None = None

    @property
    def base(self) -> ColumnOracle:
        return self._base

    @property
    def scale(self) -> float:
        """``a``, the factor on the base."""
        return self._a

    @property
    def shift(self) -> float:
        """``b``, the multiple of the identity added."""
        return self._b

    @property
    def bulk_product(self) -> bool:
        """The base's: ``a * base.matvec(u) + b * u`` is a bulk product
        exactly where the base's is."""
        return self._base.bulk_product

    def _column(self, j: int) -> Column:
        if self._diag_pos is None:
            self.prepare()
        rows, vals = self._base._column(j)
        out = vals * self._a
        pos = self._diag_pos.item(j)
        if pos >= 0:
            out[pos] = self.diagonal.item(j)
            return rows, out
        at = np.searchsorted(rows, j)
        return np.insert(rows, at, j), np.insert(out, at, self._b)

    def _diagonal(self) -> np.ndarray:
        return self._a * self._base.diagonal + self._b

    def column_sq_norms(self, diagonal: bool = True) -> np.ndarray:
        """``a**2`` times the base's sums without their diagonal entry, plus
        this oracle's ``diagonal**2`` when ``diagonal``: the shift moves only
        the diagonal, so no square is subtracted from another."""
        out = self._a * self._a * self._base.column_sq_norms(diagonal=False)
        if diagonal:
            out += self.diagonal * self.diagonal
        return out

    def prepare(self) -> None:
        self._base.prepare()
        if self._diag_pos is None:
            self._diag_pos = self._base.diagonal_positions()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._a * self._base.matvec(x) + self._b * x


def shift_scale(oracle: ColumnOracle, a: float, b: float) -> ShiftScaled:
    """Represent ``a * M + b * I`` without touching stored entries."""
    return ShiftScaled(oracle, a, b)


def column_norm_max(oracle: ColumnOracle) -> float:
    """``max_j ||A[:, j]||_2`` from one :meth:`ColumnOracle.column_sq_norms` pass."""
    return float(np.sqrt(oracle.column_sq_norms().max()))


def frobenius_norm_sq(oracle: ColumnOracle) -> float:
    """``sum_ij A[i, j]**2`` from one :meth:`ColumnOracle.column_sq_norms`
    pass, the columns' sums added in column order."""
    return sum(oracle.column_sq_norms().tolist())


def column_abs_sum_max(oracle: ColumnOracle) -> float:
    """``max_j sum_i |A[i, j]|``; upper bound on the spectral radius."""
    with oracle.counting_paused():
        return max(float(np.abs(oracle.column(j)[1]).sum()) for j in range(oracle.dim))


def max_abs_diag(oracle: ColumnOracle) -> float:
    return float(np.max(np.abs(oracle.diagonal)))


def save_dense(path, oracle_or_array) -> None:
    """Write the whitespace text format: first line n, then n rows."""
    a = oracle_or_array.array if isinstance(oracle_or_array, DenseSymmetric) \
        else np.asarray(oracle_or_array, dtype=float)
    with open(path, "w") as fh:
        fh.write(f"{a.shape[0]}\n")
        for row in a:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def parse_number(text: str, kind: type, where: str):
    """``kind(text)`` for ``kind`` int or float, refused with a message
    naming ``where`` and the text."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where} must be {noun}, got {text!r}") from None


def parse_floats(tokens: list[str], where: str) -> np.ndarray:
    """``tokens`` as floats; the first non-number is refused as by
    :func:`parse_number`."""
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        for text in tokens:
            parse_number(text, float, where)
        raise


def load_dense(path) -> DenseSymmetric:
    """Read the text format written by :func:`save_dense`."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    n = parse_number(tokens[0], int, f"{path}: size")
    if n < 1:
        raise ValueError(f"{path}: size must be at least 1, got {n}")
    body = parse_floats(tokens[1:], f"{path}: entry")
    if body.size != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, found {body.size}")
    a = body.reshape(n, n)
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: non-finite entry {a[i, j]} at row {i + 1}, "
                         f"column {j + 1}")
    scale = np.abs(a).max() or 1.0
    if np.abs(a - a.T).max() > 1e-8 * scale:
        raise ValueError(f"{path}: matrix is not symmetric")
    return DenseSymmetric(a)
