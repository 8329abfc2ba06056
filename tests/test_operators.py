import numpy as np
import pytest

from eigencd import operators
from eigencd.hubbard import HubbardOracle, LatticeSpec
from eigencd.operators import (DenseSymmetric, SpectrumSpec, build_synthetic,
                               column_abs_sum_max, column_norm_max,
                               frobenius_norm_sq, load_dense, max_abs_diag,
                               save_dense, shift_scale)


class NonzerosOnly(DenseSymmetric):
    """Dense storage served as sparse columns of the nonzero entries only."""

    def _column(self, j):
        rows = np.flatnonzero(self.array[:, j])
        return rows, self.array[rows, j]


class MixedColumns(NonzerosOnly):
    """Even columns served dense, odd ones as their nonzero entries."""

    def _column(self, j):
        return (None, self.array[j]) if j % 2 == 0 else super()._column(j)


def dense_from_columns(oracle):
    n = oracle.dim
    a = np.zeros((n, n))
    for j in range(n):
        rows, vals = oracle.column(j)
        if rows is None:
            a[:, j] = vals
        else:
            a[rows, j] = vals
    return a


class TestSpectrumSpec:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SpectrumSpec(eigenvalues=np.array([]))

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError):
            SpectrumSpec(eigenvalues=np.array([-1.0, -2.0]))

    def test_rejects_degenerate_leading(self):
        with pytest.raises(ValueError):
            SpectrumSpec(eigenvalues=np.array([2.0, 2.0, 1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match=f"eigenvalues must be finite, got {value} "
                                             "as eigenvalue 2"):
            SpectrumSpec(eigenvalues=np.array([3.0, value, 1.0]))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SpectrumSpec(eigenvalues=np.array([3.0, 1.0, 2.0]))

    def test_gapped_grid_shape(self):
        spec = SpectrumSpec.gapped_grid(500, 108.0)
        lam = spec.eigenvalues
        assert lam[0] == 108.0
        assert lam[1] == pytest.approx(100.0 - 99.0 / 499.0)
        assert lam[1] < 100.0
        assert lam[-1] == pytest.approx(1.0)
        steps = np.diff(lam[1:])
        assert np.allclose(steps, steps[0])


class TestBuildSynthetic:
    def test_trace_and_frobenius_two_by_two(self):
        a = build_synthetic(SpectrumSpec(eigenvalues=np.array([2.0, 1.0]), seed=9))
        assert np.trace(a.array) == pytest.approx(3.0, abs=1e-12)
        assert frobenius_norm_sq(a) == pytest.approx(5.0, abs=1e-10)

    def test_one_by_one(self):
        a = build_synthetic(SpectrumSpec(eigenvalues=np.array([1.0])))
        assert a.array.shape == (1, 1)
        assert a.array[0, 0] == pytest.approx(1.0)

    def test_exactly_symmetric(self):
        a = build_synthetic(SpectrumSpec.gapped_grid(60, 11.0, 0.5, 5.0, seed=1))
        assert np.abs(a.array - a.array.T).max() == 0.0

    @pytest.mark.parametrize("n,seed", [(50, 0), (200, 3)])
    def test_eigenvalues_recovered(self, n, seed):
        spec = SpectrumSpec.gapped_grid(n, 108.0, seed=seed)
        a = build_synthetic(spec)
        vals = np.linalg.eigvalsh(a.array)[::-1]
        assert np.abs(vals - spec.eigenvalues).max() < 1e-8


class TestShiftScale:
    def test_identity_scaled(self):
        eye = DenseSymmetric(np.eye(3))
        wrapped = shift_scale(eye, 2.0, 1.0)
        rows, vals = wrapped.column(0)
        assert rows is None
        assert vals[0] == pytest.approx(3.0)
        assert vals[1] == vals[2] == 0.0
        assert wrapped.diag(0) == pytest.approx(3.0)

    def test_column_identity(self, small_synthetic):
        a, b = -1.5, 4.0
        wrapped = shift_scale(small_synthetic, a, b)
        for j in (0, 7, 29):
            base_col = small_synthetic.column(j)[1]
            expect = a * base_col.copy()
            expect[j] += b
            got = wrapped.column(j)[1]
            assert np.abs(got - expect).max() == 0.0

    def test_sparse_column_insert(self):
        # a matrix with a structurally zero diagonal entry in sparse form
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 2.0
        oracle = NonzerosOnly(m)
        rows, vals = shift_scale(oracle, 1.0, 5.0).column(1)
        assert rows.tolist() == [0, 1]
        assert vals.tolist() == [2.0, 5.0]

    def test_matvec_consistent(self, small_synthetic):
        wrapped = shift_scale(small_synthetic, 2.0, -3.0)
        x = np.arange(30, dtype=float)
        expect = 2.0 * small_synthetic.array @ x - 3.0 * x
        assert np.allclose(wrapped.matvec(x), expect, atol=1e-12)


def _sparse_without_diagonal():
    m = build_synthetic(SpectrumSpec.gapped_grid(12, 6.0, 0.5, 4.0, seed=8)).array
    m[np.abs(m) < 0.05] = 0.0  # sparsify, keeping the matrix symmetric
    m[[2, 5, 9], [2, 5, 9]] = 0.0
    return NonzerosOnly(m)


CONTRACT_ORACLES = {
    "dense": lambda: build_synthetic(SpectrumSpec.gapped_grid(12, 6.0, 0.5, 4.0, seed=7)),
    "shift-dense": lambda: shift_scale(
        build_synthetic(SpectrumSpec.gapped_grid(12, 6.0, 0.5, 4.0, seed=7)), -1.5, 4.0),
    "shift-sparse-no-diag": lambda: shift_scale(_sparse_without_diagonal(), 2.0, 3.0),
    "hubbard": lambda: HubbardOracle(LatticeSpec(l1=3, l2=2, n_up=2, n_down=1)),
    # the benchmark's operator shape, 100 I - H: the shifted diagonal write
    "shift-hubbard": lambda: shift_scale(
        HubbardOracle(LatticeSpec(l1=3, l2=2, n_up=2, n_down=1)), -1.0, 100.0),
    "mixed": lambda: MixedColumns(_sparse_without_diagonal().array + np.eye(12)),
}


POSITION_BASES = {
    "dense": CONTRACT_ORACLES["dense"],
    "sparse-no-diag": _sparse_without_diagonal,
    "hubbard-3x2": CONTRACT_ORACLES["hubbard"],
    "hubbard-2x2": lambda: HubbardOracle(LatticeSpec(l1=2, l2=2, n_up=2, n_down=2)),
    # dim 336: the bulk pass reads it in two blocks of columns
    "hubbard-3x3": lambda: HubbardOracle(LatticeSpec(l1=3, l2=3, n_up=2, n_down=3, t_hop=0.5)),
    "hubbard-3x3-free": lambda: HubbardOracle(LatticeSpec(l1=3, l2=3, n_up=2, n_down=3, u=0.0)),
}


@pytest.fixture(params=sorted(CONTRACT_ORACLES))
def contract_oracle(request):
    return CONTRACT_ORACLES[request.param]()


class TestAddColumnContract:
    def test_diag_is_the_stored_diagonal_entry(self, contract_oracle):
        with contract_oracle.counting_paused():
            for j in range(contract_oracle.dim):
                rows, vals = contract_oracle.column(j)
                if rows is None:
                    stored = vals[j]
                else:
                    (pos,) = np.flatnonzero(rows == j)
                    stored = vals[pos]
                assert contract_oracle.diag(j) == stored
                assert contract_oracle.diagonal[j] == stored

    def test_no_diagonal_entry_takes_the_insert_path(self):
        base = _sparse_without_diagonal()
        assert 5 not in base.column(5)[0]
        rows, vals = shift_scale(base, 2.0, 3.0).column(5)
        assert vals[np.flatnonzero(rows == 5)].tolist() == [3.0]

    @pytest.mark.parametrize("name", sorted(POSITION_BASES))
    def test_diagonal_positions_are_the_column_search(self, name):
        base = POSITION_BASES[name]()
        want = []
        for j in range(base.dim):
            rows, _ = base._column(j)
            at = np.flatnonzero(rows == j) if rows is not None else [j]
            want.append(int(at[0]) if len(at) else -1)
        assert base.diagonal_positions().tolist() == want
        if name == "sparse-no-diag":
            assert [j for j in range(base.dim) if want[j] < 0] == [2, 5, 9]
        oracle = shift_scale(base, 2.0, 3.0)
        oracle.prepare()
        base.reset_access_count()
        for j in range(base.dim):
            # the search and insert the positions replace, written out
            rows, vals = base._column(j)
            want_rows, expect = rows, 2.0 * vals
            if rows is None:
                expect[j] += 3.0
            elif want[j] >= 0:
                expect[np.searchsorted(rows, j)] += 3.0
            else:
                pos = np.searchsorted(rows, j)
                want_rows, expect = np.insert(rows, pos, j), np.insert(expect, pos, 3.0)
            got_rows, got = oracle.column(j)
            assert (got_rows is None) == (want_rows is None)
            if got_rows is not None:
                assert got_rows.tolist() == want_rows.tolist()
            assert got.tobytes() == expect.tobytes()
        assert oracle.access_count == base.dim and base.access_count == 0

    def test_returns_the_rows_it_touched(self, contract_oracle):
        out = np.zeros(contract_oracle.dim)
        for j in range(contract_oracle.dim):
            with contract_oracle.counting_paused():
                rows, _ = contract_oracle.column(j)
            touched = contract_oracle.add_column(j, 0.5, out)
            assert (touched is None) == (rows is None)
            if rows is not None:
                assert touched.tolist() == rows.tolist()

    @pytest.mark.parametrize("coeff", [0.0, 1.0, -0.75])
    def test_charges_one_access_per_call(self, contract_oracle, coeff):
        out = np.zeros(contract_oracle.dim)
        before = contract_oracle.access_count
        for j in range(contract_oracle.dim):
            contract_oracle.add_column(j, coeff, out)
        assert contract_oracle.access_count - before == contract_oracle.dim
        if coeff == 0.0:
            assert not out.any()

    def test_matches_dense_algebra(self, contract_oracle):
        n = contract_oracle.dim
        dense = np.column_stack([contract_oracle.matvec(e) for e in np.eye(n)])
        rng = np.random.default_rng(0)
        for j in (0, n // 2, n - 1):
            out = rng.standard_normal(n)
            expect = out + 0.3 * dense[:, j]
            contract_oracle.add_column(j, 0.3, out)
            np.testing.assert_allclose(out, expect, rtol=0, atol=1e-13)
        strided = np.zeros((n, n))
        for j in range(n):
            contract_oracle.add_column(j, 1.0, strided[:, j])
        np.testing.assert_allclose(strided, dense, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("chunk", [7, None])
    def test_add_columns_is_the_add_column_loop(self, contract_oracle, monkeypatch, chunk):
        # repeated indices and zero coefficients of both signs, given in one
        # call (chunk None) or in consecutive calls of `chunk` indices each
        n = contract_oracle.dim
        rng = np.random.default_rng(11)
        idx = rng.integers(0, n, size=4000)
        coeffs = rng.standard_normal(idx.size)
        coeffs[rng.random(idx.size) < 0.2] = 0.0
        coeffs[::97] = -0.0
        start = rng.standard_normal(n)
        expect = start.copy()
        for j, c in zip(idx.tolist(), coeffs.tolist()):
            contract_oracle.add_column(j, c, expect)

        got = start.copy()
        reads = []
        column = contract_oracle.column
        monkeypatch.setattr(contract_oracle, "column",
                            lambda j: reads.append(j) or column(j))
        before = contract_oracle.access_count
        step = idx.size if chunk is None else chunk
        for at in range(0, idx.size, step):
            contract_oracle.add_columns(idx[at:at + step], coeffs[at:at + step], got)
        assert got.tobytes() == expect.tobytes()
        assert reads == idx.tolist()
        assert contract_oracle.access_count - before == idx.size

    def test_add_columns_charges_zero_coefficients(self, contract_oracle):
        n = contract_oracle.dim
        out = np.random.default_rng(12).standard_normal(n)
        start = out.tobytes()
        before = contract_oracle.access_count
        contract_oracle.add_columns(np.r_[0:n, 0:n], np.zeros(2 * n), out)
        contract_oracle.add_columns([], [], out)
        assert contract_oracle.access_count - before == 2 * n
        assert out.tobytes() == start


class TestColumnSqNorms:
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_bulk_pass_is_dense_algebra_and_the_column_default(self, contract_oracle,
                                                                 diagonal):
        a = dense_from_columns(contract_oracle)
        if not diagonal:
            np.fill_diagonal(a, 0.0)
        expect = np.sum(a * a, axis=0)
        before = contract_oracle.access_count
        got = contract_oracle.column_sq_norms(diagonal=diagonal)
        assert contract_oracle.access_count == before
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-13)
        by_column = operators.ColumnOracle.column_sq_norms(contract_oracle, diagonal=diagonal)
        assert contract_oracle.access_count == before
        np.testing.assert_allclose(got, by_column, rtol=4 * np.finfo(float).eps, atol=0)

    def test_shift_of_a_shift_scales_the_base_sums(self):
        base = HubbardOracle(LatticeSpec(l1=3, l2=2, n_up=2, n_down=1))
        oracle = shift_scale(shift_scale(base, 0.5, 1.0), -2.0, 3.0)
        a = dense_from_columns(oracle)
        np.testing.assert_allclose(oracle.column_sq_norms(), np.sum(a * a, axis=0),
                                   rtol=1e-13, atol=0)

    def test_hubbard_surveys_read_no_column(self, monkeypatch):
        oracle = shift_scale(HubbardOracle(LatticeSpec(l1=3, l2=3, n_up=2, n_down=3,
                                                       t_hop=0.5)), -1.0, 100.0)
        want = (frobenius_norm_sq(oracle), column_norm_max(oracle))
        monkeypatch.setattr(operators.ColumnOracle, "column", refuse_column)
        assert (frobenius_norm_sq(oracle), column_norm_max(oracle)) == want

    def test_dense_surveys_are_the_streaming_sums(self, small_synthetic):
        # a dense operand keeps the bits of one dot product per column,
        # added in column order
        a = small_synthetic.array
        assert frobenius_norm_sq(small_synthetic) == sum(float(v @ v) for v in a)
        assert column_norm_max(small_synthetic) == max(float(np.sqrt(v @ v)) for v in a)


def refuse_column(self, j):
    raise AssertionError(f"column {j} read by a bulk pass")


_HUBBARD_4X4 = LatticeSpec(l1=4, l2=4, n_up=2, n_down=2)

# every contract oracle, plus Hubbard 4x4 2+2 (dim 900) bare, as 100 I - H
# and as a shift of a shift; the names with "hubbard" hold a bulk product
SWEEP_ORACLES = {
    **CONTRACT_ORACLES,
    "hubbard-4x4": lambda: HubbardOracle(_HUBBARD_4X4),
    "shift-hubbard-4x4": lambda: shift_scale(HubbardOracle(_HUBBARD_4X4), -1.0, 100.0),
    "shift-shift-hubbard": lambda: shift_scale(shift_scale(
        HubbardOracle(LatticeSpec(l1=3, l2=2, n_up=2, n_down=1)), 0.5, 1.0), -2.0, 3.0),
}


def _column_loop(oracle, u):
    """The sweep as one add_columns call over every index, into zeros."""
    out = np.zeros(oracle.dim)
    oracle.add_columns(np.arange(oracle.dim), u, out)
    return out


class TestSweep:
    @pytest.fixture(params=sorted(SWEEP_ORACLES))
    def sweep_case(self, request):
        return request.param, SWEEP_ORACLES[request.param]()

    def test_charges_n_and_nothing_while_paused(self, sweep_case):
        _, oracle = sweep_case
        u = np.random.default_rng(41).standard_normal(oracle.dim)
        before = oracle.access_count
        got = oracle.sweep(u)
        assert oracle.access_count - before == oracle.dim
        with oracle.counting_paused():
            again = oracle.sweep(u)
        assert oracle.access_count - before == oracle.dim
        assert again.tobytes() == got.tobytes()
        np.testing.assert_allclose(got, dense_from_columns(oracle) @ u, rtol=0, atol=1e-11)

    def test_reads_columns_only_without_a_product(self, sweep_case, monkeypatch):
        # a column-loop oracle reads every column once, in order, and adds
        # them as add_columns does; a product oracle reads none
        name, oracle = sweep_case
        u = np.random.default_rng(42).standard_normal(oracle.dim)
        u[::5] = 0.0
        with oracle.counting_paused():
            expect = _column_loop(oracle, u)
        reads = []
        column = oracle.column
        monkeypatch.setattr(oracle, "column", lambda j: reads.append(j) or column(j))
        got = oracle.sweep(u)
        if "hubbard" in name:
            assert reads == []
        else:
            assert reads == list(range(oracle.dim))
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("spec", [LatticeSpec(l1=3, l2=2, n_up=2, n_down=1),
                                      _HUBBARD_4X4], ids=["3x2-2+1", "4x4-2+2"])
    def test_shifted_hubbard_is_the_shifted_base_loop(self, spec, monkeypatch):
        a, b = -1.0, 100.0
        base = HubbardOracle(spec)
        oracle = shift_scale(base, a, b)
        u = np.random.default_rng(44).standard_normal(oracle.dim)
        with base.counting_paused(), oracle.counting_paused():
            base_loop = _column_loop(base, u)
            shifted_loop = _column_loop(oracle, u)
            h = dense_from_columns(base)
        monkeypatch.setattr(operators.ColumnOracle, "column", refuse_column)
        got = oracle.sweep(u)
        assert got.tobytes() == (a * base_loop + b * u).tobytes()
        # against the shifted column loop the sums round differently: row i
        # adds nnz_i + 1 rounded terms either way, so the two differ by at
        # most (nnz_i + 3) eps times the sum of the terms' magnitudes
        scale = abs(a) * (np.abs(h) @ np.abs(u)) + abs(b) * np.abs(u)
        bound = (np.count_nonzero(h, axis=1) + 3) * np.finfo(float).eps * scale
        assert np.all(np.abs(got - shifted_loop) <= bound)
        assert not np.array_equal(got, shifted_loop)  # the bound is not vacuous here


class TestStreamingPasses:
    def test_column_norm_max_identity(self):
        assert column_norm_max(DenseSymmetric(np.eye(3))) == pytest.approx(1.0)

    def test_column_norm_max_diag(self):
        assert column_norm_max(DenseSymmetric(np.diag([1.0, 2.0, 3.0]))) == pytest.approx(3.0)

    def test_column_norm_max_matches_dense(self):
        a = build_synthetic(SpectrumSpec.gapped_grid(50, 12.0, 0.5, 8.0, seed=4))
        expect = np.linalg.norm(a.array, axis=0).max()
        assert abs(column_norm_max(a) - expect) < 1e-12

    def test_frobenius_identity(self):
        assert frobenius_norm_sq(DenseSymmetric(np.eye(3))) == pytest.approx(3.0)

    def test_aux_scans(self, small_synthetic):
        a = small_synthetic.array
        assert max_abs_diag(small_synthetic) == pytest.approx(np.abs(np.diag(a)).max())
        assert column_abs_sum_max(small_synthetic) == pytest.approx(
            np.abs(a).sum(axis=0).max())

    def test_streaming_passes_uncounted(self, small_synthetic):
        before = small_synthetic.access_count
        column_norm_max(small_synthetic)
        frobenius_norm_sq(small_synthetic)
        column_abs_sum_max(small_synthetic)
        assert small_synthetic.access_count == before

    def test_each_pass_reads_every_column_once(self, small_synthetic):
        calls = []

        class Recording(DenseSymmetric):
            def _column(self, j):
                calls.append(j)
                return super()._column(j)

        oracle = Recording(small_synthetic.array)
        for survey in (column_norm_max, frobenius_norm_sq, column_abs_sum_max):
            calls.clear()
            survey(oracle)
            assert calls == list(range(oracle.dim))


class TestAccessCounting:
    def test_column_counts_diag_does_not(self):
        a = DenseSymmetric(np.diag([1.0, 2.0]))
        a.reset_access_count()
        a.column(0)
        a.diag(0)
        a.diag(1)
        a.column(1)
        assert a.access_count == 2

    def test_out_of_range(self):
        a = DenseSymmetric(np.eye(2))
        with pytest.raises(IndexError):
            a.column(2)

    def test_counting_paused_restores(self):
        a = DenseSymmetric(np.eye(2))
        with a.counting_paused():
            a.column(0)
            with a.counting_paused():
                a.column(1)
        a.column(0)
        assert a.access_count == 1


class TestDenseFile:
    def test_round_trip(self, tmp_path):
        a = build_synthetic(SpectrumSpec.gapped_grid(12, 4.0, 0.5, 2.0, seed=8))
        path = tmp_path / "m.txt"
        save_dense(path, a)
        back = load_dense(path)
        assert np.array_equal(back.array, a.array)

    def test_rejects_asymmetric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1.0 2.0\n3.0 4.0\n")
        with pytest.raises(ValueError, match="not symmetric"):
            load_dense(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3\n1.0 2.0\n")
        with pytest.raises(ValueError, match="expected"):
            load_dense(path)
