import hashlib
import itertools
import math
import os

import numpy as np
import pytest

from eigencd import harness, hubbard
from eigencd.cli import main
from eigencd.harness import DENSE_REFERENCE_CUTOFF, compute_reference
from eigencd.hubbard import (MAX_ORBITALS, Determinant, HubbardOracle,
                             LatticeSpec, MomentumBasis, SectorTooLarge,
                             enumerate_sector, hamiltonian_column,
                             hf_determinant)
from eigencd.operators import shift_scale


@pytest.fixture(scope="module")
def spec44():
    return LatticeSpec(l1=4, l2=4, n_up=3, n_down=3, t_hop=1.0, u=4.0)


@pytest.fixture(scope="module")
def small_oracle():
    # 2x2 lattice, half filling: tiny sector, dense cross-checks feasible
    return HubbardOracle(LatticeSpec(l1=2, l2=2, n_up=2, n_down=2))


def refuse_assembly(*args):
    raise AssertionError("the sector was assembled")


def csc_sha256(csc):
    """SHA-256 of a CSC's indptr, indices and data in fixed dtypes."""
    digest = hashlib.sha256()
    for array, dtype in ((csc.indptr, "<i8"), (csc.indices, "<i8"), (csc.data, "<f8")):
        digest.update(np.asarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


def dense_sector_matrix(oracle):
    n = oracle.dim
    h = np.zeros((n, n))
    with oracle.counting_paused():
        for j in range(n):
            rows, vals = oracle.column(j)
            h[rows, j] = vals
    return h


class TestDispersion:
    def test_band_bottom(self, spec44):
        assert spec44.dispersions[0] == pytest.approx(-4.0)

    def test_band_top(self, spec44):
        # orbital (2, 2) has k = (pi, pi)
        assert spec44.dispersions[2 + 4 * 2] == pytest.approx(4.0)

    def test_quarter_momentum(self, spec44):
        # orbital (1, 0) has k = (pi/2, 0)
        assert spec44.dispersions[1] == pytest.approx(-2.0)

    def test_out_of_range(self, spec44):
        # one energy per orbital, so there is no orbital 16 on a 4x4 lattice
        assert spec44.dispersions.shape == (16,)
        with pytest.raises(IndexError):
            spec44.dispersions[16]


class TestHartreeFock:
    def test_single_electron(self):
        spec = LatticeSpec(l1=4, l2=4, n_up=1, n_down=1)
        assert hf_determinant(spec) == Determinant(1, 1)

    def test_three_electrons_breaks_shell_tie(self, spec44):
        # the open epsilon = -2 shell fills with the small-wavenumber pair
        det = hf_determinant(spec44)
        assert det.up == det.down == 0b10011  # orbitals (0,0), (1,0), (0,1)

    @pytest.mark.parametrize("l1,l2", [(4, 4), (6, 5), (5, 6), (3, 2), (31, 1)])
    def test_fill_order_is_the_quantized_key_sort(self, l1, l2):
        # ties in dispersion go to the smaller |k|^2, then the smaller index
        def key(p):
            k1, k2 = 2 * math.pi * (p % l1) / l1, 2 * math.pi * (p // l1) / l2
            eps = -2.0 * (math.cos(k1) + math.cos(k2))
            return round(eps / 1e-9), round((k1 * k1 + k2 * k2) / 1e-9), p

        spec = LatticeSpec(l1=l1, l2=l2, n_up=0, n_down=0)
        assert spec.fill_order == sorted(range(spec.n_orb), key=key)

    def test_five_electrons_closed_shell(self):
        spec = LatticeSpec(l1=4, l2=4, n_up=5, n_down=5)
        det = hf_determinant(spec)
        assert det.up == det.down == 0x101B  # bits {0, 1, 3, 4, 12}: (0,0) + full -2 shell
        kinetic = sum(spec.dispersions[p] for p in range(16) if det.up >> p & 1)
        assert kinetic == pytest.approx(-12.0)


class TestSectorEnumeration:
    def test_two_site_chain(self):
        spec = LatticeSpec(l1=2, l2=1, n_up=1, n_down=1)
        basis = enumerate_sector(spec)
        assert basis.dim == 2
        assert all((spec.momentum_of(basis.state(i).up)[0]
                    + spec.momentum_of(basis.state(i).down)[0]) % 2 == 0
                   for i in range(2))

    def test_six_electron_dimension(self, spec44):
        basis = enumerate_sector(spec44)
        assert basis.dim == 19600
        assert basis.sector_momentum == (2, 2)

    def test_ten_electron_dimension_counted(self):
        spec = LatticeSpec(l1=4, l2=4, n_up=5, n_down=5)
        assert enumerate_sector(spec).dim == 1_192_464

    def test_cap_guard(self, spec44):
        with pytest.raises(SectorTooLarge):
            enumerate_sector(spec44, max_dim=1000)

    @pytest.mark.parametrize("l1,l2,counts", [
        (1, 1, [0, 1]), (2, 1, [0, 1, 2]), (3, 2, [0, 1, 3, 6]), (4, 4, [0, 1, 8, 16]),
        (31, 1, [0, 1, 2, 29, 30, 31]),
    ], ids=["1x1", "2x1", "3x2", "4x4", "31x1"])
    def test_momentum_tally_is_the_brute_force_count(self, l1, l2, counts):
        spec = LatticeSpec(l1=l1, l2=l2, n_up=0, n_down=0)
        tally = hubbard._momentum_tally(spec, max(counts))
        assert tally.shape == (max(counts) + 1, l1, l2)
        for count in counts:
            brute = np.zeros((l1, l2), dtype=np.int64)
            for combo in itertools.combinations(range(spec.n_orb), count):
                brute[sum(p % l1 for p in combo) % l1, sum(p // l1 for p in combo) % l2] += 1
            assert tally[count].tolist() == brute.tolist()

    def test_cap_refused_before_any_mask_is_listed(self, monkeypatch):
        def refuse_listing(*args):
            raise AssertionError("masks were listed")

        monkeypatch.setattr(hubbard, "_spin_masks", refuse_listing)
        with pytest.raises(SectorTooLarge, match="sector dimension 802048167029550 exceeds"):
            enumerate_sector(LatticeSpec(l1=6, l2=5, n_up=15, n_down=15))

    def test_states_sorted_and_indexed(self, small_oracle):
        basis = small_oracle.basis
        packed = [(basis.state(i).up, basis.state(i).down) for i in range(basis.dim)]
        assert packed == sorted(packed)
        for i in range(basis.dim):
            assert basis.index_of(basis.state(i)) == i

    def test_index_of_refuses_every_determinant_outside_the_sector(self, small_oracle):
        # a bare binary search would return a neighbour's index for these
        basis = small_oracle.basis
        n = basis.spec.n_orb
        inside = {basis.state(i) for i in range(basis.dim)}
        outside = [Determinant(up, down) for up in range(1 << n) for down in range(1 << n)
                   if Determinant(up, down) not in inside]
        outside += [Determinant(1 << n, 0), Determinant(0, -1)]
        for det in outside:
            with pytest.raises(KeyError, match="not in the sector"):
                basis.index_of(det)

    def test_unsorted_basis_refused(self, small_oracle):
        basis = small_oracle.basis
        with pytest.raises(ValueError, match="sorted"):
            MomentumBasis(basis.spec, basis.sector_momentum,
                          basis.up_masks[::-1], basis.down_masks[::-1])

    def test_kernel_refuses_a_basis_missing_a_target(self, small_oracle):
        basis = small_oracle.basis
        keep = np.arange(basis.dim) != small_oracle.hf_index
        partial = MomentumBasis(basis.spec, basis.sector_momentum,
                                basis.up_masks[keep], basis.down_masks[keep])
        with pytest.raises(KeyError, match="left the basis"):
            for j in range(partial.dim):
                hamiltonian_column(basis.spec, partial, j)

    def test_kernel_refuses_a_basis_missing_a_whole_up_mask(self, small_oracle):
        # still a union of whole products, but moves lead to the missing mask
        basis = small_oracle.basis
        keep = basis.up_masks != basis.state(small_oracle.hf_index).up
        partial = MomentumBasis(basis.spec, basis.sector_momentum,
                                basis.up_masks[keep], basis.down_masks[keep])
        with pytest.raises(KeyError, match="left the basis"):
            hamiltonian_column(basis.spec, partial, 0)

    def test_widest_lattice_packs_its_keys(self):
        oracle = HubbardOracle(LatticeSpec(l1=MAX_ORBITALS, l2=1, n_up=1, n_down=2))
        h = dense_sector_matrix(oracle)
        assert np.abs(h - h.T).max() == 0.0
        assert oracle.basis.state(oracle.hf_index) == hf_determinant(oracle.spec)

    @pytest.mark.parametrize("field", ["t_hop", "u"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coupling_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite number, got {value}"):
            LatticeSpec(l1=2, l2=2, n_up=1, n_down=1, **{field: value})

    def test_too_many_orbitals_refused(self):
        with pytest.raises(ValueError, match="36 orbitals"):
            LatticeSpec(l1=6, l2=6, n_up=1, n_down=1)


class TestHamiltonianColumn:
    def test_momentum_conserved(self, small_oracle):
        spec = small_oracle.spec
        basis = small_oracle.basis
        for j in range(basis.dim):
            rows, _ = hamiltonian_column(spec, basis, j)
            src = basis.state(j)
            m_src = ((spec.momentum_of(src.up)[0] + spec.momentum_of(src.down)[0]) % spec.l1,
                     (spec.momentum_of(src.up)[1] + spec.momentum_of(src.down)[1]) % spec.l2)
            for i in rows:
                tgt = basis.state(int(i))
                m_tgt = ((spec.momentum_of(tgt.up)[0] + spec.momentum_of(tgt.down)[0]) % spec.l1,
                         (spec.momentum_of(tgt.up)[1] + spec.momentum_of(tgt.down)[1]) % spec.l2)
                assert m_tgt == m_src

    def test_no_duplicate_targets(self, small_oracle):
        for j in range(small_oracle.dim):
            rows, _ = hamiltonian_column(small_oracle.spec, small_oracle.basis, j)
            assert len(np.unique(rows)) == rows.size

    def test_hermitian_exactly(self, small_oracle):
        h = dense_sector_matrix(small_oracle)
        assert np.abs(h - h.T).max() == 0.0

    def test_off_diagonals_quantized(self, small_oracle):
        h = dense_sector_matrix(small_oracle)
        off = h - np.diag(np.diag(h))
        amp = small_oracle.spec.u / small_oracle.spec.n_orb
        assert set(np.unique(off[off != 0.0]).tolist()) <= {-amp, amp}

    def test_diagonal_formula(self, small_oracle):
        spec = small_oracle.spec
        basis = small_oracle.basis
        for i in range(basis.dim):
            det = basis.state(i)
            kin = sum(spec.dispersions[p] for p in range(spec.n_orb)
                      if det.up >> p & 1)
            kin += sum(spec.dispersions[p] for p in range(spec.n_orb)
                       if det.down >> p & 1)
            expect = spec.t_hop * kin + spec.u / spec.n_orb * spec.n_up * spec.n_down
            assert small_oracle.diagonal[i] == pytest.approx(expect, abs=1e-12)

    def test_free_limit_is_diagonal(self):
        spec = LatticeSpec(l1=2, l2=2, n_up=2, n_down=1, u=0.0, t_hop=1.5)
        oracle = HubbardOracle(spec)
        h = dense_sector_matrix(oracle)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
        # non-interacting ground energy: best occupation within the sector
        best = min(oracle.diagonal[i] for i in range(oracle.dim))
        kin = [sum(spec.dispersions[p] for p in range(4) if m >> p & 1)
               for m in (oracle.basis.state(i).up for i in range(oracle.dim))]
        kin2 = [sum(spec.dispersions[p] for p in range(4) if m >> p & 1)
                for m in (oracle.basis.state(i).down for i in range(oracle.dim))]
        assert best == pytest.approx(1.5 * min(a + b for a, b in zip(kin, kin2)))

    def test_column_index_out_of_range(self, small_oracle):
        with pytest.raises(IndexError):
            hamiltonian_column(small_oracle.spec, small_oracle.basis, small_oracle.dim)


class TestOracle:
    def test_init_state_from_scaled_hf(self, small_oracle):
        from eigencd.engine import init_state
        x0 = np.zeros(small_oracle.dim)
        x0[small_oracle.hf_index] = 10.0
        before = small_oracle.access_count
        state = init_state(small_oracle, x0)
        assert small_oracle.access_count - before == 1
        assert state.nu == pytest.approx(100.0)
        with small_oracle.counting_paused():
            rows, vals = small_oracle.column(small_oracle.hf_index)
        expect = np.zeros(small_oracle.dim)
        expect[rows] = 10.0 * vals
        assert np.array_equal(state.z, expect)

    def test_csc_assembly_matches_kernel(self, small_oracle):
        n = small_oracle.dim
        kernel = np.zeros((n, n))
        for j in range(n):
            rows, vals = hamiltonian_column(small_oracle.spec, small_oracle.basis, j)
            kernel[rows, j] = vals
        assert np.array_equal(kernel, dense_sector_matrix(small_oracle))

    def test_cache_hits_still_count(self, small_oracle):
        before = small_oracle.access_count
        small_oracle.column(0)
        small_oracle.column(0)
        assert small_oracle.access_count - before == 2

    def test_matvec_matches_dense(self, small_oracle):
        h = dense_sector_matrix(small_oracle)
        rng = np.random.default_rng(30)
        x = rng.standard_normal(small_oracle.dim)
        assert np.allclose(small_oracle.matvec(x), h @ x, atol=1e-12)

    def test_hf_index_points_at_hf(self, small_oracle):
        det = small_oracle.basis.state(small_oracle.hf_index)
        assert det == hf_determinant(small_oracle.spec)

    @pytest.mark.parametrize("dense_cutoff", [10, DENSE_REFERENCE_CUTOFF],
                             ids=["lanczos", "dense"])
    def test_only_assembly_runs_the_kernel(self, monkeypatch, dense_cutoff):
        # dim 336 is two assembly blocks; the norm surveys and the
        # eigensolve must read the assembled CSC, not call the kernel per column
        blocks = []
        kernel = hubbard._column_kernel

        def counted(spec, basis, lo, hi):
            blocks.append((lo, hi))
            return kernel(spec, basis, lo, hi)

        monkeypatch.setattr(hubbard, "_column_kernel", counted)
        oracle = HubbardOracle(LatticeSpec(l1=3, l2=3, n_up=2, n_down=3, t_hop=0.5))
        monkeypatch.setattr(harness, "DENSE_REFERENCE_CUTOFF", dense_cutoff)
        compute_reference(shift_scale(oracle, -1.0, 100.0))
        assert blocks == [(0, 256), (256, 336)]

    def test_assembly_pinned_bit_for_bit(self, spec44):
        # SHA-256 of the 4x4 3+3 CSC's indptr, indices and data, in fixed
        # dtypes, as the per-column move kernel assembled it
        oracle = HubbardOracle(spec44)
        oracle.prepare()
        csc = oracle._csc
        digest = hashlib.sha256()
        for array, dtype in ((csc.indptr, "<i8"), (csc.indices, "<i8"), (csc.data, "<f8")):
            digest.update(np.asarray(array, dtype=dtype).tobytes())
        assert csc.nnz == 2_007_040
        assert digest.hexdigest() == (
            "bcc92dc8dfcd015b38eee6d5211b284b8383f1345c63a1e63b35ae6c79b13776")

    def test_larger_assembly_pinned_bit_for_bit(self):
        # 4x4 4+3 (dim 63,700) as the search-based kernel assembled it
        oracle = HubbardOracle(LatticeSpec(l1=4, l2=4, n_up=4, n_down=3))
        oracle.prepare()
        assert oracle._csc.nnz == 8_013_460
        assert csc_sha256(oracle._csc) == (
            "568cf04676d62d4d3e157644b01e5f425166a5b4c39404ccda332aa8ac7e2e4b")

    @pytest.mark.parametrize("spec", [
        LatticeSpec(l1=4, l2=4, n_up=3, n_down=3),
        LatticeSpec(l1=3, l2=3, n_up=2, n_down=3, t_hop=0.5),
        LatticeSpec(l1=2, l2=2, n_up=2, n_down=2),
        LatticeSpec(l1=3, l2=2, n_up=2, n_down=1, u=0.0),
    ], ids=["4x4-3+3", "3x3-2+3", "2x2-2+2", "3x2-free"])
    def test_matvec_is_the_csc_product_bit_for_bit(self, spec):
        oracle = HubbardOracle(spec)
        x = np.random.default_rng(31).standard_normal(oracle.dim)
        assert oracle.matvec(x).tobytes() == (oracle._csc @ x).tobytes()

    @pytest.mark.parametrize("spec", [
        LatticeSpec(l1=3, l2=2, n_up=2, n_down=1),
        LatticeSpec(l1=4, l2=4, n_up=2, n_down=2),
        LatticeSpec(l1=1, l2=1, n_up=1, n_down=0),
    ], ids=["3x2-2+1", "4x4-2+2", "1x1-1+0"])
    def test_matvec_is_add_columns_over_every_column(self, spec):
        # the two row halves, one on the helper thread, against the scatter
        # of every column in order
        oracle = HubbardOracle(spec)
        x = np.random.default_rng(32).standard_normal(oracle.dim)
        expect = np.zeros(oracle.dim)
        oracle.add_columns(np.arange(oracle.dim), x, expect)
        assert oracle.matvec(x).tobytes() == expect.tobytes()
        top, bottom = oracle._halves
        assert top.shape[0] + bottom.shape[0] == oracle.dim
        assert abs(top.nnz - bottom.nnz) <= oracle.nnz_per_column().max()
        for half in (top, bottom):
            assert np.shares_memory(half.data, oracle._csc.data) or half.nnz == 0
            assert np.shares_memory(half.indices, oracle._csc.indices) or half.nnz == 0
        if oracle.dim == 1:
            assert top.shape[0] == 0

    def test_reference_same_through_either_product(self, spec44, monkeypatch):
        oracle = HubbardOracle(spec44)
        via_csr = compute_reference(shift_scale(oracle, -1.0, 100.0))
        monkeypatch.setattr(HubbardOracle, "matvec", lambda self, x: self._csc @ x)
        via_csc = compute_reference(shift_scale(oracle, -1.0, 100.0))
        assert via_csr.source == via_csc.source == "lanczos"
        assert via_csr.lambda1.hex() == via_csc.lambda1.hex()
        assert via_csr.v1.tobytes() == via_csc.v1.tobytes()

    @pytest.mark.skipif(not os.environ.get("EIGENCD_EXTENDED"),
                        reason="set EIGENCD_EXTENDED=1 for the 4x4 4+4 stress sector")
    def test_stress_sector_structure_and_reference(self):
        spec = LatticeSpec(l1=4, l2=4, n_up=4, n_down=4)
        oracle = HubbardOracle(spec)
        oracle.prepare()
        csc = oracle._csc
        assert oracle.dim == 207_168 and csc.nnz == 32_051_520
        sample = np.random.default_rng(44).choice(oracle.dim, 40, replace=False).tolist()
        for j in sample + [0, oracle.hf_index, oracle.dim - 1]:
            rows, vals = hamiltonian_column(spec, oracle.basis, j)
            lo, hi = csc.indptr[j], csc.indptr[j + 1]
            assert rows.tolist() == csc.indices[lo:hi].tolist()
            assert vals.tobytes() == csc.data[lo:hi].tobytes()
        ref = compute_reference(shift_scale(oracle, -1.0, 100.0))
        energy, v = 100.0 - ref.lambda1, ref.v1
        assert np.linalg.norm(oracle.matvec(v) - energy * v) < 1e-7 * abs(energy)

    def test_moves_tabulated_once_per_distinct_mask(self, monkeypatch):
        sizes = []
        spin_moves = hubbard._spin_moves

        def counted(masks, table):
            moves = spin_moves(masks, table)
            sizes.append(moves.target.shape[0])
            return moves

        monkeypatch.setattr(hubbard, "_spin_moves", counted)
        oracle = HubbardOracle(LatticeSpec(l1=3, l2=3, n_up=2, n_down=3, t_hop=0.5))
        oracle.nnz_per_column()
        oracle.prepare()
        basis = oracle.basis
        assert sizes == [np.unique(basis.up_masks).size, np.unique(basis.down_masks).size]
        assert max(sizes) < basis.dim

    @pytest.mark.parametrize("u", [4.0, 0.0])
    def test_nnz_per_column_counts_without_assembly(self, monkeypatch, u):
        spec = LatticeSpec(l1=3, l2=3, n_up=2, n_down=3, t_hop=0.5, u=u)
        oracle = HubbardOracle(spec)
        with monkeypatch.context() as mp:
            mp.setattr(hubbard, "_column_kernel", refuse_assembly)
            counted = oracle.nnz_per_column()
        assert oracle._csc is None
        expected = [hamiltonian_column(spec, oracle.basis, j)[0].size for j in range(oracle.dim)]
        assert counted.tolist() == expected
        oracle.prepare()
        assert oracle.nnz_per_column().tolist() == expected

    def test_hubbard_info_builds_no_csc(self, monkeypatch, capsys):
        spec = LatticeSpec(l1=3, l2=3, n_up=2, n_down=3, t_hop=0.5)
        oracle = HubbardOracle(spec)
        oracle.prepare()
        nnz = np.diff(oracle._csc.indptr)
        monkeypatch.setattr(hubbard, "_column_kernel", refuse_assembly)
        monkeypatch.setattr(HubbardOracle, "prepare", refuse_assembly)
        assert main(["hubbard", "info", "--l", "3", "3", "--nup", "2", "--ndown", "3",
                     "--t", "0.5"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "lattice 3x3  t=0.5 U=4.0  electrons 2+3",
            f"sector momentum = {oracle.basis.sector_momentum}",
            f"dim = {oracle.dim}",
            f"nnz per col min/med/max = {int(nnz.min())}/{int(np.median(nnz))}/{int(nnz.max())}",
            f"diagonal range = [{float(oracle.diagonal.min())}, {float(oracle.diagonal.max())}]",
            f"hf determinant index = {oracle.hf_index}"]


class TestGroundState:
    def test_frobenius_matches_spectrum_identity(self):
        # ||100I - H||_F^2 equals the sum of squared eigenvalues of the block
        from eigencd.operators import frobenius_norm_sq
        oracle = HubbardOracle(LatticeSpec(l1=4, l2=4, n_up=2, n_down=2))
        shifted = shift_scale(oracle, -1.0, 100.0)
        frob = frobenius_norm_sq(shifted)
        dense = dense_sector_matrix(shifted)
        vals = np.linalg.eigvalsh(dense)
        assert frob == pytest.approx(float(np.sum(vals**2)), rel=1e-6)

    def test_small_lattice_against_dense(self, small_oracle):
        h = dense_sector_matrix(small_oracle)
        vals = np.linalg.eigvalsh(h)
        ref = compute_reference(shift_scale(small_oracle, -1.0, 100.0))
        energy, vec = 100.0 - ref.lambda1, ref.v1
        assert energy == pytest.approx(vals[0], abs=1e-8)
        resid = np.linalg.norm(h @ vec - energy * vec)
        assert resid < 1e-7
