import csv
import math
import re

import numpy as np
import pytest

from eigencd import harness, operators
from eigencd.cli import parse_method
from eigencd.engine import StrategyConfig, init_state, step
from eigencd.harness import (AllSeedsFailed, ReferenceSolution, TraceRecord,
                             compute_reference, emit_trace, eps_obj, eps_tan,
                             projected_energy, run_experiment,
                             run_single)
from eigencd.hubbard import HubbardOracle, LatticeSpec
from eigencd.landscape import objective
from eigencd.operators import (DenseSymmetric, SpectrumSpec, build_synthetic,
                               shift_scale)

from conftest import double_top


def _rank_one(n: int) -> np.ndarray:
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    return 5.0 * np.outer(v, v)


# the matrices the relative gap eps_obj cannot score, with the refusal of each
UNSCORABLE = [
    (np.diag(-np.arange(1.0, 7.0)), re.escape("no positive leading eigenvalue (lambda1 = -1)")),
    (_rank_one(20), r"f\* = \|\|A\|\|_F\^2 - lambda1\^2 = .* is rounding noise against "
                    r"\|\|A\|\|_F\^2 = 25: the matrix is rank one"),
]


@pytest.fixture(scope="module")
def instance():
    a = build_synthetic(SpectrumSpec.gapped_grid(120, 10.0, 0.5, 6.0, seed=33))
    return a, compute_reference(a)


class TestReference:
    def test_diagonal_example(self):
        ref = compute_reference(DenseSymmetric(np.diag([3.0, 2.0, 1.0])))
        assert ref.lambda1 == pytest.approx(3.0)
        assert ref.lambda2 == pytest.approx(2.0)
        assert abs(ref.v1[0]) == pytest.approx(1.0)
        assert ref.fstar == pytest.approx(14.0 - 9.0)

    def test_synthetic_spectrum_recovered(self):
        spec = SpectrumSpec.gapped_grid(80, 9.0, 0.3, 5.0, seed=34)
        ref = compute_reference(build_synthetic(spec))
        assert ref.lambda1 == pytest.approx(9.0, abs=1e-8)
        assert ref.lambda2 == pytest.approx(spec.eigenvalues[1], abs=1e-8)

    @staticmethod
    def _assert_lanczos_matches_dense(monkeypatch, spec):
        a = build_synthetic(spec)
        dense = compute_reference(a)
        monkeypatch.setattr(harness, "DENSE_REFERENCE_CUTOFF", 10)
        lanczos = compute_reference(a)
        assert (dense.source, lanczos.source) == ("dense", "lanczos")
        assert lanczos.lambda1 == pytest.approx(dense.lambda1, abs=1e-8)
        assert lanczos.lambda2 == pytest.approx(dense.lambda2, abs=1e-7)
        assert abs(float(lanczos.v1 @ dense.v1)) == pytest.approx(1.0, abs=1e-7)

    def test_lanczos_path_matches_dense(self, monkeypatch):
        self._assert_lanczos_matches_dense(
            monkeypatch, SpectrumSpec.gapped_grid(60, 8.0, 0.2, 4.0, seed=35))

    def test_lanczos_path_matches_dense_under_a_negative_tail(self, monkeypatch):
        # the tail reaches -50, so the spectrum is largest in magnitude at
        # its bottom; unshifted Lanczos must still return the top pair
        self._assert_lanczos_matches_dense(
            monkeypatch, SpectrumSpec.gapped_grid(60, 8.0, -50.0, 4.0, seed=35))

    @staticmethod
    def _lanczos_against_dense(monkeypatch, eigenvalues):
        """The Lanczos reference of a rotated spectrum, its matrix-vector
        product count and the dense eigenvalues."""
        a = build_synthetic(SpectrumSpec(np.asarray(eigenvalues), seed=37))
        products = []
        matvec = a.matvec

        def counted(x):
            products.append(1)
            return matvec(x)

        monkeypatch.setattr(a, "matvec", counted)
        monkeypatch.setattr(harness, "DENSE_REFERENCE_CUTOFF", 10)
        ref = compute_reference(a)
        assert ref.source == "lanczos"
        return ref, len(products), np.linalg.eigvalsh(a.array)

    def test_second_ritz_pair_handed_over(self, monkeypatch):
        # one cycle of 60 products and its residual check find lambda1; the
        # handed-over pair passes on its first product, and no check follows
        ref, products, dense = self._lanczos_against_dense(
            monkeypatch, np.r_[10.0, 6.0, np.linspace(3.0, 0.0, 298)])
        assert products <= 62
        assert ref.lambda1 == pytest.approx(dense[-1], abs=1e-8)
        assert ref.lambda2 == pytest.approx(dense[-2], abs=1e-7)

    def test_clustered_second_pair_continues_from_the_handover(self, monkeypatch):
        # lambda2 and lambda3 sit 1e-2 apart, with the tail right under them:
        # one cycle cannot split them, so the handed-over pair fails its test
        # and the deflated run goes on from it
        ref, products, dense = self._lanczos_against_dense(
            monkeypatch, np.r_[10.0, 5.0, 4.99, np.linspace(4.98, 0.0, 297)])
        assert products > 63
        assert ref.lambda2 == pytest.approx(dense[-2], abs=1e-7)

    def test_start_that_passes_is_returned_after_one_product(self):
        a = build_synthetic(SpectrumSpec(np.r_[10.0, 6.0, np.linspace(3.0, 0.0, 58)], seed=37))
        vals, vecs = np.linalg.eigh(a.array)
        products = []

        def counted(x):
            products.append(1)
            return a.matvec(x)

        theta, v, second = harness._lanczos_extreme(counted, vecs[:, -2],
                                                    ortho_against=(vecs[:, -1],))
        assert (len(products), second) == (1, None)
        assert theta == pytest.approx(vals[-2], abs=1e-10)
        assert abs(float(v @ vecs[:, -2])) == pytest.approx(1.0, abs=1e-12)

    def test_one_vector_first_space_starts_the_second_run_at_random(self, monkeypatch):
        lanczos = harness._lanczos_extreme
        starts = []

        def no_handover(matvec, v0, **kwargs):
            starts.append(v0)
            theta, v, _ = lanczos(matvec, v0, **kwargs)
            return theta, v, None

        monkeypatch.setattr(harness, "_lanczos_extreme", no_handover)
        ref, _, dense = self._lanczos_against_dense(
            monkeypatch, np.r_[10.0, 6.0, np.linspace(3.0, 0.0, 58)])
        assert len(starts) == 2 and not np.array_equal(starts[0], starts[1])
        assert ref.lambda2 == pytest.approx(dense[-2], abs=1e-7)

    def test_lanczos_path_makes_one_norm_survey(self, monkeypatch):
        # the Frobenius survey reads each column once; the eigensolve and
        # its residual check go through matvec only
        a = build_synthetic(SpectrumSpec.gapped_grid(60, 8.0, 0.2, 4.0, seed=35))
        reads = []
        column = operators.ColumnOracle.column

        def counted(self, j):
            reads.append(j)
            return column(self, j)

        monkeypatch.setattr(operators.ColumnOracle, "column", counted)
        monkeypatch.setattr(harness, "DENSE_REFERENCE_CUTOFF", 10)
        assert compute_reference(a).source == "lanczos"
        assert sorted(reads) == list(range(60))
        assert a.access_count == 0

    def test_reference_is_uncounted(self):
        a = build_synthetic(SpectrumSpec.gapped_grid(50, 8.0, 0.2, 4.0, seed=36))
        compute_reference(a)
        assert a.access_count == 0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ReferenceSolution(lambda1=2.0, v1=np.array([1.0]), lambda2=2.0,
                              frob_sq=5.0, source="dense")

    def test_rejects_a_one_by_one_operator(self):
        oracle = DenseSymmetric(np.array([[5.0]]))
        with pytest.raises(ValueError, match="dimension 1: the reference needs a second"):
            compute_reference(oracle)
        assert oracle.access_count == 0

    @pytest.mark.parametrize("n,cutoff", [(20, 2000), (60, 10)])
    def test_rejects_a_gap_within_its_resolution(self, n, cutoff, monkeypatch):
        # rounding splits the doubled eigenvalue by a few ulps on either route
        monkeypatch.setattr(harness, "DENSE_REFERENCE_CUTOFF", cutoff)
        with pytest.raises(ValueError, match=r"lambda1 - lambda2 = .* resolution 8e-08"):
            compute_reference(double_top(n))

    def test_rejects_a_negative_fstar(self):
        # beyond rounding, but no f* of a real matrix: ||A||_F^2 >= lambda1^2
        with pytest.raises(ValueError, match=r"f\* = .* = -1 is rounding noise"):
            ReferenceSolution(lambda1=3.0, v1=np.array([1.0, 0.0]), lambda2=1.0,
                              frob_sq=8.0, source="dense")

    @pytest.mark.parametrize("matrix,message", UNSCORABLE, ids=["negative-definite", "rank-one"])
    def test_rejects_what_eps_obj_cannot_score(self, matrix, message):
        oracle = DenseSymmetric(matrix)
        with pytest.raises(ValueError, match=message):
            compute_reference(oracle)
        assert oracle.access_count == 0

    @pytest.mark.parametrize("matrix,message", UNSCORABLE, ids=["negative-definite", "rank-one"])
    def test_run_experiment_refuses_before_any_run(self, matrix, message, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started against an unscorable reference")

        monkeypatch.setattr(harness, "run_single", no_run)
        x0 = np.zeros(matrix.shape[0])
        x0[0] = 1.0
        with pytest.raises(ValueError, match=message):
            run_experiment(DenseSymmetric(matrix), parse_method("GCD-LS-LS"), x0, 1e-6, 10**6)


class TestMetrics:
    def test_eps_obj_floor_and_unit(self):
        assert eps_obj(gap=0.0, fstar=5.0) == 0.0
        assert eps_obj(gap=5.0, fstar=5.0) == pytest.approx(1.0)
        assert eps_obj(gap=-1e-12, fstar=5.0) == 0.0  # tiny undershoot clamps
        with pytest.raises(TypeError):
            eps_obj(10.0, 5.0)  # the old (f, f*) call must not return a number

    def test_eps_obj_rejects_bad_fstar(self):
        with pytest.raises(ValueError):
            eps_obj(gap=1.0, fstar=0.0)

    def test_projected_energy_examples(self, instance):
        a, ref = instance
        x = ref.v1.copy()
        z = a.array @ x
        assert projected_energy(x, z, np.ones(120)) == pytest.approx(ref.lambda1)
        e1 = np.zeros(120)
        e1[0] = 1.0
        diag2 = DenseSymmetric(np.diag([2.0, 1.0]))
        e = np.array([1.0, 0.0])
        assert projected_energy(e, diag2.array @ e, e) == pytest.approx(2.0)
        assert math.isnan(projected_energy(x, z, np.zeros(120)))

    def test_eps_tan_examples(self, instance):
        _, ref = instance
        assert eps_tan(3.0 * ref.v1, ref.v1) == pytest.approx(0.0, abs=1e-12)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert math.isinf(eps_tan(e2, e1))

    def test_eps_tan_right_triangle(self):
        a = build_synthetic(SpectrumSpec.gapped_grid(40, 6.0, 0.3, 3.0, seed=37))
        vals, vecs = np.linalg.eigh(a.array)
        x = vecs[:, -1] + 0.1 * vecs[:, -2]
        assert eps_tan(x, vecs[:, -1]) == pytest.approx(0.1, abs=1e-12)


class TestRunExperiment:
    def test_deterministic_stats_collapse(self, instance):
        a, ref = instance
        x0 = np.zeros(120)
        x0[0] = 1.0
        res = run_experiment(a, StrategyConfig(pick="greedy_ls", update="coord_ls"),
                             x0, 1e-6, 10**7, seeds=9, reference=ref)
        s = res.stats
        assert s.min_iters == s.med_iters == s.max_iters
        assert s.seeds_used == 1
        assert s.total_col_access == s.med_iters

    def test_budget_law(self, instance):
        a, ref = instance
        x0 = np.zeros(120)
        x0[0] = 1.0
        budget = 300
        out = run_single(a, StrategyConfig(pick="grad_power", update="coord_ls", t=1.0),
                         x0, 1e-12, budget, 0, ref)
        assert out.status == "budget"
        assert out.col_accesses <= budget + 1
        cols = [rec.col_access for rec in out.trace]
        assert cols == sorted(cols)

    def test_batch_above_the_order_charges_k_with_replacement(self, instance):
        a, ref = instance
        x0 = np.zeros(120)
        x0[0] = 1.0
        config = StrategyConfig(pick="grad_power", update="coord_ls", k=150, averaged=True)
        out = run_single(a, config, x0, 1e-12, 1 + 150 * 7, 0, ref)
        assert out.status == "budget" and out.iterations == 7
        assert out.col_accesses == 1 + 150 * 7

    @pytest.mark.parametrize("config", [
        StrategyConfig(pick="greedy_ls", update="coord_ls", k=121, averaged=True),
        StrategyConfig(pick="grad_power", update="coord_ls", k=121, with_replacement=False),
        StrategyConfig(pick="grad_power", update="vec_ls", t=0.0, k=121,
                       with_replacement=False)])
    def test_distinct_batch_above_the_order_refused(self, instance, config):
        a, ref = instance
        with pytest.raises(ValueError, match="k = 121 exceeds the operator order n = 120"):
            run_experiment(a, config, np.ones(120), 1e-6, 10**6, seeds=2, reference=ref)

    def test_identical_seed_identical_trace(self, instance):
        a, ref = instance
        x0 = np.zeros(120)
        x0[0] = 1.0
        cfg = StrategyConfig(pick="grad_power", update="coord_ls", t=1.0)
        t1 = run_single(a, cfg, x0, 1e-6, 10**7, 3, ref, trace_stride=50)
        t2 = run_single(a, cfg, x0, 1e-6, 10**7, 3, ref, trace_stride=50)
        assert t1.iterations == t2.iterations
        assert [r._asdict() for r in t1.trace] == [r._asdict() for r in t2.trace]

    @pytest.mark.parametrize("tol,stride", [(1e-6, 1), (10.0, 0), (10.0, 1), (10.0, 5)])
    def test_trace_writes_each_iteration_once(self, instance, tol, stride):
        # tol 1e-6 stops on a stride point; tol 10 stops at iteration 0
        a, ref = instance
        x0 = np.zeros(120)
        x0[0] = 1.0
        cfg = StrategyConfig(pick="greedy_ls", update="coord_ls")
        out = run_single(a, cfg, x0, tol, 10**7, 0, ref, trace_stride=stride)
        assert out.status == "converged" and (out.iterations == 0) == (tol == 10.0)
        assert [rec.iteration for rec in out.trace] == list(range(out.iterations + 1))

    def test_step_failing_after_its_accesses_still_records_them(self):
        # A e4 = 0: the power step charges its sweep, then breaks down at iteration 0
        a = DenseSymmetric(np.diag([3.0, 2.0, 1.0, 0.0]))
        x0 = np.zeros(4)
        x0[3] = 1.0
        out = run_single(a, StrategyConfig(pick="pm", update="coord_ls"), x0, 1e-6, 100, 0,
                         compute_reference(a), trace_stride=1)
        assert (out.status, out.iterations, out.col_accesses) == ("diverged", 0, 5)
        assert [(rec.iteration, rec.col_access) for rec in out.trace] == [(0, 1), (0, 5)]

    @pytest.mark.parametrize("seeds", [0, -1])
    @pytest.mark.parametrize("config", [
        StrategyConfig(pick="greedy_ls", update="coord_ls"),
        StrategyConfig(pick="grad_power", update="coord_ls", t=1.0)],
        ids=["deterministic", "stochastic"])
    def test_no_seeds_refused_before_any_work(self, config, seeds, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started for no seeds")

        monkeypatch.setattr(harness, "compute_reference", no_work)
        monkeypatch.setattr(harness, "run_single", no_work)
        x0 = np.zeros(4)
        x0[0] = 1.0
        with pytest.raises(ValueError, match=rf"^seeds must be >= 1, got {seeds}$"):
            run_experiment(DenseSymmetric(np.diag([4.0, 3.0, 2.0, 1.0])), config, x0,
                           1e-6, 10**6, seeds=seeds)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_start_far_above_the_solution_scale_refused(self, monkeypatch):
        a = build_synthetic(SpectrumSpec.gapped_grid(20, 500.0))
        ref = compute_reference(a)
        config = parse_method("GCD-LS-LS")
        x0 = np.zeros(20)
        for amp, shown in ((1e20, "1e+40"), (1e200, "inf")):
            x0[0] = amp
            with pytest.raises(ValueError, match=rf"^x0 @ x0 = {re.escape(shown)} is above "
                                                 r"65536 times lambda1 = 500: .* scale x0 down$"):
                run_experiment(a, config, x0, 1e-6, 10**6, reference=ref)
        assert a.access_count == 0
        # just inside the bound the run converges, and its eps_obj is the true one
        x0[0] = math.sqrt(0.99 * harness.START_SCALE_FACTOR * ref.lambda1)
        states = []
        monkeypatch.setattr(harness, "init_state",
                            lambda *args, **kw: states.append(init_state(*args, **kw))
                            or states[-1])
        out = run_single(a, config, x0, 1e-6, 10**6, 0, ref)
        x = states[0].x
        gap = ref.lambda1 ** 2 - 2.0 * (x @ a.matvec(x)) + (x @ x) ** 2
        true_eps = eps_obj(gap=gap, fstar=ref.fstar)
        assert out.status == "converged"
        assert out.trace[-1].eps_obj == pytest.approx(true_eps, rel=1e-2)

    def test_power_method_rate(self, instance):
        a, ref = instance
        x0 = np.zeros(120)
        x0[0] = 1.0
        res = run_experiment(a, StrategyConfig(pick="pm", update="coord_ls"),
                             x0, 1e-6, 10**8, reference=ref)
        out = res.outcomes[0]
        assert out.status == "converged"
        start_eps = out.trace[0].eps_obj
        rate = ref.lambda2 / ref.lambda1
        predicted = math.log(1e-6 / start_eps) / math.log(rate)
        assert predicted / 2 <= out.iterations <= predicted * 2
        assert res.stats.total_col_access == 120 * out.iterations

    @pytest.mark.parametrize("shift", [0.0, 10.0])
    def test_trace_reports_the_stop_rule_eps(self, shift, monkeypatch):
        # at tol 1e-8 the gap is below the rounding of f = ||A||_F^2 - 2s + nu^2,
        # so f - f* reads 0.0 unshifted and above tol under the shift
        a = build_synthetic(SpectrumSpec.gapped_grid(30, 10.0, 0.5, 6.0, seed=33))
        oracle = shift_scale(a, 1.0, shift) if shift else a
        ref = compute_reference(oracle)
        states = []
        init_state = harness.init_state
        monkeypatch.setattr(harness, "init_state",
                            lambda *args, **kw: states.append(init_state(*args, **kw))
                            or states[-1])
        x0 = np.zeros(30)
        x0[0] = 1.0
        tol = 1e-8
        out = run_single(oracle, parse_method("GCD-LS-LS"), x0, tol, 10**7, 0, ref)
        (state,) = states
        rule = math.sqrt(max(ref.lambda1 * ref.lambda1 - 2.0 * state.s + state.nu * state.nu,
                             0.0) / ref.fstar)
        assert out.status == "converged"
        assert out.trace[-1].eps_obj == rule
        assert 0.0 < rule < tol

    def test_stochastic_seeds_vary(self, instance):
        a, ref = instance
        x0 = np.zeros(120)
        x0[0] = 1.0
        res = run_experiment(a, StrategyConfig(pick="grad_power", update="coord_ls", t=1.0),
                             x0, 1e-6, 10**7, seeds=6, reference=ref)
        assert res.stats.seeds_used == 6
        assert res.stats.min_iters <= res.stats.med_iters <= res.stats.max_iters

    def test_divergent_run_raises_when_all_fail(self, instance):
        a, ref = instance
        x0 = np.zeros(120)
        x0[0] = 1.0
        # ridiculous fixed stepsize blows up immediately
        cfg = StrategyConfig(pick="cyclic", update="fixed_grad", gamma=10.0)
        with pytest.raises(AllSeedsFailed):
            run_experiment(a, cfg, x0, 1e-6, 10**7, reference=ref)

    @pytest.mark.parametrize("factor", [2.0, harness.DIVERGENCE_FACTOR])
    def test_divergence_stops_at_the_first_f_over_the_best_earlier_f(self, factor,
                                                                     monkeypatch):
        """A fixed step about 100 times the safe bound, replayed with the
        objective computed from x: the run stops at the first step whose f
        exceeds the factor times the best earlier f.  At factor 2 that is
        step 14, where a rule on the gap f - f* would stop at step 15 on the
        left of the comparison and at step 1 on its right."""
        a = build_synthetic(SpectrumSpec.gapped_grid(20, 10.0, 0.5, 6.0, seed=33))
        ref = compute_reference(a)
        config = StrategyConfig(pick="cyclic", update="fixed_grad", gamma=0.18)
        x0 = np.zeros(20)
        x0[0] = 1.0
        monkeypatch.setattr(harness, "DIVERGENCE_FACTOR", factor)
        out = run_single(a, config, x0, 1e-6, 10**6, 0, ref)
        state = init_state(a, x0, rng=np.random.default_rng(0))
        best = objective(a.array, state.x, ref.frob_sq)
        with np.errstate(all="ignore"):
            for i in range(1, 100):
                step(state, config)
                f = objective(a.array, state.x, ref.frob_sq)
                if not f <= factor * best:
                    break
                best = min(best, f)
        assert (out.status, out.iterations) == ("diverged", i)

    def test_stall_detector_trips(self, instance, monkeypatch):
        a, ref = instance
        x0 = np.zeros(120)
        x0[0] = 1.0
        cfg = StrategyConfig(pick="greedy_ls", update="coord_ls", k=4)
        monkeypatch.setattr(harness, "STALL_CHECKS", 500)
        out = run_single(a, cfg, x0, 1e-6, 10**8, 0, ref)
        assert out.status in ("stalled", "diverged")

    def test_stall_rule_spares_uniform_sampling(self):
        # uniform picks often land where the gradient is small, so runs of
        # steps without a strict drop are longest here; none may reach the
        # 1,000 checks of the stall rule before the run converges
        base = HubbardOracle(LatticeSpec(l1=4, l2=2, n_up=3, n_down=3, t_hop=1.0, u=4.0))
        oracle = shift_scale(base, -1.0, 100.0)
        ref = compute_reference(oracle)
        x0 = np.zeros(oracle.dim)
        x0[base.hf_index] = 10.0
        res = run_experiment(oracle, parse_method("SCD-Uni-LS"), x0, 1e-6, 10**9,
                             seeds=6, reference=ref)
        assert [o.status for o in res.outcomes] == ["converged"] * 6
        assert all(o.trace[-1].eps_obj < 1e-6 for o in res.outcomes)


def read_trace(path) -> list[TraceRecord]:
    """Parse a trace CSV back: the inverse of ``emit_trace``'s writer."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == ["iteration", "col_access", "f", "eps_obj", "eps_energy", "eps_tan"]
        return [TraceRecord(iteration=int(row[0]), col_access=int(row[1]),
                            f=float(row[2]), eps_obj=float(row[3]),
                            eps_energy=float(row[4]), eps_tan=float(row[5]))
                for row in reader]


class TestTraceIO:
    def test_round_trip(self, instance, tmp_path):
        a, ref = instance
        x0 = np.zeros(120)
        x0[0] = 1.0
        res = run_experiment(a, StrategyConfig(pick="grad_power", update="coord_ls", t=1.0),
                             x0, 1e-6, 10**7, seeds=2, reference=ref,
                             label="SCD-Grad-LS(1)", trace_stride=100)
        emit_trace([res], tmp_path)
        for out in res.outcomes:
            back = read_trace(tmp_path / f"trace_SCD-Grad-LS-1-_seed{out.seed}.csv")
            assert [r._asdict() for r in back] == [r._asdict() for r in out.trace]
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "Method,k,MinIter,MedIter,MaxIter,TotalColAccess"
        assert summary[1].startswith("SCD-Grad-LS(1),1,")

    def test_header_only_for_empty(self, tmp_path):
        from eigencd.harness import ExperimentResult, RunOutcome, RunStats
        res = ExperimentResult(
            label="empty", k=1,
            config=StrategyConfig(pick="cyclic", update="coord_ls"),
            stats=RunStats(0, 0, 0, 0, 1, 0),
            outcomes=[RunOutcome(seed=0, status="converged", iterations=0,
                                 col_accesses=0, trace=[])])
        emit_trace([res], tmp_path)
        lines = (tmp_path / "trace_empty_seed0.csv").read_text().splitlines()
        assert lines == ["iteration,col_access,f,eps_obj,eps_energy,eps_tan"]

    def test_infinity_round_trips(self, tmp_path):
        rec = TraceRecord(0, 0, 1.0, 0.5, float("nan"), float("inf"))
        path = tmp_path / "t.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "col_access", "f", "eps_obj", "eps_energy", "eps_tan"])
            w.writerow([rec.iteration, rec.col_access, repr(rec.f),
                        repr(rec.eps_obj), repr(rec.eps_energy), repr(rec.eps_tan)])
        back = read_trace(path)[0]
        assert math.isinf(back.eps_tan)
        assert math.isnan(back.eps_energy)
