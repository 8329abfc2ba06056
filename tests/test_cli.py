import json

import numpy as np
import pytest

from eigencd.cli import (UsageError, main, parse_hubbard, parse_method,
                         parse_synthetic, parse_x0)
from eigencd.operators import DenseSymmetric, load_dense, save_dense


class TestParseMethod:
    @pytest.mark.parametrize("name,pick,update,t", [
        ("CD-Cyc-Grad", "cyclic", "fixed_grad", None),
        ("CD-Cyc-LS", "cyclic", "coord_ls", None),
        ("GCD-Grad-LS", "gauss_southwell", "coord_ls", None),
        ("GCD-LS-LS", "greedy_ls", "coord_ls", None),
        ("SCD-Grad-LS(1)", "grad_power", "coord_ls", 1.0),
        ("SCD-Grad-LS(2)", "grad_power", "coord_ls", 2.0),
        ("SCD-Grad-vecLS(2)", "grad_power", "vec_ls", 2.0),
        ("SCD-Uni-LS", "grad_power", "coord_ls", 0.0),
        ("SCD-Uni-Grad", "grad_power", "fixed_grad", 0.0),
        ("Grad-vecLS", "all", "vec_ls", None),
        ("PM", "pm", None, None),
    ])
    def test_table(self, name, pick, update, t):
        gamma = 0.1 if update == "fixed_grad" else None
        config = parse_method(name, gamma=gamma)
        assert config.pick == pick
        if pick != "pm" and update is not None:
            assert config.update == update
        if t is not None:
            assert config.t == t

    def test_uniform_alias(self):
        assert parse_method("SCD-Grad-LS(0)") == parse_method("SCD-Uni-LS")

    def test_unknown_method_lists_supported(self):
        with pytest.raises(UsageError, match="supported"):
            parse_method("XYZ-Foo")

    def test_power_suffix_rejected_outside_scd(self):
        with pytest.raises(UsageError):
            parse_method("GCD-LS-LS(2)")

    def test_batch_passthrough(self):
        config = parse_method("SCD-Grad-LS(1)", k=4, averaged=True)
        assert config.k == 4 and config.averaged


class TestSpecParsers:
    def test_synthetic(self):
        spec = parse_synthetic("n=500,l1=108")
        assert spec.dim == 500 and spec.eigenvalues[0] == 108.0

    def test_synthetic_overrides(self):
        spec = parse_synthetic("n=50,l1=9,lo=0.5,hi=5,seed=3")
        assert spec.eigenvalues[-1] == pytest.approx(0.5)
        assert spec.seed == 3

    def test_synthetic_missing_keys(self):
        with pytest.raises(UsageError):
            parse_synthetic("n=500")

    def test_synthetic_unknown_keys(self):
        with pytest.raises(UsageError):
            parse_synthetic("n=10,l1=5,bogus=1")

    def test_hubbard(self):
        spec = parse_hubbard("l1=4,l2=4,nup=3,ndown=3,t=1,u=4")
        assert (spec.l1, spec.l2, spec.n_up, spec.n_down) == (4, 4, 3, 3)

    def test_x0_unit(self):
        oracle = DenseSymmetric(np.eye(4))
        x0 = parse_x0("e2:5", oracle, "matrix")
        assert x0.tolist() == [0.0, 5.0, 0.0, 0.0]

    def test_x0_default_synthetic(self):
        oracle = DenseSymmetric(np.eye(4))
        assert parse_x0("default", oracle, "synthetic").tolist() == [1, 0, 0, 0]

    def test_x0_out_of_range(self):
        with pytest.raises(UsageError):
            parse_x0("e9", DenseSymmetric(np.eye(4)), "matrix")


class TestCommands:
    def test_gen_then_load(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        assert main(["gen", "--synthetic", "n=16,l1=5,lo=0.5,hi=3,seed=2",
                     "--out", str(path)]) == 0
        a = load_dense(path)
        assert a.dim == 16
        vals = np.linalg.eigvalsh(a.array)
        assert vals[-1] == pytest.approx(5.0, abs=1e-8)

    def test_solve_synthetic(self, capsys, tmp_path):
        code = main(["solve", "--synthetic", "n=40,l1=8,lo=0.5,hi=4,seed=1",
                     "--method", "GCD-LS-LS", "--tol", "1e-6", "--x0", "e1",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        lam = float(out.split("lambda_estimate = ")[1].splitlines()[0])
        assert lam == pytest.approx(8.0, abs=1e-4)
        assert (tmp_path / "run" / "summary.csv").exists()

    def test_solve_requires_one_source(self, capsys):
        assert main(["solve", "--method", "PM"]) == 2

    def test_non_finite_matrix_refused(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2\n1.0 2.0\n2.0 nan\n")
        assert main(["solve", "--matrix", str(path), "--method", "PM"]) == 2
        assert "non-finite entry nan at row 2, column 2" in capsys.readouterr().err

    def test_zero_seeds_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--synthetic", "n=10,l1=5,lo=1,hi=4",
                  "--method", "SCD-Uni-LS", "--seeds", "0"])
        assert exc.value.code == 2
        assert "--seeds: expected a positive integer" in capsys.readouterr().err

    def test_bench_zero_seeds_refused(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=10,l1=5,lo=1,hi=4", "seeds": 0,
                                    "methods": [{"name": "SCD-Uni-LS"}]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert "seeds must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--tol", "0", "--tol: expected a positive number, got '0'"),
        ("--tol", "-0.5", "--tol: expected a positive number, got '-0.5'"),
        ("--max-col-access", "-5", "--max-col-access: expected a non-negative integer"),
        ("--trace-stride", "-1", "--trace-stride: expected a non-negative integer"),
    ])
    def test_bad_run_flag_refused(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4",
                  "--method", "GCD-LS-LS", flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("tol", 0, "tol must be > 0, got 0.0"),
        ("tol", -1e-3, "tol must be > 0, got -0.001"),
        ("max_col_access", -5, "max_col_access must be >= 0, got -5"),
        ("trace_stride", -1, "trace_stride must be >= 0, got -1"),
    ])
    def test_bench_bad_run_key_refused(self, key, value, message, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=10,l1=5,lo=1,hi=4", key: value,
                                    "methods": [{"name": "GCD-LS-LS"}]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert f"bench config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["GCD-LS-LS", "PM"])
    def test_zero_x0_refused(self, method, capsys):
        assert main(["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4",
                     "--method", method, "--x0", "e1:0"]) == 2
        assert "x0 'e1:0' is the zero vector" in capsys.readouterr().err

    def test_zero_x0_file_refused(self, tmp_path, capsys):
        path = tmp_path / "x0.txt"
        np.savetxt(path, np.zeros(20))
        assert main(["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4",
                     "--method", "GCD-LS-LS", "--x0", f"file:{path}"]) == 2
        assert "is the zero vector" in capsys.readouterr().err

    def test_bench_zero_x0_refused(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=10,l1=5,lo=1,hi=4", "x0": "e2:0",
                                    "methods": [{"name": "GCD-LS-LS"}]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert "x0 'e2:0' is the zero vector" in capsys.readouterr().err

    def test_non_finite_x0_refused(self, capsys):
        assert main(["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4",
                     "--method", "GCD-LS-LS", "--x0", "e3:nan"]) == 2
        assert "x0 'e3:nan' has a non-finite entry" in capsys.readouterr().err

    @pytest.fixture
    def negative_definite(self, tmp_path):
        path = tmp_path / "neg.txt"
        save_dense(path, DenseSymmetric(np.diag(-np.arange(1.0, 7.0))))
        return path

    def test_negative_definite_refused(self, negative_definite, capsys):
        assert main(["solve", "--matrix", str(negative_definite),
                     "--method", "GCD-LS-LS"]) == 2
        assert "no positive leading eigenvalue (lambda1 = -1)" in capsys.readouterr().err

    def test_bench_negative_definite_refused(self, negative_definite, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"matrix": str(negative_definite),
                                    "out": str(tmp_path / "out"),
                                    "methods": [{"name": "GCD-LS-LS"}]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert "no positive leading eigenvalue (lambda1 = -1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rank_one_refused(self, capsys):
        assert main(["solve", "--synthetic", "n=20,l1=5,lo=0,hi=0",
                     "--method", "GCD-LS-LS"]) == 2
        err = capsys.readouterr().err
        assert "f* = ||A||_F^2 - lambda1^2 = " in err
        assert "rank one" in err and "eps_obj" in err

    def test_bench_rank_one_refused(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=20,l1=5,lo=0,hi=0",
                                    "methods": [{"name": "PM"}]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert "rank one" in capsys.readouterr().err

    def test_bench_config(self, tmp_path, capsys):
        cfg = {
            "synthetic": "n=40,l1=8,lo=0.5,hi=4,seed=1",
            "tol": 1e-6,
            "max_col_access": 10**7,
            "seeds": 3,
            "x0": "e1",
            "methods": [
                {"name": "GCD-LS-LS"},
                {"name": "SCD-Grad-LS(1)", "k": 2},
            ],
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert len(summary) == 3
        assert summary[2].split(",")[1] == "2"  #k column

    def test_hubbard_info(self, capsys):
        assert main(["hubbard", "info", "--l", "2", "2", "--nup", "1",
                     "--ndown", "1"]) == 0
        out = capsys.readouterr().out
        assert "dim = 4" in out
        assert "sector momentum = (0, 0)" in out

    def test_verify_exits_clean(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_unshifted_eigenvalue_reported(self, capsys):
        code = main(["solve", "--synthetic", "n=30,l1=6,lo=0.5,hi=3,seed=4",
                     "--scale", "-1.0", "--shift", "10.0",
                     "--method", "GCD-LS-LS", "--tol", "1e-6"])
        assert code == 0
        out = capsys.readouterr().out
        # leading eigenvalue of 10I - A is 10 - min eig(A) = 9.5; unshifting
        # recovers the smallest eigenvalue of A, which the grid pins at 0.5
        unshifted = float(out.split("unshifted_eigenvalue = ")[1].splitlines()[0])
        assert unshifted == pytest.approx(0.5, abs=1e-3)
