import json
import warnings

import numpy as np
import pytest

from eigencd import cli, hubbard
from eigencd.cli import (UsageError, main, parse_hubbard, parse_method,
                         parse_synthetic, parse_x0)
from eigencd.operators import DenseSymmetric, build_synthetic, load_dense, save_dense

from conftest import double_top


def _no_reference(oracle):
    raise AssertionError("the reference ran before the refusal")


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

    def test_options_the_method_reads_pass(self):
        assert parse_method("PM", k=1).pick == "pm"
        assert parse_method("SCD-Grad-LS(2)", t=2.0).t == 2.0
        assert parse_method("SCD-Uni-LS", t=0.0, with_replacement=False).t == 0.0
        assert parse_method("SCD-Grad-LS", t=0.5).t == 0.5

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

    def test_x0_hf_needs_a_hubbard_source(self):
        oracle = build_synthetic(parse_synthetic("n=20,l1=500"))
        with pytest.raises(UsageError, match="x0=hf needs a hubbard matrix source"):
            parse_x0("hf", oracle, "synthetic")


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

    def test_hubbard_info_negative_max_dim_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hubbard", "info", "--l", "2", "2", "--nup", "1", "--ndown", "1",
                  "--max-dim", "-1"])
        assert exc.value.code == 2
        assert "--max-dim: expected a positive integer, got '-1'" in capsys.readouterr().err

    def test_hubbard_info_cap_defaults_to_the_sector_cap(self, monkeypatch, capsys):
        # the 2x2 1+1 sector has dimension 4
        monkeypatch.setattr(hubbard, "DEFAULT_SECTOR_CAP", 3)
        assert main(["hubbard", "info", "--l", "2", "2", "--nup", "1", "--ndown", "1"]) == 1
        assert "sector dimension 4 exceeds cap 3" in capsys.readouterr().err

    def test_zero_seeds_refused(self, capsys):
        assert main(["solve", "--synthetic", "n=10,l1=5,lo=1,hi=4",
                     "--method", "SCD-Uni-LS", "--seeds", "0"]) == 2
        assert "error: --seeds must be >= 1, got 0" in capsys.readouterr().err

    def test_bench_zero_seeds_refused(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=10,l1=5,lo=1,hi=4", "seeds": 0,
                                    "methods": [{"name": "SCD-Uni-LS"}]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert "seeds must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("tol", 0, "tol must be > 0, got 0.0"),
        ("tol", -1e-3, "tol must be > 0, got -0.001"),
        ("tol", float("inf"), "tol must be a finite number, got inf"),
        ("max_col_access", -5, "max_col_access must be >= 0, got -5"),
        ("trace_stride", -1, "trace_stride must be >= 0, got -1"),
    ])
    def test_bench_bad_run_key_refused(self, key, value, message, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=10,l1=5,lo=1,hi=4", key: value,
                                    "methods": [{"name": "GCD-LS-LS"}]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert f"bench config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,key,value,message", [
        ("--seeds", "seeds", 0, "must be >= 1, got 0"),
        ("--tol", "tol", 0, "must be > 0, got 0.0"),
        ("--tol", "tol", -0.5, "must be > 0, got -0.5"),
        ("--tol", "tol", float("inf"), "must be a finite number, got inf"),
        ("--max-col-access", "max_col_access", -5, "must be >= 0, got -5"),
        ("--trace-stride", "trace_stride", -1, "must be >= 0, got -1"),
        ("--scale", "scale", float("inf"), "must be a finite number, got inf"),
        ("--shift", "shift", float("nan"), "must be a finite number, got nan"),
    ], ids=["seeds-0", "tol-0", "tol-negative", "tol-inf", "max_col_access-negative",
            "trace_stride-negative", "scale-inf", "shift-nan"])
    def test_run_option_out_of_range_refused(self, flag, key, value, message, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.setattr(cli, "compute_reference", _no_reference)
        assert main(["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4",
                     "--method", "GCD-LS-LS", flag, str(value)]) == 2
        assert f"error: {flag} {message}" in capsys.readouterr().err
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=20,l1=5,lo=1,hi=4", key: value,
                                    "methods": [{"name": "GCD-LS-LS"}]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert f"error: bench config: {key} {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("config,message", [
        ({"tols": 1e-12, "methods": [{"name": "GCD-LS-LS"}]},
         "bench config: unknown keys ['tols']"),
        ({"methods": [{"name": "GCD-LS-LS"}, {"name": "SCD-Grad-LS(1)", "K": 4}]},
         "bench config: methods[1]: unknown keys ['K']"),
    ], ids=["run-key", "method-key"])
    def test_bench_unknown_key_refused(self, config, message, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.setattr(cli, "compute_reference", _no_reference)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=20,l1=5,lo=1,hi=4", **config}))
        assert main(["bench", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("methods,message", [
        ([{"name": "SCD-Grad-LS", "t": 1}, {"name": "SCD-Grad-LS", "t": 2}],
         "methods[1]: labels 'SCD-Grad-LS' and 'SCD-Grad-LS' would write the same trace"),
        ([{"name": "PM", "label": "a b"}, {"name": "GCD-LS-LS", "label": "a-b"}],
         "methods[1]: labels 'a b' and 'a-b' would write the same trace"),
    ], ids=["same-label", "same-slug"])
    def test_bench_clashing_labels_refused(self, methods, message, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setattr(cli, "compute_reference", _no_reference)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=20,l1=5,lo=1,hi=4", "methods": methods}))
        assert main(["bench", "--config", str(path)]) == 2
        assert f"bench config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("method,key,value,message", [
        ("GCD-LS-LS", "t", 5.0, "GCD-LS-LS never reads t; got t = 5.0"),
        ("SCD-Grad-LS(1)", "t", 2.0, "SCD-Grad-LS(1) samples with t = 1; t = 2 contradicts it"),
        ("SCD-Uni-LS", "t", 1.0, "SCD-Uni-LS samples with t = 0; t = 1 contradicts it"),
        ("GCD-LS-LS", "gamma", 0.1, "GCD-LS-LS never reads gamma; got gamma = 0.1"),
        ("GCD-LS-LS", "replacement", False,
         "GCD-LS-LS never reads replacement; got replacement = False"),
        ("PM", "k", 3, "PM never reads k; got k = 3"),
        ("PM", "averaged", True, "PM never reads averaged; got averaged = True"),
        ("CD-Cyc-LS", "averaged", True,
         "CD-Cyc-LS never reads averaged at k = 1; got averaged = True"),
        ("GCD-LS-LS", "averaged", True,
         "GCD-LS-LS never reads averaged at k = 1; got averaged = True"),
        ("SCD-Grad-LS(1)", "averaged", True,
         "SCD-Grad-LS never reads averaged at k = 1; got averaged = True"),
    ], ids=["t-unsampled", "t-against-suffix", "t-against-uni", "gamma-unstepped",
            "replacement-unsampled", "k-pm", "averaged-pm", "averaged-cyclic-k1",
            "averaged-greedy-k1", "averaged-sampled-k1"])
    def test_unread_option_refused(self, method, key, value, message, tmp_path,
                                   monkeypatch, capsys):
        monkeypatch.setattr(cli, "compute_reference", _no_reference)
        assert main(["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4", "--method", method,
                     f"--{key}", str(value)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=20,l1=5,lo=1,hi=4",
                                    "methods": [{"name": method, key: value}]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert f"error: bench config: methods[0]: {message}" in capsys.readouterr().err

    def test_averaged_batch_runs(self, tmp_path, capsys):
        source = "n=20,l1=5,lo=1,hi=4"
        assert main(["solve", "--synthetic", source, "--method", "SCD-Grad-LS(1)",
                     "--k", "2", "--averaged", "true", "--seeds", "2"]) == 0
        assert "method=SCD-Grad-LS(1) k=2 seeds_used=2" in capsys.readouterr().out
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": source, "seeds": 2, "methods": [
            {"name": "SCD-Grad-LS(1)", "k": 2, "averaged": True}]}))
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "SCD-Grad-LS(1)-k2: k=2" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["GCD-LS-LS", "SCD-Grad-LS(1)"])
    def test_solve_is_a_one_method_bench(self, method, tmp_path, capsys):
        source = "n=40,l1=8,lo=0.5,hi=4,seed=1"
        assert main(["solve", "--synthetic", source, "--method", method,
                     "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        iters = out.split("iterations min/med/max = ")[1].split()[0]
        total = out.split("total_col_access = ")[1].split()[0]
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": source, "seeds": 3,
                                    "methods": [{"name": method}]}))
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert f"{method}: k=1 iters {iters} col_access {total} failed_seeds 0" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("config,message", [
        ({}, "bench config: methods must list at least one method entry"),
        ({"methods": [{"k": 2}]}, "bench config: methods[0]: expected an object with a name"),
        ({"methods": [{"name": "GCD-LS-LS", "k": "2"}]},
         "bench config: methods[0]: k must be an integer, got '2'"),
        ({"seeds": "abc", "methods": [{"name": "SCD-Uni-LS"}]},
         "bench config: seeds must be an integer, got 'abc'"),
        ({"methods": [{"name": "SCD-Uni-LS", "replacement": "false"}]},
         "bench config: methods[0]: replacement must be true or false, got 'false'"),
    ], ids=["no-methods", "no-name", "string-k", "string-seeds", "string-replacement"])
    def test_bench_malformed_key_refused(self, config, message, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=10,l1=5,lo=1,hi=4",
                                    "out": str(tmp_path / "out"), **config}))
        assert main(["bench", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bench_config_not_an_object_refused(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps([{"synthetic": "n=10,l1=5,lo=1,hi=4",
                                     "methods": [{"name": "GCD-LS-LS"}]}]))
        assert main(["bench", "--config", str(path)]) == 2
        assert "error: bench config: expected a JSON object" in capsys.readouterr().err

    def test_existing_file_as_trace_directory_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "compute_reference", _no_reference)
        monkeypatch.chdir(tmp_path)
        taken = tmp_path / "taken.txt"
        taken.write_text("0\n")
        source = {"synthetic": "n=20,l1=500", "methods": [{"name": "GCD-LS-LS"}]}
        assert main(["solve", "--synthetic", source["synthetic"], "--method", "GCD-LS-LS",
                     "--out", str(taken)]) == 2
        message = f"error: trace directory {str(taken)!r} exists and is not a directory"
        assert message in capsys.readouterr().err
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(source))
        assert main(["bench", "--config", str(path), "--out", str(taken)]) == 2
        assert message in capsys.readouterr().err
        path.write_text(json.dumps({**source, "out": str(taken)}))
        assert main(["bench", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        (tmp_path / "bench-out").write_text("")
        path.write_text(json.dumps(source))
        assert main(["bench", "--config", str(path)]) == 2
        assert "error: trace directory 'bench-out' exists and is not a directory" \
            in capsys.readouterr().err
        assert taken.read_text() == "0\n"

    def test_bench_reports_a_failing_method_and_writes_the_rest(self, tmp_path, capsys):
        methods = [{"name": "SCD-Grad-LS(1)"}, {"name": "GCD-LS-LS"}]
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=60,l1=108", "max_col_access": 1500,
                                    "seeds": 2, "methods": methods}))
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        out = capsys.readouterr().out
        assert "SCD-Grad-LS(1): FAILED (SCD-Grad-LS(1): no seed converged " \
               "(statuses: ['budget']))" in out
        assert "GCD-LS-LS: k=1 iters" in out
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["summary.csv", "trace_GCD-LS-LS_seed0.csv"]
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary] == ["Method", "GCD-LS-LS"]
        path.write_text(json.dumps({"synthetic": "n=60,l1=108", "max_col_access": 1500,
                                    "seeds": 2, "methods": methods[:1]}))
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "none")]) == 1
        assert "SCD-Grad-LS(1): FAILED" in capsys.readouterr().out
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("extra", [[], ["--replacement", "false", "--k", "2"]],
                             ids=["k1", "distinct-k2"])
    def test_start_at_a_saddle_stalls(self, extra, tmp_path, capsys):
        path = tmp_path / "diag.txt"
        save_dense(path, np.diag([4.0, 1.0, 0.5]))
        assert main(["solve", "--matrix", str(path), "--method", "SCD-Grad-LS(1)",
                     "--x0", "e2", "--seeds", "2", *extra]) == 1
        assert "no seed converged (statuses: ['stalled'])" in capsys.readouterr().err

    def test_start_far_above_the_solution_scale_refused(self, capsys):
        assert main(["solve", "--synthetic", "n=20,l1=500", "--method", "GCD-LS-LS",
                     "--x0", "e1:1e20"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: x0 @ x0 = 1e+40 is above 65536 times lambda1 = 500: ")
        assert err.rstrip().endswith("scale x0 down")

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

    @pytest.mark.parametrize("args,message", [
        (["--method", "SCD-Grad-LS(nan)"], "sampling power t must be finite and >= 0, got nan"),
        (["--method", "SCD-Grad-LS", "--t", "inf"],
         "sampling power t must be finite and >= 0, got inf"),
        (["--method", "CD-Cyc-Grad", "--gamma", "nan"],
         "fixed_grad update needs a finite stepsize gamma > 0, got nan"),
        (["--method", "SCD-Uni-Grad", "--gamma", "inf"],
         "fixed_grad update needs a finite stepsize gamma > 0, got inf"),
        (["--method", "GCD-LS-LS", "--shift", "nan"], "shift must be a finite number, got nan"),
        (["--method", "GCD-LS-LS", "--scale", "inf"], "scale must be a finite number, got inf"),
        (["--method", "GCD-LS-LS", "--synthetic", "n=20,l1=nan"],
         "synthetic spec 'n=20,l1=nan': gapped_grid needs finite values, got lam1=nan"),
        (["--method", "GCD-LS-LS", "--synthetic", "n=20,l1=inf"],
         "synthetic spec 'n=20,l1=inf': gapped_grid needs finite values, got lam1=inf"),
        (["--method", "GCD-LS-LS", "--synthetic", "n=20,l1=5,lo=nan,hi=4"],
         "gapped_grid needs finite values, got lam1=5.0, low=nan, high=4.0"),
        (["--method", "GCD-LS-LS", "--synthetic", "n=20,l1=108,hi=inf"],
         "gapped_grid needs finite values, got lam1=108.0, low=1.0, high=inf"),
    ])
    def test_non_finite_run_value_refused(self, args, message, capsys):
        assert main(["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4", "--seeds", "2",
                     *args]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("source,method,message", [
        ({"shift": float("nan")}, {"name": "GCD-LS-LS"},
         "shift must be a finite number, got nan"),
        ({"scale": float("-inf")}, {"name": "GCD-LS-LS"},
         "scale must be a finite number, got -inf"),
        ({}, {"name": "CD-Cyc-Grad", "gamma": float("nan")},
         "fixed_grad update needs a finite stepsize gamma > 0, got nan"),
        ({}, {"name": "SCD-Grad-LS", "t": float("nan")},
         "sampling power t must be finite and >= 0, got nan"),
        ({"synthetic": "n=10,l1=nan"}, {"name": "GCD-LS-LS"},
         "synthetic spec 'n=10,l1=nan': gapped_grid needs finite values, got lam1=nan"),
        ({"hubbard": "l1=2,l2=2,nup=1,ndown=1,u=inf", "synthetic": None}, {"name": "PM"},
         "hubbard spec 'l1=2,l2=2,nup=1,ndown=1,u=inf': u must be a finite number, got inf"),
    ])
    def test_bench_non_finite_value_refused(self, source, method, message, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=10,l1=5,lo=1,hi=4", **source,
                                    "out": str(tmp_path / "out"), "methods": [method]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (["hubbard", "info", "--l", "2", "2", "--nup", "1", "--ndown", "1", "--u", "nan"],
         "u must be a finite number, got nan"),
        (["hubbard", "info", "--l", "2", "2", "--nup", "1", "--ndown", "1", "--t=-inf"],
         "t_hop must be a finite number, got -inf"),
        (["solve", "--hubbard", "l1=4,l2=2,nup=2,ndown=2,t=nan", "--method", "GCD-LS-LS"],
         "hubbard spec 'l1=4,l2=2,nup=2,ndown=2,t=nan': t_hop must be a finite number, got nan"),
        (["solve", "--hubbard", "l1=4,l2=x,nup=2,ndown=2", "--method", "GCD-LS-LS"],
         "hubbard spec 'l1=4,l2=x,nup=2,ndown=2': l2 must be an integer, got 'x'"),
        (["solve", "--hubbard", "l1=4,l2=2,nup=2,ndown=2,U=8", "--method", "GCD-LS-LS"],
         "unknown hubbard keys ['U']"),
        (["solve", "--synthetic", "n=abc,l1=5", "--method", "GCD-LS-LS"],
         "synthetic spec 'n=abc,l1=5': n must be an integer, got 'abc'"),
        (["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4,seed=1.5", "--method", "GCD-LS-LS"],
         "synthetic spec 'n=20,l1=5,lo=1,hi=4,seed=1.5': seed must be an integer, got '1.5'"),
        (["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4", "--method", "GCD-LS-LS", "--x0", "e"],
         "x0 'e': coordinate must be an integer, got ''"),
        (["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4", "--method", "GCD-LS-LS",
          "--x0", "e1:abc"], "x0 'e1:abc': amplitude must be a number, got 'abc'"),
        (["solve", "--synthetic", "n=2,l1=5,lo=1,hi=4", "--method", "GCD-LS-LS",
          "--x0", "file:{tmp}/x0.txt"], "x0.txt: entry must be a number, got 'abc'"),
        (["solve", "--matrix", "{tmp}/entry.txt", "--method", "GCD-LS-LS"],
         "entry.txt: entry must be a number, got 'x'"),
        (["solve", "--matrix", "{tmp}/size.txt", "--method", "GCD-LS-LS"],
         "size.txt: size must be an integer, got 'x'"),
        (["solve", "--matrix", "{tmp}/size0.txt", "--method", "GCD-LS-LS"],
         "size0.txt: size must be at least 1, got 0"),
        (["solve", "--matrix", "{tmp}/size-1.txt", "--method", "GCD-LS-LS"],
         "size-1.txt: size must be at least 1, got -1"),
        (["solve", "--synthetic", "n=20,l1=500,n=30", "--method", "GCD-LS-LS", "--tol", "1e-3"],
         "synthetic spec 'n=20,l1=500,n=30': n given twice"),
        (["solve", "--hubbard", "l1=3,l2=2,nup=1,ndown=1,nup=2", "--method", "GCD-LS-LS"],
         "hubbard spec 'l1=3,l2=2,nup=1,ndown=1,nup=2': nup given twice"),
        (["solve", "--synthetic", "n=3,l1=5,lo=1,hi=2,seed=-1", "--method", "GCD-LS-LS"],
         "synthetic spec 'n=3,l1=5,lo=1,hi=2,seed=-1': seed must be non-negative, got -1"),
        (["gen", "--synthetic", "n=3,l1=5,lo=1,hi=2,seed=-1", "--out", "{tmp}/gen.txt"],
         "synthetic spec 'n=3,l1=5,lo=1,hi=2,seed=-1': seed must be non-negative, got -1"),
        (["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4", "--method", "GCD-LS-LS",
          "--x0", "foo"], "bad x0 spec 'foo'"),
        (["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4", "--method", "SCD-Grad-LS(x)"],
         "bad sampling power in method name 'SCD-Grad-LS(x)'"),
        (["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4", "--method", "GCD-LS-LS", "--k", "0"],
         "batch size k must be >= 1"),
        (["solve", "--synthetic", "n=20,l1", "--method", "GCD-LS-LS"],
         "bad synthetic spec 'n=20,l1': expected key=value pairs"),
        (["solve", "--matrix", "{tmp}/empty.txt", "--method", "GCD-LS-LS"],
         "empty.txt: empty matrix file"),
        (["solve", "--matrix", "{tmp}/zero.txt", "--method", "CD-Cyc-Grad"],
         "zero operator has no meaningful stepsize bound"),
    ], ids=["info-u-nan", "info-t-inf", "hubbard-t-nan", "hubbard-l2-x", "hubbard-unknown-key",
            "synthetic-n-abc", "synthetic-seed-float", "x0-no-index", "x0-bad-amplitude",
            "x0-file-abc", "matrix-entry-x", "matrix-size-x", "matrix-size-0",
            "matrix-size-negative", "synthetic-repeated-key", "hubbard-repeated-key",
            "synthetic-seed-negative", "gen-seed-negative", "x0-unknown-form",
            "method-bad-power", "k-0", "synthetic-no-value", "matrix-empty",
            "matrix-zero-fixed-step"])
    def test_bad_spec_value_refused(self, argv, message, tmp_path, monkeypatch, capsys):
        (tmp_path / "x0.txt").write_text("1\nabc\n")
        (tmp_path / "entry.txt").write_text("2\n1.0 x\nx 3.0\n")
        (tmp_path / "size.txt").write_text("x\n1.0\n")
        (tmp_path / "size0.txt").write_text("0\n")
        (tmp_path / "size-1.txt").write_text("-1\n5.0\n")
        (tmp_path / "empty.txt").write_text("")
        save_dense(tmp_path / "zero.txt", np.zeros((3, 3)))
        monkeypatch.setattr(cli, "compute_reference", _no_reference)
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        assert message in capsys.readouterr().err

    def test_gen_non_finite_refused(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        assert main(["gen", "--synthetic", "n=5,l1=nan", "--out", str(path)]) == 2
        assert "gapped_grid needs finite values, got lam1=nan" in capsys.readouterr().err
        assert not path.exists()

    def test_fixed_step_defaults_to_the_safe_bound(self, capsys):
        assert main(["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4",
                     "--method", "CD-Cyc-Grad"]) == 0
        assert "seeds_used=1 failed=0" in capsys.readouterr().out

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

    @pytest.mark.parametrize("args", [
        ["--synthetic", "n=3,l1=1e308,lo=1,hi=2"],
        ["--synthetic", "n=3,l1=5,lo=1,hi=2", "--scale", "1e300"],
    ], ids=["entries", "scale"])
    def test_overflowing_frobenius_norm_refused(self, args, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["solve", *args, "--method", "GCD-LS-LS"]) == 2
        assert "||A||_F^2 = inf is not a finite number" in capsys.readouterr().err

    def test_one_by_one_matrix_refused(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("1\n5.0\n")
        assert main(["solve", "--matrix", str(path), "--method", "GCD-LS-LS"]) == 2
        err = capsys.readouterr().err
        assert "dimension 1" in err and "rank one" in err

    def test_one_dimensional_hubbard_sector_refused(self, capsys):
        assert main(["solve", "--hubbard", "l1=1,l2=1,nup=1,ndown=0",
                     "--method", "GCD-LS-LS"]) == 2
        err = capsys.readouterr().err
        assert "dimension 1" in err and "rank one" in err

    def test_bench_rank_one_refused(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=20,l1=5,lo=0,hi=0",
                                    "methods": [{"name": "PM"}]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert "rank one" in capsys.readouterr().err

    def test_degenerate_leading_eigenvalue_refused(self, tmp_path, capsys):
        path = tmp_path / "double.txt"
        save_dense(path, double_top(20))
        assert main(["solve", "--matrix", str(path), "--method", "GCD-LS-LS"]) == 2
        assert "is within the reference's resolution" in capsys.readouterr().err
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"matrix": str(path), "methods": [{"name": "PM"}]}))
        assert main(["bench", "--config", str(bench)]) == 2
        assert "is within the reference's resolution" in capsys.readouterr().err

    @pytest.mark.parametrize("method,extra", [
        ("GCD-LS-LS", ["--averaged", "true"]),
        ("SCD-Grad-LS", ["--replacement", "false"]),
        ("SCD-Uni-LS", ["--replacement", "false"]),
    ])
    def test_distinct_batch_above_the_order_refused(self, method, extra, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setattr(cli, "compute_reference", _no_reference)
        message = "batch size k = 30 exceeds the operator order n = 20"
        assert main(["solve", "--synthetic", "n=20,l1=5,lo=1,hi=4", "--method", method,
                     "--k", "30", *extra]) == 2
        assert message in capsys.readouterr().err
        entry = {"name": method, "k": 30, extra[0][2:]: extra[1] == "true"}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"synthetic": "n=20,l1=5,lo=1,hi=4", "methods": [entry]}))
        assert main(["bench", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

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
        assert "lattice 2x2  t=1.0 U=4.0  electrons 1+1" in out
        assert "dim = 4" in out
        assert "sector momentum = (0, 0)" in out

    def test_hubbard_info_reads_t_and_u_through_the_spec(self, capsys):
        argv = ["hubbard", "info", "--l", "2", "2", "--nup", "1", "--ndown", "1"]
        assert main([*argv, "--t", "0.5", "--u", "8"]) == 0
        assert "lattice 2x2  t=0.5 U=8.0" in capsys.readouterr().out
        assert main([*argv, "--t", "inf"]) == 2
        assert ("hubbard spec 'l1=2,l2=2,nup=1,ndown=1,t=inf': t_hop must be a finite "
                "number, got inf") in capsys.readouterr().err

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
