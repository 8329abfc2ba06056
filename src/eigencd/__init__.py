"""Coordinate-wise descent solvers and benchmarks for leading eigenvalue problems."""

from .engine import (CubicCoeffs, SolverState, StrategyConfig, coord_cubic,
                     delta_f, init_state, pick_gauss_southwell, pick_grad_power,
                     pick_greedy_ls, power_method_step, solve_cubic_min, step,
                     stepsize_bound)
from .harness import (ExperimentResult, ReferenceSolution, RunStats, TraceRecord,
                      compute_reference, emit_trace, eps_obj, eps_tan,
                      projected_energy, run_experiment)
from .hubbard import (Determinant, HubbardOracle, LatticeSpec, MomentumBasis,
                      enumerate_sector, hamiltonian_column, hf_determinant)
from .operators import (ColumnOracle, DenseSymmetric, SpectrumSpec,
                        build_synthetic, column_norm_max, frobenius_norm_sq,
                        load_dense, save_dense, shift_scale)

__version__ = "0.1.0"
