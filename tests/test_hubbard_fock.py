"""Brute-force second quantization as an independent oracle for the Hubbard kernel.

Determinants are Fock-space bit strings over the modes (up orbitals 0..n-1,
then down orbitals n..2n-1).  Operators are applied one at a time with
Jordan-Wigner signs, (-1)**(occupied modes below the one acted on), so
nothing here shares code with the package's block kernel: not its transfer
tables, its parity arithmetic, its sector enumeration nor its index.
"""

import itertools
import math

import numpy as np
import pytest

from eigencd.hubbard import HubbardOracle, LatticeSpec, hamiltonian_column

SPECS = [
    LatticeSpec(l1=2, l2=2, n_up=2, n_down=2),
    LatticeSpec(l1=2, l2=2, n_up=2, n_down=1, t_hop=1.5, u=0.0),
    LatticeSpec(l1=3, l2=2, n_up=2, n_down=1),
    LatticeSpec(l1=3, l2=2, n_up=1, n_down=2, t_hop=0.5, u=-3.0),
    LatticeSpec(l1=3, l2=2, n_up=2, n_down=2, u=2.5),
]


def apply_ops(ops, state):
    """``ops`` = [(mode, create), ...] applied right to left; (state, sign) or None."""
    sign = 1
    for mode, create in reversed(ops):
        if (state >> mode & 1) == create:
            return None
        if bin(state & ((1 << mode) - 1)).count("1") % 2:
            sign = -sign
        state ^= 1 << mode
    return state, sign


def orbitals(spec):
    return [(p % spec.l1, p // spec.l1) for p in range(spec.l1 * spec.l2)]


def momentum_h_column(spec, state):
    """H|state> in momentum space: {target state: amplitude}."""
    n = spec.l1 * spec.l2
    orbs = orbitals(spec)
    index = {r: p for p, r in enumerate(orbs)}

    def shift(a, b, s):
        return index[((orbs[a][0] + s * orbs[b][0]) % spec.l1,
                      (orbs[a][1] + s * orbs[b][1]) % spec.l2)]

    out = {state: sum(
        spec.t_hop * -2.0 * (math.cos(2 * math.pi * r1 / spec.l1)
                             + math.cos(2 * math.pi * r2 / spec.l2))
        for m, (r1, r2) in enumerate(orbs + orbs) if state >> m & 1)}
    amp = spec.u / n
    for k, p, q in itertools.product(range(n), repeat=3):
        ops = [(shift(p, q, -1), 1), (n + shift(k, q, 1), 1), (n + k, 0), (p, 0)]
        hit = apply_ops(ops, state)
        if hit is not None:
            out[hit[0]] = out.get(hit[0], 0.0) + hit[1] * amp
    return {s: v for s, v in out.items() if v != 0.0 or s == state}


def real_space_h(spec, states):
    """Real-space Hubbard H, -t hops to the +x and +y neighbours plus h.c. and U n_up n_dn."""
    n = spec.l1 * spec.l2
    site = {r: p for p, r in enumerate(orbitals(spec))}
    pos = {s: i for i, s in enumerate(states)}
    h = np.zeros((len(states), len(states)))
    for (x, y), a in site.items():
        for b in (site[(x + 1) % spec.l1, y], site[x, (y + 1) % spec.l2]):
            for off in (0, n):
                for dst, src in ((a, b), (b, a)):
                    for s in states:
                        hit = apply_ops([(off + dst, 1), (off + src, 0)], s)
                        if hit is not None:
                            h[pos[hit[0]], pos[s]] -= spec.t_hop * hit[1]
        for s in states:
            h[pos[s], pos[s]] += spec.u * (s >> a & 1) * (s >> (n + a) & 1)
    return h


def fock_states(spec):
    n = spec.l1 * spec.l2
    ups = [sum(1 << p for p in c) for c in itertools.combinations(range(n), spec.n_up)]
    dns = [sum(1 << p for p in c) for c in itertools.combinations(range(n), spec.n_down)]
    return sorted(u | d << n for u in ups for d in dns)


def total_momentum(spec, state):
    orbs = orbitals(spec)
    m = [sum(orbs[p % len(orbs)][c] for p in range(2 * len(orbs)) if state >> p & 1)
         for c in (0, 1)]
    return m[0] % spec.l1, m[1] % spec.l2


def oracle_states(oracle):
    n = oracle.spec.n_orb
    return [int(u) | int(d) << n
            for u, d in zip(oracle.basis.up_masks, oracle.basis.down_masks)]


def oracle_dense(oracle):
    h = np.zeros((oracle.dim, oracle.dim))
    with oracle.counting_paused():
        for j in range(oracle.dim):
            rows, vals = oracle.column(j)
            h[rows, j] = vals
    return h


def assert_column_matches(oracle, states, j, expect):
    rows, vals = hamiltonian_column(oracle.spec, oracle.basis, j)
    got = {states[int(i)]: float(v) for i, v in zip(rows, vals)}
    assert set(got) == set(expect)
    diag = states[j]
    assert got[diag] == pytest.approx(expect[diag], abs=1e-12)
    assert all(got[s] == expect[s] for s in got if s != diag)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.l1}x{s.l2}-{s.n_up}+{s.n_down}-u{s.u}")
class TestAgainstFockSpace:
    def test_sector_is_the_whole_momentum_block(self, spec):
        oracle = HubbardOracle(spec)
        states = oracle_states(oracle)
        target = total_momentum(spec, states[oracle.hf_index])
        assert target == oracle.basis.sector_momentum
        assert sorted(states) == [s for s in fock_states(spec)
                                  if total_momentum(spec, s) == target]

    def test_every_column_matches_second_quantization(self, spec):
        oracle = HubbardOracle(spec)
        states = oracle_states(oracle)
        for j, s in enumerate(states):
            assert_column_matches(oracle, states, j, momentum_h_column(spec, s))

    def test_spectrum_is_part_of_real_space_spectrum(self, spec):
        oracle = HubbardOracle(spec)
        real = np.linalg.eigvalsh(real_space_h(spec, fock_states(spec)))
        for lam in np.linalg.eigvalsh(oracle_dense(oracle)):
            assert np.abs(real - lam).min() < 1e-9

    def test_csc_columns_equal_on_the_fly_columns(self, spec):
        oracle = HubbardOracle(spec)
        fly = [hamiltonian_column(spec, oracle.basis, j) for j in range(oracle.dim)]
        with oracle.counting_paused():
            csc = [oracle.column(j) for j in range(oracle.dim)]
        for (r1, v1), (r2, v2) in zip(fly, csc):
            assert np.array_equal(r1, r2)
            assert np.array_equal(v1, v2)


def test_csc_columns_equal_on_the_fly_columns_across_blocks():
    # dim 336 spans two assembly blocks
    oracle = HubbardOracle(LatticeSpec(l1=3, l2=3, n_up=2, n_down=3, t_hop=0.5))
    fly = [hamiltonian_column(oracle.spec, oracle.basis, j) for j in range(oracle.dim)]
    oracle.prepare()
    with oracle.counting_paused():
        for j, (rows, vals) in enumerate(fly):
            r, v = oracle.column(j)
            assert np.array_equal(rows, r) and np.array_equal(vals, v)


def test_4x4_sample_columns_match_second_quantization():
    spec = LatticeSpec(l1=4, l2=4, n_up=3, n_down=3)
    oracle = HubbardOracle(spec)
    states = oracle_states(oracle)
    sample = [0, oracle.hf_index, oracle.dim - 1] + list(range(97, oracle.dim, 1999))
    for j in sample:
        assert_column_matches(oracle, states, j, momentum_h_column(spec, states[j]))
