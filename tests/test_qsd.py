import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from nmgeo import (
    GridSpec,
    ModelParams,
    PureState2,
    ValidationError,
    ensemble_density,
    evolve_master_equation,
    initial_state,
    sample_noises,
    solve_g,
)
from nmgeo.qsd import NoiseRealization, evolve_trajectory

from oracles import closed_form_rowmajor, ensemble_density_rowmajor


@pytest.fixture(scope="module")
def p():
    return ModelParams(kappa=0.43, gamma_w=0.9)


@pytest.fixture(scope="module")
def grid():
    return GridSpec.uniform(2.0, 0.01)


def _noise_matrix(p, grid, n, seed=11):
    # vectorized over trajectories; bitwise-identical to per-trajectory
    # sample_noises (see test_noise_streams_independent_of_chunking)
    from nmgeo.qsd import _noise_chunk

    return _noise_chunk(p, grid, seed, range(n))


def test_z_star_has_constant_magnitude(p, grid):
    nr = sample_noises(p, grid, 3, 17)
    mags = np.abs(nr.z_star)
    assert np.max(mags) - np.min(mags) < 1e-14


def test_noise_means_vanish(p, grid):
    n = 4000
    z, w = _noise_matrix(p, grid, n)
    # mean over the ensemble at a few fixed times, 3 standard errors
    for k in (0, grid.n_steps // 2, grid.n_steps):
        se_z = np.std(z[:, k]) / math.sqrt(n)
        se_w = np.std(w[:, k]) / math.sqrt(n)
        assert abs(np.mean(z[:, k])) < 3.0 * se_z + 1e-12
        assert abs(np.mean(w[:, k])) < 3.0 * se_w + 1e-12


def test_z_covariance_matches_cavity_correlation(p, grid):
    n = 10_000
    z, _ = _noise_matrix(p, grid, n)
    ts = grid.times()
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, ts.size, size=(10, 2))
    zc = np.conj(z)
    for it, isr in pairs:
        # M[z_t conj(z_s)] = exp(-i omega_c (t - s)); z_t = conj(z*_t)
        samples = zc[:, it] * z[:, isr]
        est = np.mean(samples)
        se = np.std(samples) / math.sqrt(n)
        target = np.exp(-1j * p.omega_c * (ts[it] - ts[isr]))
        assert abs(est - target) < 3.0 * se + 1e-12


def test_w_stationary_variance(p, grid):
    n = 10_000
    _, w = _noise_matrix(p, grid, n)
    target = 0.5 * p.gamma_w * p.Gamma_w
    for k in (0, grid.n_steps // 2, grid.n_steps):
        m2 = np.abs(w[:, k]) ** 2
        est = np.mean(m2)
        se = np.std(m2) / math.sqrt(n)
        assert abs(est - target) < 3.0 * se


def test_w_lag_autocorrelation_decay(p, grid):
    n = 10_000
    _, w = _noise_matrix(p, grid, n)
    lag = int(round(1.0 / grid.dt))
    samples = w[:, lag] * np.conj(w[:, 0])
    est = np.mean(samples)
    se = np.std(np.abs(samples)) / math.sqrt(n)
    target = 0.5 * p.gamma_w * p.Gamma_w * math.exp(-p.gamma_w * 1.0)
    assert abs(abs(est) - target) < 3.0 * se


def test_grid_coarseness_rejected(p):
    with pytest.raises(ValidationError):
        sample_noises(p, GridSpec.uniform(10.0, 0.5), 1, 0)


def test_markov_limit_params_rejected(grid):
    with pytest.raises(ValidationError):
        sample_noises(ModelParams(kappa=0.1, gamma_w=math.inf), grid, 1, 0)


def test_dark_state_rotates_freely(p, grid):
    zeros = NoiseRealization(
        np.zeros(grid.n_steps + 1, dtype=complex),
        np.zeros(grid.n_steps + 1, dtype=complex),
        0, 0,
    )
    traj = evolve_trajectory(p, PureState2(0.0, 1.0), zeros, grid)
    expected = np.exp(1j * p.omega * grid.times() / 2.0)
    assert np.max(np.abs(traj.states[:, 1] - expected)) < 1e-10
    assert np.max(np.abs(traj.states[:, 0])) < 1e-14


def test_excited_state_norm_decays_without_noise(p, grid):
    zeros = NoiseRealization(
        np.zeros(grid.n_steps + 1, dtype=complex),
        np.zeros(grid.n_steps + 1, dtype=complex),
        0, 0,
    )
    traj = evolve_trajectory(p, PureState2(1.0, 0.0), zeros, grid)
    norms = np.sum(np.abs(traj.states) ** 2, axis=1)
    assert np.all(np.diff(norms) < 0.0)  # Re F_z > 0 before the first g-zero
    # the excited amplitude follows e^{-i omega t / 2} g(t) exactly
    g = solve_g(p).g(grid.times())
    expected = np.exp(-1j * p.omega * grid.times() / 2.0) * g
    assert np.max(np.abs(traj.states[:, 0] - expected)) < 1e-9


def test_trajectory_starts_at_initial_state(p, grid):
    nr = sample_noises(p, grid, 23, 4)
    psi0 = PureState2.from_bloch_angle(1.1)
    traj = evolve_trajectory(p, psi0, nr, grid)
    assert traj.states[0, 0] == psi0.c_e
    assert traj.states[0, 1] == psi0.c_g


def test_window_through_zero_of_g(p):
    # [0, 6] contains the first zero of g (t ~ 5.187), a pole of F_z
    grid = GridSpec.uniform(6.0, 0.01)
    zeros = NoiseRealization(
        np.zeros(grid.n_steps + 1, dtype=complex),
        np.zeros(grid.n_steps + 1, dtype=complex),
        0, 0,
    )
    traj = evolve_trajectory(p, PureState2(1.0, 0.0), zeros, grid)
    g = solve_g(p).g(grid.times())
    assert np.min(g) < 0.0
    expected = np.exp(-1j * p.omega * grid.times() / 2.0) * g
    assert np.max(np.abs(traj.states[:, 0] - expected)) < 1e-12

    n = 2000
    res = ensemble_density(p, math.pi / 4, grid, n, base_seed=1)
    rho0 = initial_state(math.pi / 4).density_matrix()
    ref = evolve_master_equation(p, rho0, grid, gsol=solve_g(p))
    for ch in ("rho_ee", "rho_eg", "rho_ge", "rho_gg"):
        assert np.max(np.abs(res.series[ch] - ref[ch])) <= 5.0 / math.sqrt(n)


def test_ensemble_requires_minimum_size(p, grid):
    with pytest.raises(ValidationError):
        ensemble_density(p, math.pi / 4, grid, 50, 1)


def test_ensemble_trace_and_master_equation_agreement(p):
    grid = GridSpec.uniform(3.0, 0.01)
    n = 2000
    res = ensemble_density(p, math.pi / 4, grid, n, base_seed=1234)
    trace = res.series["rho_ee"] + res.series["rho_gg"]
    band = res.series["stderr_ee"] + res.series["stderr_gg"]
    assert np.all(np.abs(trace - 1.0) <= 3.0 * band + 1e-9)
    assert abs(res.mean_final_norm_sq - 1.0) <= 3.0 * res.stderr_final_norm_sq

    rho0 = initial_state(math.pi / 4).density_matrix()
    ref = evolve_master_equation(p, rho0, grid, gsol=solve_g(p))
    tol = 5.0 / math.sqrt(n)
    for ch in ("rho_ee", "rho_eg", "rho_gg"):
        assert np.max(np.abs(res.series[ch] - ref[ch])) <= tol


def test_monte_carlo_error_scales_with_sqrt_n(p):
    grid = GridSpec.uniform(1.5, 0.01)
    r1 = ensemble_density(p, math.pi / 4, grid, 1000, base_seed=7)
    r2 = ensemble_density(p, math.pi / 4, grid, 2000, base_seed=7)
    # average stderr of the coherence channel, skipping the deterministic t=0
    s1 = float(np.mean(np.abs(r1.series["stderr_eg"][5:])))
    s2 = float(np.mean(np.abs(r2.series["stderr_eg"][5:])))
    ratio = s1 / s2
    assert math.sqrt(2.0) * 0.8 <= ratio <= math.sqrt(2.0) * 1.2


def test_bitwise_reproducibility_across_worker_counts(p):
    grid = GridSpec.uniform(1.0, 0.01)
    runs = [
        ensemble_density(p, math.pi / 4, grid, 700, base_seed=99, workers=w)
        for w in (1, 2, 4)
    ]
    for other in runs[1:]:
        for ch in runs[0].series.channels:
            assert np.array_equal(runs[0].series[ch], other.series[ch])
    assert runs[0].mean_final_norm_sq == runs[1].mean_final_norm_sq


def test_noise_streams_independent_of_chunking(p, grid):
    # trajectory 300 drawn alone equals trajectory 300 drawn inside a chunk
    from nmgeo.qsd import _noise_chunk

    z_single, w_single = _noise_chunk(p, grid, 42, [300])
    z_range, w_range = _noise_chunk(p, grid, 42, range(256, 512))
    assert np.array_equal(z_single[0], z_range[300 - 256])
    assert np.array_equal(w_single[0], w_range[300 - 256])


def test_noise_streams_pinned(p):
    # sha256 of the streams as first released; any change to the draws shows here
    from nmgeo.qsd import _noise_chunk

    z_star, w_star = _noise_chunk(p, GridSpec.uniform(1.0, 0.01), 42, range(3))
    digest = hashlib.sha256(z_star.tobytes() + w_star.tobytes()).hexdigest()
    assert digest == "63161ec0abbd64847a49a5e64a8e226c73aec2f13efa7cb95cc17d3efca30a1e"


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
def test_batch_seeding_matches_default_rng(seed):
    from nmgeo.qsd import _pcg64_states

    indices = [0, 1, 127, 2**31, 2**32]  # one call, rows of one and of two 32-bit words
    for i, (state, inc) in zip(indices, _pcg64_states(seed, indices)):
        expected = np.random.default_rng([seed, i]).bit_generator.state
        assert expected["state"] == {"state": state, "inc": inc}
        assert expected["has_uint32"] == 0 and expected["uinteger"] == 0


def test_ensemble_bytes_pinned(p):
    # sha256 of the channels as computed with one default_rng per trajectory;
    # the window crosses the zero of g at t ~ 5.187
    res = ensemble_density(p, math.pi / 4, GridSpec.uniform(8.0, 0.01), 700, base_seed=99)
    digest = hashlib.sha256()
    for ch in sorted(res.series.channels):
        digest.update(np.ascontiguousarray(res.series[ch]).tobytes())
    assert digest.hexdigest() == "70e2e31af5fe2c6761f4a97cc223f1dee0e43512d77e8f0a54ef56cc37ba5b6e"


def test_ensemble_builds_no_generator_per_trajectory(p, count_calls):
    default_rngs = count_calls(np.random, "default_rng")
    bit_generators = count_calls(np.random, "PCG64")
    ensemble_density(p, math.pi / 4, GridSpec.uniform(1.0, 0.01), 700, base_seed=99)
    assert default_rngs() == 0
    assert bit_generators() == 6  # one per 128-trajectory chunk


@pytest.mark.parametrize("seed", [-1, 1.0, "1", None])
def test_bad_base_seed_rejected(p, grid, seed):
    with pytest.raises(ValidationError, match="base_seed must be a non-negative integer"):
        ensemble_density(p, math.pi / 4, grid, 100, seed)
    with pytest.raises(ValidationError, match="base_seed must be a non-negative integer"):
        sample_noises(p, grid, seed, 0)


def test_bad_traj_index_rejected(p, grid):
    with pytest.raises(ValidationError, match="traj_index must be a non-negative integer"):
        sample_noises(p, grid, 1, -1)


@pytest.mark.parametrize("kappa", [0.43, 0.0])
@pytest.mark.parametrize("grid", [
    GridSpec.uniform(1.0, 0.01), GridSpec.uniform(8.0, 0.01), GridSpec(0.01, 150, 0.5),
    GridSpec(0.01, 127), GridSpec(0.01, 128),
], ids=["0-1", "0-8", "t0-0.5", "widened-last-block", "two-row-last-block"])
def test_ensemble_bitwise_equal_to_rowmajor_reference(kappa, grid):
    # 100, 333, 700 and 1100 leave remainders of a chunk and of a two-chunk pass;
    # 127 steps would leave a last block of one grid time, 128 one of two
    p = ModelParams(kappa=kappa, gamma_w=0.9)
    for n_traj in (100, 333, 700, 1100):
        ref = ensemble_density_rowmajor(p, math.pi / 4, grid, n_traj, 5)
        for workers in (1, 3):
            res = ensemble_density(p, math.pi / 4, grid, n_traj, 5, workers=workers)
            for ch in ref.series.channels:
                assert np.array_equal(res.series[ch], ref.series[ch]), (n_traj, workers, ch)
            assert res.mean_final_norm_sq == ref.mean_final_norm_sq
            assert res.stderr_final_norm_sq == ref.stderr_final_norm_sq


@pytest.mark.parametrize("kappa", [0.43, 0.0])
def test_trajectory_bitwise_equal_to_rowmajor_ground(kappa):
    p = ModelParams(kappa=kappa, gamma_w=0.9)
    grid = GridSpec.uniform(8.0, 0.01)
    psi0 = PureState2.from_bloch_angle(1.1)
    nr = sample_noises(p, grid, 23, 4)
    ce, ground = closed_form_rowmajor(p, grid, psi0)
    cg = ground(nr.z_star[:1], np.array(nr.w_star, dtype=complex, ndmin=2))[0]
    traj = evolve_trajectory(p, psi0, nr, grid)
    assert np.array_equal(traj.states[:, 0], ce)
    assert np.array_equal(traj.states[:, 1], cg)


def test_ensemble_memory_bounded(p):
    # deterministic: the traced peak of one [0, 8] ensemble was 7.8 MiB with
    # a row-major c_g array per chunk
    grid = GridSpec.uniform(8.0, 0.01)
    tracemalloc.start()
    try:
        ensemble_density(p, math.pi / 4, grid, 20_000, base_seed=1, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
