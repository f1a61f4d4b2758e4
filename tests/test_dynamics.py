import numpy as np
import pytest

from qnnff.circuit import AnsatzSpec, EncodingSpec, assemble_qnn
from qnnff.data import morse_oracle
from qnnff.dynamics import (
    AMU_ANG2_FS2_IN_EV,
    MdConfig,
    dominant_frequency,
    oscillation_spectrum,
    qnn_model_spectrum,
    read_trajectory,
    spectral_mass_outside,
    velocity_verlet_run,
    write_trajectory,
)
from qnnff.errors import ArgumentError, DataError, NumericalError
from qnnff.presets import get_preset, reduced_mass

LIH_MU = reduced_mass(get_preset("lih"))


def morse_provider(x):
    e, f = morse_oracle(float(x[0]))
    return e, np.array([f])


def harmonic_provider(k, x0=0.0):
    def provider(x):
        d = x - x0
        return 0.5 * k * float(d @ d), -k * d
    return provider


def test_stationary_at_minimum():
    config = MdConfig(dt=0.05, steps=1000, masses=[LIH_MU],
                      x0=[1.6], v0=[0.0])
    traj = velocity_verlet_run(morse_provider, config)
    assert np.max(np.abs(traj.positions - 1.6)) < 1e-10


def test_harmonic_period():
    # omega = sqrt(k/m) with k in eV/A^2 converted into the internal units
    k, m = 5.0, 2.0
    omega = np.sqrt(k / (m * AMU_ANG2_FS2_IN_EV))
    period = 2 * np.pi / omega
    dt = period / 1000
    config = MdConfig(dt=dt, steps=2000, masses=[m], x0=[0.3], v0=[0.0])
    traj = velocity_verlet_run(harmonic_provider(k), config)
    # successive positive-going zero crossings are one period apart
    x = traj.positions[:, 0]
    crossings = []
    for i in range(1, len(x)):
        if x[i - 1] < 0 <= x[i]:
            frac = -x[i - 1] / (x[i] - x[i - 1])
            crossings.append((i - 1 + frac) * dt)
    measured = crossings[1] - crossings[0]
    assert abs(measured - period) / period < 1e-3


def test_lih_like_bounded_oscillation():
    config = MdConfig(dt=0.05, steps=4000, masses=[LIH_MU], x0=[1.05], v0=[0.0])
    traj = velocity_verlet_run(morse_provider, config)
    r = traj.positions[:, 0]
    assert r.min() > 0.8
    assert r.max() < 4.5  # bound state, no dissociation
    assert r.max() > 2.0  # genuinely oscillating


def test_energy_conservation_morse():
    config = MdConfig(dt=0.05, steps=10_000, masses=[LIH_MU], x0=[1.05], v0=[0.0])
    traj = velocity_verlet_run(morse_provider, config)
    drift = np.max(np.abs(traj.total - traj.total[0])) / abs(traj.total[0])
    assert drift <= 1e-4


def test_time_reversal():
    config = MdConfig(dt=0.05, steps=500, masses=[LIH_MU], x0=[1.2], v0=[0.0])
    fwd = velocity_verlet_run(morse_provider, config)
    back_config = MdConfig(dt=0.05, steps=500, masses=[LIH_MU],
                           x0=fwd.positions[-1], v0=-fwd.velocities[-1])
    back = velocity_verlet_run(morse_provider, back_config)
    assert abs(back.positions[-1, 0] - 1.2) < 1e-8
    assert abs(back.velocities[-1, 0]) < 1e-8


def test_force_failure_reports_step():
    def bad_provider(x):
        if x[0] > 1.3:
            raise ValueError("boom")
        e, f = morse_oracle(float(x[0]))
        return e, np.array([f])

    config = MdConfig(dt=0.5, steps=400, masses=[LIH_MU], x0=[1.05], v0=[0.0])
    with pytest.raises(NumericalError, match="step"):
        velocity_verlet_run(bad_provider, config)


@pytest.mark.parametrize("bad", ["energy", "forces"])
def test_non_finite_values_stop_at_their_step(bad):
    calls = []

    def provider(x):
        e, f = morse_provider(x)
        if len(calls) == 3:
            if bad == "energy":
                e = float("nan")
            else:
                f = np.array([np.inf])
        calls.append(x)
        return e, f

    config = MdConfig(dt=0.05, steps=20, masses=[LIH_MU], x0=[1.05], v0=[0.0])
    with pytest.raises(NumericalError, match="non-finite .* at step 3$"):
        velocity_verlet_run(provider, config)
    assert len(calls) == 4


def test_cartesian_masses_per_atom():
    # per-atom masses expand to three coordinates each
    config = MdConfig(dt=0.1, steps=2, masses=[2.0, 3.0],
                      x0=np.zeros(6), v0=np.zeros(6))
    assert config.masses.shape == (6,)
    assert np.allclose(config.masses, [2, 2, 2, 3, 3, 3])


def test_config_validation():
    with pytest.raises(ArgumentError):
        MdConfig(dt=-1, steps=10, masses=[1.0], x0=[0.0], v0=[0.0])
    with pytest.raises(ArgumentError):
        MdConfig(dt=0.1, steps=10, masses=[1.0, 2.0], x0=np.zeros(5),
                 v0=np.zeros(5))


@pytest.mark.parametrize("dt, masses", [(np.nan, [1.0]), (np.inf, [1.0]),
                                        (0.1, [np.nan]), (0.1, [1.0, np.inf])])
def test_config_rejects_non_finite_step_and_masses(dt, masses):
    # nan <= 0 is False, so a bare sign check lets NaN through
    with pytest.raises(ArgumentError, match="finite"):
        MdConfig(dt=dt, steps=10, masses=masses, x0=np.zeros(len(masses)),
                 v0=np.zeros(len(masses)))


def test_trajectory_round_trip(tmp_path):
    config = MdConfig(dt=0.05, steps=50, masses=[LIH_MU], x0=[1.2], v0=[0.0])
    traj = velocity_verlet_run(morse_provider, config)
    path = tmp_path / "traj.txt"
    write_trajectory(traj, path)
    back = read_trajectory(path)
    assert np.allclose(back.positions, traj.positions)
    assert np.allclose(back.total, traj.total)


@pytest.mark.parametrize("text", ["# t x v\nnot a number\n", "1 2 3\n4 5 6\n",
                                  "1 2 3 4 5 6 7\n"],
                         ids=["text", "three-columns", "odd-columns"])
def test_read_trajectory_rejects_a_table_that_is_no_trajectory(tmp_path, text):
    path = tmp_path / "traj.txt"
    path.write_text(text)
    with pytest.raises(DataError, match="traj.txt"):
        read_trajectory(path)


def test_sinusoid_spectrum_peak():
    dt, f0 = 0.01, 2.5
    times = np.arange(4000) * dt
    signal = np.sin(2 * np.pi * f0 * times)
    traj_like = type("T", (), {})()
    from qnnff.dynamics import Trajectory

    traj = Trajectory(times, signal[:, None], signal[:, None],
                      np.zeros_like(times), np.zeros_like(times))
    freqs, mags = oscillation_spectrum(traj, repetitions=3)
    peak = dominant_frequency(freqs, mags)
    bin_width = freqs[1] - freqs[0]
    assert abs(peak - f0) <= bin_width


def test_doubling_repetitions_halves_bin_width():
    config = MdConfig(dt=0.05, steps=256, masses=[LIH_MU], x0=[1.2], v0=[0.0])
    traj = velocity_verlet_run(morse_provider, config)
    f1, _ = oscillation_spectrum(traj, repetitions=2)
    f2, _ = oscillation_spectrum(traj, repetitions=4)
    assert (f1[1] - f1[0]) == pytest.approx(2 * (f2[1] - f2[0]), rel=1e-9)


def test_spectrum_nonnegative_frequencies_only():
    config = MdConfig(dt=0.05, steps=128, masses=[LIH_MU], x0=[1.3], v0=[0.0])
    traj = velocity_verlet_run(morse_provider, config)
    freqs, mags = oscillation_spectrum(traj)
    assert freqs.min() >= 0
    assert mags.shape == freqs.shape


def single_qubit_template(depth):
    return assemble_qnn(EncodingSpec(1), AnsatzSpec(1), depth)


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_model_spectrum_support(rng, depth):
    t = single_qubit_template(depth)
    theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
    freqs, mags = qnn_model_spectrum(t, theta, grid_points=64)
    assert spectral_mass_outside(freqs, mags, depth) <= 1e-10


def test_model_spectrum_depth_one_support():
    t = single_qubit_template(1)
    freqs, mags = qnn_model_spectrum(t, np.array([0.4, 0.9]), grid_points=32)
    assert mags[1] > 1e-3  # frequency 1 present
    assert spectral_mass_outside(freqs, mags, 1) <= 1e-12


def test_deeper_models_reach_higher_frequencies(rng):
    # some parameter draw puts weight on the top frequency c_D
    for depth in (2, 4):
        t = single_qubit_template(depth)
        found = 0.0
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, size=t.param_count)
            _, mags = qnn_model_spectrum(t, theta, grid_points=64)
            found = max(found, mags[depth])
        assert found > 1e-3
