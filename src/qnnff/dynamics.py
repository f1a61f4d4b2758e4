"""Velocity Verlet molecular dynamics and frequency-domain analysis.

Unit system: positions in Angstrom, energies in eV, masses in a.m.u., time
in femtoseconds.  The single conversion constant is

    1 amu * A^2 / fs^2 = 103.642697 eV,

so accelerations are a = F / (m * AMU_ANG2_FS2_IN_EV) in A/fs^2 and kinetic
energy is 0.5 * m * v^2 * AMU_ANG2_FS2_IN_EV in eV.

A force provider is any callable positions -> (potential energy, forces)
over a flat coordinate vector; the integrator is agnostic to whether that
vector holds 3n Cartesian components or a single reduced bond coordinate, so
diatomic problems can run in their reduced-mass 1D form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError, NumericalError

AMU_ANG2_FS2_IN_EV = 103.642697


@dataclass(frozen=True)
class MdConfig:
    dt: float                 # fs
    steps: int
    masses: np.ndarray        # per coordinate, or per atom for 3n problems
    x0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).ravel())
        object.__setattr__(self, "v0", np.asarray(self.v0, dtype=float).ravel())
        masses = np.asarray(self.masses, dtype=float).ravel()
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ArgumentError("time step must be finite and positive")
        if self.steps < 1:
            raise ArgumentError("need at least one step")
        if not np.all(np.isfinite(masses) & (masses > 0)):
            raise ArgumentError("masses must be finite and positive")
        if self.v0.shape != self.x0.shape:
            raise ArgumentError("x0 and v0 must have the same shape")
        if not (np.all(np.isfinite(self.x0)) and np.all(np.isfinite(self.v0))):
            raise ArgumentError("initial positions and velocities must be finite")
        if masses.size == self.x0.size:
            pass
        elif masses.size * 3 == self.x0.size:
            masses = np.repeat(masses, 3)
        else:
            raise ArgumentError(
                f"{masses.size} masses do not match {self.x0.size} coordinates"
            )
        object.__setattr__(self, "masses", masses)


@dataclass
class Trajectory:
    times: np.ndarray
    positions: np.ndarray   # (steps + 1, ncoord)
    velocities: np.ndarray
    potential: np.ndarray
    kinetic: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.potential + self.kinetic

    def __len__(self) -> int:
        return self.times.size

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def velocity_verlet_run(force_provider, config: MdConfig) -> Trajectory:
    """Integrate Newton's equations with the Velocity Verlet scheme.

    Raises ``NumericalError`` naming the step at which the provider fails or
    returns a non-finite energy or force."""
    n = config.steps
    x = config.x0.copy()
    v = config.v0.copy()
    m = config.masses
    positions = np.empty((n + 1, x.size))
    velocities = np.empty_like(positions)
    potential = np.empty(n + 1)
    kinetic = np.empty(n + 1)

    def kin(vel):
        return 0.5 * float(m @ vel ** 2) * AMU_ANG2_FS2_IN_EV

    def evaluate(pos, step):
        try:
            epot, forces = force_provider(pos)
        except Exception as exc:
            raise NumericalError(
                f"force evaluation failed at step {step}: {exc}"
            ) from exc
        if not (np.isfinite(epot) and np.all(np.isfinite(forces))):
            raise NumericalError(f"non-finite energy or forces at step {step}")
        return epot, forces

    epot, forces = evaluate(x, 0)
    acc = forces / (m * AMU_ANG2_FS2_IN_EV)
    positions[0], velocities[0] = x, v
    potential[0], kinetic[0] = epot, kin(v)
    dt = config.dt
    for step in range(1, n + 1):
        x = x + v * dt + 0.5 * acc * dt * dt
        epot, forces = evaluate(x, step)
        new_acc = forces / (m * AMU_ANG2_FS2_IN_EV)
        v = v + 0.5 * (acc + new_acc) * dt
        acc = new_acc
        positions[step], velocities[step] = x, v
        potential[step], kinetic[step] = epot, kin(v)
    times = np.arange(n + 1) * dt
    return Trajectory(times, positions, velocities, potential, kinetic)


def write_trajectory(traj: Trajectory, path) -> None:
    ncoord = traj.positions.shape[1]
    header = ("t_fs " + " ".join(f"x{i}" for i in range(ncoord)) + " "
              + " ".join(f"v{i}" for i in range(ncoord))
              + " epot_eV ekin_eV etot_eV")
    table = np.column_stack([traj.times, traj.positions, traj.velocities,
                             traj.potential, traj.kinetic, traj.total])
    np.savetxt(path, table, header=header)


def read_trajectory(path) -> Trajectory:
    """A trajectory as ``write_trajectory`` writes it: time, n positions, n
    velocities and three energies per row."""
    try:
        table = np.atleast_2d(np.loadtxt(path))
    except ValueError as exc:
        raise DataError(f"{path}: not a numeric table: {exc}") from exc
    if table.shape[1] < 6 or table.shape[1] % 2:
        raise DataError(f"{path}: {table.shape[1]} columns, not a trajectory "
                        "(time, n positions, n velocities, three energies)")
    ncoord = (table.shape[1] - 4) // 2
    return Trajectory(
        times=table[:, 0],
        positions=table[:, 1: 1 + ncoord],
        velocities=table[:, 1 + ncoord: 1 + 2 * ncoord],
        potential=table[:, -3],
        kinetic=table[:, -2],
    )


def oscillation_spectrum(trajectory: Trajectory, repetitions: int = 1,
                         coord: int = 0):
    """Magnitude spectrum of one coordinate's time series.

    The series is tiled ``repetitions`` times, passed through a Hamming
    window, and discrete-Fourier-transformed; only the non-negative
    frequencies of the real signal are returned (the spectrum is conjugate
    symmetric).  Tiling sharpens the frequency bins by 1/repetitions.
    """
    if len(trajectory) < 2:
        raise ArgumentError("trajectory too short for a spectrum")
    if repetitions < 1:
        raise ArgumentError("repetitions must be positive")
    series = trajectory.positions[:, coord]
    signal = np.tile(series - series.mean(), repetitions)
    window = np.hamming(signal.size)
    spectrum = np.abs(np.fft.rfft(signal * window)) / signal.size
    freqs = np.fft.rfftfreq(signal.size, d=trajectory.dt)
    return freqs, spectrum


def dominant_frequency(freqs: np.ndarray, magnitudes: np.ndarray) -> float:
    """Frequency of the largest non-DC spectral line."""
    idx = int(np.argmax(magnitudes[1:]) + 1)
    return float(freqs[idx])


def qnn_model_spectrum(template, theta, feature_index: int = 0,
                       grid_points: int = 64):
    """Fourier coefficient magnitudes of the model output along one feature.

    Samples the circuit output on a uniform grid over one 2 pi period with
    the other features held at 0 and returns (n, |c_n|) for integer
    frequencies n = 0 .. grid_points // 2.  Meaningful when the model is
    univariate in the swept feature.
    """
    from .gradients import eval_qnn_batch

    if grid_points < 2:
        raise ArgumentError("grid must have at least two points")
    if not 0 <= feature_index < template.num_features:
        raise ArgumentError(
            f"feature index {feature_index} out of range for "
            f"{template.num_features} features")
    feats = np.zeros((grid_points, template.num_features))
    feats[:, feature_index] = 2 * np.pi * np.arange(grid_points) / grid_points
    values = eval_qnn_batch(template, feats, theta)
    coeffs = np.fft.rfft(values) / grid_points
    freqs = np.arange(coeffs.size)
    return freqs, np.abs(coeffs)


def spectral_mass_outside(freqs: np.ndarray, magnitudes: np.ndarray,
                          max_frequency: int) -> float:
    """Total squared magnitude assigned to frequencies above max_frequency."""
    outside = freqs > max_frequency
    return float(np.sum(magnitudes[outside] ** 2))


def write_spectrum(freqs, magnitudes, path) -> None:
    np.savetxt(path, np.column_stack([freqs, magnitudes]),
               header="frequency magnitude")
