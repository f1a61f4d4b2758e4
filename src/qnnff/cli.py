"""Command-line front end.

Subcommands: gen, train, eval, effdim, md, spectrum.  Every run is
deterministic given --seed.  A key=value config file passed with --config
overrides any flag of the same name (dashes become underscores).  Exit codes:
0 success, 2 argument error, 3 data error (a file that cannot be read or
written among them), 4 numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import baseline, capacity, dynamics, model as model_mod, train
from .data import load_dataset, save_dataset, train_test_split
from .errors import ArgumentError, DataError, NumericalError, QnnffError
from .circuit import encoding_monomials
from .presets import PRESETS, get_preset, reduced_mass

EXIT_ARGUMENT, EXIT_DATA, EXIT_NUMERICAL = 2, 3, 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnnff",
        description="Quantum neural network force fields: data generation, "
        "training, evaluation, capacity analysis, molecular dynamics and "
        "spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file overriding flags")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path or prefix")

    p = sub.add_parser("gen", help="generate a surrogate dataset")
    common(p)
    p.add_argument("--preset", default="lih", choices=["lih", "h2o", "h3o"])
    p.add_argument("--count", type=int, default=170)
    p.add_argument("--mirror", action="store_true",
                   help="mirror a diatomic grid about its upper range edge")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a dataset file")
    common(p)
    p.add_argument("--preset", default=None,
                   help="molecule preset (defaults to the dataset tag)")
    p.add_argument("--model", default="qnn", choices=["qnn", "mlp"])
    p.add_argument("--data", required=True)
    p.add_argument("--train-size", type=int, default=None,
                   help="train on this many samples, validate on the rest")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--entanglement", default=None,
                   choices=["linear", "circular", "full"])
    p.add_argument("--degree", type=int, default=3, choices=[2, 3],
                   help="3 keeps the degree-3 coupling sets, 2 drops them")
    p.add_argument("--chi", type=float, default=None)
    p.add_argument("--optimizer", default=None, choices=["adam", "cobyla"])
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="RMSE of a checkpoint on a dataset file")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--forces", action="store_true",
                   help="require force labels and report force RMSE")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("effdim", help="effective dimension of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="sample-size parameter (default: dataset size)")
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--trace-normalize", action="store_true")
    p.set_defaults(func=cmd_effdim)

    p = sub.add_parser("md", help="velocity Verlet driven by a model or oracle")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--oracle", action="store_true",
                   help="drive with the preset's analytic oracle instead")
    p.add_argument("--preset", default=None)
    p.add_argument("--data", default=None,
                   help="dataset whose first sample seeds the geometry")
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--dt", type=float, default=0.05, help="time step in fs")
    p.add_argument("--r0", type=float, default=1.05,
                   help="initial bond length for diatomic presets")
    p.add_argument("--v0", type=float, default=0.0)
    p.set_defaults(func=cmd_md)

    p = sub.add_parser("spectrum", help="trajectory or model output spectrum")
    common(p)
    p.add_argument("--traj", default=None, help="trajectory file to analyze")
    p.add_argument("--repetitions", type=int, default=100)
    p.add_argument("--checkpoint", default=None,
                   help="circuit checkpoint for a model Fourier spectrum")
    p.add_argument("--feature", type=int, default=0)
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(func=cmd_spectrum)

    return parser


def _option_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """The option actions of one subcommand, by destination."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help"}


def _flag_value(text: str) -> bool:
    """Value of an on/off flag written in a config file."""
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def apply_config_file(args: argparse.Namespace,
                      parser: argparse.ArgumentParser) -> None:
    """Mutate parsed args with key=value overrides from --config, each value
    converted and checked the way its flag would be on the command line."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path) as fh:
        lines = fh.read().splitlines()
    actions = _option_actions(parser, args.command)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ArgumentError(f"{path}:{lineno}: unknown option {key!r}")
        convert = _flag_value if action.nargs == 0 else (action.type or str)
        try:
            parsed = convert(value)
        except ValueError as exc:
            raise ArgumentError(
                f"{path}:{lineno}: invalid value {value!r} for {key!r}"
            ) from exc
        if action.choices is not None and parsed not in action.choices:
            raise ArgumentError(
                f"{path}:{lineno}: {key!r} must be one of "
                f"{', '.join(map(str, action.choices))}, got {value!r}")
        setattr(args, action.dest, parsed)


def _out_prefix(args, fallback: str) -> str:
    return args.out if args.out else fallback


def cmd_gen(args) -> None:
    preset = get_preset(args.preset)
    if args.preset == "lih":
        dataset = preset.generate(args.count, seed=args.seed, mirror=args.mirror)
    elif args.mirror:
        raise ArgumentError(f"--mirror reflects a diatomic grid; {args.preset} "
                            "is not diatomic")
    else:
        dataset = preset.generate(args.count, seed=args.seed)
    out = _out_prefix(args, f"{args.preset}_data.txt")
    save_dataset(dataset, out)
    print(f"wrote {len(dataset)} samples to {out}")


def _build_qnn(preset, args, train_set):
    template = preset.template(depth=args.depth,
                               entanglement=args.entanglement,
                               degree=args.degree)
    pipeline = preset.pipeline().fit(train_set.cartesians())
    return model_mod.initialized_model(
        template, pipeline, train_set.energies(),
        metadata={"preset": preset.name, "family": "qnn"})


def cmd_train(args) -> None:
    # the fit can take minutes; a missing output folder must end it first
    for path in (args.checkpoint, _out_prefix(args, args.checkpoint)):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise DataError(f"cannot write {path}: no directory {folder}")
    dataset = load_dataset(args.data)
    preset = get_preset(args.preset or dataset.preset)
    if args.train_size is not None:
        train_set, validation = train_test_split(dataset, args.train_size,
                                                 seed=args.seed)
    else:
        train_set, validation = dataset, None
    chi = preset.chi if args.chi is None else args.chi
    optimizer = args.optimizer or preset.optimizer
    steps = preset.steps if args.steps is None else args.steps
    config = train.AdamConfig(learning_rate=args.learning_rate,
                              max_steps=steps, seed=args.seed)
    spec = train.LossSpec(chi=chi)
    if args.model == "qnn":
        ff = _build_qnn(preset, args, train_set)
        print(f"training qnn preset={preset.name} d={ff.param_count} "
              f"chi={chi} optimizer={optimizer} max_steps={steps}")
    else:
        ff, optimizer = _build_mlp(preset, args, train_set, chi), "adam"
    fit = train.adam_fit if optimizer == "adam" else train.gradient_free_fit
    trained, report = fit(ff, train_set, spec, config, validation)
    model_mod.save_checkpoint(trained, args.checkpoint)
    prefix = _out_prefix(args, args.checkpoint)
    with open(f"{prefix}.report.txt", "w") as fh:
        fh.write(report.to_text() + "\n")
    report.save_loss_curve(f"{prefix}.loss.txt")
    print(report.to_text())
    print(f"wrote checkpoint {args.checkpoint}")


def _build_mlp(preset, args, train_set, chi):
    """Budget-matched tanh network on the encoded monomials, picked by a
    topology search on the energy loss and Xavier-initialised; it trains
    with ADAM like the circuit."""
    if chi:
        raise ArgumentError(
            "force-weighted training is only wired for the circuit family; "
            "pass --chi 0 with --model mlp"
        )
    if args.optimizer == "cobyla":
        raise ArgumentError("--model mlp trains with adam only; drop "
                            "--optimizer cobyla")
    qff = _build_qnn(preset, args, train_set)
    enc = preset.encoding_spec(args.entanglement, args.degree)
    inputs = encoding_monomials(enc, qff.feature_matrix(train_set.cartesians()))
    labels = qff.scaled_energy(train_set.energies())
    spec = baseline.topology_search(
        budget_d=qff.param_count, input_width=inputs.shape[1],
        trials=8, seed=args.seed, train=(inputs, labels), epochs=150)
    print(f"training mlp widths={spec.widths} d={spec.param_count} "
          f"(budget {qff.param_count})")
    theta0 = baseline.pack_params(baseline.mlp_init_xavier(spec, seed=args.seed))
    return baseline.MlpForceField(spec, qff.pipeline, theta0, qff.energy_scale,
                                  qff.energy_offset, encoding=enc,
                                  metadata={"preset": preset.name,
                                            "family": "mlp"})


def _check_molecule(name, dataset, path, whose="the checkpoint models") -> None:
    """A run takes only its own molecule's geometries: a pipeline reads only
    the atoms it names, so an atom count would pass h2o to LiH."""
    if name is not None and (
            dataset.preset not in ("custom", name)
            or name in PRESETS and dataset.elements != PRESETS[name].elements):
        raise ArgumentError(
            f"{path} holds {dataset.preset} geometries "
            f"({' '.join(dataset.elements)}), but {whose} {name}")


def cmd_eval(args) -> None:
    ff = model_mod.load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    _check_molecule(ff.metadata.get("preset"), dataset, args.data)
    if args.forces and not dataset.has_forces:
        raise DataError(f"{args.data} has no force labels but --forces was given")
    energies, forces = train.predict_dataset(ff, dataset, with_forces=True)
    rmse_e, rmse_f = train.prediction_rmse(dataset, energies, forces)
    print(f"rmse_energy_eV = {rmse_e!r}")
    if rmse_f is not None:
        print(f"rmse_forces_eV_per_A = {rmse_f!r}")
    prefix = _out_prefix(args, None)
    if prefix:
        np.savetxt(f"{prefix}.energy.txt",
                   np.column_stack([dataset.energies(), energies]),
                   header="label_eV prediction_eV")
        if forces is not None:
            np.savetxt(f"{prefix}.forces.txt",
                       np.column_stack([dataset.forces_matrix().ravel(),
                                        forces.ravel()]),
                       header="label_eV_per_A prediction_eV_per_A")
        print(f"wrote scatter data with prefix {prefix}")


def cmd_effdim(args) -> None:
    ff = model_mod.load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    _check_molecule(ff.metadata.get("preset"), dataset, args.data)
    n = len(dataset) if args.n is None else args.n
    report = capacity.effective_dimension(
        lambda theta, x: ff.sweep(x, theta, params=True, value=False)[1],
        ff.feature_matrix(dataset.cartesians()), dim=ff.param_count, n=n,
        bounds=ff.PARAM_BOUNDS, draws=args.draws, seed=args.seed,
        trace_normalize=args.trace_normalize)
    print(report.to_text())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_text() + "\n")


def cmd_md(args) -> None:
    if args.checkpoint is None and not args.oracle:
        raise ArgumentError("md needs --checkpoint or --oracle")
    ff = None if args.checkpoint is None else model_mod.load_checkpoint(
        args.checkpoint)
    modelled = None if ff is None else ff.metadata.get("preset")
    preset_name = args.preset or modelled
    if preset_name is None:
        raise ArgumentError("cannot infer the molecule preset; pass --preset")
    if modelled not in (None, preset_name):
        raise ArgumentError(f"--preset {preset_name} contradicts the "
                            f"checkpoint, which models {modelled}")
    preset = get_preset(preset_name)
    if len(preset.elements) == 2:
        from .data import morse_oracle

        bond = (morse_oracle if args.oracle
                else lambda r: model_mod.bond_energy_force(ff, r))

        def provider(x):
            e, f = bond(float(x[0]))
            return e, np.array([f])
        config = dynamics.MdConfig(dt=args.dt, steps=args.steps,
                                   masses=[reduced_mass(preset)],
                                   x0=[args.r0], v0=[args.v0])
    else:
        if args.data is None:
            raise ArgumentError(
                "Cartesian MD needs --data for the initial geometry")
        dataset = load_dataset(args.data)
        _check_molecule(preset_name, dataset, args.data, "md runs")
        x0 = dataset.cartesians()[0]
        if args.oracle:
            from .data import hydronium_oracle, triatomic_oracle

            provider = triatomic_oracle if preset_name == "h2o" else hydronium_oracle
        else:
            def provider(x):
                energies, forces = ff.energy_forces(x[None])
                return float(energies[0]), forces[0]
        config = dynamics.MdConfig(dt=args.dt, steps=args.steps,
                                   masses=preset.masses, x0=x0,
                                   v0=np.zeros_like(x0))
    traj = dynamics.velocity_verlet_run(provider, config)
    out = _out_prefix(args, "trajectory.txt")
    dynamics.write_trajectory(traj, out)
    drift = float(np.max(np.abs(traj.total - traj.total[0])))
    print(f"wrote {len(traj)} frames to {out}; energy drift {drift:.3e} eV")
    if ff is not None:
        frames = traj.positions
        if len(preset.elements) == 2:
            from .data import diatomic_geometry

            frames = np.array([diatomic_geometry(r) for r in frames[:, 0]])
        reach = np.max(np.abs(ff.pipeline.scaled_coordinates(frames)), axis=1)
        beyond = np.flatnonzero(reach > 1.0)
        print(f"largest |scaled coordinate| {reach.max():.4g} (fitted range "
              f"[-1, 1]); " + (f"first frame beyond 1: {beyond[0]}" if beyond.size
                               else "no frame beyond 1"))


def cmd_spectrum(args) -> None:
    if args.traj is not None:
        traj = dynamics.read_trajectory(args.traj)
        freqs, mags = dynamics.oscillation_spectrum(traj,
                                                    repetitions=args.repetitions)
        peak = dynamics.dominant_frequency(freqs, mags)
        print(f"dominant frequency {peak:.6f} / fs")
    elif args.checkpoint is not None:
        ff = model_mod.load_checkpoint(args.checkpoint)
        if not isinstance(ff, model_mod.QffModel):
            raise ArgumentError("model spectra are defined for circuit models")
        freqs, mags = dynamics.qnn_model_spectrum(
            ff.template, ff.theta, feature_index=args.feature,
            grid_points=args.grid)
        print(f"frequencies 0..{freqs[-1]}, peak magnitude {mags.max():.4f}")
    else:
        raise ArgumentError("spectrum needs --traj or --checkpoint")
    out = _out_prefix(args, "spectrum.txt")
    dynamics.write_spectrum(freqs, mags, out)
    print(f"wrote spectrum to {out}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        apply_config_file(args, parser)
        args.func(args)
    except ArgumentError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except (DataError, OSError) as exc:
        # an OSError names the file it could not read or write
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QnnffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
