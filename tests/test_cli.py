import json

import numpy as np
import pytest

from qnnff.cli import main
from qnnff.data import Dataset, Sample, load_dataset, save_dataset
from qnnff.model import load_checkpoint, save_checkpoint
from qnnff.presets import generate_lih


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def lih_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "lih.txt"
    assert run("gen", "--preset", "lih", "--count", 170, "--mirror",
               "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory, lih_file):
    out = tmp_path_factory.mktemp("cli") / "model.json"
    code = run("train", "--data", lih_file, "--checkpoint", out,
               "--depth", 2, "--steps", 25, "--train-size", 50)
    assert code == 0
    return out


def test_gen_lih_counts(lih_file):
    ds = load_dataset(lih_file)
    assert len(ds) == 170
    assert ds.preset == "lih"
    assert ds.has_forces


def test_gen_h2o(tmp_path):
    path = tmp_path / "h2o.txt"
    assert run("gen", "--preset", "h2o", "--count", 12, "--out", path) == 0
    ds = load_dataset(path)
    assert ds.num_atoms == 3
    assert ds.has_forces


def test_gen_h3o(tmp_path):
    path = tmp_path / "h3o.txt"
    assert run("gen", "--preset", "h3o", "--count", 6, "--out", path) == 0
    ds = load_dataset(path)
    assert ds.num_atoms == 4


@pytest.mark.parametrize("preset", ["h2o", "h3o"])
def test_gen_rejects_mirror_on_a_polyatomic_preset(tmp_path, preset, capsys):
    path = tmp_path / "x.txt"
    assert run("gen", "--preset", preset, "--count", 6, "--mirror",
               "--out", path) == 2
    assert "not diatomic" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("preset", ["h2o", "h3o"])
@pytest.mark.parametrize("count", [0, -3])
def test_gen_rejects_a_count_below_one(tmp_path, preset, count, capsys):
    assert run("gen", "--preset", preset, "--count", count,
               "--out", tmp_path / "x.txt") == 2
    assert "count must be at least 1" in capsys.readouterr().err


def test_train_writes_artifacts(tiny_checkpoint):
    payload = json.loads(open(tiny_checkpoint).read())
    assert payload["family"] == "qnn"
    import os

    assert os.path.exists(f"{tiny_checkpoint}.report.txt")
    assert os.path.exists(f"{tiny_checkpoint}.loss.txt")


def test_train_lih_default_parameter_count(lih_file, tmp_path, capsys):
    out = tmp_path / "d73.json"
    assert run("train", "--data", lih_file, "--checkpoint", out,
               "--steps", 1) == 0
    text = capsys.readouterr().out
    assert "d=73" in text


def test_train_mlp_budget_matched(lih_file, tmp_path, capsys):
    out = tmp_path / "mlp.json"
    assert run("train", "--data", lih_file, "--checkpoint", out,
               "--model", "mlp", "--depth", 2, "--steps", 40,
               "--chi", 0) == 0
    ff = load_checkpoint(out)
    # depth-2 circuit budget: 3 + 2*7 = 17
    assert abs(ff.param_count - 17) <= 2


@pytest.mark.parametrize("rate", ["-1", "0", "nan", "inf"])
def test_train_rejects_a_bad_learning_rate(tmp_path, rate, capsys):
    data = tmp_path / "lih20.txt"
    assert run("gen", "--preset", "lih", "--count", 20, "--out", data) == 0
    out = tmp_path / "model.json"
    assert run("train", "--data", data, "--checkpoint", out, "--steps", 3,
               f"--learning-rate={rate}") == 2
    assert "learning rate" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def h2o_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "h2o.txt"
    assert run("gen", "--preset", "h2o", "--count", 12, "--out", path) == 0
    return path


def test_train_mlp_rejects_forces_before_the_search(lih_file, tmp_path,
                                                    monkeypatch, capsys):
    from qnnff import baseline

    def search(*args, **kwargs):
        raise AssertionError("the topology search ran")

    monkeypatch.setattr(baseline, "topology_search", search)
    out = tmp_path / "mlp.json"
    assert run("train", "--data", lih_file, "--checkpoint", out,
               "--model", "mlp", "--chi", 1) == 2
    assert "--chi 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_mlp_rejects_cobyla(h2o_file, tmp_path, capsys):
    out = tmp_path / "mlp.json"
    assert run("train", "--data", h2o_file, "--checkpoint", out,
               "--model", "mlp", "--optimizer", "cobyla", "--chi", 0,
               "--steps", 5) == 2
    assert "adam only" in capsys.readouterr().err
    assert not out.exists()


def test_train_mlp_uses_adam_under_a_cobyla_preset(h2o_file, tmp_path):
    # the h2o preset trains its circuit with cobyla; an MLP still takes adam
    out = tmp_path / "mlp.json"
    assert run("train", "--data", h2o_file, "--checkpoint", out,
               "--model", "mlp", "--depth", 1, "--steps", 5, "--chi", 0) == 0
    report = (tmp_path / "mlp.json.report.txt").read_text()
    assert report.splitlines()[0] == "optimizer = adam"


def test_eval_perfect_checkpoint(tmp_path, tiny_checkpoint, capsys):
    # relabel the dataset with the model's own predictions -> RMSE 0
    ff = load_checkpoint(tiny_checkpoint)
    base = generate_lih(24)
    samples = [Sample(s.cartesian, ff.predict_energy(s.cartesian),
                      ff.predict_forces(s.cartesian))
               for s in base.samples]
    path = tmp_path / "perfect.txt"
    save_dataset(Dataset(samples, base.elements, preset="lih"), path)
    assert run("eval", "--checkpoint", tiny_checkpoint, "--data", path,
               "--out", tmp_path / "scatter") == 0
    out = capsys.readouterr().out
    rmse = float(out.splitlines()[0].split("=")[1])
    assert rmse < 1e-12
    assert (tmp_path / "scatter.energy.txt").exists()
    assert (tmp_path / "scatter.forces.txt").exists()


def test_eval_missing_forces_is_data_error(tmp_path, tiny_checkpoint):
    base = generate_lih(10)
    samples = [Sample(s.cartesian, s.energy, None) for s in base.samples]
    path = tmp_path / "noforce.txt"
    save_dataset(Dataset(samples, base.elements, preset="lih"), path)
    code = run("eval", "--checkpoint", tiny_checkpoint, "--data", path,
               "--forces")
    assert code == 3


def test_train_names_the_non_finite_row(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text("2 Li H forces=1 preset=lih\n0 0 0 1 0 0 1.5 0 0 0 0 0 0\n"
                    "0 0 0 1.2 0 0 nan 0 0 0 0 0 0\n")
    code = run("train", "--data", path, "--checkpoint", tmp_path / "m.json",
               "--steps", 1)
    assert code == 3
    assert f"data error: {path}: row 3: non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "effdim"])
@pytest.mark.parametrize("preset, tag", [("h2o", "h2o"), ("lih", "h2o")])
def test_checkpoint_rejects_another_molecule(tmp_path, tiny_checkpoint, command,
                                             preset, tag):
    # an h2o dataset, and a LiH dataset tagged h2o, against a LiH model
    from qnnff.presets import get_preset

    ds = get_preset(preset).generate(6, seed=1)
    path = tmp_path / "other.txt"
    save_dataset(Dataset(ds.samples, ds.elements, preset=tag), path)
    assert run(command, "--checkpoint", tiny_checkpoint, "--data", path) == 2


def test_effdim_runs(tmp_path, tiny_checkpoint, lih_file, capsys):
    out = tmp_path / "effdim.txt"
    assert run("effdim", "--checkpoint", tiny_checkpoint, "--data", lih_file,
               "--n", 50, "--draws", 4, "--out", out) == 0
    text = out.read_text()
    assert "normalized_d_n" in text
    d_n = float([l for l in text.splitlines() if l.startswith("d_n")][0].split("=")[1])
    assert 0.0 <= d_n <= 17.0


# an explicit zero reaches the check that rejects it, not the default
def test_train_rejects_zero_steps(lih_file, tmp_path, capsys):
    assert run("train", "--data", lih_file, "--checkpoint", tmp_path / "m.json",
               "--steps", 0) == 2
    assert "max_steps" in capsys.readouterr().err


def test_train_rejects_zero_depth(lih_file, tmp_path, capsys):
    assert run("train", "--data", lih_file, "--checkpoint", tmp_path / "m.json",
               "--depth", 0, "--steps", 1) == 2
    assert "depth" in capsys.readouterr().err


def test_effdim_rejects_zero_n(tiny_checkpoint, lih_file, capsys):
    assert run("effdim", "--checkpoint", tiny_checkpoint, "--data", lih_file,
               "--n", 0, "--draws", 1) == 2
    assert "sample size n" in capsys.readouterr().err


@pytest.mark.parametrize("dt", ["nan", "inf"])
def test_md_rejects_a_non_finite_time_step(tmp_path, dt, capsys):
    assert run("md", "--oracle", "--preset", "lih", "--dt", dt, "--steps", 2,
               "--out", tmp_path / "traj.txt") == 2
    assert "time step" in capsys.readouterr().err


@pytest.mark.parametrize("start", [("--v0", "inf"), ("--r0", "nan")])
def test_md_rejects_a_non_finite_start(tmp_path, start, capsys):
    assert run("md", "--oracle", "--preset", "lih", *start, "--steps", 2,
               "--out", tmp_path / "traj.txt") == 2
    assert "initial positions and velocities" in capsys.readouterr().err


def test_md_flat_from_equilibrium(tmp_path, capsys):
    out = tmp_path / "traj.txt"
    assert run("md", "--oracle", "--preset", "lih", "--r0", 1.6,
               "--steps", 200, "--out", out) == 0
    from qnnff.dynamics import read_trajectory

    traj = read_trajectory(out)
    assert np.max(np.abs(traj.positions - 1.6)) < 1e-10


def test_md_non_finite_forces_exit_numerical(tmp_path, monkeypatch):
    import qnnff.data

    monkeypatch.setattr(qnnff.data, "morse_oracle",
                        lambda r: (float("nan"), 0.0))
    assert run("md", "--oracle", "--preset", "lih", "--steps", 5,
               "--out", tmp_path / "traj.txt") == 4


def test_md_reports_leaving_the_fitted_range(tmp_path, tiny_checkpoint, capsys):
    # the fixture's bonds span 0.9-8.1 A, so a start at 9.5 A extrapolates
    assert run("md", "--checkpoint", tiny_checkpoint, "--r0", 9.5,
               "--steps", 5, "--out", tmp_path / "traj.txt") == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("largest |scaled coordinate| ")
    assert float(line.split()[3]) > 1.0
    assert line.endswith("first frame beyond 1: 0")


def test_md_inside_the_fitted_range(tmp_path, tiny_checkpoint, capsys):
    assert run("md", "--checkpoint", tiny_checkpoint, "--r0", 2.0,
               "--steps", 5, "--out", tmp_path / "traj.txt") == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert float(line.split()[3]) <= 1.0
    assert line.endswith("no frame beyond 1")


def test_eval_non_finite_checkpoint_is_data_error(tmp_path, tiny_checkpoint,
                                                 lih_file, capsys):
    payload = json.loads(open(tiny_checkpoint).read())
    payload["theta"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(payload))
    assert run("eval", "--checkpoint", bad, "--data", lih_file) == 3
    assert "non-finite value in theta" in capsys.readouterr().err


def test_md_requires_source(tmp_path):
    assert run("md", "--preset", "lih") == 2


@pytest.fixture(scope="module")
def h2o_checkpoint(tmp_path_factory, h2o_file):
    out = tmp_path_factory.mktemp("cli") / "h2o.json"
    assert run("train", "--data", h2o_file, "--checkpoint", out, "--depth", 2,
               "--steps", 3, "--optimizer", "adam", "--chi", 0) == 0
    return out


@pytest.mark.parametrize("oracle", [[], ["--oracle", "--preset", "h2o"]])
def test_md_cartesian_runs(tmp_path, h2o_file, h2o_checkpoint, oracle, capsys):
    from qnnff.dynamics import read_trajectory

    for name in ("a.txt", "b.txt"):
        assert run("md", "--checkpoint", h2o_checkpoint, *oracle, "--data",
                   h2o_file, "--steps", 20, "--dt", 0.01,
                   "--out", tmp_path / name) == 0
    wrote, reach = capsys.readouterr().out.splitlines()[:2]
    assert wrote.startswith(f"wrote 21 frames to {tmp_path / 'a.txt'}; ")
    assert np.isfinite(float(wrote.split()[-2]))
    assert reach.startswith("largest |scaled coordinate| ")
    assert len(read_trajectory(tmp_path / "a.txt")) == 21
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_md_rejects_a_preset_the_checkpoint_does_not_model(
        tmp_path, h2o_checkpoint, capsys):
    assert run("md", "--checkpoint", h2o_checkpoint, "--preset", "lih",
               "--steps", 2, "--out", tmp_path / "traj.txt") == 2
    assert ("--preset lih contradicts the checkpoint, which models h2o"
            in capsys.readouterr().err)
    assert not (tmp_path / "traj.txt").exists()


@pytest.mark.parametrize("source, message", [
    ("checkpoint", "--preset h3o contradicts the checkpoint, which models h2o"),
    ("oracle", "holds h2o geometries (O H H), but md runs h3o")])
def test_md_rejects_data_of_another_molecule(tmp_path, h2o_file, h2o_checkpoint,
                                             source, message, capsys):
    driver = (["--checkpoint", h2o_checkpoint] if source == "checkpoint"
              else ["--oracle"])
    assert run("md", *driver, "--preset", "h3o", "--data", h2o_file,
               "--steps", 2, "--out", tmp_path / "traj.txt") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "traj.txt").exists()


def test_spectrum_from_model(tmp_path, tiny_checkpoint):
    out = tmp_path / "spec.txt"
    assert run("spectrum", "--checkpoint", tiny_checkpoint, "--feature", 0,
               "--grid", 32, "--out", out) == 0
    table = np.loadtxt(out)
    assert table.shape[1] == 2


def test_spectrum_feature_out_of_range(tmp_path, tiny_checkpoint):
    assert run("spectrum", "--checkpoint", tiny_checkpoint, "--feature", 7,
               "--out", tmp_path / "spec.txt") == 2


def test_spectrum_from_trajectory(tmp_path):
    traj_path = tmp_path / "traj.txt"
    assert run("md", "--oracle", "--preset", "lih", "--r0", 1.05,
               "--steps", 800, "--out", traj_path) == 0
    out = tmp_path / "spec.txt"
    assert run("spectrum", "--traj", traj_path, "--repetitions", 5,
               "--out", out) == 0
    freqs, mags = np.loadtxt(out).T
    assert freqs.min() >= 0


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("count = 12\n# comment line\nmirror = true\n")
    out = tmp_path / "ds.txt"
    assert run("gen", "--preset", "lih", "--count", 170, "--config", cfg,
               "--out", out) == 0
    assert len(load_dataset(out)) == 12


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not_a_flag = 3\n")
    assert run("gen", "--preset", "lih", "--config", cfg) == 2


def test_config_file_types_values_from_flags(lih_file, tmp_path):
    # --steps defaults to None, so its type comes from the flag's own type
    cfg = tmp_path / "train.cfg"
    cfg.write_text("steps = 3\ndepth = 1\n")
    out = tmp_path / "cfg_model.json"
    assert run("train", "--data", lih_file, "--checkpoint", out,
               "--config", cfg) == 0
    assert "epochs = 3" in (tmp_path / "cfg_model.json.report.txt").read_text()


@pytest.mark.parametrize("line", ["count = abc", "mirror = maybe"])
def test_config_file_bad_value_is_argument_error(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert run("gen", "--preset", "lih", "--config", cfg) == 2


def test_config_file_value_outside_choices(lih_file, tmp_path):
    # an unknown optimizer name must not fall through to COBYLA
    cfg = tmp_path / "train.cfg"
    cfg.write_text("optimizer = sgd\n")
    assert run("train", "--data", lih_file, "--checkpoint",
               tmp_path / "never.json", "--config", cfg) == 2
    assert not (tmp_path / "never.json").exists()


def test_exit_code_data_error(tmp_path, tiny_checkpoint):
    missing = tmp_path / "missing.txt"
    assert run("eval", "--checkpoint", tiny_checkpoint, "--data", missing) == 3


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("gen", "--preset", "h2o", "--count", 9, "--seed", 5,
               "--out", a) == 0
    assert run("gen", "--preset", "h2o", "--count", 9, "--seed", 5,
               "--out", b) == 0
    assert a.read_text() == b.read_text()


@pytest.fixture(scope="module")
def mlp_checkpoint(tmp_path_factory, tiny_checkpoint):
    from qnnff.baseline import MlpForceField, MlpSpec
    from qnnff.presets import get_preset

    qff = load_checkpoint(tiny_checkpoint)
    spec = MlpSpec((7, 4, 1))
    theta = np.random.default_rng(3).normal(scale=0.5, size=spec.param_count)
    ff = MlpForceField(spec, qff.pipeline, theta, qff.energy_scale,
                       qff.energy_offset, encoding=get_preset("lih").encoding_spec(),
                       metadata={"preset": "lih", "family": "mlp"})
    path = tmp_path_factory.mktemp("cli") / "mlp.json"
    save_checkpoint(ff, path)
    return path


@pytest.mark.parametrize("family", ["qnn", "mlp"])
def test_effdim_draws_each_family_in_its_own_box(family, tiny_checkpoint,
                                                mlp_checkpoint, lih_file, capsys):
    # the hook's parameter gradients give what the family's adapter gives
    from qnnff import gradients
    from qnnff.baseline import mlp_param_grad_fn
    from qnnff.capacity import effective_dimension
    from qnnff.circuit import encoding_monomials

    path = tiny_checkpoint if family == "qnn" else mlp_checkpoint
    assert run("effdim", "--checkpoint", path, "--data", lih_file, "--n", 50,
               "--draws", 3) == 0
    ff = load_checkpoint(path)
    feats = ff.feature_matrix(load_dataset(lih_file).cartesians())
    if family == "qnn":
        args = gradients.qnn_param_grad_fn(ff.template), feats, (-np.pi, np.pi)
    else:
        args = (mlp_param_grad_fn(ff.spec), encoding_monomials(ff.encoding, feats),
                (-1.0, 1.0))
    want = effective_dimension(args[0], args[1], dim=ff.param_count, n=50,
                               bounds=args[2], draws=3)
    assert capsys.readouterr().out == want.to_text() + "\n"


@pytest.mark.parametrize("command, extra", [("eval", ()),
                                            ("effdim", ("--draws", 1))])
@pytest.mark.parametrize("family", ["qnn", "mlp"])
def test_checkpoint_with_a_short_theta_is_data_error(
        tmp_path, tiny_checkpoint, mlp_checkpoint, lih_file, command, extra,
        family, capsys):
    path = tiny_checkpoint if family == "qnn" else mlp_checkpoint
    payload = json.loads(open(path).read())
    payload["theta"].pop()
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(payload))
    assert run(command, "--checkpoint", bad, "--data", lih_file, *extra) == 3
    err = capsys.readouterr().err
    assert "short.json" in err and "theta has shape" in err


# every subcommand that reads a file, on a path that does not exist
@pytest.mark.parametrize("argv", [
    ("train", "--data", "MISSING", "--checkpoint", "OUT", "--steps", 1),
    ("eval", "--checkpoint", "MISSING", "--data", "LIH"),
    ("eval", "--checkpoint", "CKPT", "--data", "MISSING"),
    ("effdim", "--checkpoint", "MISSING", "--data", "LIH"),
    ("effdim", "--checkpoint", "CKPT", "--data", "MISSING"),
    ("md", "--checkpoint", "MISSING", "--steps", 2, "--out", "OUT"),
    ("md", "--oracle", "--preset", "h2o", "--data", "MISSING", "--steps", 2,
     "--out", "OUT"),
    ("spectrum", "--traj", "MISSING", "--out", "OUT"),
    ("spectrum", "--checkpoint", "MISSING", "--out", "OUT"),
    ("gen", "--config", "MISSING", "--out", "OUT"),
], ids=["train-data", "eval-checkpoint", "eval-data", "effdim-checkpoint",
        "effdim-data", "md-checkpoint", "md-data", "spectrum-traj",
        "spectrum-checkpoint", "config"])
def test_a_missing_file_ends_in_an_error_not_a_traceback(
        argv, tmp_path, tiny_checkpoint, lih_file, capsys):
    missing = tmp_path / "missing.txt"
    names = {"MISSING": missing, "OUT": tmp_path / "out.txt",
             "CKPT": tiny_checkpoint, "LIH": lih_file}
    assert run(*(names.get(a, a) for a in argv)) in (2, 3)
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(missing) in err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("text", ["not a trajectory\n", "1 2 3\n"])
def test_spectrum_of_a_malformed_trajectory_is_data_error(tmp_path, text,
                                                          capsys):
    traj = tmp_path / "traj.txt"
    traj.write_text(text)
    assert run("spectrum", "--traj", traj, "--out", tmp_path / "s.txt") == 3
    assert "traj.txt" in capsys.readouterr().err


def test_train_into_a_missing_directory_is_data_error(lih_file, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "m.json"
    assert run("train", "--data", lih_file, "--checkpoint", out,
               "--depth", 1, "--steps", 2) == 3
    captured = capsys.readouterr()
    assert str(out.parent) in captured.err
    assert ".tmp" not in captured.err
    assert "training" not in captured.out   # it failed before the fit


def test_train_report_into_a_missing_directory_is_data_error(lih_file, tmp_path,
                                                             capsys):
    out = tmp_path / "no" / "such"
    assert run("train", "--data", lih_file, "--checkpoint", tmp_path / "m.json",
               "--out", out / "run", "--depth", 1, "--steps", 2) == 3
    captured = capsys.readouterr()
    assert str(out) in captured.err
    assert "training" not in captured.out
    assert not (tmp_path / "m.json").exists()
