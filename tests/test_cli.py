import json
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import siso_truth
from ssfit.cli import main
from ssfit.io import load_dataset, load_model, save_dataset, save_model
from ssfit.statespace import Dataset, assemble_ladm
from test_io import sample_config


@pytest.fixture
def truth_model(tmp_path):
    spec, layout, theta = siso_truth()
    model = assemble_ladm(spec, theta, layout)
    path = tmp_path / "truth.json"
    save_model(path, model, ladm=spec)
    return str(path), model


class TestSimulate:
    def test_zero_input_no_noise(self, tmp_path, truth_model):
        path, _ = truth_model
        out = str(tmp_path / "sim.csv")
        code = main(["simulate", "--model", path, "--out", out,
                     "--gen", "zero", "--gen-samples", "50", "--no-noise"])
        assert code == 0
        data = load_dataset(out)
        assert np.array_equal(data.y, np.zeros((50, 1)))

    def test_seed_determinism_byte_identical(self, tmp_path, truth_model):
        path, _ = truth_model
        o1, o2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (o1, o2):
            assert main(["simulate", "--model", path, "--out", out,
                         "--seed", "9", "--gen-samples", "100"]) == 0
        with open(o1, "rb") as f1, open(o2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_prbs_levels(self, tmp_path, truth_model):
        path, _ = truth_model
        out = str(tmp_path / "sim.csv")
        assert main(["simulate", "--model", path, "--out", out,
                     "--gen", "prbs", "--gen-amplitude", "1.5",
                     "--gen-samples", "64"]) == 0
        data = load_dataset(out)
        assert set(np.unique(data.u)) <= {-1.5, 1.5}

    def test_diverging_model_is_numerical_error(self, tmp_path, capsys):
        from ssfit.statespace import InnovationModel

        model = InnovationModel(np.array([[1.5]]), np.ones((1, 1)),
                                np.ones((1, 1)), np.zeros((1, 1)), np.zeros(1),
                                np.zeros((1, 1)), np.ones((1, 1)))
        path = str(tmp_path / "unstable.json")
        save_model(path, model)
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--model", path, "--out", str(out),
                     "--gen-samples", "200"])
        assert code == 2
        assert capsys.readouterr().err.strip() \
            == "error: state recursion diverged at sample k = 67"
        assert not out.exists()

    def test_missing_model_is_input_error(self, tmp_path):
        code = main(["simulate", "--model", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_negative_seed_names_the_flag(self, tmp_path, truth_model, capsys):
        path, _ = truth_model
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--model", path, "--out", str(out),
                     "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err \
            == "error: --seed must be a non-negative integer, got -1\n"
        assert not out.exists()


@pytest.mark.parametrize("module", ["ssfit", "ssfit.cli"])
def test_import_loads_no_scipy(module):
    # the runtime needs numpy only; a fresh interpreter shows what an
    # import pulls in
    code = ("import sys, " + module + "; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


class TestEval:
    def test_noise_free_data_gives_zero_index(self, tmp_path, truth_model):
        path, model = truth_model
        sim = str(tmp_path / "sim.csv")
        assert main(["simulate", "--model", path, "--out", sim,
                     "--gen-samples", "120", "--no-noise"]) == 0
        out = str(tmp_path / "eval")
        assert main(["eval", "--model", path, "--data", sim, "--out", out]) == 0
        summary = json.loads((tmp_path / "eval" / "eval_summary.json").read_text())
        assert summary["mean_q"] == pytest.approx(0.0, abs=1e-12)
        n = summary["n_samples"]
        expected = 0.5 * n * np.log(model.Re[0, 0])
        assert summary["nll"] == pytest.approx(expected, rel=1e-9)

    def test_dimension_mismatch(self, tmp_path, truth_model):
        path, _ = truth_model
        bad = str(tmp_path / "bad.csv")
        save_dataset(bad, Dataset(np.zeros((5, 2)), np.zeros((5, 1))))
        assert main(["eval", "--model", path, "--data", bad,
                     "--out", str(tmp_path / "o")]) == 1


class TestEig:
    def test_stable_filter_inside_disk(self, tmp_path, truth_model, capsys):
        path, _ = truth_model
        code = main(["eig", "--model", path, "--region", "disk 1 0",
                     "--epsilon", "0.03"])
        out = capsys.readouterr().out
        assert code == 0
        assert "direct membership: True" in out
        assert "oracle verdict" in out
        # the dual lower bound is printed under the value it bounds
        lines = out.splitlines()
        i = next(k for k, line in enumerate(lines)
                 if line.startswith("barrier value: "))
        assert lines[i + 1].startswith("lower bound: ")
        value, bound = (float(line.split(": ")[1]) for line in lines[i:i + 2])
        assert bound <= value <= 1.0 / 0.03

    def test_region_parse_error(self, truth_model):
        path, _ = truth_model
        assert main(["eig", "--model", path, "--region", "sphere 1"]) == 1

    @pytest.mark.parametrize("epsilon", ["0", "-0.03"])
    def test_nonpositive_epsilon_is_input_error(self, truth_model, capsys,
                                                epsilon):
        path, _ = truth_model
        code = main(["eig", "--model", path, "--region", "disk 1 0",
                     "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: --epsilon must be positive")
        assert "verdict" not in captured.out

    @pytest.mark.parametrize("key", [None, "dims", "ladm"])
    def test_model_that_is_not_an_object(self, tmp_path, truth_model, capsys,
                                         key):
        doc = [1, 2]
        if key is not None:
            with open(truth_model[0]) as fh:
                doc = json.load(fh)
            doc[key] = [1, 2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["eig", "--model", str(path)])
        assert code == 1
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("flaw", ["missing key", "bad value"])
    def test_malformed_ladm_block(self, tmp_path, truth_model, capsys, flaw):
        with open(truth_model[0]) as fh:
            doc = json.load(fh)
        if flaw == "missing key":
            doc["ladm"] = {"n_s": 1}
        else:
            doc["ladm"]["n_s"] = "two"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["eig", "--model", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: " + str(path) + ": " + ("missing ladm keys"
                                            if flaw == "missing key"
                                            else "ladm: "))

    def test_jordan_block_against_left_half_plane(self, tmp_path, capsys):
        from ssfit.statespace import InnovationModel

        model = InnovationModel(
            np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 1)),
            np.eye(1, 2), np.zeros((1, 1)), np.zeros(2),
            np.zeros((2, 1)), np.eye(1))
        path = str(tmp_path / "jordan.json")
        save_model(path, model)
        code = main(["eig", "--model", path, "--region", "left_half_plane 0",
                     "--target", "open_loop", "--epsilon", "0.01"])
        out = capsys.readouterr().out
        assert "direct membership: False" in out
        assert "barrier value: inf" in out
        assert code == 0


class TestFitPipeline:
    def test_fit_then_artifacts(self, tmp_path, truth_model):
        path, _ = truth_model
        sim = str(tmp_path / "sim.csv")
        assert main(["simulate", "--model", path, "--out", sim,
                     "--seed", "4", "--gen-samples", "400"]) == 0
        cfg = tmp_path / "cfg.json"
        doc = sample_config()
        doc["constraints"] = []
        doc["solver"] = {"max_inner": 250}
        cfg.write_text(json.dumps(doc))
        out = str(tmp_path / "run")
        code = main(["fit", "--config", str(cfg), "--data", sim, "--out", out])
        assert code in (0, 2)
        assert os.path.exists(os.path.join(out, "model.json"))
        report = json.loads((tmp_path / "run" / "fit_report.json").read_text())
        assert np.isfinite(report["nll"])
        assert "filter_eigs" in report and "wall_time_s" in report

    def test_malformed_csv_reports_row(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(sample_config()))
        bad = tmp_path / "bad.csv"
        bad.write_text("t,u1,y1\n0,1,2\n1,x,3\n")
        code = main(["fit", "--config", str(cfg), "--data", str(bad),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert ":3" in err

    def test_bad_config_schema(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        doc = sample_config()
        doc["mystery"] = True
        cfg.write_text(json.dumps(doc))
        code = main(["fit", "--config", str(cfg),
                     "--data", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_constraint_that_is_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = sample_config()
        doc["constraints"] = ["disk 0.9 0"]
        cfg.write_text(json.dumps(doc))
        code = main(["fit", "--config", str(cfg),
                     "--data", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "constraint 0 must be a JSON object" in capsys.readouterr().err

    def test_negative_constraint_shift_is_input_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = str(tmp_path / "data.csv")
        save_dataset(data, Dataset(rng.standard_normal((60, 1)),
                                   rng.standard_normal((60, 1))))
        doc = sample_config()
        # filter matrix 3 x 3, disk m = 2: the shift is 6 x 6
        doc["constraints"] = [{"region": "disk 0.998 0", "epsilon_i": 0.03,
                               "shift": (-0.05 * np.eye(6)).tolist()}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(["fit", "--config", str(cfg), "--data", data,
                     "--out", str(out)])
        assert code == 1
        assert "positive semidefinite" in capsys.readouterr().err
        assert not (out / "model.json").exists()


FIT = ["fit", "--config", "{cfg}", "--data", "{data}", "--out", "{tmp}/o"]
ERROR_IN_CFG = "error: {cfg}: "
NAN, INF = float("nan"), float("inf")
# a JSON boolean is no number, and an integer option takes no fraction
SOLVER_FAULTS = [(key, True) for key in (
    "tol_eq", "tol_in", "tol_stat", "max_outer", "max_inner", "penalty0",
    "multistart", "verbose")] + [
    ("max_inner", 2.9), ("max_outer", 1.5), ("multistart", 0.5),
    ("verbose", -0.5), ("max_inner", INF), ("tol_eq", NAN),
    ("penalty0", INF), ("tol_stat", "1e-6"),
    # well-typed but out of range
    ("penalty0", 0), ("penalty0", -10), ("max_outer", 0), ("max_outer", -3),
    ("max_inner", 0), ("tol_eq", 0), ("tol_in", -1e-7), ("tol_stat", 0.0),
    ("multistart", -1)]
# the other numbers of a config follow the same rule: counts are integral,
# every number finite, and no value a boolean
CONFIG_FAULTS = [
    (("io", "seed"), 7.9, "io seed must be an integer, got 7.9"),
    (("io", "seed"), True, "io seed must be an integer, got true"),
    (("model", "n_s"), 2.9, "model n_s must be an integer, got 2.9"),
    (("model", "n_u"), True, "model n_u must be an integer, got true"),
    (("model", "n_y"), 1.5, "model n_y must be an integer, got 1.5"),
    (("model", "n_d"), 0.5, "model n_d must be an integer, got 0.5"),
    (("objective", "rho"), True,
     "objective rho must be a finite number, got true"),
    (("objective", "epsilon"), INF,
     "objective epsilon must be a finite number, got Infinity"),
    (("objective", "epsilon"), "1e-6",
     "objective epsilon must be a finite number, got \"1e-6\""),
    (("objective", "delta_re"), False,
     "objective delta_re must be a finite number, got false"),
    (("objective", "delta_re"), NAN,
     "objective delta_re must be a finite number, got NaN"),
    (("constraints", 0, "epsilon_i"), True,
     "constraint 0: epsilon_i must be a finite number, got true"),
    (("constraints", 0, "epsilon_i"), -INF,
     "constraint 0: epsilon_i must be a finite number, got -Infinity"),
]


@pytest.mark.parametrize("argv, edit, code, err", [
    pytest.param(FIT, ("cfg", ("model",), 5), 1, ERROR_IN_CFG, id="model-5"),
    pytest.param(FIT, ("cfg", ("constraints",), 5), 1, ERROR_IN_CFG,
                 id="constraints-5"),
    pytest.param(FIT, ("cfg", ("objective",), None), 1, ERROR_IN_CFG,
                 id="objective-null"),
    pytest.param(FIT, ("cfg", ("io",), [1]), 1, ERROR_IN_CFG, id="io-list"),
    pytest.param(FIT, ("cfg", ("solver",), {"max_inner": [1]}), 1,
                 ERROR_IN_CFG, id="solver-max_inner-list"),
    pytest.param(FIT, ("cfg", ("solver",), {"tol_eq": None}), 1,
                 ERROR_IN_CFG, id="solver-tol_eq-null"),
    pytest.param(FIT, ("cfg", ("model", "n_s"), [2]), 1, ERROR_IN_CFG,
                 id="model-n_s-list"),
    pytest.param(["eig", "--model", "{model}"], ("model", ("A",), {"x": 1}),
                 1, "error: {model}: ", id="model-A-object"),
    pytest.param(["fit", "--config", "{tmp}", "--data", "{data}",
                  "--out", "{tmp}/o"], None, 1, "error: ",
                 id="config-is-directory"),
    pytest.param(["fit", "--config", "{cfg}", "--data", "{tmp}",
                  "--out", "{tmp}/o"], None, 1, "error: ",
                 id="data-is-directory"),
    pytest.param(["eig", "--model", "{tmp}"], None, 1, "error: ",
                 id="model-is-directory"),
    pytest.param(["eval", "--model", "{unstable}", "--data", "{data}",
                  "--out", "{tmp}/e"], None, 2,
                 "error: state recursion diverged at sample k = 67\n",
                 id="eval-diverging-model"),
    pytest.param(["simulate", "--model", "{model}", "--out", "{tmp}/s.csv"],
                 ("model", ("K",), [[NAN], [NAN], [NAN]]), 1,
                 "error: {model}: K has a nonfinite entry\n",
                 id="simulate-model-K-nan"),
    pytest.param(["eig", "--model", "{model}"],
                 ("model", ("A",), [[NAN] * 3] * 3), 1,
                 "error: {model}: A has a nonfinite entry\n",
                 id="eig-model-A-nan"),
    pytest.param(["eig", "--model", "{model}"],
                 ("model", ("x0hat",), [0.0, -INF, 0.0]), 1,
                 "error: {model}: x0hat has a nonfinite entry\n",
                 id="eig-model-x0hat-inf"),
    pytest.param(["eig", "--model", "{model}"],
                 ("model", ("ladm", "Cd"), [[INF]]), 1,
                 "error: {model}: ladm: Cd has a nonfinite entry\n",
                 id="eig-model-ladm-Cd-inf"),
    pytest.param(["eig", "--model", "{model}"],
                 ("model", ("ladm", "n_s"), INF), 1, "error: {model}: ladm: ",
                 id="eig-model-ladm-n_s-inf"),
    pytest.param(FIT, ("cfg", ("io", "seed"), INF), 1, ERROR_IN_CFG,
                 id="io-seed-inf"),
    *[pytest.param(FIT, ("cfg", ("solver",), {key: value}), 1,
                   ERROR_IN_CFG + f"solver {key} must be ",
                   id=f"solver-{key}-{value}")
      for key, value in SOLVER_FAULTS],
    *[pytest.param(FIT, ("cfg", keys, value), 1, ERROR_IN_CFG + message + "\n",
                   id="-".join(map(str, keys)) + f"-{value}")
      for keys, value, message in CONFIG_FAULTS],
    pytest.param(["eig", "--model", "{model}"], ("model", ("D",), [[True]]),
                 1, "error: {model}: D has a non-numeric entry\n",
                 id="eig-model-D-boolean"),
    pytest.param(["eig", "--model", "{model}"],
                 ("model", ("ladm", "n_d"), 1.7), 1,
                 "error: {model}: ladm: n_d must be an integer, got 1.7\n",
                 id="eig-model-ladm-n_d-fraction"),
])
def test_input_boundary(tmp_path, truth_model, capsys, argv, edit, code, err):
    """Every malformed input ends in ``error: ...`` and exit 1, and a
    diverging state recursion in exit 2, never in a traceback."""
    from ssfit.statespace import InnovationModel

    paths = {"tmp": str(tmp_path), "cfg": str(tmp_path / "cfg.json"),
             "model": truth_model[0], "data": str(tmp_path / "data.csv"),
             "unstable": str(tmp_path / "unstable.json")}
    with open(truth_model[0]) as fh:
        docs = {"cfg": sample_config(), "model": json.load(fh)}
    if edit is not None:
        name, keys, value = edit
        target = docs[name]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    for name, doc in docs.items():
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    save_dataset(paths["data"], Dataset(np.ones((200, 1)), np.zeros((200, 1))))
    save_model(paths["unstable"], InnovationModel(
        np.array([[1.5]]), np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1)),
        np.zeros(1), np.zeros((1, 1)), np.ones((1, 1))))
    assert main([a.format(**paths) for a in argv]) == code
    assert capsys.readouterr().err.startswith(err.format(**paths))
