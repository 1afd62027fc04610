import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import siso_ladm_spec, siso_truth
from ssfit.identify import EigConstraintSpec, ProblemSpec
from ssfit.indexsets import diagonal, direct_sum, full_lower
from ssfit.io import (
    RunConfig,
    SchemaError,
    load_config,
    load_dataset,
    load_model,
    parse_config,
    parse_index_set,
    parse_region,
    save_dataset,
    save_json,
    save_model,
    save_table,
)
from ssfit.nlp import SolveOptions
from ssfit.regions import (band, cone, contains, disk, half_plane, intersect,
                           left_half_plane)
from ssfit.statespace import Dataset, InnovationModel, LadmSpec, assemble_ladm


class TestDatasetsCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(60)
        data = Dataset(rng.standard_normal((20, 2)), rng.standard_normal((20, 3)),
                       dt=0.5)
        path = tmp_path / "d.csv"
        save_dataset(path, data)
        back = load_dataset(path)
        assert np.array_equal(back.u, data.u)
        assert np.array_equal(back.y, data.y)
        assert back.dt == 0.5

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(61)
        data = Dataset(rng.standard_normal((10, 1)), rng.standard_normal((10, 1)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(p1, data)
        save_dataset(p2, data)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u1,y1\n0,1,2\n1,oops,3\n")
        with pytest.raises(SchemaError, match=":3"):
            load_dataset(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u1,y1\n0,1\n")
        with pytest.raises(SchemaError, match=":2"):
            load_dataset(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u1,y1\n0,nan,2\n")
        with pytest.raises(SchemaError, match="nonfinite"):
            load_dataset(path)

    def test_nonfinite_value_reports_line_past_a_blank_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u1,y1\n0,1,2\n\n1,inf,3\n")
        with pytest.raises(SchemaError, match=r"bad\.csv:4: nonfinite value$"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,u1,y1\n0,1,2\n")
        with pytest.raises(SchemaError, match="'t'"):
            load_dataset(path)

    @pytest.mark.parametrize("body, want", [
        ("0,1,2\n\n\n1,3,4\n\n", [[0, 1, 2], [1, 3, 4]]),
        ("0,1,2\r\n\r\n1,3,4\r\n", [[0, 1, 2], [1, 3, 4]]),
        ("0,1,2\r1,3,4", [[0, 1, 2], [1, 3, 4]]),
        ('"0","1",2\n1,"3"," 4 "\n', [[0, 1, 2], [1, 3, 4]]),
        (" 0 , 1 ,\t2\n1, -.5e1 ,+4.\n", [[0, 1, 2], [1, -5, 4]]),
        ("0,1_0,2\n", [[0, 10, 2]]),
        ("0,1,2\n  \n", ":3: expected 3 fields, got 1"),
        ("0,1,2,\n", ":2: expected 3 fields, got 4"),
        ("#0,1,2\n", ":2: could not convert string to float: '#0'"),
        ('0,"1,5",2\n', ":2: could not convert string to float: '1,5'"),
        ("0,1,2\r\n\r\n1,nan,2\r\n", ":4: nonfinite value"),
        ('0,1,2\n\n1,"-inf",2\n', ":4: nonfinite value"),
        ("0,,2\n", ":2: could not convert string to float: ''"),
        ("\n\n", ": no data rows"),
    ])
    def test_body_forms_parse_as_the_row_reader(self, tmp_path, body, want):
        # blank lines, CRLF and CR line ends, quoted fields and spaces
        # around numbers give the arrays of a float() per field, and every
        # error names the line the row reader names
        path = tmp_path / "d.csv"
        path.write_bytes(("t,u1,y1\r\n" + body).encode())
        if isinstance(want, str):
            with pytest.raises(SchemaError) as info:
                load_dataset(path)
            assert str(info.value) == f"{path}{want}"
            return
        data = load_dataset(path)
        want = np.array(want, dtype=float)
        assert np.array_equal(data.u, want[:, 1:2])
        assert np.array_equal(data.y, want[:, 2:])
        assert data.dt == 1.0

    def test_long_record_roundtrip(self, tmp_path):
        rng = np.random.default_rng(62)
        scale = 10.0 ** rng.integers(-300, 300, (20_000, 3))
        data = Dataset(rng.standard_normal((20_000, 1)) * scale[:, :1],
                       rng.standard_normal((20_000, 2)) * scale[:, 1:],
                       dt=0.25)
        path = tmp_path / "d.csv"
        save_dataset(path, data)
        back = load_dataset(path)
        assert np.array_equal(back.u, data.u)
        assert np.array_equal(back.y, data.y)
        assert back.dt == 0.25


class TestArtifactWriters:
    def test_table_format(self, tmp_path):
        path = tmp_path / "t.csv"
        save_table(path, ["t", "a", "b"], [
            np.arange(3) * 0.1, np.array([1 / 3, -0.0, np.nan]),
            np.array([1e300, np.inf, 2.0])])
        assert path.read_bytes() == (
            b"t,a,b\n"
            b"0,0.33333333333333331,1.0000000000000001e+300\n"
            b"0.10000000000000001,-0,inf\n"
            b"0.20000000000000001,nan,2\n")

    def test_json_format(self, tmp_path):
        path = tmp_path / "d.json"
        save_json(path, {"b": [1, 2.5], "a": {"c": None}})
        assert path.read_text() \
            == '{\n "a": {\n  "c": null\n },\n "b": [\n  1,\n  2.5\n ]\n}\n'
        with pytest.raises(TypeError):
            save_json(tmp_path / "x.json", {"a": np.zeros(2)})


class TestModelFiles:
    def test_roundtrip(self, tmp_path):
        spec, layout, theta = siso_truth()
        model = assemble_ladm(spec, theta, layout)
        path = tmp_path / "m.json"
        save_model(path, model, ladm=spec, meta={"seed": 3})
        back, ladm, meta = load_model(path)
        for name in ("A", "B", "C", "D", "K", "Re"):
            assert np.array_equal(getattr(back, name), getattr(model, name))
        assert ladm.n_s == spec.n_s and ladm.plant_form == "canonical"
        assert meta["seed"] == 3

    def test_unknown_keys_rejected(self, tmp_path):
        spec, layout, theta = siso_truth()
        model = assemble_ladm(spec, theta, layout)
        path = tmp_path / "m.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        doc["surprise"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="unknown"):
            load_model(path)

    def test_dim_mismatch_rejected(self, tmp_path):
        spec, layout, theta = siso_truth()
        model = assemble_ladm(spec, theta, layout)
        path = tmp_path / "m.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        doc["dims"]["n"] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="dims"):
            load_model(path)

    def test_dims_are_integers(self, tmp_path):
        # true == 1 in Python, but a JSON boolean is no count
        spec, layout, theta = siso_truth()
        path = tmp_path / "m.json"
        save_model(path, assemble_ladm(spec, theta, layout))
        doc = json.loads(path.read_text())
        assert doc["dims"]["m"] == 1
        doc["dims"]["m"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="dims m must be an integer, "
                                              "got true"):
            load_model(path)

    @pytest.mark.parametrize("version", [99, "one", True, 0])
    def test_schema_version_must_be_current(self, tmp_path, version):
        spec, layout, theta = siso_truth()
        path = tmp_path / "m.json"
        save_model(path, assemble_ladm(spec, theta, layout))
        doc = json.loads(path.read_text())
        doc["schema_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=(
                f"^{re.escape(str(path))}: schema_version must be 1, "
                f"got {json.dumps(version)}$")):
            load_model(path)

    def test_ladm_maps_need_their_exact_shape(self, tmp_path):
        spec, layout, theta = siso_truth()
        path = tmp_path / "m.json"
        save_model(path, assemble_ladm(spec, theta, layout), ladm=spec)
        doc = json.loads(path.read_text())
        assert np.shape(doc["ladm"]["Bd"]) == (2, 1)
        doc["ladm"]["Bd"] = [[0.0, 0.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"ladm: Bd has shape \(1, 2\), "
                                              r"expected \(2, 1\)"):
            load_model(path)


@st.composite
def model_files(draw):
    """A finite model of random dimensions, entries over the whole finite
    float range (signed zeros and subnormals included), and maybe a
    ``ladm`` block and a seed."""
    n, m, p = (draw(st.integers(1, 3)) for _ in range(3))
    entries = st.floats(allow_nan=False, allow_infinity=False)

    def matrix(rows, cols):
        values = draw(st.lists(entries, min_size=rows * cols,
                               max_size=rows * cols))
        return np.array(values, dtype=float).reshape(rows, cols)

    R = matrix(p, p)
    Re = np.where(np.triu(np.ones((p, p), dtype=bool)), R, R.T)
    model = InnovationModel(matrix(n, n), matrix(n, m), matrix(p, n),
                            matrix(p, m), matrix(n, 1).ravel(),
                            matrix(n, p), Re)
    ladm = None
    if draw(st.booleans()):
        n_s, n_d = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        ladm = LadmSpec(n_s, n_d, m, p, Bd=matrix(n_s, n_d),
                        Cd=matrix(p, n_d))
    meta = draw(st.none() | st.fixed_dictionaries(
        {"seed": st.integers(0, 2**64)}))
    return model, ladm, meta


@settings(max_examples=100, derandomize=True, deadline=None)
@given(model_files())
def test_model_file_rewrite_is_byte_identical(tmp_path_factory, case):
    model, ladm, meta = case
    first = tmp_path_factory.mktemp("model") / "first.json"
    second = first.with_name("second.json")
    save_model(first, model, ladm=ladm, meta=meta)
    back, back_ladm, back_meta = load_model(first)
    save_model(second, back, ladm=back_ladm, meta=back_meta)
    assert second.read_bytes() == first.read_bytes()


# each region text with the constructor call it stands for
REGION_TEXTS = {
    "half_plane 0.3": lambda: half_plane(0.3),
    "disk 0.998 0": lambda: disk(0.998, 0.0),
    "cone 1 0": lambda: cone(1.0, 0.0),
    "band 2": lambda: band(2.0),
    "left_half_plane 0": lambda: left_half_plane(0.0),
    "intersect(half_plane 0.3, disk 0.998 0)":
        lambda: intersect(half_plane(0.3), disk(0.998, 0.0)),
    "intersect(half_plane 0.3, intersect(disk 1 0, band 2))":
        lambda: intersect(half_plane(0.3),
                          intersect(disk(1.0, 0.0), band(2.0))),
}


class TestRegionSyntax:
    @pytest.mark.parametrize("text", list(REGION_TEXTS))
    def test_roundtrip(self, text):
        # the text parses to the region its constructors build
        region, expected = parse_region(text), REGION_TEXTS[text]()
        assert region.kind == expected.kind
        assert np.array_equal(region.m0, expected.m0)
        assert np.array_equal(region.m1, expected.m1)

    def test_raw_matrices(self):
        region = parse_region({"M0": [[0.0]], "M1": [[1.0]]})
        assert contains(region, 1.0)

    def test_parse_matches_constructors(self):
        assert np.array_equal(parse_region("disk 0.998 0").m0,
                              disk(0.998, 0.0).m0)
        r = parse_region("intersect(half_plane 0.3, disk 0.998 0)")
        assert r.m == 3

    @pytest.mark.parametrize("bad", [
        "circle 1 0",
        "disk 1",
        "disk a b",
        "intersect(half_plane 0.3)",
        "intersect half_plane 0.3, disk 1 0",
        "half_plane inf",
        "half_plane nan",
        "disk inf 0",
        "cone 1 inf",
        "band inf",
        "intersect(half_plane 0.3, disk 1 -inf)",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(SchemaError):
            parse_region(bad)


class TestIndexSetSyntax:
    def test_keywords(self):
        assert parse_index_set("full", 3) == full_lower(3)
        assert parse_index_set("diag", 3) == diagonal(3)
        assert parse_index_set("blockdiag(2,1)", 3) == \
            direct_sum(full_lower(2), full_lower(1))

    def test_explicit_pairs(self):
        s = parse_index_set([[1, 1], [2, 2], [2, 1]], 2)
        assert s == full_lower(2)

    def test_roundtrip(self):
        for pattern in (full_lower(3), diagonal(3),
                        direct_sum(full_lower(2), diagonal(2))):
            pairs = [[i, j] for i, j in pattern.entries]
            assert parse_index_set(pairs, pattern.n) == pattern

    def test_bad_blockdiag(self):
        with pytest.raises(SchemaError, match="sum"):
            parse_index_set("blockdiag(2,2)", 3)


def sample_config() -> dict:
    return {
        "schema_version": 1,
        "model": {
            "n_s": 2, "n_d": 1, "n_u": 1, "n_y": 1,
            "plant_form": "canonical",
            "Bd": "zero", "Cd": "identity",
            "re_pattern": "full",
        },
        "constraints": [
            {"region": "intersect(half_plane 0.3, disk 0.998 0)",
             "target": "filter", "epsilon_i": 0.03},
        ],
        "objective": {"rho": 0.0, "delta_re": "auto", "epsilon": 1e-6},
        "solver": {"max_inner": 300},
        "io": {"seed": 7},
    }


class TestRunConfig:
    def test_parse(self):
        config = parse_config(sample_config())
        assert isinstance(config, RunConfig)
        assert config.problem.ladm.n_s == 2
        assert len(config.problem.eig_constraints) == 1
        assert config.problem.eig_constraints[0].epsilon_i == 0.03
        assert config.seed == 7
        assert config.solver.max_inner == 300

    @pytest.mark.parametrize("version", [7, "1", True, None])
    def test_schema_version_must_be_current(self, version):
        doc = sample_config()
        doc["schema_version"] = version
        with pytest.raises(SchemaError, match=(
                f"^cfg.json: schema_version must be 1, "
                f"got {json.dumps(version)}$")):
            parse_config(doc, origin="cfg.json")
        # the version may be left out, and 1.0 is the integer 1
        for current in ({}, {"schema_version": 1.0}):
            doc = {key: value for key, value in sample_config().items()
                   if key != "schema_version"}
            assert parse_config({**doc, **current}) == parse_config(
                sample_config())

    def test_solver_defaults_are_the_fit_defaults(self):
        from ssfit.identify import FIT_OPTIONS

        doc = sample_config()
        del doc["solver"]
        solver = parse_config(doc).solver
        assert solver == FIT_OPTIONS
        assert {key: getattr(solver, key) for key in (
            "tol_eq", "tol_in", "tol_stat", "max_outer", "max_inner",
            "penalty0")} == {
            "tol_eq": 1e-7, "tol_in": 1e-7, "tol_stat": 1e-6,
            "max_outer": 50, "max_inner": 400, "penalty0": 100.0}

    def test_unknown_keys_rejected_everywhere(self):
        for path in (("extra",), ("model", "extra"), ("objective", "extra"),
                     ("solver", "extra"), ("io", "extra")):
            doc = sample_config()
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = 1
            with pytest.raises(SchemaError, match="unknown"):
                parse_config(doc)

    def test_constraint_validation(self):
        doc = sample_config()
        doc["constraints"][0]["epsilon_i"] = -1.0
        with pytest.raises(SchemaError):
            parse_config(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), True],
                             ids=["NaN", "Infinity", "true"])
    @pytest.mark.parametrize("path", [
        ("constraints", 0, "weight"), ("constraints", 0, "shift"),
        ("constraints", 0, "region", "M0"), ("constraints", 0, "region", "M1"),
        ("model", "Bd"), ("model", "Cd"), ("model", "C_fixed"),
    ], ids=lambda path: "-".join(map(str, path)))
    def test_matrices_follow_the_number_rule(self, path, bad):
        # the rule of model files: a finite JSON number in every entry
        doc = sample_config()
        doc["constraints"][0]["region"] = {"M0": [[0.3]], "M1": [[-0.5]]}
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = [[1.0, bad]]
        name = f"model {path[-1]}" if path[0] == "model" else path[-1]
        kind = "non-numeric" if bad is True else "nonfinite"
        with pytest.raises(SchemaError, match=f": {name} has a {kind} entry"):
            parse_config(doc)

    def test_config_dir_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(sample_config()))
        monkeypatch.setenv("SSFIT_CONFIG_DIR", str(tmp_path))
        config = load_config("run.json")
        assert config.problem.ladm.n_s == 2
