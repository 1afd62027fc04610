"""File formats: CSV time series, JSON model and configuration files.

Time series travel as plain CSV with a header row ``t, u1..um, y1..yp``.
Models and configurations are schema-versioned JSON with matrices as
row-major nested arrays, so artifacts stay diffable.  Regions use a compact
text syntax (``disk 0.998 0``, ``intersect(half_plane 0.3, disk 0.998 0)``)
with raw generating matrices accepted for expert use.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass, replace
from io import StringIO

import numpy as np

from .identify import FIT_OPTIONS, EigConstraintSpec, ProblemSpec
from .indexsets import IndexSet, full_lower, diagonal, direct_sum
from .nlp import SolveOptions
from .regions import LmiRegion, band, cone, disk, half_plane, intersect, left_half_plane
from .statespace import Dataset, InnovationModel, LadmSpec

__all__ = [
    "SchemaError",
    "RunConfig",
    "load_dataset",
    "save_dataset",
    "save_table",
    "save_json",
    "load_model",
    "save_model",
    "parse_region",
    "parse_index_set",
    "load_config",
    "parse_config",
]

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A file does not match its documented schema."""


def _fields(doc, where: str, required, optional=(), what: str = "") -> dict:
    """Return ``doc`` once it is a JSON object whose keys are all in
    ``required`` or ``optional`` and include every ``required`` one.

    Messages read ``<where>: <what> must be a JSON object`` and
    ``<where>: unknown/missing <what> keys [...]``.
    """
    label = f"{where}: {what}" if what else where
    if not isinstance(doc, dict):
        raise SchemaError(f"{label} must be a JSON object, "
                          f"got {type(doc).__name__}")
    keys = f"{what} keys" if what else "keys"
    unknown = doc.keys() - set(required) - set(optional)
    if unknown:
        raise SchemaError(f"{where}: unknown {keys} {sorted(unknown)}")
    missing = set(required) - doc.keys()
    if missing:
        raise SchemaError(f"{where}: missing {keys} {sorted(missing)}")
    return doc


def _check_version(doc: dict, where: str) -> None:
    version = doc.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise SchemaError(f"{where}: schema_version must be {SCHEMA_VERSION}, "
                          f"got {json.dumps(version)}")


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from None


# -- time series -------------------------------------------------------------

def load_dataset(path: str) -> Dataset:
    """Read a dataset CSV with columns ``t, u1..um, y1..yp``.

    The body is parsed in one ``np.loadtxt`` call.  When that fails, or
    finds a row of the wrong width or a nonfinite value, the row-by-row
    reader names the offending line (or reads what Python's ``float``
    accepts and ``loadtxt`` does not, such as ``1_000``).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "t":
            raise SchemaError(f"{path}: first column must be 't', got {header[:1]}")
        m = sum(1 for h in header if h.startswith("u"))
        p = sum(1 for h in header if h.startswith("y"))
        expected_u = [f"u{i + 1}" for i in range(m)]
        expected_y = [f"y{i + 1}" for i in range(p)]
        if header != ["t"] + expected_u + expected_y or p == 0:
            raise SchemaError(
                f"{path}: header must read t, u1..um, y1..yp; got {header}")
        body = fh.read()
    try:
        with warnings.catch_warnings():  # an empty body is an error below
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(StringIO(body, newline=""), delimiter=",",
                             quotechar='"', comments=None, ndmin=2)
    except ValueError:
        arr = None
    if arr is None or arr.shape[1] != len(header) or not arr.size \
            or not np.isfinite(arr).all():
        arr = _read_rows(path, body, len(header))
    t = arr[:, 0]
    dt = float(t[1] - t[0]) if len(t) > 1 else 1.0
    return Dataset(arr[:, 1:1 + m], arr[:, 1 + m:], dt=dt)


def _read_rows(path: str, body: str, width: int) -> np.ndarray:
    """The dataset body read row by row with ``float``: a ``SchemaError``
    names the first blank-skipped line with the wrong number of fields, a
    field ``float`` rejects, or a nonfinite value."""
    rows = []
    for lineno, row in enumerate(csv.reader(StringIO(body, newline="")),
                                 start=2):
        if not row:
            continue
        if len(row) != width:
            raise SchemaError(
                f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, vals)):
            raise SchemaError(f"{path}:{lineno}: nonfinite value")
        rows.append(vals)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return np.asarray(rows)


def save_dataset(path: str, data: Dataset) -> None:
    """Write a dataset CSV (deterministic formatting, 17 significant digits)."""
    m, p = data.u.shape[1], data.y.shape[1]
    header = ["t"] + [f"u{i + 1}" for i in range(m)] + [f"y{i + 1}" for i in range(p)]
    save_table(path, header,
               [np.arange(data.N) * data.dt, *data.u.T, *data.y.T])


def save_table(path: str, header: list[str], columns: list) -> None:
    """Write a CSV table: the ``header`` row, then one row per entry of the
    equal-length ``columns``, every number ``.17g``, every line ending in
    ``\\n``."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(line % row)


def save_json(path: str, doc: dict) -> None:
    """Write a JSON artifact: keys sorted, one-space indent, a final
    newline.  A value JSON cannot encode raises ``TypeError``."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- models -------------------------------------------------------------------

def save_model(path: str, model: InnovationModel,
               ladm: LadmSpec | None = None, meta: dict | None = None) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dims": {"n": model.n, "m": model.m, "p": model.p},
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "C": model.C.tolist(),
        "D": model.D.tolist(),
        "x0hat": model.x0hat.tolist(),
        "K": model.K.tolist(),
        "Re": model.Re.tolist(),
    }
    if ladm is not None:
        doc["ladm"] = {
            "n_s": ladm.n_s, "n_d": ladm.n_d, "m": ladm.m, "p": ladm.p,
            "plant_form": ladm.plant_form,
            "Bd": ladm.Bd.tolist(), "Cd": ladm.Cd.tolist(),
            "C_fixed": None if ladm.C_fixed is None else ladm.C_fixed.tolist(),
        }
    if meta:
        doc["meta"] = meta
    save_json(path, doc)


_MATRICES = ("A", "B", "C", "D", "x0hat", "K", "Re")


def _number(value, what: str, integral: bool = False):
    """``value`` as an ``int`` (a count, when ``integral``) or a ``float``:
    a finite JSON number, integral for a count (3.0 reads as 3, 2.9 is
    rejected).  JSON booleans are not numbers here, and nothing is rounded."""
    number = ((isinstance(value, int) and not isinstance(value, bool))
              or (isinstance(value, float) and np.isfinite(value)
                  and (not integral or value.is_integer())))
    if not number:
        noun = "an integer" if integral else "a finite number"
        raise ValueError(f"{what} must be {noun}, got {json.dumps(value)}")
    return int(value) if integral else float(value)


def _leaves(value):
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _finite(value, name: str) -> np.ndarray:
    """``value`` as a float array; entries that are not JSON numbers (a
    boolean, say) and JSON ``NaN`` and ``Infinity`` are rejected here, at the
    input boundary, so no hot path has to."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in _leaves(value)):
        raise ValueError(f"{name} has a non-numeric entry")
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a nonfinite entry")
    return arr


def load_model(path: str):
    """Read a model file; returns ``(model, ladm_or_None, meta)``."""
    doc = _fields(_read_json(path), path, {"schema_version", "dims", *_MATRICES},
                  {"ladm", "meta"})
    _check_version(doc, path)
    dims = _fields(doc["dims"], path, {"n", "m", "p"}, what="dims")
    try:
        dims = {key: _number(dims[key], f"dims {key}", integral=True)
                for key in ("n", "m", "p")}
        model = InnovationModel(*(_finite(doc[key], key) for key in _MATRICES))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if (model.n, model.m, model.p) != (dims["n"], dims["m"], dims["p"]):
        raise SchemaError(f"{path}: declared dims {dims} do not match matrices")
    ladm = None
    if "ladm" in doc:
        block = _fields(doc["ladm"], path, {"n_s", "n_d", "m", "p", "Bd", "Cd"},
                        {"plant_form", "C_fixed"}, "ladm")
        try:
            ladm = LadmSpec(
                **{key: _number(block[key], key, integral=True)
                   for key in ("n_s", "n_d", "m", "p")},
                Bd=_finite(block["Bd"], "Bd"), Cd=_finite(block["Cd"], "Cd"),
                plant_form=block.get("plant_form", "full"),
                C_fixed=None if block.get("C_fixed") is None
                else _finite(block["C_fixed"], "C_fixed"),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{path}: ladm: {exc}") from None
    return model, ladm, doc.get("meta", {})


# -- regions -------------------------------------------------------------------

_PRESETS = {
    "half_plane": (half_plane, 1),
    "left_half_plane": (left_half_plane, 1),
    "disk": (disk, 2),
    "cone": (cone, 2),
    "band": (band, 1),
}


def parse_region(spec) -> LmiRegion:
    """Parse a region from text or raw generating matrices.

    Text syntax: ``half_plane 0.3``, ``disk 0.998 0``, ``cone 1 0``,
    ``band 2`` and ``intersect(<region>, <region>, ...)``, each parameter
    a finite number.  A mapping with keys ``M0``/``M1`` builds a raw region.
    """
    if isinstance(spec, dict):
        _fields(spec, "raw region", {"M0", "M1"}, {"label"})
        return LmiRegion(_finite(spec["M0"], "M0"), _finite(spec["M1"], "M1"),
                         kind="raw", label=spec.get("label", "raw"))
    if not isinstance(spec, str):
        raise SchemaError(f"region must be text or raw matrices, got {type(spec)}")
    text = spec.strip()
    if text.startswith("intersect"):
        inner = text[len("intersect"):].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise SchemaError(f"malformed intersect syntax: {spec!r}")
        parts = _split_top_level(inner[1:-1])
        if len(parts) < 2:
            raise SchemaError("intersect needs at least two regions")
        return intersect(*[parse_region(p) for p in parts])
    fields = text.split()
    if not fields or fields[0] not in _PRESETS:
        raise SchemaError(
            f"unknown region {text!r}; expected one of "
            f"{sorted(_PRESETS)} or intersect(...)")
    ctor, nargs = _PRESETS[fields[0]]
    args = fields[1:]
    if len(args) != nargs:
        raise SchemaError(
            f"region {fields[0]} takes {nargs} parameter(s), got {len(args)}")
    try:
        values = [float(a) for a in args]
    except ValueError as exc:
        raise SchemaError(f"bad region parameter in {text!r}: {exc}") from None
    for arg, value in zip(args, values):
        if not math.isfinite(value):
            raise SchemaError(f"region {fields[0]}: parameter {arg} "
                              f"must be a finite number")
    return ctor(*values)


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return [p for p in parts if p]


# -- index sets ----------------------------------------------------------------

def parse_index_set(spec, n: int) -> IndexSet:
    """Parse a sparsity pattern: ``"full"``, ``"diag"``,
    ``"blockdiag(n1,n2,...)"`` or a list of integral ``[i, j]`` pairs."""
    if isinstance(spec, str):
        text = spec.strip()
        if text == "full":
            return full_lower(n)
        if text == "diag":
            return diagonal(n)
        if text.startswith("blockdiag(") and text.endswith(")"):
            try:
                sizes = [int(s) for s in text[len("blockdiag("):-1].split(",")]
            except ValueError:
                raise SchemaError(f"bad blockdiag sizes in {text!r}") from None
            if sum(sizes) != n:
                raise SchemaError(
                    f"blockdiag sizes sum to {sum(sizes)}, expected {n}")
            out = full_lower(sizes[0])
            for s in sizes[1:]:
                out = direct_sum(out, full_lower(s))
            return out
        raise SchemaError(f"unknown index set keyword {text!r}")
    try:
        entries = tuple(sorted(
            (_number(i, "index", integral=True),
             _number(j, "index", integral=True)) for i, j in spec))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad index set entries: {exc}") from None
    return IndexSet(n, entries)


# -- run configuration -----------------------------------------------------------

_SOLVER_KEYS = {"tol_eq", "tol_in", "tol_stat", "max_outer", "max_inner",
                "penalty0"}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one identification run."""

    problem: ProblemSpec
    solver: SolveOptions
    seed: int = 0


def load_config(path: str) -> RunConfig:
    search = [path]
    default_dir = os.environ.get("SSFIT_CONFIG_DIR")
    if default_dir and not os.path.isabs(path):
        search.append(os.path.join(default_dir, path))
    for candidate in search:
        if os.path.exists(candidate):
            return parse_config(_read_json(candidate), origin=candidate)
    raise FileNotFoundError(f"config not found: {path}")


def parse_config(doc: dict, origin: str = "<config>") -> RunConfig:
    """Validate a configuration document; every fault raises
    :class:`SchemaError` naming ``origin``."""
    doc = _fields(doc, origin, {"model"},
                  {"schema_version", "constraints", "objective", "solver", "io"})
    _check_version(doc, origin)
    mdl = _fields(doc["model"], origin, {"n_s", "n_u", "n_y"},
                  {"n_d", "plant_form", "Bd", "Cd", "C_fixed", "re_pattern"},
                  "model")
    obj = _fields(doc.get("objective", {}), origin, (),
                  {"rho", "delta_re", "epsilon"}, "objective")
    sol = _fields(doc.get("solver", {}), origin, (), _SOLVER_KEYS, "solver")
    io_doc = _fields(doc.get("io", {}), origin, (), {"seed"}, "io")
    cdocs = doc.get("constraints", [])
    if not isinstance(cdocs, list):
        raise SchemaError(f"{origin}: constraints must be a JSON array, "
                          f"got {type(cdocs).__name__}")
    constraints = []
    for i, cdoc in enumerate(cdocs):
        where = f"{origin}: constraint {i}"
        cdoc = _fields(cdoc, where, {"region"},
                       {"target", "epsilon_i", "weight", "shift"})
        try:
            constraints.append(EigConstraintSpec(
                region=parse_region(cdoc["region"]),
                target=cdoc.get("target", "filter"),
                epsilon_i=_number(cdoc.get("epsilon_i", 0.03), "epsilon_i"),
                weight=None if cdoc.get("weight") is None
                else _finite(cdoc["weight"], "weight"),
                shift=None if cdoc.get("shift") is None
                else _finite(cdoc["shift"], "shift"),
            ))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: {exc}") from None

    try:
        n_s, m, p = (_number(mdl[key], f"model {key}", integral=True)
                     for key in ("n_s", "n_u", "n_y"))
        ladm = LadmSpec(
            n_s=n_s, n_d=_number(mdl.get("n_d", p), "model n_d", integral=True),
            m=m, p=p,
            Bd=None if mdl.get("Bd") in (None, "zero")
            else _finite(mdl["Bd"], "model Bd"),
            Cd=None if mdl.get("Cd") in (None, "identity")
            else _finite(mdl["Cd"], "model Cd"),
            plant_form=mdl.get("plant_form", "full"),
            C_fixed=None if mdl.get("C_fixed") in (None, "free")
            else (np.eye(n_s)[:p] if mdl["C_fixed"] == "identity"
                  else _finite(mdl["C_fixed"], "model C_fixed")),
        )
        re_pattern = None
        if mdl.get("re_pattern") not in (None, "full"):
            re_pattern = parse_index_set(mdl["re_pattern"], p)
        delta = obj.get("delta_re", "auto")
        problem = ProblemSpec(
            ladm=ladm,
            re_pattern=re_pattern,
            eig_constraints=tuple(constraints),
            rho=_number(obj.get("rho", 0.0), "objective rho"),
            epsilon=_number(obj.get("epsilon", 1e-6), "objective epsilon"),
            delta_re=delta if delta == "auto"
            else _number(delta, "objective delta_re"),
        )
        solver = replace(FIT_OPTIONS, **{
            key: _number(value, f"solver {key}",
                         integral=type(getattr(FIT_OPTIONS, key)) is int)
            for key, value in sol.items()})
        seed = _number(io_doc.get("seed", 0), "io seed", integral=True)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{origin}: {exc}") from None
    return RunConfig(problem=problem, solver=solver, seed=seed)
