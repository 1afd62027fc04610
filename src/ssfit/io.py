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
import os
from dataclasses import dataclass, field, replace

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
    "load_model",
    "save_model",
    "parse_region",
    "region_to_text",
    "parse_index_set",
    "index_set_to_config",
    "load_config",
    "parse_config",
    "config_to_dict",
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


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from None


# -- time series -------------------------------------------------------------

def load_dataset(path: str) -> Dataset:
    """Read a dataset CSV with columns ``t, u1..um, y1..yp``."""
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
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}:{lineno}: expected {len(header)} fields, "
                    f"got {len(row)}")
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            if not all(np.isfinite(v) for v in vals):
                raise SchemaError(f"{path}:{lineno}: nonfinite value")
            rows.append(vals)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    arr = np.asarray(rows)
    t = arr[:, 0]
    dt = float(t[1] - t[0]) if len(t) > 1 else 1.0
    return Dataset(arr[:, 1:1 + m], arr[:, 1 + m:], dt=dt)


def save_dataset(path: str, data: Dataset) -> None:
    """Write a dataset CSV (deterministic formatting, 17 significant digits)."""
    m, p = data.u.shape[1], data.y.shape[1]
    header = ["t"] + [f"u{i + 1}" for i in range(m)] + [f"y{i + 1}" for i in range(p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(data.N):
            row = [_fmt(k * data.dt)]
            row += [_fmt(v) for v in data.u[k]]
            row += [_fmt(v) for v in data.y[k]]
            writer.writerow(row)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


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
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


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
    dims = _fields(doc["dims"], path, {"n", "m", "p"}, what="dims")
    try:
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
    ``band 2`` and ``intersect(<region>, <region>, ...)``.  A mapping with
    keys ``M0``/``M1`` builds a raw region.
    """
    if isinstance(spec, dict):
        _fields(spec, "raw region", {"M0", "M1"}, {"label"})
        return LmiRegion(np.asarray(spec["M0"], dtype=float),
                         np.asarray(spec["M1"], dtype=float),
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


def region_to_text(region: LmiRegion):
    """Inverse of :func:`parse_region` for preset-built regions."""
    if region.kind in _PRESETS:
        return f"{region.kind} " + " ".join(_fmt_short(v) for v in region.params)
    if region.kind == "intersect":
        return "intersect(" + ", ".join(
            region_to_text(r) for r in region.params) + ")"
    return {"M0": region.m0.tolist(), "M1": region.m1.tolist(),
            "label": region.label or "raw"}


def _fmt_short(v: float) -> str:
    return format(float(v), "g")


# -- index sets ----------------------------------------------------------------

def parse_index_set(spec, n: int) -> IndexSet:
    """Parse a sparsity pattern: ``"full"``, ``"diag"``,
    ``"blockdiag(n1,n2,...)"`` or an explicit list of ``[i, j]`` pairs."""
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
        entries = tuple(sorted((int(i), int(j)) for i, j in spec))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad index set entries: {exc}") from None
    return IndexSet(n, entries)


def index_set_to_config(pattern: IndexSet):
    if pattern == full_lower(pattern.n):
        return "full"
    if pattern == diagonal(pattern.n):
        return "diag"
    return [[i, j] for i, j in pattern.entries]


# -- run configuration -----------------------------------------------------------

_SOLVER_KEYS = {"tol_eq", "tol_in", "tol_stat", "max_outer", "max_inner",
                "penalty0", "multistart", "verbose"}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one identification run."""

    problem: ProblemSpec
    solver: SolveOptions
    seed: int = 0
    raw: dict = field(default_factory=dict, compare=False)


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
                else np.asarray(cdoc["weight"], dtype=float),
                shift=None if cdoc.get("shift") is None
                else np.asarray(cdoc["shift"], dtype=float),
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
            else np.asarray(mdl["Bd"], dtype=float),
            Cd=None if mdl.get("Cd") in (None, "identity")
            else np.asarray(mdl["Cd"], dtype=float),
            plant_form=mdl.get("plant_form", "full"),
            C_fixed=None if mdl.get("C_fixed") in (None, "free")
            else (np.eye(n_s)[:p] if mdl["C_fixed"] == "identity"
                  else np.asarray(mdl["C_fixed"], dtype=float)),
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
    return RunConfig(problem=problem, solver=solver, seed=seed, raw=doc)


def config_to_dict(config: RunConfig) -> dict:
    """Emit a configuration document that reparses to the same problem."""
    spec = config.problem
    ladm = spec.ladm
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": {
            "n_s": ladm.n_s, "n_d": ladm.n_d,
            "n_u": ladm.m, "n_y": ladm.p,
            "plant_form": ladm.plant_form,
            "Bd": ladm.Bd.tolist(),
            "Cd": ladm.Cd.tolist(),
            "C_fixed": None if ladm.C_fixed is None else ladm.C_fixed.tolist(),
            "re_pattern": "full" if spec.re_pattern is None
            else index_set_to_config(spec.re_pattern),
        },
        "constraints": [
            {
                "region": region_to_text(c.region),
                "target": c.target,
                "epsilon_i": c.epsilon_i,
                **({"weight": c.weight.tolist()} if c.weight is not None else {}),
                **({"shift": c.shift.tolist()} if c.shift is not None else {}),
            }
            for c in spec.eig_constraints
        ],
        "objective": {"rho": spec.rho, "delta_re": spec.delta_re,
                      "epsilon": spec.epsilon},
        "solver": {key: getattr(config.solver, key)
                   for key in sorted(_SOLVER_KEYS)},
        "io": {"seed": config.seed},
    }
    return doc
