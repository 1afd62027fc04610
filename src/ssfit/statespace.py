"""Innovation-form state-space models, simulation, filtering, and likelihood.

The model is

    xhat[k+1] = A xhat[k] + B u[k] + K e[k]
    y[k]      = C xhat[k] + D u[k] + e[k]
    e[k] iid normal with covariance Re

together with the augmented-disturbance structure used for offset-free
control, where the state is split into plant states and integrating
disturbance states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .indexsets import IndexSet
from .transform import ConstraintSystem, FactorPoint, complete_factor

__all__ = [
    "InnovationModel",
    "LadmSpec",
    "ParameterLayout",
    "Dataset",
    "FilterDivergedError",
    "assemble_ladm",
    "ladm_blocks",
    "simulate",
    "filter_innovations",
    "neg_log_likelihood",
    "regularizer",
    "identification_index",
    "eigen_report",
    "EigenReport",
]

# State magnitudes beyond this are treated as filter divergence; the
# likelihood then evaluates to +inf instead of propagating NaNs.
STATE_BLOWUP = 1e12


class FilterDivergedError(FloatingPointError):
    """State recursion produced nonfinite or astronomically large values."""

    def __init__(self, k: int):
        super().__init__(f"state recursion diverged at sample k = {k}")
        self.k = k


def _symmetrized(Re: np.ndarray) -> np.ndarray:
    """The symmetric part of ``Re`` as a new array, summed from halves so
    that no finite entry overflows; ``ValueError`` unless ``np.allclose(Re,
    Re.T, atol)``: ``atol = 1e-10 * max(1, max |Re|)`` with allclose's
    ``rtol = 1e-5``, spelled out elementwise as allclose does it: close
    within tolerance where ``Re^T`` is finite, or exactly equal.  An empty
    ``Re`` fails in the ``max`` as it always has."""
    ReT = Re.T
    same = Re == ReT
    if same.size and same.all():
        return Re.copy()
    atol = 1e-10 * max(1.0, float(np.max(np.abs(Re))))
    with np.errstate(invalid="ignore"):
        close = (np.abs(Re - ReT) <= atol + 1e-5 * np.abs(ReT)) \
            & np.isfinite(ReT) | same
    if not close.all():
        raise ValueError("Re must be symmetric")
    return 0.5 * Re + 0.5 * ReT


@dataclass(frozen=True)
class InnovationModel:
    """Matrices ``(A, B, C, D, x0hat, K, Re)`` of an innovation-form model."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    x0hat: np.ndarray
    K: np.ndarray
    Re: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        Re = np.atleast_2d(np.asarray(self.Re, dtype=float))
        x0 = np.asarray(self.x0hat, dtype=float).ravel()
        n, m, p = A.shape[0], B.shape[1], C.shape[0]
        checks = {
            "A": (A, (n, n)), "B": (B, (n, m)), "C": (C, (p, n)),
            "D": (D, (p, m)), "K": (K, (n, p)), "Re": (Re, (p, p)),
        }
        for name, (M, shape) in checks.items():
            if M.shape != shape:
                raise ValueError(f"{name} has shape {M.shape}, expected {shape}")
        if x0.size != n:
            raise ValueError(f"x0hat has length {x0.size}, expected {n}")
        for name, (M, _) in checks.items():
            object.__setattr__(self, name, M)
        object.__setattr__(self, "Re", _symmetrized(Re))
        object.__setattr__(self, "x0hat", x0)

    @classmethod
    def _from_shaped(cls, A, B, C, D, x0hat, K, Re) -> "InnovationModel":
        """Build from float arrays of consistent shapes without re-checking.

        Only ``Re`` is checked for symmetry, then symmetrized as in
        ``__init__``; the caller guarantees every shape.
        """
        model = object.__new__(cls)
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D),
                        ("x0hat", x0hat), ("K", K), ("Re", _symmetrized(Re))):
            object.__setattr__(model, name, M)
        return model

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def filter_matrix(self) -> np.ndarray:
        """The estimator stability matrix ``A - K C``."""
        return self.A - self.K @ self.C


@dataclass(frozen=True, eq=False)
class LadmSpec:
    """Structure of a linear augmented disturbance model.

    Parameters
    ----------
    n_s, n_d : int
        Plant order and number of integrating disturbances.
    m, p : int
        Input and output dimensions.
    Bd : ndarray or None
        Fixed ``n_s x n_d`` disturbance input map, ``None`` for zeros.
    Cd : ndarray or None
        Fixed ``p x n_d`` disturbance output map; ``None`` selects the
        identity, which requires ``n_d == p``.
    plant_form : str
        ``"full"`` (every plant entry free) or ``"canonical"``
        (single-output observability canonical form: ones on the
        superdiagonal of ``A_s``, free bottom row, ``C_s = [1, 0, ...]``).
    C_fixed : ndarray or None
        Fixed ``p x n_s`` plant output map for the full form; ``None``
        leaves ``C_s`` parameterized.
    """

    n_s: int
    n_d: int
    m: int
    p: int
    Bd: np.ndarray | None = None
    Cd: np.ndarray | None = None
    plant_form: str = "full"
    C_fixed: np.ndarray | None = None

    def __post_init__(self):
        if min(self.n_s, self.m, self.p) < 1 or self.n_d < 0:
            raise ValueError("dimensions must be positive (n_d may be zero)")
        if self.plant_form not in ("full", "canonical"):
            raise ValueError(f"unknown plant_form {self.plant_form!r}")
        if self.plant_form == "canonical":
            if self.p != 1:
                raise ValueError("canonical plant form requires a single output")
            if self.C_fixed is not None:
                raise ValueError("canonical plant form fixes C_s itself")
        Bd = self.Bd
        if Bd is None:
            Bd = np.zeros((self.n_s, self.n_d))
        Bd = np.atleast_2d(np.asarray(Bd, dtype=float)).reshape(self.n_s, self.n_d)
        Cd = self.Cd
        if Cd is None:
            if self.n_d not in (0, self.p):
                raise ValueError("default Cd is the identity; give Cd when n_d != p")
            Cd = np.eye(self.p, self.n_d)
        Cd = np.atleast_2d(np.asarray(Cd, dtype=float)).reshape(self.p, self.n_d)
        object.__setattr__(self, "Bd", Bd)
        object.__setattr__(self, "Cd", Cd)
        if self.C_fixed is not None:
            Cs = np.atleast_2d(np.asarray(self.C_fixed, dtype=float))
            if Cs.shape != (self.p, self.n_s):
                raise ValueError(
                    f"C_fixed has shape {Cs.shape}, expected {(self.p, self.n_s)}"
                )
            object.__setattr__(self, "C_fixed", Cs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LadmSpec):
            return NotImplemented
        same_fixed = (self.C_fixed is None) == (other.C_fixed is None) and (
            self.C_fixed is None or np.array_equal(self.C_fixed, other.C_fixed))
        return (self.n_s, self.n_d, self.m, self.p, self.plant_form) \
            == (other.n_s, other.n_d, other.m, other.p, other.plant_form) \
            and np.array_equal(self.Bd, other.Bd) \
            and np.array_equal(self.Cd, other.Cd) \
            and same_fixed

    __hash__ = None

    @property
    def n(self) -> int:
        """Total augmented state dimension."""
        return self.n_s + self.n_d


@dataclass(frozen=True)
class ParameterLayout:
    """Mapping between the free parameter vector and the model matrices.

    Segments are laid out in the order ``A_s``, ``B_s``, ``K_s``, ``K_d``
    and, when the output map is not fixed, ``C_s``; each segment stores its
    matrix row-major.
    """

    ladm: LadmSpec
    segments: dict[str, tuple[slice, tuple[int, ...]]] = field(init=False)
    n_beta: int = field(init=False)

    def __post_init__(self):
        spec = self.ladm
        segs: dict[str, tuple[slice, tuple[int, ...]]] = {}
        offset = 0

        def add(name: str, shape: tuple[int, ...]):
            nonlocal offset
            size = int(np.prod(shape))
            segs[name] = (slice(offset, offset + size), shape)
            offset += size

        if spec.plant_form == "canonical":
            add("A_s", (spec.n_s,))
        else:
            add("A_s", (spec.n_s, spec.n_s))
        add("B_s", (spec.n_s, spec.m))
        add("K_s", (spec.n_s, spec.p))
        if spec.n_d > 0:
            add("K_d", (spec.n_d, spec.p))
        if spec.plant_form == "full" and spec.C_fixed is None:
            add("C_s", (spec.p, spec.n_s))
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "n_beta", offset)

    def matrices(self, beta: np.ndarray) -> dict[str, np.ndarray]:
        """Expand a parameter vector, or a ``(..., n_beta)`` stack of them,
        into the plant matrices (with the same leading dimensions)."""
        beta = np.asarray(beta, dtype=float)
        if beta.ndim == 0 or beta.shape[-1] != self.n_beta:
            raise ValueError(f"beta has shape {beta.shape}, expected "
                             f"(..., {self.n_beta})")
        spec = self.ladm
        lead = beta.shape[:-1]
        out: dict[str, np.ndarray] = {}
        for name, (sl, shape) in self.segments.items():
            out[name] = beta[..., sl].reshape(lead + shape)
        if spec.plant_form == "canonical":
            A = np.zeros(lead + (spec.n_s, spec.n_s))
            A[..., np.arange(spec.n_s - 1), np.arange(1, spec.n_s)] = 1.0
            A[..., -1, :] = out["A_s"]
            out["A_s"] = A
            out["C_s"] = np.eye(1, spec.n_s)
        elif spec.C_fixed is not None:
            out["C_s"] = spec.C_fixed
        if spec.n_d == 0:
            out["K_d"] = np.zeros((0, spec.p))
        return out

    def pack(self, mats: dict[str, np.ndarray]) -> np.ndarray:
        """Collect the free entries of the given matrices into a vector."""
        beta = np.zeros(self.n_beta)
        spec = self.ladm
        for name, (sl, shape) in self.segments.items():
            M = np.asarray(mats[name], dtype=float)
            if name == "A_s" and spec.plant_form == "canonical" and M.ndim == 2:
                M = M[-1, :]
            beta[sl] = M.reshape(-1)
        return beta


@dataclass(frozen=True)
class Dataset:
    """A uniformly sampled input-output record."""

    u: np.ndarray
    y: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if u.shape[0] != y.shape[0]:
            raise ValueError(f"u has {u.shape[0]} rows but y has {y.shape[0]}")
        if y.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise ValueError("dataset contains nonfinite entries")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    @property
    def N(self) -> int:
        return self.y.shape[0]


def ladm_blocks(
    layout: ParameterLayout, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The augmented ``(A, B, C, K)`` of ``layout.ladm`` at ``beta`` of shape
    ``(..., n_beta)``, each with the leading dimensions of ``beta``:

        A = [[A_s, Bd], [0, I]],  B = [[B_s], [0]],
        C = [C_s, Cd],            K = [[K_s], [K_d]],

    with the integrator block exactly the identity and the zero blocks
    exactly zero.
    """
    spec = layout.ladm
    mats = layout.matrices(beta)
    lead = np.shape(beta)[:-1]
    n_s, n_d, m, p = spec.n_s, spec.n_d, spec.m, spec.p
    n = n_s + n_d
    A = np.zeros(lead + (n, n))
    A[..., :n_s, :n_s] = mats["A_s"]
    A[..., :n_s, n_s:] = spec.Bd
    integrators = np.arange(n_s, n)
    A[..., integrators, integrators] = 1.0
    B = np.zeros(lead + (n, m))
    B[..., :n_s, :] = mats["B_s"]
    C = np.empty(lead + (p, n))
    C[..., :n_s] = mats["C_s"]
    C[..., n_s:] = spec.Cd
    K = np.empty(lead + (n, p))
    K[..., :n_s, :] = mats["K_s"]
    K[..., n_s:, :] = mats["K_d"]
    return A, B, C, K


def assemble_ladm(
    spec: LadmSpec, params, layout: ParameterLayout | None = None
) -> InnovationModel:
    """Build the augmented model (:func:`ladm_blocks`) from a parameter
    point; ``Re`` is the leading ``p x p`` block of ``Sigma``."""
    if layout is None:
        layout = ParameterLayout(spec)
    if layout.ladm is not spec and layout.ladm != spec:
        raise ValueError("layout was built for a different model structure")
    A, B, C, K = ladm_blocks(layout, params.beta)
    p, m, n = spec.p, spec.m, spec.n
    Sigma = np.asarray(params.Sigma, dtype=float)
    if Sigma.shape[0] < p:
        raise ValueError(f"Sigma must contain a leading {p} x {p} block")
    Re = Sigma[:p, :p]
    if Re.shape != (p, p):
        raise ValueError(f"Re has shape {Re.shape}, expected {(p, p)}")
    # every other block was shaped above; only the caller's Re is checked
    return InnovationModel._from_shaped(A, B, C, np.zeros((p, m)),
                                        np.zeros(n), K, Re)


def _states_scan(F: np.ndarray, c: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """States of ``x[k+1] = F x[k] + c[k]`` via a doubling prefix scan.

    Returns the ``(N+1, n)`` array of ``x[0..N]``.  With ``c[0]`` replaced
    by ``c[0] + F x0``, ``x[1..N]`` are the prefix sums of ``c`` under the
    time-invariant map ``F`` (Hillis & Steele; Blelloch 1990): the level
    with offset ``o`` adds ``F^o x[k-o]`` to every ``x[k]`` with ``k > o``,
    all rows at once as one ``(N-o, n) @ (n, n)`` product on the row-major
    states, and squares ``F^o``.  That is ``ceil(log2 N)`` matrix products
    and no memory beyond the output and one product.  Round-off matches a
    sequential loop to a few ulps per level; nonfinite values propagate to
    every later state they reach.
    """
    N = c.shape[0]
    x = np.empty((N + 1, x0.size))
    x[0] = x0
    x[1:] = c
    G = F.T
    with np.errstate(over="ignore", invalid="ignore"):
        x[1:2] += x0 @ G
        offset = 1
        while offset < N:
            x[1 + offset:] += x[1:N + 1 - offset] @ G
            G = G @ G
            offset *= 2
    return x


def _check_states(x: np.ndarray) -> None:
    # NaN fails both comparisons, as it propagates through max and min
    if x.max() <= STATE_BLOWUP and x.min() >= -STATE_BLOWUP:
        return
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(x) | (np.abs(x) > STATE_BLOWUP)
    raise FilterDivergedError(int(np.flatnonzero(np.any(bad, axis=1))[0]))


def _innovation_chol(Re: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(Re)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Re is not positive definite") from exc


def simulate(
    model: InnovationModel,
    u: np.ndarray,
    seed: int | None = 0,
    noise: bool = True,
) -> np.ndarray:
    """Simulate outputs for the given inputs.

    With ``noise`` on, innovations are drawn iid normal with covariance
    ``Re`` using a seeded generator (standard normals colored by the
    Cholesky factor of ``Re``), so a fixed seed replays bit-identically.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    N = u.shape[0]
    if u.shape[1] != model.m:
        raise ValueError(f"u has {u.shape[1]} columns, expected {model.m}")
    if noise:
        Lc = _innovation_chol(model.Re)
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((N, model.p)) @ Lc.T
    else:
        e = np.zeros((N, model.p))
    c = u @ model.B.T + e @ model.K.T
    x = _states_scan(model.A, c, model.x0hat)
    _check_states(x)
    return x[:-1] @ model.C.T + u @ model.D.T + e


def filter_innovations(
    model: InnovationModel, data: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """Run the innovation filter, returning ``(e, xhat)``.

    ``e[k] = y[k] - C xhat[k] - D u[k]`` with
    ``xhat[k+1] = A xhat[k] + B u[k] + K e[k]``; ``xhat`` has ``N + 1`` rows.
    Nonfinite state propagation raises :class:`FilterDivergedError` with the
    offending sample index.
    """
    if data.u.shape[1] != model.m or data.y.shape[1] != model.p:
        raise ValueError(
            f"data has dims (m={data.u.shape[1]}, p={data.y.shape[1]}), "
            f"model expects (m={model.m}, p={model.p})"
        )
    F = model.filter_matrix()
    G_u = model.B - model.K @ model.D
    c = data.u @ G_u.T + data.y @ model.K.T
    xhat = _states_scan(F, c, model.x0hat)
    _check_states(xhat)
    e = data.y - xhat[:-1] @ model.C.T - data.u @ model.D.T
    return e, xhat


def neg_log_likelihood(
    model: InnovationModel,
    data: Dataset,
    innovations: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Negative log-likelihood ``(N/2) ln det Re + (1/2) sum |e_k|^2_{Re^-1}``.

    Computed from the Cholesky factor ``Lc`` of ``Re``: ln det from its
    diagonal, quadratic forms from the innovations whitened by ``W = Lc^-1``.
    Diverging state recursions yield ``+inf`` so a line search can reject it.
    ``innovations`` is ``filter_innovations(model, data)`` when the caller
    already has it; the filter is then not run again.
    """
    Lc = _innovation_chol(model.Re)
    if innovations is None:
        try:
            innovations = filter_innovations(model, data)
        except FilterDivergedError:
            return float("inf")
    e, _ = innovations
    z = np.linalg.inv(Lc) @ e.T
    logdet = 2.0 * float(np.sum(np.log(np.diag(Lc))))
    value = 0.5 * data.N * logdet + 0.5 * float(np.sum(z * z))
    return value if np.isfinite(value) else float("inf")


def likelihood_gradients(
    model: InnovationModel,
    data: Dataset,
    innovations: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Exact gradient of the negative log-likelihood in the model matrices.

    Computed by the adjoint of the filter recursion: one backward affine
    scan gives the state adjoints, after which each matrix gradient is an
    accumulated outer product.  Returns entries for ``A, B, C, D, K, x0hat,
    Re``; the ``Re`` gradient treats ``Re`` as a free symmetric matrix.
    ``innovations`` is ``filter_innovations(model, data)`` when the caller
    already has it.
    """
    if innovations is None:
        innovations = filter_innovations(model, data)
    e, xhat = innovations
    W = np.linalg.inv(_innovation_chol(model.Re))  # Re^-1 = W^T W
    w = (e @ W.T) @ W
    N = data.N
    F = model.filter_matrix()
    # adjoint recursion lam_k = F^T lam_{k+1} - C^T w_k, lam_N = 0, run as a
    # forward scan in reversed time
    c_rev = -(w @ model.C)[::-1]
    mu = _states_scan(F.T, c_rev, np.zeros(model.n))
    lam = mu[::-1]
    x_pre = xhat[:-1]
    lam_next = lam[1:]
    dA = lam_next.T @ x_pre
    dB = lam_next.T @ data.u
    dK = lam_next.T @ e
    mix = w + lam_next @ model.K
    dC = -mix.T @ x_pre
    dD = -mix.T @ data.u
    dx0 = lam[0].copy()
    S = e.T @ e
    Re_inv_S = W.T @ (W @ S)
    dRe = 0.5 * (N * np.eye(model.p) - Re_inv_S)
    dRe = (dRe @ W.T) @ W
    dRe = 0.5 * (dRe + dRe.T)
    return {"A": dA, "B": dB, "C": dC, "D": dD, "K": dK,
            "x0hat": dx0, "Re": dRe}


def regularizer(
    phi: FactorPoint,
    phi_bar: FactorPoint,
    rho: float,
    system: ConstraintSystem,
) -> float:
    """Quadratic distance from a prior point in the transformed space.

    ``(rho/2) |beta - beta_bar|^2`` plus ``(rho/2)`` times the squared
    Frobenius distance between the completed Sigma factors.  The coupled
    block factor is not regularized.
    """
    if rho < 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if rho == 0:
        return 0.0
    if phi.beta.size != phi_bar.beta.size or phi.L_sigma.shape != phi_bar.L_sigma.shape:
        raise ValueError("phi and phi_bar have mismatched layouts")

    def completed(point: FactorPoint) -> np.ndarray:
        H = system.shift(point.beta)
        return point.L_sigma + complete_factor(system.pattern_sigma, point.L_sigma, H)

    dbeta = phi.beta - phi_bar.beta
    dL = completed(phi) - completed(phi_bar)
    return 0.5 * rho * (float(dbeta @ dbeta) + float(np.sum(dL * dL)))


def identification_index(
    e: np.ndarray, Re: np.ndarray, windows: tuple[int, ...] = ()
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Per-sample index ``q_k = e_k^T Re^-1 e_k`` and its moving averages.

    Under a distributionally correct model the ``q_k`` are iid chi-squared
    with ``p`` degrees of freedom.  Moving averages over a window ``T`` are
    returned aligned with the samples, padded with NaN for ``k < T - 1``.
    """
    e = np.atleast_2d(np.asarray(e, dtype=float))
    Lc = _innovation_chol(np.atleast_2d(np.asarray(Re, dtype=float)))
    z = np.linalg.inv(Lc) @ e.T
    q = np.sum(z * z, axis=0)
    N = q.size
    averages: dict[int, np.ndarray] = {}
    for T in windows:
        if not (1 <= T <= N):
            raise ValueError(f"window {T} outside valid range 1..{N}")
        csum = np.concatenate([[0.0], np.cumsum(q)])
        avg = np.full(N, np.nan)
        avg[T - 1:] = (csum[T:] - csum[:-T]) / T
        averages[T] = avg
    return q, averages


@dataclass(frozen=True)
class EigenReport:
    """Open-loop and filter spectra, sorted by modulus descending."""

    open_loop: np.ndarray
    filter: np.ndarray

    @property
    def spectral_radius(self) -> dict[str, float]:
        return {"open_loop": float(np.max(np.abs(self.open_loop))),
                "filter": float(np.max(np.abs(self.filter)))}

    @property
    def spectral_abscissa(self) -> dict[str, float]:
        return {"open_loop": float(np.max(self.open_loop.real)),
                "filter": float(np.max(self.filter.real))}


def eigen_report(model: InnovationModel) -> EigenReport:
    """Spectra of ``A`` and ``A - K C``."""

    def sorted_eigs(M: np.ndarray) -> np.ndarray:
        eigs = np.linalg.eigvals(M)
        order = np.lexsort((-eigs.real, -np.abs(eigs)))
        return eigs[order]

    return EigenReport(sorted_eigs(model.A), sorted_eigs(model.filter_matrix()))
