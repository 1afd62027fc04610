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
    "likelihood_gradients",
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
    # not np.isclose: it warns on an infinite entry of Re
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


def _same_matrix(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Equality of two optional matrices: both ``None``, or equal arrays."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b)


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
        Bd = np.zeros((self.n_s, self.n_d)) if self.Bd is None else self.Bd
        Cd = self.Cd
        if Cd is None:
            if self.n_d not in (0, self.p):
                raise ValueError("default Cd is the identity; give Cd when n_d != p")
            Cd = np.eye(self.p, self.n_d)
        for name, value, shape in (("Bd", Bd, (self.n_s, self.n_d)),
                                   ("Cd", Cd, (self.p, self.n_d)),
                                   ("C_fixed", self.C_fixed, (self.p, self.n_s))):
            if value is None:
                continue
            value = np.atleast_2d(np.asarray(value, dtype=float))
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LadmSpec):
            return NotImplemented
        return (self.n_s, self.n_d, self.m, self.p, self.plant_form) \
            == (other.n_s, other.n_d, other.m, other.p, other.plant_form) \
            and np.array_equal(self.Bd, other.Bd) \
            and np.array_equal(self.Cd, other.Cd) \
            and _same_matrix(self.C_fixed, other.C_fixed)

    __hash__ = None

    @property
    def n(self) -> int:
        """Total augmented state dimension."""
        return self.n_s + self.n_d


@dataclass(frozen=True)
class ParameterLayout:
    """Mapping between the free parameter vector and the model matrices.

    Segments are laid out in the order ``A_s``, ``B_s``, ``K_s``, ``K_d``
    (empty when ``n_d = 0``) and, when the output map is not fixed,
    ``C_s``; each segment stores its matrix row-major.  ``directions`` holds
    the augmented blocks' derivatives ``(dA, dB, dC, dK)`` along each
    coordinate, each of shape ``(n_beta, ...)``: the blocks of
    :func:`ladm_blocks` are affine in beta, and each coordinate drives one
    block entry with coefficient 1.
    """

    ladm: LadmSpec
    segments: dict[str, tuple[slice, tuple[int, ...]]] = field(init=False)
    n_beta: int = field(init=False)
    directions: tuple[np.ndarray, ...] = field(init=False, repr=False,
                                               compare=False)

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
        add("K_d", (spec.n_d, spec.p))
        if spec.plant_form == "full" and spec.C_fixed is None:
            add("C_s", (spec.p, spec.n_s))
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "n_beta", offset)
        object.__setattr__(self, "directions", tuple(
            b1 - b0 for b1, b0 in zip(ladm_blocks(self, np.eye(offset)),
                                      ladm_blocks(self, np.zeros(offset)))))

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


def assemble_ladm(spec: LadmSpec, params,
                  layout: ParameterLayout) -> InnovationModel:
    """Build the augmented model (:func:`ladm_blocks`) from a parameter
    point; ``Re`` is the leading ``p x p`` block of ``Sigma``."""
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


# Records at least this long test, after each doubling level, whether the
# powers have decayed below round-off (see ``_states_scan``).  The test, a
# 1-norm of an n x n power, costs about 4.5 us.  Measured with n = 3 on
# 2 vCPU and one BLAS thread, testing at every level made an N = 300 scan
# 1.33x (spectral radius 0.69) to 1.70x (0.95) as slow; it pays for itself
# from N = 2048 at 0.69 and from N = 8192 at 0.95, and at N = 4096 a scan
# takes 0.78x and 1.06x of the full-depth time.
STOP_TEST_SAMPLES = 4096
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _states_scan(F: np.ndarray, x: np.ndarray) -> np.ndarray:
    """States of ``x[k+1] = F x[k] + c[k]`` via a doubling prefix scan, in
    place on the ``(N+1, n)`` array ``x`` that holds ``x0`` in row 0 and
    ``c[0..N-1]`` in rows ``1..N``; returns ``x`` holding ``x[0..N]``.

    With ``c[0]`` replaced by ``c[0] + F x0``, ``x[1..N]`` are the prefix
    sums of ``c`` under the time-invariant map ``F`` (Hillis & Steele;
    Blelloch 1990): the level with offset ``o`` adds ``F^o x[k-o]`` to every
    ``x[k]`` with ``k > o``, all rows at once as one ``(N-o, n) @ (n, n)``
    product on the row-major states, and squares ``F^o``.  That is at most
    ``ceil(log2 N)`` matrix products, and no memory beyond ``x`` and one
    product.  Round-off matches a sequential loop to a few ulps per level.

    After the level with offset ``o`` every state is exact but for one
    term: ``x[k] = x_exact[k] - F^(2o) x_exact[k-2o]``.  From
    ``STOP_TEST_SAMPLES`` samples on, the scan stops as soon as
    ``||F^(2o)||_inf <= u`` (unit round-off ``eps/2``), which leaves every
    state within ``u * max|x_exact|`` of the full-depth result.  An
    unstable, marginal or nonfinite ``F`` never passes the test and runs
    every level.  A nonfinite ``c[k]`` reaches the states up to ``2o``
    samples later only, but the first offending row is the loop's.
    """
    N = x.shape[0] - 1
    stop_test = N >= STOP_TEST_SAMPLES
    with np.errstate(over="ignore", invalid="ignore"):
        x[1:2] += x[0] @ F.T
        # a C-ordered G keeps every level's product on BLAS's fast path
        G = np.ascontiguousarray(F.T)
        offset = 1
        while offset < N:
            x[1 + offset:] += x[1:N + 1 - offset] @ G
            G = G @ G
            offset *= 2
            # the max row sum of F^(2o) is the max column sum of G
            if stop_test and np.abs(G).sum(axis=0).max() <= _UNIT_ROUNDOFF:
                break
    return x


def _check_states(x: np.ndarray) -> None:
    # NaN fails both comparisons, as it propagates through max and min
    if x.max() <= STATE_BLOWUP and x.min() >= -STATE_BLOWUP:
        return
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(x) | (np.abs(x) > STATE_BLOWUP)
    raise FilterDivergedError(int(np.flatnonzero(np.any(bad, axis=1))[0]))


def _states(F, x0, u, G, v, K) -> np.ndarray:
    """The checked ``(N+1, n)`` states of ``x[k+1] = F x[k] + G u[k] +
    K v[k]`` from ``x0``."""
    x = np.empty((len(u) + 1, len(x0)))
    x[0] = x0
    np.dot(u, np.ascontiguousarray(G.T), out=x[1:])
    x[1:] += np.dot(v, np.ascontiguousarray(K.T))
    _check_states(_states_scan(F, x))
    return x


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
    x = _states(model.A, model.x0hat, u, model.B, e, model.K)
    D_T = np.ascontiguousarray(model.D.T)
    return x[:-1] @ model.C.T + np.dot(u, D_T) + e


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
    xhat = _states(model.filter_matrix(), model.x0hat, data.u,
                   model.B - model.K @ model.D, data.y, model.K)
    D_T = np.ascontiguousarray(model.D.T)
    e = data.y - xhat[:-1] @ model.C.T - np.dot(data.u, D_T)
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
    z = np.dot(np.linalg.inv(Lc), e.T)
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
    w = np.dot(e, W.T @ W)
    N = data.N
    # adjoint recursion lam_k = F^T lam_{k+1} - C^T w_k, lam_N = 0, run as a
    # forward scan in reversed time with every vector's entries reversed
    # too, mu[j] = flip(lam[N - j]): flipping both axes of a record is one
    # reversed copy, several times faster than reversing its rows alone
    mu = np.empty((N + 1, model.n))
    mu[0] = 0.0
    np.dot(np.flip(w).copy(), -np.flip(model.C), out=mu[1:])
    _states_scan(np.flip(model.filter_matrix()).T, mu)
    # lam[k] = lam_{k+1} in natural time and order, so that each
    # sum_k lam_{k+1} (.)^T is one product with the record as it is stored
    lam = np.flip(mu[:N]).copy()
    x = xhat[:-1]
    mix = w + np.dot(lam, model.K)
    dA, dB, dK = lam.T @ x, lam.T @ data.u, lam.T @ e
    dC, dD = -(mix.T @ x), -(mix.T @ data.u)
    dx0 = mu[N, ::-1].copy()
    S = e.T @ e
    Re_inv_S = W.T @ (W @ S)
    dRe = 0.5 * (N * np.eye(model.p) - Re_inv_S)
    dRe = (dRe @ W.T) @ W
    dRe = 0.5 * (dRe + dRe.T)
    return {"A": dA, "B": dB, "C": dC, "D": dD, "K": dK,
            "x0hat": dx0, "Re": dRe}


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
    z = np.dot(np.linalg.inv(Lc), e.T)
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
