"""Shared synthetic fixtures for the identification and acceptance tests."""

import numpy as np
import scipy.signal

from ssfit.identify import ProblemSpec
from ssfit.statespace import (
    Dataset,
    LadmSpec,
    ParameterLayout,
    _states_loop,
    assemble_ladm,
    simulate,
)
from ssfit.transform import ThetaPoint


def siso_ladm_spec():
    """Two plant states, one output disturbance, canonical form."""
    return LadmSpec(n_s=2, n_d=1, m=1, p=1, plant_form="canonical")


def siso_truth(filter_poles=(0.5, 0.6, 0.7), re=0.04):
    """A stable canonical SISO truth with placed filter poles."""
    spec = siso_ladm_spec()
    layout = ParameterLayout(spec)
    # plant poles 0.55 and 0.7: z^2 - 1.25 z + 0.385
    a_row = np.array([-0.385, 1.25])
    mats = {"A_s": a_row, "B_s": np.array([[1.0], [0.5]]),
            "K_s": np.zeros((2, 1)), "K_d": np.zeros((1, 1))}
    beta = layout.pack(mats)
    model0 = assemble_ladm(spec, ThetaPoint(beta, np.array([[re]])), layout)
    placed = scipy.signal.place_poles(model0.A.T, model0.C.T,
                                      np.asarray(filter_poles))
    K = placed.gain_matrix.T
    mats["K_s"] = K[:2]
    mats["K_d"] = K[2:]
    beta = layout.pack(mats)
    theta = ThetaPoint(beta, np.array([[re]]))
    return spec, layout, theta


def prbs(n, amplitude=1.0, hold=8, seed=0):
    """Pseudo-random binary input with the given hold length."""
    rng = np.random.default_rng(seed)
    levels = amplitude * (2.0 * rng.integers(0, 2, size=(n + hold - 1) // hold) - 1.0)
    return np.repeat(levels, hold)[:n].reshape(-1, 1)


def siso_dataset(theta, spec, layout, n=2000, seed=1, noise=True):
    model = assemble_ladm(spec, theta, layout)
    u = prbs(n, amplitude=1.0, hold=8, seed=seed)
    y = simulate(model, u, seed=seed + 1, noise=noise)
    return Dataset(u, y)


def perturbed(theta, layout, scale=0.1, seed=2):
    """Multiplicative perturbation of all parameters."""
    rng = np.random.default_rng(seed)
    beta = theta.beta * (1.0 + scale * rng.uniform(-1.0, 1.0, theta.beta.size))
    Sigma = theta.Sigma * (1.0 + scale * rng.uniform(-1.0, 1.0))
    return ThetaPoint(beta, Sigma)


def siso_problem(**kwargs) -> ProblemSpec:
    return ProblemSpec(ladm=siso_ladm_spec(), **kwargs)


def doubling_scan_reference(F, c, x0):
    """The plain prefix-composition doubling tree over N copies of ``F``:
    O(N log N) matrix products.  ``statespace._states_scan`` must match it
    bit for bit."""
    N, n = c.shape[0], x0.size
    if N == 0:
        return x0[None, :].copy()
    if N * n * n > 8_000_000:
        return _states_loop(F, c, x0)
    P = np.broadcast_to(F, (N, n, n)).copy()
    d = c.copy()
    offset = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while offset < N:
            head_P, tail_P = P[:-offset], P[offset:]
            new_d = np.matmul(tail_P, d[:-offset, :, None])[..., 0] + d[offset:]
            new_P = np.matmul(tail_P, head_P)
            P[offset:] = new_P
            d[offset:] = new_d
            offset *= 2
        x = np.empty((N + 1, n))
        x[0] = x0
        x[1:] = np.matmul(P, x0) + d
    return x


def fd_jacobian_reference(fn, x, n_out, h0=1e-6, lower_bounds=None):
    """The per-coordinate central-difference loop: one ``fn`` call per
    stencil point, ``f(x)`` only beside a nonfinite side.  ``nlp.fd_jacobian``
    must return its bytes and raise its errors."""
    from ssfit.nlp import FdGradientError

    x = np.asarray(x, dtype=float).ravel()
    J = np.zeros((n_out, x.size))
    f0 = None
    for i in range(x.size):
        h = h0 * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        fp = np.asarray(fn(xp), dtype=float).ravel()
        fm = None
        if lower_bounds is None or x[i] - h >= lower_bounds[i]:
            xm = x.copy()
            xm[i] -= h
            fm = np.asarray(fn(xm), dtype=float).ravel()
        fp_ok = bool(np.all(np.isfinite(fp)))
        fm_ok = fm is not None and bool(np.all(np.isfinite(fm)))
        if fp_ok and fm_ok:
            J[:, i] = (fp - fm) / (2.0 * h)
            continue
        if f0 is None:
            f0 = np.asarray(fn(x), dtype=float).ravel()
        if not (fp_ok or fm_ok) or not np.all(np.isfinite(f0)):
            raise FdGradientError(
                f"nonfinite finite-difference values at coordinate {i}"
            )
        J[:, i] = (fp - f0) / h if fp_ok else (f0 - fm) / h
    return J
