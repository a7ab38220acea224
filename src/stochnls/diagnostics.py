"""Cross-cutting verifications: energies, identity residuals, decay fits,
space-time norms, and the report serialization used by the CLI.

Quantitative dispersive rates live on unbounded domains in dimension
three and up; at desk scale this module therefore emphasizes identities
(exact up to discretization order) and calibrated decay fits, never
asserting continuum rates directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import (
    SpatialGrid,
    WaveField,
    dense_laplacian,
    laplacian_symbol,
    lorentz_norm_rows,
    spectral_convolution,
    transform_rows,
)
from .markov import MarkovModel
from .potential import HartreeKernel, PotentialFamily, a_of_hv

__all__ = [
    "EnergyBreakdown",
    "DecayFit",
    "energy_breakdown",
    "energy_rows",
    "energy_derivative_identity",
    "feynman_kac_residual",
    "decay_fit",
    "strichartz_norm",
    "wraparound_mass",
    "build_report",
]

RESIDUAL_FLOOR = 1e-12


@dataclass
class EnergyBreakdown:
    """Kinetic / potential / Hartree split of the energy functional."""

    t: float
    kinetic: float
    potential: float
    hartree: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential + self.hartree


def energy_breakdown(psi: WaveField, V_now: np.ndarray,
                     kernel: HartreeKernel | None = None,
                     t: float = 0.0) -> EnergyBreakdown:
    """Energy of a field under the instantaneous potential.

    kinetic = 1/2 ||grad psi||^2 (spectral), potential = 1/2 int V |psi|^2,
    hartree = (eps/4) double-int chi(x-y) |psi(x)|^2 |psi(y)|^2 evaluated
    with one convolution and an inner product.
    """
    V_now = np.asarray(V_now).reshape(1, -1)
    kinetic, potential, hartree = energy_rows(psi.grid, psi.values[None], V_now, kernel)
    return EnergyBreakdown(t=float(t), kinetic=float(kinetic[0]),
                           potential=float(potential[0]), hartree=float(hartree[0]))


def energy_rows(grid: SpatialGrid, values: np.ndarray, V_now: np.ndarray,
                kernel: HartreeKernel | None = None) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kinetic, potential and Hartree energies of each row of values,
    shape (B, grid.size), under the potential rows V_now of the same shape
    (see :func:`energy_breakdown`)."""
    vol = grid.cell_volume
    spec = transform_rows(grid, values)
    kinetic = 0.5 * vol * np.sum(laplacian_symbol(grid) * np.abs(spec) ** 2, axis=-1)
    density = np.abs(values) ** 2
    potential = 0.5 * vol * np.sum(V_now * density, axis=-1)
    hartree = np.zeros(values.shape[0])
    if kernel is not None and kernel.epsilon != 0.0:
        conv = kernel.epsilon * spectral_convolution(grid, kernel.chi_spectrum, density)
        hartree = 0.25 * vol * np.sum(conv * density, axis=-1)
    return kinetic, potential, hartree


@dataclass
class IdentityResidualSeries:
    """LHS/RHS pairs of a pointwise-in-time identity."""

    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray


def energy_derivative_identity(f_series, family: PotentialFamily,
                               model: MarkovModel) -> IdentityResidualSeries:
    """Flux identity for the weighted energy trace of the averaged density
    matrix: d/dt sum_y h(y) tr[(-Dx1 + V(.,y)) f(.,.,y)] against the
    assembled right-hand side -sum_y [(Ah)_y tr(-Dx1 f) + tr(A[hV] f)].

    The sign of the right side follows from moving the self-adjoint A onto
    h V in the dissipative term -tr[(-Dx1+V) A f] and is confirmed by an
    exact-generator oracle in the tests (a differently signed assembly
    leaves a residual of twice the flux instead of O(dt^2)).

    For the ground state h the (Ah) term vanishes and, for a potential that
    does not depend on y, the whole right side is identically zero.  The
    left side uses a centered difference in time, so the residual carries
    the O(dt^2) discretization of both the solver and the difference.
    """
    if len(f_series) < 3:
        raise ValueError("need at least three sample times for a centered difference")
    times = np.array([snap.t for snap in f_series])
    gaps = np.diff(times)
    if np.max(np.abs(gaps - gaps[0])) > 1e-10 * gaps[0]:
        raise ValueError("energy identity requires uniform sampling in time")
    grid = family.grid
    vol = grid.cell_volume
    h = model.ground_state()
    Ah = model.A @ h
    L = dense_laplacian(grid)
    fields = np.stack([family.V, a_of_hv(family, model)[0]])  # V and A[hV], (2, m, n)

    energy_trace = np.empty(len(f_series))
    kinetic_trace = np.empty((len(f_series), model.m))
    flux = np.empty(len(f_series))
    restricted = {}  # B^H L B of each block, restricted once for the series
    for j, snap in enumerate(f_series):
        e = 0.0
        fx = 0.0
        kinetic_trace[j] = snap.pairing(L, restricted) * vol
        potential, hv = vol * np.sum(fields * snap.diagonal().real, axis=2)
        for y in range(model.m):
            e += h[y] * (kinetic_trace[j, y] + potential[y])
            fx += hv[y]
        energy_trace[j] = e
        flux[j] = fx

    lhs = (energy_trace[2:] - energy_trace[:-2]) / (times[2:] - times[:-2])
    rhs = -(flux[1:-1] + kinetic_trace[1:-1] @ Ah)
    return IdentityResidualSeries(times=times[1:-1], lhs=lhs, rhs=rhs)


def feynman_kac_residual(times: np.ndarray, mc_lhs: np.ndarray,
                         f_series, family: PotentialFamily,
                         stderr: np.ndarray | None = None) -> dict:
    """Monte Carlo weighted-mass series against the deterministic trace
    pairing int |V(x,y)| f(x,x,y,t) dx dy, pointwise in t and
    time-integrated.
    """
    f_times = np.array([snap.t for snap in f_series])
    if f_times.size != np.asarray(times).size or np.max(np.abs(f_times - times)) > 1e-10:
        raise ValueError("sample times of the MC series and the f series differ")
    vol = family.grid.cell_volume
    absV = np.abs(family.V)
    rhs = np.array([
        sum(vol * float(np.sum(absV[y] * diag))
            for y, diag in enumerate(snap.diagonal().real))
        for snap in f_series
    ])
    mc_lhs = np.asarray(mc_lhs, dtype=float)
    rel = np.abs(mc_lhs - rhs) / (np.abs(rhs) + RESIDUAL_FLOOR)
    out = {
        "times": np.asarray(times, dtype=float),
        "lhs": mc_lhs,
        "rhs": rhs,
        "relative": rel,
        "integrated_lhs": float(np.trapezoid(mc_lhs, times)),
        "integrated_rhs": float(np.trapezoid(rhs, times)),
    }
    out["integrated_relative"] = abs(out["integrated_lhs"] - out["integrated_rhs"]) / (
        abs(out["integrated_rhs"]) + RESIDUAL_FLOOR
    )
    if stderr is not None:
        out["stderr"] = np.asarray(stderr, dtype=float)
    return out


@dataclass
class DecayFit:
    """Power-law fit value ~ C * t^slope on a log-log window."""

    slope: float
    intercept: float
    residual: float
    confidence_halfwidth: float


def decay_fit(times, values, window: tuple[float, float]) -> DecayFit:
    """Least-squares fit of log(value) against log(t) inside the window.

    The confidence halfwidth is twice the standard error of the slope,
    from the residual variance of the fit.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if np.count_nonzero(mask) < 3:
        raise ValueError("window must contain at least three samples")
    t, v = times[mask], values[mask]
    if np.any(t <= 0):
        raise ValueError("window must lie in t > 0 for a log-log fit")
    if np.any(v <= 0):
        raise ValueError("values in the window must be positive")
    x, y = np.log(t), np.log(v)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ [slope, intercept]
    res = y - fitted
    rms = float(np.sqrt(np.mean(res**2)))
    dof = max(x.size - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = np.sqrt(np.sum(res**2) / dof / sxx) if sxx > 0 else np.inf
    return DecayFit(slope=float(slope), intercept=float(intercept),
                    residual=rms, confidence_halfwidth=2.0 * float(se))


def strichartz_norm(grid: SpatialGrid, fields: np.ndarray, dt: float, p_t: float,
                    space_exponents: tuple[float, float]) -> float:
    """Discrete L^{p_t}_t L^{p,q}_x norm of a uniformly sampled series,
    fields of shape (T, grid.size), one row per sample time.

    Time integration uses trapezoid weights over the sampled interval, so
    a time-constant field on [0, T] gives exactly T^{1/p_t} times its
    spatial norm.
    """
    if p_t < 1:
        raise ValueError("p_t must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if len(fields) < 2:
        raise ValueError("need at least two fields")
    p_x, q_x = space_exponents
    vals = lorentz_norm_rows(grid, fields, p_x, q_x)
    weights = np.full(vals.size, dt)
    weights[0] = weights[-1] = 0.5 * dt
    return float(np.sum(weights * vals**p_t) ** (1.0 / p_t))


def wraparound_mass(psi: WaveField) -> float:
    """Fraction of |psi|^2 mass within 4 cells of the boundary of the box
    window centered at the box middle, where this package places initial
    data and wells.

    The periodic box stands in for free space; this diagnostic flags when
    outgoing mass starts to wrap around and pollute decay measurements.
    """
    grid = psi.grid
    density = np.abs(psi.values) ** 2
    total = float(np.sum(density))
    if total == 0.0:
        return 0.0
    edge = grid.box_length / 2.0 - 4 * grid.spacing
    near_edge = np.zeros(grid.size, dtype=bool)
    for dx in grid.offsets():
        near_edge |= np.abs(dx) >= edge
    return float(np.sum(density[near_edge])) / total


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def build_report(entries: dict) -> str:
    """Serialize a {criterion-id: {...}} mapping deterministically."""
    return json.dumps(_jsonable(entries), indent=2, sort_keys=True)
