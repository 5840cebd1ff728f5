"""Continuous-time master equations and Liouvillian spectral analysis.

Generators are built in vectorized form from the terms of
`core.add_sided_term` and `core.add_lindblad_term`, in the column-stacking
convention that `core` fixes for every superoperator (`core.vec`,
`core.unvec`); the trace functional is then the left null vector
vec(1)^dag, which every generator here satisfies by construction.
Besides the generic builder, the module carries the driven-dissipative
Kerr model, the dissipative macrospin, the squeezed thermal bath, exact
time propagation, steady states, spectral gaps and the Spohn
heat/work/entropy rates.

Propagators, steady states and spectra are taken from the real form of
the generator (`real_generator`, the generator in the orthonormal
Hermitian basis of `core.hermitian_coords`, built from the model one
column block at a time without the complex generator `build` returns),
which has the eigenvalues of the complex one: time
evolution from its matrix exponential, the steady state from one LU
factorization of that form bordered by the trace functional
(`core.bordered_solve`, the "direct" method of Johansson, Nation &
Nori, Comput. Phys. Commun. 183, 1760 (2012)), the spectrum and the gap
from one real nonsymmetric eigenvalue problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _SQRT_HALF,
    NULL_RCOND_TOL,
    CoreError,
    DensityOperator,
    DensityRows,
    _check_beta,
    _check_hermitian,
    _density_stack,
    _eigh,
    _exact_spectra,
    _frozen_matrix,
    _frozen_stack,
    _gibbs_states,
    _integer,
    _log_of,
    _numbers,
    _petz_renyi,
    _prepended,
    _real,
    _spectral_weights,
    _trace_rows,
    _trajectory,
    _typed,
    add_lindblad_term,
    add_sided_term,
    bordered_solve,
    from_hermitian_coords,
    hermitian_coords,
    propagate,
    unvec,
    vec,
)

# Largest d whose complex generator (16 d^4 bytes) and real form (8 d^4)
# fit the byte budget; see `LindbladModel`.  `integrate` holds the real
# form and one matrix exponential's workspace (80 d^4 bytes together).
GENERATOR_BYTES = 2 ** 30
DIM_CAP = math.isqrt(math.isqrt(GENERATOR_BYTES // 24))
INTEGRATE_DIM_CAP = math.isqrt(math.isqrt(GENERATOR_BYTES // 80))
# A generator eigenvalue within this, times max(1, max |lambda|), of 0 is zero.
ZERO_EIGENVALUE_TOL = 1e-8
# `fock_tail_mass` sums the populations of this many top Fock levels.
FOCK_TAIL_LEVELS = 5
# A Kerr truncation whose Fock tail mass exceeds this is an error.
FOCK_TAIL_TOL = 1e-8
# A dissipator with D(rho_th) within this (max entry) fixes the Gibbs state.
GIBBS_FIXED_POINT_TOL = 1e-8


class LindbladError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Models and superoperators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LindbladModel:
    """drho/dt = -i[H, rho] + sum_k gamma_k D[L_k] (+ optional cross terms).

    H is Hermitian within HERMITICITY_TOL; `jumps` holds (operator,
    rate >= 0) pairs.  `cross` = (ops, c) adds the general form sum_kl c_kl
    (F_k rho F_l^dag - 1/2 {F_l^dag F_k, rho}) with a Hermitian coefficient
    matrix c; it hosts the anomalous terms of squeezed baths.  Every jump
    and cross operator is read at the size of H.

    The dimension d is capped at DIM_CAP = 81, checked before any generator
    is allocated: the complex generator of `build` and the real form take
    24 d^4 bytes together, within the budget GENERATOR_BYTES = 1 GiB.  A solve
    (`steady_state`, `gap`, `spectrum`) holds only the real form and LAPACK's
    copy of it, 16 d^4 bytes.
    """

    hamiltonian: np.ndarray
    jumps: tuple
    cross: tuple | None = None

    def __post_init__(self):
        h = _frozen_matrix(self.hamiltonian, LindbladError)
        if h.shape[0] > DIM_CAP:
            raise LindbladError(
                f"dimension {h.shape[0]} exceeds cap {DIM_CAP} (24 d^4 bytes of "
                f"dense generators against a budget of {GENERATOR_BYTES} bytes)")
        _check_hermitian(h, LindbladError)
        rates = _real([rate for _, rate in self.jumps], LindbladError, "jump rates", 0.0).tolist()
        ops = [op for op, _ in self.jumps] + ([] if self.cross is None else list(self.cross[0]))
        ops = _frozen_stack(ops or np.zeros((0,) + h.shape), LindbladError, len(h))
        c = None if self.cross is None else _frozen_matrix(self.cross[1], LindbladError,
                                                             len(ops) - len(rates))
        if c is not None and np.abs(c - c.conj().T).max() > 1e-12:
            raise LindbladError("cross-term coefficient matrix must be Hermitian")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", tuple(zip(ops, rates)))
        object.__setattr__(self, "cross", c if c is None else (tuple(ops[len(rates):]), c))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def _terms(model: LindbladModel) -> list:
    """The (a, b, rate) of each term rate (a rho b^dag - 1/2 {b^dag a, rho}) of the model:
    (L, L, gamma) per jump, then (F_k, F_l, c_kl) per nonzero cross coefficient."""
    terms = [(l_op, l_op, rate) for l_op, rate in model.jumps]
    if model.cross is not None:
        ops, c = model.cross
        terms += [(fk, fl, c[k, l]) for k, fk in enumerate(ops) for l, fl in enumerate(ops)
                  if c[k, l] != 0]
    return terms


def build(model: LindbladModel) -> np.ndarray:
    """Vectorized generator; the identity is a left null vector to 1e-12."""
    d = model.dim
    superop = np.zeros((d * d, d * d), dtype=complex)
    add_sided_term(superop, -1j * model.hamiltonian, 1j * model.hamiltonian)
    for a, b, rate in _terms(model):
        add_lindblad_term(superop, a, b, rate)
    return superop


def real_generator(model: LindbladModel) -> np.ndarray:
    """The generator's real form T^dag L T (T the Hermitian basis of `core.hermitian_coords`;
    the eigenvalues of `build`'s), built from the model one column block at a time: the complex
    generator is never held, only this form (8 d^4 bytes) and O(d^3) per block.

    Block l holds the images of the basis elements in the slots of |k><l|.  With the terms
    (a, b, r) of `_terms` and K = -iH - 1/2 sum r b^dag a, Y_k = L(|k><l|) is
    Y_k[i, j] = K[i, k] delta_jl + delta_ik conj(K[j, l]) + sum r a[i, k] conj(b[j, l]); as
    L(X^dag) = L(X)^dag, the images are (Y_k + Y_k^dag)/sqrt2 for k < l, Y_l and
    i(Y_k^dag - Y_k)/sqrt2 for k > l, and their Hermitian coordinates the block's columns."""
    d, terms = model.dim, _terms(model)
    kk = -1j * model.hamiltonian
    for a, b, rate in terms:
        kk = kk + (-0.5 * rate) * (b.conj().T @ a)
    pairs = [(a.T, rate * b.conj()) for a, b, rate in terms]
    out = np.empty((d * d, d * d))
    for l in range(d):
        y = np.zeros((d, d, d), dtype=complex)     # y[k] = Y_k
        y[:, :, l] = kk.T
        y.reshape(d * d, d)[::d + 1] += kk[:, l].conj()      # the rows y[k, k, :]
        for a_t, rate_b in pairs:
            y += a_t[:, :, None] * rate_b[:, l]
        y_dag = y.conj().swapaxes(1, 2)
        y[:l] += y_dag[:l]
        y[:l] *= _SQRT_HALF
        np.multiply(y_dag[l + 1:] - y[l + 1:], 1j * _SQRT_HALF, out=y[l + 1:])
        out[:, l * d:(l + 1) * d] = hermitian_coords(y).T
    return out


def apply_superop(superop, rho) -> np.ndarray:
    """The superoperator applied to rho, read at its size."""
    return unvec(superop @ vec(_frozen_matrix(rho, LindbladError, math.isqrt(len(superop)))))


def trace_preservation_residual(superop) -> float:
    d = math.isqrt(superop.shape[0])
    left = vec(np.eye(d)).conj() @ superop
    return float(np.abs(left).max())


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IntegrationResult:
    times: np.ndarray
    states: DensityRows
    trace_drift: float
    positivity_drift: float


def integrate(model: LindbladModel, rho0: DensityOperator,
              t_grid) -> IntegrationResult:
    """States on a finite, nondecreasing time grid, as one `DensityRows` of rho0's dims (rho0 its
    row 0, by its kept spectrum: `core._prepended`), from the exact propagator of the real-form
    generator (`core.propagate`) applied to the Hermitian coordinates of rho0.  Each state is
    renormalized to unit trace; the largest |tr - 1| before that is the trace drift.  The
    states are validated as one stack (`core._density_stack`), so an eigenvalue below
    -EIG_FLOOR is an error naming its time; the most negative eigenvalue, as v^dag rho v on
    that stack's eigenvectors, is the positivity drift.  Both drifts are round-off only.  d is
    capped at INTEGRATE_DIM_CAP = 60 before anything is allocated: generator and exponential
    take 80 d^4 bytes."""
    if model.dim > INTEGRATE_DIM_CAP:
        raise LindbladError(f"dimension {model.dim} exceeds integration cap "
                            f"{INTEGRATE_DIM_CAP} (80 d^4 bytes against {GENERATOR_BYTES})")
    rho0 = _typed(DensityOperator, rho0, LindbladError, model.dim)
    t_grid, coords = propagate(real_generator(model), t_grid,
                               hermitian_coords(rho0.matrix), LindbladError)
    ms = np.array([from_hermitian_coords(x) for x in coords[1:]]).reshape(-1, rho0.dim, rho0.dim)
    tr = np.trace(ms, axis1=1, axis2=2).real
    ms = ms / tr[:, None, None]
    try:
        stack = _density_stack(ms)
    except CoreError:
        # the same validation, one state at a time, finds the first bad time
        for t, m in zip(t_grid[1:], ms):
            try:
                DensityOperator(m, rho0.dims)
            except CoreError as exc:
                raise LindbladError(f"state at t = {t:g}: {exc}") from None
        raise
    low = np.diagonal(stack.vectors.conj().swapaxes(1, 2) @ ms @ stack.vectors, 0, 1, 2).real
    drifts = float(np.abs(tr - 1.0).max(initial=0.0)), max(0.0, -float(low.min(initial=0.0)))
    return IntegrationResult(t_grid, _prepended(rho0, stack), *drifts)


# ---------------------------------------------------------------------------
# Steady states and gaps
# ---------------------------------------------------------------------------

def steady_state(model: LindbladModel) -> DensityOperator:
    """Normalized Hermitian PSD null vector of the generator.

    One LU factorization of the real form L_r bordered by the trace,
    B = L_r - u t^T (u the (0, 0) coordinate, t the trace functional):
    rho solves B x = -u, and B is singular exactly when the steady space is
    degenerate.  NULL_RCOND_TOL bounds LAPACK's estimate of the reciprocal
    condition number of B (infinity norm) from below; a smaller one counts
    as a null space of dimension > 1, which is an error: at finite size a
    dissipative-transition coexistence region is gapped, so exact
    degeneracy signals a modeling mistake rather than physics.  The state
    is projected onto the PSD cone (a candidate with an eigenvalue below
    -1e-7 is an error) and keeps the spectrum of that projection, round-off
    cut (`core._spectral_weights`).  It must leave a residual of at most
    1e-8 in the max-norm of its real coordinates, which bounds that of vec.
    """
    gen = real_generator(model)
    d = model.dim
    x = bordered_solve(gen, np.arange(d) * (d + 1))
    if x is None:
        raise LindbladError(
            f"degenerate steady space (bordered generator singular within {NULL_RCOND_TOL:g})")
    vals, vecs = _eigh(from_hermitian_coords(x))
    if vals.min() < -1e-7:
        raise LindbladError(f"steady-state candidate not PSD ({vals.min():.3e})")
    w = np.clip(vals, 0.0, None)
    rho = DensityOperator._validated(_exact_spectra(None, _spectral_weights(w / w.sum()), vecs))
    resid = float(np.abs(gen @ hermitian_coords(rho.matrix)).max())
    if resid > 1e-8:
        raise LindbladError(f"steady-state residual {resid:.3e}")
    return rho


def gap(model: LindbladModel) -> float:
    """min over nonzero eigenvalues of -Re(lambda), an eigenvalue counting
    as zero when |lambda| <= ZERO_EIGENVALUE_TOL * max(1, max |lambda|); closes at
    dissipative transitions in the appropriate scaling limit."""
    vals = spectrum(model)
    scale = max(1.0, float(np.abs(vals).max()))
    nonzero = vals[np.abs(vals) > ZERO_EIGENVALUE_TOL * scale]
    if len(nonzero) == 0:
        raise LindbladError("generator has no nonzero eigenvalues")
    return float(np.min(-np.real(nonzero)))


def spectrum(model: LindbladModel) -> np.ndarray:
    """All d^2 eigenvalues of the generator, from real LAPACK `dgeev` on its
    real form."""
    return np.linalg.eigvals(real_generator(model))


# ---------------------------------------------------------------------------
# Named models
# ---------------------------------------------------------------------------

def destroy(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)


def fock_tail_mass(rho: DensityOperator) -> float:
    p = np.real(np.diag(_typed(DensityOperator, rho, LindbladError).matrix))
    return float(np.sum(p[-FOCK_TAIL_LEVELS:]))


def kerr_model(delta: float, u_kerr: float, drive: float, kappa: float,
               n_scale: int = 1, fock_cut: int = 40) -> LindbladModel:
    """Driven Kerr cavity with loss: H = Delta n + (U/2) a^dag a^dag a a
    + i eps (a^dag - a), jump sqrt(kappa) a; the scaling U -> U/N,
    eps -> eps sqrt(N) tunes the thermodynamic limit.

    Callers should confirm the truncation afterwards (steady <n> below
    fock_cut/2 and a small Fock tail), see `validate_kerr_truncation`.
    """
    a = destroy(_integer(fock_cut, LindbladError, "fock_cut", low=1))
    num = a.conj().T @ a
    n_scale = _integer(n_scale, LindbladError, "n_scale", low=1)
    u_eff = u_kerr / n_scale
    eps_eff = drive * math.sqrt(n_scale)
    h = (delta * num + 0.5 * u_eff * (a.conj().T @ a.conj().T @ a @ a)
         + 1j * eps_eff * (a.conj().T - a))
    return LindbladModel(h, ((a, kappa),))


def validate_kerr_truncation(model: LindbladModel, rho_ss: DensityOperator):
    rho_ss = _typed(DensityOperator, rho_ss, LindbladError, model.dim)
    a = destroy(model.dim)
    n_mean = float(np.real(np.trace(a.conj().T @ a @ rho_ss.matrix)))
    tail = fock_tail_mass(rho_ss)
    if n_mean > model.dim / 2:
        raise LindbladError(f"<n> = {n_mean:.2f} beyond half the Fock cut")
    if tail > FOCK_TAIL_TOL:
        raise LindbladError(f"Fock tail mass {tail:.3e} beyond {FOCK_TAIL_TOL}")
    return n_mean, tail


def spin_operators(s: float):
    """Spin-s operators (S_x, S_y, S_z, S_-) in the descending-m basis; 2S an integer."""
    s = _real(s, LindbladError, "spin s", low=0.0)
    dim = _integer(2 * s, LindbladError, "2S") + 1
    m = s - np.arange(dim)
    sz = np.diag(m).astype(complex)
    # S_- |s, m> = sqrt(s(s+1) - m(m-1)) |s, m-1>
    lower = np.diag(np.sqrt(s * (s + 1) - m[:-1] * (m[:-1] - 1)), -1).astype(complex)
    sp = lower.conj().T
    sx = (sp + lower) / 2.0
    sy = (sp - lower) / (2.0 * 1j)
    return sx, sy, sz, lower


def macrospin_model(field: float, kappa: float, s: float) -> LindbladModel:
    """Transverse field against collective decay towards the south pole:
    H = h S_x with dissipator (2 kappa / S) D[S_-]."""
    sx, _, _, lower = spin_operators(s)
    return LindbladModel(field * sx, ((lower, 2.0 * kappa / s),))


def squeezed_bath_params(nbar: float, r: float, theta: float):
    """Second moments imposed by a squeezed thermal bath; nbar >= 0, r and theta real."""
    nbar = _real(nbar, LindbladError, "nbar", low=0.0)
    r, theta = _real(r, LindbladError, "r"), _real(theta, LindbladError, "theta")
    n_eff = (nbar + 0.5) * math.cosh(2 * r) - 0.5
    m_eff = (nbar + 0.5) * complex(math.cos(theta), math.sin(theta)) * math.sinh(2 * r)
    return n_eff, m_eff


def squeezed_dissipator_from_moments(gamma: float, n_eff: float, m_eff: complex,
                                     fock_cut: int = 30,
                                     omega: float = 0.0) -> LindbladModel:
    """Squeezed-bath generator from the raw (N, M) pair; physicality
    requires |M|^2 <= N(N+1).  gamma, N >= 0 and omega are read by `_real`,
    M as one finite complex number."""
    gamma = _real(gamma, LindbladError, "gamma", low=0.0)
    n_eff = _real(n_eff, LindbladError, "n_eff", low=0.0)
    m = _numbers(m_eff, LindbladError, "m_eff", "one finite complex number")
    if m.ndim or not np.isfinite(m):
        raise LindbladError(f"m_eff must be one finite complex number, got {m_eff!r}")
    if abs(m) ** 2 > n_eff * (n_eff + 1) + 1e-12:
        raise LindbladError("unphysical squeezed bath: |M|^2 > N(N+1)")
    a = destroy(_integer(fock_cut, LindbladError, "fock_cut", low=1))
    h = _real(omega, LindbladError, "omega") * (a.conj().T @ a)
    ops = (a, a.conj().T)
    c = gamma * np.array([[n_eff + 1.0, -np.conj(m)], [-m, n_eff]], dtype=complex)
    return LindbladModel(h, (), cross=(ops, c))


def squeezed_dissipator(gamma: float, nbar: float, r: float, theta: float,
                        fock_cut: int = 30, omega: float = 0.0) -> LindbladModel:
    """Single-mode squeezed thermal bath.

    Jump terms gamma(N+1) D[a] + gamma N D[a^dag] plus the anomalous
    M-terms assembled through a Kossakowski matrix over (a, a^dag).  The
    steady second moments are <a^dag a> + 1/2 = (nbar + 1/2) cosh 2r and
    <a a> = (nbar + 1/2) e^{i theta} sinh 2r.
    """
    n_eff, m_eff = squeezed_bath_params(nbar, r, theta)
    return squeezed_dissipator_from_moments(gamma, n_eff, m_eff, fock_cut, omega)


def thermal_qubit_model(omega: float, gamma: float, beta: float) -> LindbladModel:
    """Two-level amplitude damping with detailed-balanced rates; beta > 0."""
    _check_beta(beta, LindbladError, positive=True)
    h = omega * np.diag([0.0, 1.0]).astype(complex)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)   # |g><e|
    nb = 1.0 / (math.exp(beta * omega) - 1.0)
    return LindbladModel(h, ((lower, gamma * (nb + 1.0)),
                             (lower.conj().T, gamma * nb)))


# ---------------------------------------------------------------------------
# Spohn rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpohnRates:
    times: np.ndarray
    heat_rate: np.ndarray        # dQ/dt into the bath
    work_rate: np.ndarray
    sigma_rate: np.ndarray
    sigma_rate_relent: np.ndarray


def spohn_rates(model_of_t, trajectory, beta: float) -> SpohnRates:
    """Heat/work/entropy rates along a trajectory, for dissipators whose
    instantaneous fixed point is the Gibbs state of the instantaneous
    Hamiltonian (validated; this requires fine-tuned engineering whenever
    H depends on time).

        dQ/dt = -Tr{H(t) D(rho)},   dW/dt = Tr{dH/dt rho},
        dSigma/dt = dS/dt + beta dQ/dt = -d/dt S(rho || rho_th(t)).

    trajectory: list of (t, rho), at least 2, read as one stack (`core._trajectory`,
    `core._density_stack`); model_of_t(t) -> LindbladModel of the states' size.
    sigma_rate is exact at each instant (dS/dt = -Tr[D(rho) ln rho] through
    the dissipator alone: the Hamiltonian part i Tr(H [rho, ln rho]) is 0, ln rho
    taken in rho's own eigenbasis), so it is non-negative to roundoff;
    sigma_rate_relent re-derives it from finite differences (`np.gradient`, as
    dH/dt) of the relative entropy and carries the discretization error of the grid.
    """
    beta = _check_beta(beta, LindbladError)
    times, states = _trajectory(trajectory, ("t", "rho"), LindbladError, least=2)
    stack = _density_stack(states, LindbladError)
    rho, (p, v) = stack.matrices, stack.eig()
    models = [model_of_t(t) for t in times.tolist()]
    for t, model in zip(times.tolist(), models):
        if not isinstance(model, LindbladModel) or model.dim != len(rho[0]):
            raise LindbladError(f"model_of_t({t:g}) is not a LindbladModel of size {len(rho[0])}")
    h = np.array([model.hamiltonian for model in models])
    gibbs, q, qv, _ = _gibbs_states(h, beta)
    drho = np.empty_like(rho)
    for k, (t, model) in enumerate(zip(times.tolist(), models)):
        diss = build(LindbladModel(np.zeros_like(model.hamiltonian), model.jumps, model.cross))
        resid = float(np.abs(diss @ vec(gibbs[k])).max())
        if resid > GIBBS_FIXED_POINT_TOL:
            raise LindbladError(f"dissipator does not fix the instantaneous Gibbs state at "
                                f"t = {t:g} (residual {resid:.3e})")
        drho[k] = unvec(diss @ vec(rho[k]))
    heat = -_trace_rows(h, drho)
    sigma = beta * heat - _trace_rows(drho, _log_of(p, v))
    relent = _petz_renyi(1.0, (p, v), (q, qv))
    return SpohnRates(times, heat, _trace_rows(np.gradient(h, times, axis=0), rho), sigma,
                      -np.gradient(relent, times))
