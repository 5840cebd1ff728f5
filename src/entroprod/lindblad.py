"""Continuous-time master equations and Liouvillian spectral analysis.

Generators are built in vectorized form from the terms of
`core.add_sided_term` and `core.add_lindblad_term`, in the column-stacking
convention that `core` fixes for every superoperator (`core.vec`,
`core.unvec`); the trace functional is then the left null vector
vec(1)^dag, which every generator here satisfies by construction.
Besides the generic builder, the module carries the driven-dissipative
Kerr model, the dissipative macrospin, the squeezed thermal bath, a
fixed-step RK4 integrator, steady states, spectral gaps and the Spohn
heat/work/entropy rates.

Steady states and spectra are taken from the real form of the generator
(`core.real_superop`, the generator in an orthonormal Hermitian basis),
which has the eigenvalues of the complex one: the steady state from one LU
factorization of that form bordered by the trace functional
(`core.bordered_null_vector`, the "direct" method of Johansson, Nation &
Nori, Comput. Phys. Commun. 183, 1760 (2012)), the spectrum and the gap
from one real nonsymmetric eigenvalue problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityOperator,
    HermitianOperator,
    _mat,
    add_lindblad_term,
    add_sided_term,
    bordered_null_vector,
    from_hermitian_coords,
    hermitian_coords,
    logm_psd,
    real_superop,
    relative_entropy,
    thermal_state,
    unvec,
    vec,
)

# Largest d whose complex generator (16 d^4 bytes) and real form (8 d^4)
# fit the byte budget; see `LindbladModel`.
GENERATOR_BYTES = 2 ** 30
DIM_CAP = math.isqrt(math.isqrt(GENERATOR_BYTES // 24))


class LindbladError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Models and superoperators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LindbladModel:
    """drho/dt = -i[H, rho] + sum_k gamma_k D[L_k] (+ optional cross terms).

    `jumps` holds (operator, rate >= 0) pairs.  `cross` = (ops, c) adds the
    general form sum_kl c_kl (F_k rho F_l^dag - 1/2 {F_l^dag F_k, rho})
    with a Hermitian coefficient matrix c; it hosts the anomalous terms of
    squeezed baths.

    The dimension d is capped at DIM_CAP = 81, checked before anything is
    allocated: the dense generator and its real form take 24 d^4 bytes,
    within the budget GENERATOR_BYTES = 1 GiB.
    """

    hamiltonian: np.ndarray
    jumps: tuple
    cross: tuple | None = None

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.shape[0] != h.shape[1]:
            raise LindbladError("Hamiltonian must be square")
        if h.shape[0] > DIM_CAP:
            raise LindbladError(
                f"dimension {h.shape[0]} exceeds cap {DIM_CAP} (24 d^4 bytes of "
                f"dense generators against a budget of {GENERATOR_BYTES} bytes)")
        object.__setattr__(self, "hamiltonian", h)
        jumps = tuple((np.asarray(op, dtype=complex), float(rate))
                      for op, rate in self.jumps)
        for _, rate in jumps:
            if rate < 0:
                raise LindbladError(f"negative jump rate {rate}")
        object.__setattr__(self, "jumps", jumps)
        if self.cross is not None:
            ops, c = self.cross
            c = np.asarray(c, dtype=complex)
            if np.abs(c - c.conj().T).max() > 1e-12:
                raise LindbladError("cross-term coefficient matrix must be Hermitian")
            object.__setattr__(self, "cross",
                               (tuple(np.asarray(o, dtype=complex) for o in ops), c))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def to_json(self) -> dict:
        from .core import matrix_to_json
        out = {
            "H": matrix_to_json(self.hamiltonian),
            "jumps": [{"L": matrix_to_json(op), "rate": rate}
                      for op, rate in self.jumps],
        }
        if self.cross is not None:
            ops, c = self.cross
            out["cross"] = {
                "ops": [matrix_to_json(o) for o in ops],
                "coefficients": matrix_to_json(c),
            }
        return out

    @classmethod
    def from_json(cls, obj) -> "LindbladModel":
        from .core import matrix_from_json
        h, _ = matrix_from_json(obj["H"])
        jumps = tuple((matrix_from_json(j["L"])[0], float(j["rate"]))
                      for j in obj.get("jumps", []))
        cross = None
        if "cross" in obj:
            ops = tuple(matrix_from_json(o)[0] for o in obj["cross"]["ops"])
            c, _ = matrix_from_json(obj["cross"]["coefficients"])
            cross = (ops, c)
        return cls(h, jumps, cross)


def build(model: LindbladModel) -> np.ndarray:
    """Vectorized generator; the identity is a left null vector to 1e-12."""
    d = model.dim
    superop = np.zeros((d * d, d * d), dtype=complex)
    add_sided_term(superop, -1j * model.hamiltonian, 1j * model.hamiltonian)
    for l_op, rate in model.jumps:
        add_lindblad_term(superop, l_op, l_op, rate)
    if model.cross is not None:
        ops, c = model.cross
        for k, fk in enumerate(ops):
            for l, fl in enumerate(ops):
                if c[k, l] != 0:
                    add_lindblad_term(superop, fk, fl, c[k, l])
    return superop


def dissipator_only(model: LindbladModel) -> np.ndarray:
    return build(LindbladModel(np.zeros_like(model.hamiltonian),
                               model.jumps, model.cross))


def apply_superop(superop, rho) -> np.ndarray:
    return unvec(superop @ vec(_mat(rho)))


def trace_preservation_residual(superop) -> float:
    d = math.isqrt(superop.shape[0])
    left = vec(np.eye(d)).conj() @ superop
    return float(np.abs(left).max())


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrationResult:
    times: np.ndarray
    states: tuple
    trace_drift: float
    positivity_drift: float


def integrate(model: LindbladModel, rho0: DensityOperator,
              t_grid) -> IntegrationResult:
    """Fixed-step RK4 on the vectorized equation.

    Step is capped at 0.05/||L||_F; the trace is renormalized after every
    step with the accumulated drift logged, and the most negative
    eigenvalue seen is reported as positivity drift (> 1e-8 is an error).
    """
    superop = build(model)
    t_grid = np.asarray(t_grid, dtype=float)
    norm = float(np.linalg.norm(superop, "fro"))
    cap = 0.05 / max(norm, 1e-12)
    v = vec(rho0.matrix)
    states = [rho0]
    drift = 0.0
    neg = 0.0

    def rhs(v):
        return superop @ v

    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        span = t1 - t0
        n_sub = max(1, int(math.ceil(span / cap)))
        h = span / n_sub
        for _ in range(n_sub):
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * h * k1)
            k3 = rhs(v + 0.5 * h * k2)
            k4 = rhs(v + h * k3)
            v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            tr = float(np.real(np.trace(unvec(v))))
            drift = max(drift, abs(tr - 1.0))
            v = v / tr
            if np.abs(v).max() > 1e6:
                raise LindbladError("integration blew up: step instability")
        m = unvec(v)
        m = (m + m.conj().T) / 2.0
        low = float(np.linalg.eigvalsh(m).min())
        neg = min(neg, low)
        if low < -1e-8:
            raise LindbladError(f"positivity drift {low:.3e} beyond 1e-8")
        states.append(DensityOperator.from_matrix(
            m / np.trace(m), rho0.dims))
        v = vec(states[-1].matrix)
    return IntegrationResult(t_grid, tuple(states), drift, -neg)


# ---------------------------------------------------------------------------
# Steady states and gaps
# ---------------------------------------------------------------------------

def steady_state(model: LindbladModel, null_tol: float = 1e-8) -> DensityOperator:
    """Normalized Hermitian PSD null vector of the generator.

    One LU factorization of the real form L_r bordered by the trace,
    B = L_r - u t^T (u the (0, 0) coordinate, t the trace functional):
    rho solves B x = -u, and B is singular exactly when the steady space is
    degenerate.  `null_tol` bounds LAPACK's estimate of the reciprocal
    condition number of B (infinity norm) from below; a smaller one counts
    as a null space of dimension > 1, which is an error: at finite size a
    dissipative-transition coexistence region is gapped, so exact
    degeneracy signals a modeling mistake rather than physics.  The state
    is projected onto the PSD cone (a candidate with an eigenvalue below
    -1e-7 is an error) and must leave a residual of at most 1e-8 in the
    max-norm of its real coordinates, which bounds that of vec.
    """
    gen = real_superop(build(model))
    d = model.dim
    x = bordered_null_vector(gen, np.arange(d) * (d + 1), null_tol)
    if x is None:
        raise LindbladError(
            f"degenerate steady space (bordered generator singular within {null_tol:g})")
    vals, vecs = np.linalg.eigh(from_hermitian_coords(x))
    if vals.min() < -1e-7:
        raise LindbladError(f"steady-state candidate not PSD ({vals.min():.3e})")
    m = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    rho = DensityOperator.from_matrix(m / np.trace(m))
    resid = float(np.abs(gen @ hermitian_coords(rho.matrix)).max())
    if resid > 1e-8:
        raise LindbladError(f"steady-state residual {resid:.3e}")
    return rho


def gap(model: LindbladModel, null_tol: float = 1e-8) -> float:
    """min over nonzero eigenvalues of -Re(lambda), an eigenvalue counting
    as zero when |lambda| <= null_tol * max(1, max |lambda|); closes at
    dissipative transitions in the appropriate scaling limit."""
    vals = spectrum(model)
    scale = max(1.0, float(np.abs(vals).max()))
    nonzero = vals[np.abs(vals) > null_tol * scale]
    if len(nonzero) == 0:
        raise LindbladError("generator has no nonzero eigenvalues")
    return float(np.min(-np.real(nonzero)))


def spectrum(model: LindbladModel) -> np.ndarray:
    """All d^2 eigenvalues of the generator, from real LAPACK `dgeev` on its
    real form."""
    return np.linalg.eigvals(real_superop(build(model)))


# ---------------------------------------------------------------------------
# Named models
# ---------------------------------------------------------------------------

def destroy(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)


def fock_tail_mass(rho: DensityOperator, margin: int = 5) -> float:
    p = np.real(np.diag(rho.matrix))
    return float(np.sum(p[-margin:]))


def kerr_model(delta: float, u_kerr: float, drive: float, kappa: float,
               n_scale: int = 1, fock_cut: int = 40) -> LindbladModel:
    """Driven Kerr cavity with loss: H = Delta n + (U/2) a^dag a^dag a a
    + i eps (a^dag - a), jump sqrt(kappa) a; the scaling U -> U/N,
    eps -> eps sqrt(N) tunes the thermodynamic limit.

    Callers should confirm the truncation afterwards (steady <n> below
    fock_cut/2 and a small Fock tail), see `validate_kerr_truncation`.
    """
    a = destroy(fock_cut)
    num = a.conj().T @ a
    u_eff = u_kerr / n_scale
    eps_eff = drive * math.sqrt(n_scale)
    h = (delta * num + 0.5 * u_eff * (a.conj().T @ a.conj().T @ a @ a)
         + 1j * eps_eff * (a.conj().T - a))
    return LindbladModel(h, ((a, kappa),))


def validate_kerr_truncation(model: LindbladModel, rho_ss: DensityOperator,
                             tail_tol: float = 1e-8):
    a = destroy(model.dim)
    n_mean = float(np.real(np.trace(a.conj().T @ a @ rho_ss.matrix)))
    tail = fock_tail_mass(rho_ss)
    if n_mean > model.dim / 2:
        raise LindbladError(f"<n> = {n_mean:.2f} beyond half the Fock cut")
    if tail > tail_tol:
        raise LindbladError(f"Fock tail mass {tail:.3e} beyond {tail_tol}")
    return n_mean, tail


def spin_operators(s: float):
    """Spin-s operators (S_x, S_y, S_z, S_-) in the descending-m basis."""
    two_s = int(round(2 * s))
    if abs(two_s - 2 * s) > 1e-12:
        raise LindbladError("2S must be an integer")
    dim = two_s + 1
    m = s - np.arange(dim)
    sz = np.diag(m).astype(complex)
    # S_- |s, m> = sqrt(s(s+1) - m(m-1)) |s, m-1>
    lower = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        mm = m[k]
        lower[k + 1, k] = math.sqrt(s * (s + 1) - mm * (mm - 1))
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
    """Second moments imposed by a squeezed thermal bath."""
    n_eff = (nbar + 0.5) * math.cosh(2 * r) - 0.5
    m_eff = (nbar + 0.5) * complex(math.cos(theta), math.sin(theta)) * math.sinh(2 * r)
    return n_eff, m_eff


def squeezed_dissipator_from_moments(gamma: float, n_eff: float, m_eff: complex,
                                     fock_cut: int = 30,
                                     omega: float = 0.0) -> LindbladModel:
    """Squeezed-bath generator from the raw (N, M) pair; physicality
    requires |M|^2 <= N(N+1)."""
    if abs(m_eff) ** 2 > n_eff * (n_eff + 1) + 1e-12:
        raise LindbladError("unphysical squeezed bath: |M|^2 > N(N+1)")
    a = destroy(fock_cut)
    h = omega * (a.conj().T @ a)
    ops = (a, a.conj().T)
    c = gamma * np.array([[n_eff + 1.0, -np.conj(m_eff)],
                          [-m_eff, n_eff]], dtype=complex)
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
    """Two-level amplitude damping with detailed-balanced rates."""
    h = omega * np.diag([0.0, 1.0]).astype(complex)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)   # |g><e|
    nb = 1.0 / (math.exp(beta * omega) - 1.0)
    return LindbladModel(h, ((lower, gamma * (nb + 1.0)),
                             (lower.conj().T, gamma * nb)))


# ---------------------------------------------------------------------------
# Spohn rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpohnRates:
    times: np.ndarray
    heat_rate: np.ndarray        # dQ/dt into the bath
    work_rate: np.ndarray
    sigma_rate: np.ndarray
    sigma_rate_relent: np.ndarray


def spohn_rates(model_of_t, trajectory, beta: float,
                fixed_point_tol: float = 1e-8) -> SpohnRates:
    """Heat/work/entropy rates along a trajectory, for dissipators whose
    instantaneous fixed point is the Gibbs state of the instantaneous
    Hamiltonian (validated; this requires fine-tuned engineering whenever
    H depends on time).

        dQ/dt = -Tr{H(t) D(rho)},   dW/dt = Tr{dH/dt rho},
        dSigma/dt = dS/dt + beta dQ/dt = -d/dt S(rho || rho_th(t)).

    trajectory: list of (t, DensityOperator); model_of_t(t) -> LindbladModel.
    sigma_rate is exact at each instant (dS/dt evaluated through the
    generator, -Tr[L(rho) ln rho]), so it is non-negative to roundoff;
    sigma_rate_relent re-derives it from finite differences of the
    relative entropy and carries the discretization error of the grid.
    """
    times = np.array([t for t, _ in trajectory], dtype=float)
    states = [rho for _, rho in trajectory]
    heat, entropy_rate, relents = [], [], []
    h_list = []
    for t, rho in trajectory:
        model = model_of_t(t)
        h = model.hamiltonian
        h_list.append(h)
        diss = dissipator_only(model)
        gibbs = thermal_state(HermitianOperator.from_matrix(h), beta)
        resid = float(np.abs(apply_superop(diss, gibbs.matrix)).max())
        if resid > fixed_point_tol:
            raise LindbladError(
                f"dissipator does not fix the instantaneous Gibbs state "
                f"(residual {resid:.3e})")
        full = build(model)
        drho_full = apply_superop(full, rho.matrix)
        drho_diss = apply_superop(diss, rho.matrix)
        heat.append(-float(np.real(np.trace(h @ drho_diss))))
        log_rho = logm_psd(rho)
        entropy_rate.append(-float(np.real(np.trace(drho_full @ log_rho))))
        relents.append(relative_entropy(rho, gibbs))
    # dH/dt via central differences of the schedule
    dh_dt = []
    for k in range(len(times)):
        if k == 0:
            dh = (h_list[1] - h_list[0]) / (times[1] - times[0])
        elif k == len(times) - 1:
            dh = (h_list[-1] - h_list[-2]) / (times[-1] - times[-2])
        else:
            dh = (h_list[k + 1] - h_list[k - 1]) / (times[k + 1] - times[k - 1])
        dh_dt.append(dh)
    work = [float(np.real(np.trace(dh @ rho.matrix)))
            for dh, rho in zip(dh_dt, states)]
    sigma = np.array(entropy_rate) + beta * np.array(heat)
    sigma_rel = -np.gradient(np.array(relents), times)
    return SpohnRates(times, np.array(heat), np.array(work), sigma, sigma_rel)
