"""Linear (Gaussian) dynamics: Lyapunov evolution, phase-space entropy
rates, the driven-dissipative two-mode steady state, and squeezed-bath
entropy production with asymmetry accounting.

Quadratures are ordered x = (q_1, p_1, q_2, p_2, ...) with a_i =
(q_i + i p_i)/sqrt(2); covariances Theta_ij = <{X_i, X_j}>/2 - <X_i><X_j>
so a thermal mode has Theta = (nbar + 1/2) I.  The drift convention is

    dx/dt = -A x + noise,   dTheta/dt = -(A Theta + Theta A^T) + 2 D,

so stability means every eigenvalue of A has positive real part.  The
time-reversal split uses the parity matrix E (+1 positions, -1 momenta):
A_irr = (A + E A E)/2 contains damping, A_rev the Hamiltonian flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChargeSectors,
    DensityOperator,
    _check_beta,
    _eigh,
    _eigvalsh,
    _exact_spectra,
    _integer,
    _ptrace_matrix,
    _real,
    _real_array,
    _spectral_weights,
    _typed,
    hermitian_function,
    propagate,
    relative_entropy,
    tensor,
    unvec,
    vec,
    von_neumann_entropy,
)
from .lindblad import destroy


class GaussianError(ValueError):
    pass


def default_parity(n_modes: int) -> np.ndarray:
    return np.diag(np.tile([1.0, -1.0], n_modes))


def symplectic_form(n_modes: int) -> np.ndarray:
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), j)


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Drift A, diffusion D and the parity matrix defining the split."""

    drift: np.ndarray
    diffusion: np.ndarray
    parity: np.ndarray | None = None

    def __post_init__(self):
        a, d = (_real(m, GaussianError, name) for m, name in ((self.drift, "drift"),
                                                             (self.diffusion, "diffusion")))
        if a.shape != d.shape or a.shape[0] != a.shape[1]:
            raise GaussianError("drift and diffusion must be equal square matrices")
        if a.shape[0] % 2:
            raise GaussianError("phase space dimension must be even")
        par = self.parity
        if par is None:
            par = default_parity(a.shape[0] // 2)
        par = _real(par, GaussianError, "parity")
        if np.abs(d - d.T).max() > 1e-12:
            raise GaussianError("diffusion matrix must be symmetric")
        if _eigvalsh(d).min() < -1e-12:
            raise GaussianError("diffusion matrix must be PSD")
        if np.abs(par @ par - np.eye(a.shape[0])).max() > 1e-12:
            raise GaussianError("parity matrix must square to the identity")
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "diffusion", d)
        object.__setattr__(self, "parity", par)

    @property
    def irreversible(self) -> np.ndarray:
        return 0.5 * (self.drift + self.parity @ self.drift @ self.parity)

    def is_stable(self) -> bool:
        return bool(np.real(np.linalg.eigvals(self.drift)).min() > 0)


@dataclass(frozen=True, eq=False)
class GaussianState:
    mean: np.ndarray
    cov: np.ndarray
    quantum: bool = True

    def __post_init__(self):
        mean = np.ravel(_real(self.mean, GaussianError, "mean"))
        cov = _real(self.cov, GaussianError, "covariance")
        if np.shape(cov) != (len(mean), len(mean)):
            raise GaussianError("covariance shape does not match the mean")
        if np.abs(cov - cov.T).max() > 1e-10:
            raise GaussianError("covariance must be symmetric")
        if self.quantum:
            omega = symplectic_form(len(mean) // 2)
            test = cov + 0.5j * omega
            low = float(_eigvalsh((test + test.conj().T) / 2.0).min())
            if low < -1e-9:
                raise GaussianError(f"covariance violates the uncertainty bound ({low:.3e})")
        else:
            if _eigvalsh(cov).min() < -1e-12:
                raise GaussianError("classical covariance must be PSD")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def thermal(cls, nbar: float, n_modes: int = 1):
        return cls(np.zeros(2 * n_modes), (nbar + 0.5) * np.eye(2 * n_modes))

    def occupation(self, mode: int = 0) -> float:
        """<a^dag a> of one mode."""
        i = 2 * mode
        var = self.cov[i, i] + self.cov[i + 1, i + 1]
        disp = self.mean[i] ** 2 + self.mean[i + 1] ** 2
        return 0.5 * (var + disp - 1.0)


# ---------------------------------------------------------------------------
# Lyapunov machinery
# ---------------------------------------------------------------------------

def lyapunov_steady(drift, diffusion) -> np.ndarray:
    """Unique symmetric solution of A Theta + Theta A^T = 2 D for stable A
    (Bartels-Stewart, `scipy.linalg.solve_continuous_lyapunov`); an
    unstable A or a residual beyond 1e-10 max(1, max |D|) is an error, and so
    is a drift or diffusion that is not real (`core._real_array`)."""
    a = _real_array(drift, GaussianError, "drift")
    d = _real_array(diffusion, GaussianError, "diffusion")
    if np.real(np.linalg.eigvals(a)).min() <= 0:
        raise GaussianError("drift matrix is not stable; steady covariance undefined")
    return _lyapunov_solve(a, d)


def _lyapunov_solve(a, d) -> np.ndarray:
    """`lyapunov_steady` for a drift already known to be stable."""
    from scipy.linalg import solve_continuous_lyapunov
    theta = solve_continuous_lyapunov(a, 2.0 * d)
    theta = 0.5 * (theta + theta.T)
    resid = float(np.abs(a @ theta + theta @ a.T - 2.0 * d).max())
    if resid > 1e-10 * max(1.0, np.abs(d).max()):
        raise GaussianError(f"Lyapunov residual {resid:.3e}")
    return theta


def integrate_lyapunov(model: GaussianModel, state: GaussianState, t_grid):
    """States on a finite, nondecreasing time grid of dx/dt = -A x + noise,
    dTheta/dt = -(A Theta + Theta A^T) + 2D, exact at every step: the vector
    (mean, vec Theta, 1), Theta read and written by `core.vec`/`unvec`, is carried by the
    exponential of its generator [[-A, 0, 0], [0, -(1 x A + A x 1), vec 2D], [0, 0, 0]]
    (`core.propagate`), the same matrix in row-major stacking, which swaps its two terms.
    Unlike Van Loan's block form this has no growing block: it is bounded
    for stable A at any step length, and exact for unstable A too."""
    a = model.drift
    n = a.shape[0]
    if len(state.mean) != n:
        raise GaussianError(f"state dimension {len(state.mean)} does not match the model's {n}")
    gen = np.zeros((n + n * n + 1,) * 2)
    gen[:n, :n] = -a
    gen[n:-1, n:-1] = -(np.kron(np.eye(n), a) + np.kron(a, np.eye(n)))
    gen[n:-1, -1] = 2.0 * vec(model.diffusion)
    x0 = np.concatenate([state.mean, vec(state.cov), [1.0]])
    states = [state]
    for x in propagate(gen, t_grid, x0, GaussianError)[1][1:]:
        cov = unvec(x[n:-1])
        states.append(GaussianState(x[:n], 0.5 * (cov + cov.T), quantum=state.quantum))
    return states


def pi_phi(model: GaussianModel, state: GaussianState):
    """Entropy production and flux rates of a Gaussian state under linear
    dynamics (in Wigner/Shannon convention):

      Sigma_rate = tr(D Theta^-1 - A_irr) + (A_irr xbar)^T D^-1 (A_irr xbar)
                 + tr(A_irr^T D^-1 A_irr Theta - A_irr)
      Phi_rate   = tr(A_irr^T D^-1 A_irr Theta - A_irr)
                 + (A_irr xbar)^T D^-1 (A_irr xbar).

    Only A_irr, D, Theta and the mean enter; D is pseudo-inverted on its
    range with an explicit range check when singular.
    """
    a_irr = model.irreversible
    d = model.diffusion
    theta = state.cov
    xbar = state.mean
    vals, vecs = _eigh(d)
    nz = _spectral_weights(vals, max(1.0, vals.max())) > 0.0
    if not np.all(nz):
        # pseudo-inverse: A_irr must act within the range of D
        proj = vecs[:, ~nz]
        if np.abs(proj.T @ a_irr).max() > 1e-10:
            raise GaussianError("singular diffusion with irreversible drift "
                                "outside its range")
    inv_vals = np.where(nz, 1.0 / np.where(nz, vals, 1.0), 0.0)
    d_inv = (vecs * inv_vals) @ vecs.T
    theta_inv = np.linalg.inv(theta)
    drive = a_irr @ xbar
    common = float(np.trace(a_irr.T @ d_inv @ a_irr @ theta) - np.trace(a_irr))
    mean_term = float(drive @ d_inv @ drive)
    sigma_rate = (float(np.trace(d @ theta_inv) - np.trace(a_irr))
                  + mean_term + common)
    phi_rate = common + mean_term
    return sigma_rate, phi_rate


def wigner_entropy(state: GaussianState) -> float:
    """Shannon entropy of the Gaussian phase-space distribution:
    (1/2) ln det Theta + n ln(2 pi e), the Renyi-2 entropy plus a constant."""
    n = len(state.mean) // 2
    return renyi2_entropy(state) + n * math.log(2.0 * math.pi * math.e)


def renyi2_entropy(state: GaussianState) -> float:
    """S_2 = (1/2) ln det Theta; differs from the Wigner entropy by the
    state-independent constant n ln(2 pi e)."""
    sign, logdet = np.linalg.slogdet(state.cov)
    if sign <= 0:
        raise GaussianError("covariance must be positive definite")
    return 0.5 * logdet


def single_mode_rates(gamma: float, nbar: float, state: GaussianState,
                      omega: float = 1.0):
    """Thermal damping of one mode, phase-space formulation.

    Flux Phi_W = gamma (<a^dag a> - nbar)/(nbar + 1/2) = Qdot_E/(omega
    (nbar + 1/2)); Sigma_W >= 0 vanishes only on the thermal state and
    stays finite for a pure-loss bath (nbar = 0) thanks to the vacuum 1/2.
    """
    omega = _real(omega, GaussianError, "omega", above=0.0)
    if len(state.mean) != 2:
        raise GaussianError("single_mode_rates expects one mode")
    model = thermal_damping_model(gamma, nbar)
    sigma_rate, phi_rate = pi_phi(model, state)
    q_dot = omega * gamma * (state.occupation() - nbar)
    return {
        "sigma_rate": sigma_rate,
        "flux_rate": phi_rate,
        "heat_rate": q_dot,
        "flux_from_heat": q_dot / (omega * (nbar + 0.5)),
    }


def thermal_damping_model(gamma: float, nbar: float) -> GaussianModel:
    a = 0.5 * gamma * np.eye(2)
    d = 0.5 * gamma * (nbar + 0.5) * np.eye(2)
    return GaussianModel(a, d)


# ---------------------------------------------------------------------------
# Two-mode driven-dissipative steady state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoModeNessSpec:
    """Optical mode a (vacuum bath, rate kappa_a) linearly coupled to mode b
    (thermal bath n_Tb, rate gamma_b) through g_ab (a + a^dag)(b + b^dag)/2
    per quadrature pair, i.e. H_int = g_ab (a+a^dag)(b+b^dag) in mode
    operators."""

    omega_a: float
    omega_b: float
    g_ab: float
    kappa_a: float
    gamma_b: float
    n_tb: float

    def __post_init__(self):
        for name in ("omega_a", "omega_b", "kappa_a", "gamma_b"):
            _real(getattr(self, name), GaussianError, name, above=0.0)
        _real(self.g_ab, GaussianError, "g_ab")
        _real(self.n_tb, GaussianError, "n_tb", low=0.0)


def two_mode_drift_diffusion(spec: TwoModeNessSpec):
    """Langevin drift/diffusion for x = (q_a, p_a, q_b, p_b).

    H = (omega_a/2)(q_a^2 + p_a^2) + (omega_b/2)(q_b^2+p_b^2)
      + 2 g_ab q_a q_b, plus local damping kappa_a (n=0) and gamma_b (n_Tb).
    """
    w_a, w_b, g = spec.omega_a, spec.omega_b, spec.g_ab
    k, gb = spec.kappa_a, spec.gamma_b
    a = np.array([
        [k, -w_a, 0.0, 0.0],
        [w_a, k, 2.0 * g, 0.0],
        [0.0, 0.0, gb, -w_b],
        [2.0 * g, 0.0, w_b, gb],
    ])
    d = np.diag([k * 0.5, k * 0.5,
                 gb * (spec.n_tb + 0.5), gb * (spec.n_tb + 0.5)])
    return GaussianModel(a, d)


def critical_coupling(spec: TwoModeNessSpec) -> float:
    """Coupling where the drift loses stability (soft-mode instability):
    g_cr = sqrt((kappa_a^2 + omega_a^2)(gamma_b^2 + omega_b^2) /
    (4 omega_a omega_b)); reduces to sqrt((kappa_a^2 + omega_a^2) omega_b /
    (4 omega_a)) for gamma_b << omega_b."""
    return math.sqrt((spec.kappa_a ** 2 + spec.omega_a ** 2)
                     * (spec.gamma_b ** 2 + spec.omega_b ** 2)
                     / (4.0 * spec.omega_a * spec.omega_b))


@dataclass(frozen=True, eq=False)
class TwoModeNessResult:
    cov: np.ndarray
    n_a: float
    n_b: float
    entropy_rate: float       # Pi at the steady state
    mu_a: float
    mu_b: float
    entropy_rate_general: float  # cross-check through pi_phi


def two_mode_ness(spec: TwoModeNessSpec) -> TwoModeNessResult:
    """Steady covariance and its entropy production rate

      Pi = 2 gamma_b ((n_b + 1/2)/(n_Tb + 1/2) - 1) + 4 kappa_a n_a,

    the entropic cost of holding quantum fluctuations out of equilibrium;
    diverges at the critical coupling.  Cross-checked against the general
    linear-dynamics formula.
    """
    model = two_mode_drift_diffusion(spec)
    if not model.is_stable():
        raise GaussianError(
            f"unstable drift at g_ab = {spec.g_ab}; "
            f"critical coupling {critical_coupling(spec):.6g}")
    theta = _lyapunov_solve(model.drift, model.diffusion)
    state = GaussianState(np.zeros(4), theta)
    n_a = state.occupation(0)
    n_b = state.occupation(1)
    mu_a = 4.0 * spec.kappa_a * n_a
    mu_b = 2.0 * spec.gamma_b * ((n_b + 0.5) / (spec.n_tb + 0.5) - 1.0)
    sigma_rate, _ = pi_phi(model, state)
    return TwoModeNessResult(theta, n_a, n_b, mu_a + mu_b, mu_a, mu_b, sigma_rate)


# ---------------------------------------------------------------------------
# Squeezed-bath entropy production (two-mode exchange)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqueezedExchangeSpec:
    """Resonant system mode exchanging with one squeezed thermal bath mode
    through the quanta- and asymmetry-conserving V = i g (a^dag b -
    b^dag a), evolved in the interaction picture for a time t."""

    omega: float
    g: float
    t: float
    r: float
    theta: float
    beta: float
    fock_cut: int = 20

    def __post_init__(self):
        for name in ("g", "t", "r", "theta"):
            _real(getattr(self, name), GaussianError, name)
        _real(self.omega, GaussianError, "omega", above=0.0)
        _check_beta(self.beta, GaussianError, positive=True)
        object.__setattr__(self, "fock_cut", _integer(self.fock_cut, GaussianError, "fock_cut", 1))


def squeezed_thermal_state(nbar_beta: float, omega: float, r: float,
                           theta: float, n: int) -> DensityOperator:
    """S(z) rho_th S(z)^dag on a truncated Fock space, z = r e^{i theta},
    keeping its exact spectrum: the thermal Fock populations at mean
    occupation nbar_beta, truncated to n levels and renormalized (the
    vacuum for nbar_beta <= 0), on the columns of S(z)."""
    a, z = destroy(n), r * np.exp(1j * theta)
    gen = 0.5 * (np.conj(z) * (a @ a) - z * (a.conj().T @ a.conj().T))   # anti-Hermitian
    x = nbar_beta / (1.0 + nbar_beta) if nbar_beta > 0 else 0.0
    w = (1 - x) * x ** np.arange(n)
    return DensityOperator._validated(_exact_spectra(
        None, w / w.sum(), hermitian_function(1j * gen, lambda y: np.exp(-1j * y))))


def asymmetry_operator(omega: float, theta: float, n: int) -> np.ndarray:
    a = destroy(n)
    return 0.5 * omega * (np.exp(1j * theta) * (a.conj().T @ a.conj().T)
                          + np.exp(-1j * theta) * (a @ a))


@dataclass(frozen=True)
class SqueezedSigmaResult:
    sigma_affinity: float
    sigma_relative_entropy: float
    d_quanta: float            # change of total a^dag a + b^dag b
    d_asymmetry: float         # change of total (aa + bb) expectation, |.|
    d_entropy_system: float
    d_h_system: float
    d_a_system: float


def _kron_entries(*terms):
    """Nonzero entries (rows, cols, vals) of sum_k kron(a_k, b_k), made by
    index arithmetic from the nonzeros of the factors: no dense product."""
    parts = []
    for a, b in terms:
        ra, ca = np.nonzero(a)
        rb, cb = np.nonzero(b)
        n = b.shape[0]
        parts.append(((ra[:, None] * n + rb).ravel(), (ca[:, None] * n + cb).ravel(),
                      (a[ra, ca][:, None] * b[rb, cb]).ravel()))
    return tuple(np.concatenate(x) for x in zip(*parts))


def _exchange_blocks(entries, n):
    """Blocks of a two-mode exchange generator V, given by its entries
    (`_kron_entries`), on the total-quanta sectors of the n x n Fock grid
    (joint index i*n + j, charge i + j), after its structural checks at
    1e-10: no entry of V between sectors (quanta), and [V, A] = 0 for the
    total asymmetry A = a a x 1 + 1 x b b on the sectors the truncation
    leaves whole, total quanta <= n - 2 (asymmetry).  A maps sector N to
    N - 2, so the commutator is V_{N-2} A_N - A_N V_N, block by block."""
    i, j = np.divmod(np.arange(n * n), n)
    sectors = ChargeSectors(i + j)           # sector N holds charge N
    v, leak = sectors.split(*entries)
    a2, eye = destroy(n) @ destroy(n), np.eye(n)
    asym, _ = sectors.split(*_kron_entries((a2, eye), (eye, a2)), shift=-2)
    comm = max((float(np.abs(v[q - 2] @ asym[q] - asym[q] @ v[q]).max())
                for q in range(2, n - 1)), default=0.0)
    for label, resid in (("quanta", leak), ("asymmetry", comm)):
        if resid > 1e-10:
            raise GaussianError(f"interaction does not conserve {label} "
                                f"(residual {resid:.3e})")
    if max(float(np.abs(b - b.conj().T).max()) for b in v) > 1e-10:
        raise GaussianError("exchange generator must be Hermitian")
    return sectors, v


def squeezed_sigma(spec: SqueezedExchangeSpec,
                   rho_system: DensityOperator) -> SqueezedSigmaResult:
    """Entropy production against a squeezed thermal bath, two routes.

    Affinity route: Sigma = dS_S - beta (cosh 2r dH_S + sinh 2r dA_S),
    the GGE second law with heat and asymmetry currents.  Fixed-point
    route: Sigma = S(rho_S || rho*) - S(rho_S' || rho*) with rho* the
    system GGE e^{-beta (cosh 2r H + sinh 2r A)}/Z.  The two agree when
    the interaction conserves both total quanta and total asymmetry,
    which is validated structurally (`_exchange_blocks`) and dynamically
    (moment conservation along the evolution).  V conserves the total
    quanta, so U = exp(-i t V) is built and applied sector by sector; omega, beta > 0.
    """
    n = spec.fock_cut
    rho_system = _typed(DensityOperator, rho_system, GaussianError, n)
    a1 = destroy(n)
    ig = 1j * spec.g
    sectors, v = _exchange_blocks(
        _kron_entries((ig * a1.conj().T, a1), (-ig * a1, a1.conj().T)), n)
    u = sectors.function(v, lambda x: np.exp(-1j * spec.t * x))

    nbar = 1.0 / (math.exp(spec.beta * spec.omega) - 1.0)
    rho_env = squeezed_thermal_state(nbar, spec.omega, spec.r, spec.theta, n)
    h_sys = spec.omega * (a1.conj().T @ a1)
    a_sys = asymmetry_operator(spec.omega, spec.theta, n)

    joint1 = sectors.conjugate(u, tensor([rho_system, rho_env]))
    rho_s1 = DensityOperator(_ptrace_matrix(joint1, (n, n), [0]), rho_system.dims)
    moved_s = rho_s1.matrix - rho_system.matrix

    ds = von_neumann_entropy(rho_s1) - von_neumann_entropy(rho_system)
    dh = float(np.real(np.trace(h_sys @ moved_s)))
    da = float(np.real(np.trace(a_sys @ moved_s)))
    ch, sh = math.cosh(2 * spec.r), math.sinh(2 * spec.r)
    sigma_aff = ds - spec.beta * (ch * dh + sh * da)

    # fixed-point route: rho* is rho_E, the squeeze of the thermal state,
    # which keeps its exact spectrum (thermal weights, squeezed Fock basis);
    # independent of the affinity algebra, so agreement genuinely tests
    # that the GGE is the global fixed point of the conserving exchange.
    sigma_rel = relative_entropy(rho_system, rho_env) - relative_entropy(rho_s1, rho_env)

    # tr((x (x) 1 + 1 (x) x)(rho' - rho)) = tr(x (dS + dE)) for the quanta
    # x = a^dag a and the asymmetry x = a a, from the two marginals
    moved = moved_s + (_ptrace_matrix(joint1, (n, n), [1]) - rho_env.matrix)
    d_quanta = float(np.real(np.trace(a1.conj().T @ a1 @ moved)))
    d_asym = abs(complex(np.trace(a1 @ a1 @ moved)))
    return SqueezedSigmaResult(
        sigma_affinity=sigma_aff,
        sigma_relative_entropy=sigma_rel,
        d_quanta=d_quanta,
        d_asymmetry=d_asym,
        d_entropy_system=ds,
        d_h_system=dh,
        d_a_system=da,
    )
