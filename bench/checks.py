"""Correctness checks for the benchmark, computed apart from entroprod.

Every reference here is built from numpy/scipy and the physics of the
model, never from entroprod code and never from a stored copy of earlier
output.  Each ``check_*`` function returns a list of failure messages; an
empty list means the result passed.  ``test_checks.py`` feeds each check a
deliberately wrong result to show that it catches it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

# ---------------------------------------------------------------------------
# Small linear-algebra references
# ---------------------------------------------------------------------------


def ptrace(m, dims, keep):
    """Partial trace of matrix ``m`` on factors ``dims`` keeping ``keep``."""
    n = len(dims)
    t = np.asarray(m).reshape(tuple(dims) * 2)
    keep = sorted(keep)
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = [letters[k] for k in range(n)]
    col = [letters[n + k] if k in keep else letters[k] for k in range(n)]
    out = [letters[k] for k in keep] + [letters[n + k] for k in keep]
    reduced = np.einsum("".join(row + col) + "->" + "".join(out), t)
    d = int(np.prod([dims[k] for k in keep]))
    return reduced.reshape(d, d)


def entropy(m) -> float:
    p = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    p = p[p > 1e-300]
    return float(-np.sum(p * np.log(p)))


def shannon(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def rel_entropy(rho, sigma) -> float:
    """S(rho||sigma) for a full-rank sigma."""
    q, qv = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
    log_s = (qv * np.log(q)) @ qv.conj().T
    return float(-entropy(rho) - np.real(np.trace(rho @ log_s)))


def trace_distance(a, b) -> float:
    diff = (a - b + (a - b).conj().T) / 2.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def gibbs(energies, beta):
    w = np.exp(-beta * (np.asarray(energies, dtype=float) - np.min(energies)))
    return w / w.sum()


def state_errors(label, m, tol=1e-9):
    """Trace one, Hermitian and positive semidefinite."""
    out = []
    if not np.all(np.isfinite(m)):
        return [f"{label}: non-finite entries"]
    if abs(np.trace(m) - 1.0) > tol:
        out.append(f"{label}: trace {np.trace(m):.3e} != 1")
    if np.abs(m - m.conj().T).max() > tol:
        out.append(f"{label}: not Hermitian")
    low = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
    if low < -tol:
        out.append(f"{label}: negative eigenvalue {low:.3e}")
    return out


# ---------------------------------------------------------------------------
# Lindblad generators, assembled from the action on basis matrices
# ---------------------------------------------------------------------------


def destroy(n):
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


def lindblad_action(rho, h, terms):
    """-i[H, rho] + sum c (F rho G^dag - {G^dag F, rho}/2) for terms (c, F, G).

    A plain jump L at rate g is the term (g, L, L); the anomalous terms of
    a squeezed bath pair different operators F != G.
    """
    out = -1j * (h @ rho - rho @ h)
    for c, f, g in terms:
        gd_f = g.conj().T @ f
        out = out + c * (f @ rho @ g.conj().T - 0.5 * (gd_f @ rho + rho @ gd_f))
    return out


def lindblad_superop(h, terms):
    """Column-stacking matrix of ``lindblad_action``, column by column."""
    d = h.shape[0]
    out = np.empty((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            out[:, j * d + i] = lindblad_action(e, h, terms).flatten(order="F")
    return out


def kerr_terms(delta, u_kerr, drive, kappa, n_scale, cut):
    a = destroy(cut)
    ad = a.conj().T
    h = (delta * ad @ a + 0.5 * (u_kerr / n_scale) * ad @ ad @ a @ a
         + 1j * drive * math.sqrt(n_scale) * (ad - a))
    return h, [(kappa, a, a)]


def squeezed_bath_terms(gamma, nbar, r, theta, cut, omega=0.0):
    """Squeezed thermal bath, textbook form with N, M the bath moments."""
    n_eff = (nbar + 0.5) * math.cosh(2 * r) - 0.5
    m_eff = (nbar + 0.5) * complex(math.cos(theta), math.sin(theta)) * math.sinh(2 * r)
    a = destroy(cut)
    ad = a.conj().T
    terms = [(gamma * (n_eff + 1.0), a, a), (gamma * n_eff, ad, ad),
             (-gamma * np.conj(m_eff), a, ad), (-gamma * m_eff, ad, a)]
    return omega * ad @ a, terms, n_eff, m_eff


def thermal_oscillator_terms(omega, gamma, nbar, cut):
    a = destroy(cut)
    ad = a.conj().T
    return omega * ad @ a, [(gamma * (nbar + 1.0), a, a), (gamma * nbar, ad, ad)]


def steady_state_direct(h, terms):
    """Null vector of the generator by a solve with the trace as one row."""
    d = h.shape[0]
    sup = lindblad_superop(h, terms)
    rows = sup.copy()
    rows[0, :] = np.eye(d).flatten(order="F")
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    m = np.linalg.solve(rows, rhs).reshape(d, d, order="F")
    return (m + m.conj().T) / 2.0


def check_steady_state(label, rho, h, terms, tol=1e-7):
    """Trace one, PSD and annihilated by the generator built here."""
    out = state_errors(label, rho)
    if out:
        return out
    scale = max(1.0, float(np.abs(h).max()), max(abs(c) for c, _, _ in terms))
    resid = float(np.abs(lindblad_action(rho, h, terms)).max()) / scale
    if resid > tol:
        out.append(f"{label}: generator residual {resid:.3e} > {tol}")
    return out


def check_close(label, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not math.isfinite(err) or err > tol:
        return [f"{label}: deviation {err:.3e} > {tol}"]
    return []


def check_integration(label, states, rho0, t_grid, h, terms, tol=1e-8):
    """Each state equals expm(L t) applied to rho0."""
    sup = lindblad_superop(h, terms)
    v0 = np.asarray(rho0).flatten(order="F")
    d = rho0.shape[0]
    out = []
    if len(states) != len(t_grid):
        return [f"{label}: {len(states)} states for {len(t_grid)} times"]
    for t, m in zip(t_grid, states):
        want = (scipy.linalg.expm(sup * t) @ v0).reshape(d, d, order="F")
        out += check_close(f"{label} t={t:g}", m, want, tol)
    return out


def kerr_bistable_window(delta, kappa):
    """Drive range of the semiclassical S-curve between its turning points.

    n [(delta + n)^2 + kappa^2/4] = eps^2 (scaled units) has three roots
    for eps between the values at the two stationary points in n.
    """
    roots = np.roots([3.0, 4.0 * delta, delta ** 2 + kappa ** 2 / 4.0])
    roots = np.sort(np.real(roots[np.isreal(roots)]))
    eps = [math.sqrt(n * ((delta + n) ** 2 + kappa ** 2 / 4.0)) for n in roots]
    return min(eps), max(eps)


def check_gap_minimum(drives, gaps, delta, kappa):
    """The gap has an interior minimum that lies in the bistable window."""
    lo, hi = kerr_bistable_window(delta, kappa)
    k = int(np.argmin(gaps))
    if not 0 < k < len(gaps) - 1:
        return [f"kerr gap minimum at the edge of the drive grid (index {k})"]
    if not lo < drives[k] < hi:
        return [f"kerr gap minimum at drive {drives[k]:.3f} outside ({lo:.3f}, {hi:.3f})"]
    return []


def liouvillian_gap(h, terms, null_tol=1e-8):
    vals = scipy.linalg.eigvals(lindblad_superop(h, terms))
    scale = max(1.0, float(np.abs(vals).max()))
    nonzero = vals[np.abs(vals) > null_tol * scale]
    return float(np.min(-np.real(nonzero)))


# ---------------------------------------------------------------------------
# Competing-reservoir Glauber-Ising ring
# ---------------------------------------------------------------------------


def ising_parts(n_sites, coupling, temperature, mu_a, mu_b):
    """Per-reservoir generators of the ring, vectorized over states."""
    d = 1 << n_sites
    states = np.arange(d)
    spins = 2.0 * ((states[:, None] >> np.arange(n_sites)) & 1) - 1.0
    local = coupling * (np.roll(spins, 1, axis=1) + np.roll(spins, -1, axis=1))
    parts = []
    for mu in (mu_a, mu_b):
        w = np.zeros((d, d))
        rates = 0.5 * (1.0 - spins * np.tanh((local + mu / 2.0) / temperature))
        for site in range(n_sites):
            w[states ^ (1 << site), states] += rates[:, site]
        w[states, states] = -w.sum(axis=0)
        parts.append(w)
    return parts


def reservoir_sigma(parts, p):
    """Sum over reservoirs of 1/2 sum_ij (w_ij p_j - w_ji p_i) ln(w_ij p_j / w_ji p_i)."""
    total = 0.0
    for w in parts:
        off = w - np.diag(np.diag(w))
        flow = off * p[None, :]
        mask = flow > 0
        total += 0.5 * float(np.sum((flow - flow.T)[mask] * np.log(flow[mask] / flow.T[mask])))
    return total


def check_ising(label, w_program, p, sigma, parts, mu_a, mu_b, tol=1e-9):
    """The program's generator matches ours, W p = 0 on a probability
    vector, and sigma is our per-reservoir value: > 0 iff mu_a != mu_b."""
    w = sum(parts)
    out = check_close(f"{label} generator", w_program, w, 1e-12)
    p = np.asarray(p, dtype=float)
    if p.min() < 0.0 or abs(p.sum() - 1.0) > 1e-12:
        out.append(f"{label}: not a probability vector")
    resid = float(np.abs(w @ p).max())
    if resid > tol:
        out.append(f"{label}: |W p| = {resid:.3e}")
    want = reservoir_sigma(parts, p)
    if abs(sigma - want) > tol * max(1.0, abs(want)):
        out.append(f"{label}: sigma {sigma:.12g} != {want:.12g}")
    if mu_a != mu_b and not sigma > 1e-6:
        out.append(f"{label}: sigma {sigma:.3e} not positive at mu_a != mu_b")
    if mu_a == mu_b and abs(sigma) > 1e-10:
        out.append(f"{label}: sigma {sigma:.3e} not zero at mu_a == mu_b")
    return out


# ---------------------------------------------------------------------------
# Episodes and trajectory ensembles
# ---------------------------------------------------------------------------


def episode_reference(h_s, h_e_parts, betas, u, rho_s, rho_e, env_dims):
    """Entropy balance of one episode from first principles.

    Returns a dict with sigma = I(S:E') + S(rho_E'||rho_E), the Clausius
    form dS + sum_i beta_i Q_i (baths are the tensor factors of E), the
    mutual information and the final marginals.
    """
    ds = rho_s.shape[0]
    dims = (ds,) + tuple(env_dims)
    n = len(dims)
    joint0 = np.kron(rho_s, rho_e)
    joint = u @ joint0 @ u.conj().T
    rs1 = ptrace(joint, dims, [0])
    re1 = ptrace(joint, dims, list(range(1, n)))
    mi = entropy(rs1) + entropy(re1) - entropy(joint)
    disp = rel_entropy(re1, rho_e)
    d_s = entropy(rs1) - entropy(rho_s)
    clausius = d_s
    for k, (h_k, beta) in enumerate(zip(h_e_parts, betas)):
        heat = h_k @ (ptrace(joint, dims, [k + 1]) - ptrace(joint0, dims, [k + 1]))
        clausius += beta * float(np.real(np.trace(heat)))
    return {"sigma": mi + disp, "clausius": clausius, "mi": mi, "disp": disp,
            "d_s": d_s, "joint": joint, "rho_s1": rs1, "rho_e1": re1}


def backward_targets(ref, rho_s):
    """Averages of the four backward choices (the fluctuation-theorem table)."""
    _, vs = np.linalg.eigh(ref["rho_s1"])
    _, ve = np.linalg.eigh(ref["rho_e1"])
    basis = np.kron(vs, ve)
    diag = np.real(np.einsum("im,ij,jm->m", basis.conj(), ref["joint"], basis))
    return {
        "bath_reset": ref["sigma"],
        "correlations_destroyed": ref["mi"],
        "post_measurement_state": shannon(np.clip(diag, 0.0, None)) - entropy(ref["joint"]),
        "both_reset": ref["mi"] + rel_entropy(ref["rho_s1"], rho_s) + ref["disp"],
    }


def check_balance(label, sigma, ref, tol=1e-10):
    """Sigma >= 0 and Sigma equals both I + D and dS + sum beta Q."""
    out = []
    if not sigma >= -tol:
        out.append(f"{label}: sigma {sigma:.3e} < 0")
    if abs(sigma - ref["sigma"]) > tol:
        out.append(f"{label}: sigma {sigma:.15g} != I + D = {ref['sigma']:.15g}")
    if abs(ref["clausius"] - ref["sigma"]) > tol:
        out.append(f"{label}: dS + beta Q = {ref['clausius']:.15g} != I + D")
    return out


def check_ensemble(label, average_sigma, integral_ft, target, tol=1e-10):
    out = []
    if abs(average_sigma - target) > tol:
        out.append(f"{label}: <sigma> = {average_sigma:.15g} != {target:.15g}")
    if abs(integral_ft - 1.0) > tol:
        out.append(f"{label}: <e^-sigma> = {integral_ft:.15g} != 1")
    return out


def check_records(records):
    """Every record of a verify suite passed."""
    return [f"verify record failed: {name} ({detail})"
            for name, passed, detail in records if not passed]


def check_two_mode(label, cov, n_a, n_b, entropy_rate, drift, diffusion,
                   kappa_a, gamma_b, n_tb, tol=1e-9):
    """Steady covariance solves A X + X A^T = 2 D and Pi follows from it."""
    want = scipy.linalg.solve_continuous_lyapunov(drift, 2.0 * diffusion)
    out = check_close(f"{label} covariance", cov, want, tol)
    na = 0.5 * (want[0, 0] + want[1, 1] - 1.0)
    nb = 0.5 * (want[2, 2] + want[3, 3] - 1.0)
    pi = 4.0 * kappa_a * na + 2.0 * gamma_b * ((nb + 0.5) / (n_tb + 0.5) - 1.0)
    out += check_close(f"{label} occupations", [n_a, n_b], [na, nb], tol)
    if abs(entropy_rate - pi) > tol * max(1.0, abs(pi)) or not pi > 0.0:
        out.append(f"{label}: Pi = {entropy_rate:.12g}, expected {pi:.12g} > 0")
    return out


# ---------------------------------------------------------------------------
# Collisional channels
# ---------------------------------------------------------------------------


def stroke_superop(u, rho_anc, d):
    """Column-stacking matrix of rho -> Tr_A U (rho x rho_A) U^dag from the
    Kraus operators K_{mu nu} = sqrt(q_nu) <mu|U|nu> of the ancilla."""
    q, vecs = np.linalg.eigh(rho_anc)
    da = rho_anc.shape[0]
    u4 = u.reshape(d, da, d, da)
    sup = np.zeros((d * d, d * d), dtype=complex)
    for nu in range(da):
        if q[nu] <= 0.0:
            continue
        for mu in range(da):
            k = math.sqrt(q[nu]) * np.einsum(
                "a,iajb,b->ij", vecs[:, mu].conj(), u4, vecs[:, nu])
            sup += np.kron(k.conj(), k)
    return sup


def alphabet_superop(strokes, d):
    """One pass over the alphabet: strokes are (U, rho_ancilla) pairs."""
    sup = np.eye(d * d, dtype=complex)
    for u, rho_anc in strokes:
        sup = stroke_superop(u, rho_anc, d) @ sup
    return sup


def apply_superop(sup, rho):
    d = rho.shape[0]
    return (sup @ rho.flatten(order="F")).reshape(d, d, order="F")


def channel_fixed_point(sup, d):
    """Eigenvalue-1 vector of the channel, as a unit-trace Hermitian matrix."""
    _, _, vh = np.linalg.svd(sup - np.eye(d * d))
    m = vh[-1].conj().reshape(d, d, order="F")
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m)


def check_fixed_point(label, rho, sup, pass_tol, want=None, single_mode=False,
                      match_tol=1e-8):
    """A fixed point found exactly, or by iteration stopped at the first
    pass that moved the state by less than ``pass_tol``.

    The state must equal the channel's eigenvalue-1 vector (``want`` when
    given) to ``match_tol``, and one more pass must move it by less than
    ``pass_tol``.  With ``single_mode`` the search's deviation decays along
    one real mode (qubit populations under thermal exchange, started from
    a diagonal state), so each pass shrinks the distance to the fixed point
    by the same factor lam = 1 - step/distance: the state such a search
    returns then moves by less than lam * pass_tol on the next pass, while
    the state one pass earlier moves by at least that much.
    """
    d = rho.shape[0]
    out = state_errors(label, rho)
    step = trace_distance(apply_superop(sup, rho), rho)
    if not step < pass_tol:
        out.append(f"{label}: one more pass moves the cycle by {step:.3e} >= {pass_tol:g}")
    ref = channel_fixed_point(sup, d) if want is None else want
    dist = trace_distance(rho, ref)
    if not dist < match_tol:
        out.append(f"{label}: {dist:.3e} from the channel fixed point")
    elif single_mode and dist > 1e-3 * pass_tol and not step < (1.0 - step / dist) * pass_tol:
        out.append(f"{label}: stopped early (next pass moves it by {step:.3e}, "
                   f"contraction {1.0 - step / dist:.4f})")
    return out


def check_first_law(label, residuals, tol=1e-12):
    worst = max((abs(r) for r in residuals), default=0.0)
    return [] if worst <= tol else [f"{label}: first-law residual {worst:.3e}"]


def check_stroke_states(label, states, rho0, sups):
    """Each stroke state equals our channel applied to the previous one."""
    rho = rho0
    worst = 0.0
    for n, m in enumerate(states[1:]):
        rho = apply_superop(sups[n % len(sups)], rho)
        worst = max(worst, float(np.abs(m - rho).max()))
    return [] if worst <= 1e-10 else [f"{label}: stroke states off by {worst:.3e}"]


# ---------------------------------------------------------------------------
# Sampled measurement trajectories
# ---------------------------------------------------------------------------


def measurement_marginals(psi0, bases, unitaries):
    """Exact first and last record distributions p_0 and p_n."""
    p0 = np.abs(bases[0].conj().T @ psi0) ** 2
    p = p0
    for b_prev, u, b_next in zip(bases[:-1], unitaries, bases[1:]):
        p = (np.abs(b_next.conj().T @ u @ b_prev) ** 2) @ p
    return p0, p


# Statistical checks use this many standard errors.  An iterated-maps run at
# --seconds 20 makes 4 rounds, each with one sampled operation checked twice
# (<e^-sigma> and <sigma>): 8 checks a run.  An evaluation as the README
# reports it, two sets of ten runs and two traced runs, makes 22 x 8 = 176 on
# distinct samples.  At 3 SE (0.27 % two-sided each) a correct sampler would
# fail one of them in about 38 % of evaluations; at 5 SE (5.7e-7 each) in
# about one in 10 000.
N_STANDARD_ERRORS = 5.0


def check_sampled(label, values, probabilities, n_samples, p0, pn):
    """<e^-sigma> = 1 and <sigma> = S(p_n) - S(p_0) within the sampling error."""
    values = np.asarray(values, dtype=float)
    w = np.asarray(probabilities, dtype=float)
    out = []
    if abs(w.sum() - 1.0) > 1e-9:
        return [f"{label}: sample weights sum to {w.sum()}"]
    for name, x, want in (("<e^-sigma>", np.exp(-values), 1.0),
                          ("<sigma>", values, shannon(pn) - shannon(p0))):
        mean = float(np.sum(w * x))
        se = math.sqrt(max(float(np.sum(w * (x - mean) ** 2)), 1e-300) / n_samples)
        if not abs(mean - want) <= N_STANDARD_ERRORS * se:
            out.append(f"{label}: {name} = {mean:.6g}, expected {want:.6g} "
                       f"(standard error {se:.2e})")
    return out
