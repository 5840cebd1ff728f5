"""Planted defects: each case breaks one step of one route and a named
record of a `verify` suite must then fail.  Four break the
thermo-majorization curves or the gamma-embedding, which the record
"majorization curve == embedding verdict" compares; one flips the sign of
the entropy flux in `EpisodeStack.balance`, which the route-equality record
"route flux == beta Q_E" compares with beta times the heat; one gives the
joint state made in `EpisodeStack.evolved` the weights p_n p_n for p_n q_nu,
which the route-equality record "route dS + beta Q == I + D" compares with
the Clausius form; one leaves the eigenvectors of a state made from its
known spectrum (`core._exact_spectra`, so every `thermal_state`) in the order
of its levels while its weights are sorted, which a stack of such states then
reads as kept, and the same record compares with the Clausius form.  Three
read the complex eigenvectors and Hamiltonians of the route-equality suite:
the one divergence kernel (`core._petz_renyi`) forming its overlaps without
the `.conj()` of the reference eigenvectors, which moves the divergence of a
bath part's marginal in `multibath_balance_rows` and both divergences of
`fixed_point_sigma_rows`, so the multibath record "Sigma == T + sum_k D" and
the fixed-point record each compare it with the information route, and
`_trace_rows` as Tr(a b^T), which the complex bath Hamiltonians H_k of the
multibath record "Sigma == I + D" expose in the heats.  Two break the
fluctuation-theorem table: `EpisodeStack.evolved` conjugating by U^dag . U
moves every ensemble average off its table entry, and the transition tensor
read without the `.conj()` of the final bases breaks the exchange form.  The
finite-dimension erasure bound with its correction halved satisfies every
inequality of the landauer suite, so the record "landauer finite-d bound
closed form" compares it with the Reeb-Wolf bound written out there.  The
Gibbs erasure bound read as <E>_T', without subtracting <E>_T, rises above
the heat of the erasures, which the record "landauer heat-capacity bound
dominates" compares with it.  The hot flux of `four_stroke` taken with the
cold stroke's dS_S moves the net flux off the net production, which the
swap-engine record "swap closed forms == four-stroke cycle" compares with
the closed-form Sigma.  The Kerr drive read without its sqrt(N) scaling
moves the gap minimum to an end of the drive grid, which the liouvillian
record "kerr gap local minimum off the drive grid ends" reads.  The
closed-form eigenvectors of a 2 x 2 stack with the phase conj(b)/|b| move
D(rho_A' || rho_A) of a 40-stroke chain whose rotated ancillas give rho_A'
complex eigenvectors, which the swap-engine record "stroke chain
Sigma_general == dS_S + beta Q_A" compares with the Clausius form."""

import inspect
import textwrap

import numpy as np
import pytest

from entroprod import (collisional as cm, core, episodes as eps, lindblad as lb, resource as rs,
                       trajectories as tj, verify)

EMBEDDING = "majorization", "majorization curve == embedding verdict"
FLUX = "route-equality", "route flux == beta Q_E"
CLAUSIUS = "route-equality", "route dS + beta Q == I + D"
FIXED_POINT = "route-equality", "route fixed-point == I + D (thermal ops)"
MULTIBATH = "route-equality", "multibath Sigma == I + D"
MULTIBATH_PARTS = "route-equality", "multibath Sigma == T + sum_k D(rho_Ek' || rho_Ek)"
FT_AVERAGE = "ft-table", "ft-table correlations_destroyed average"
FT_EXCHANGE = "ft-table", "ft-table exchange form (both reset, conserving)"
FINITE_DIM = "landauer", "landauer finite-d bound closed form"
CAPACITY = "landauer", "landauer heat-capacity bound dominates"
FOUR_STROKE = "swap-engine", "swap closed forms == four-stroke cycle"
KERR = "liouvillian", "kerr gap local minimum off the drive grid ends"
STROKE_CHAIN = "swap-engine", "stroke chain Sigma_general == dS_S + beta Q_A"


def record(suite, name):
    (found,) = [r for r in verify.run_suite(suite) if r.name == name]
    return found


def mutant(fn, old, new):
    """fn recompiled in its module's namespace with the one occurrence of
    `old` in its source replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, (fn.__name__, old)
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


def negated_beta(monkeypatch):
    beta_order = rs._beta_order
    monkeypatch.setattr(rs, "_beta_order",
                        lambda e, p, beta: beta_order(e, p, -np.asarray(beta)))


def step_curves(monkeypatch):
    # each curve read as its value at the last breakpoint left of a point
    monkeypatch.setattr(rs, "_interp_rows",
                        mutant(rs._interp_rows, "slope * (points - xj) + yj", "yj"))


def reversed_weights(monkeypatch):
    rounding = rs._largest_remainder_rounding
    monkeypatch.setattr(rs, "_largest_remainder_rounding",
                        lambda weights, d: rounding(np.asarray(weights)[..., ::-1], d))


def ascending_runs(monkeypatch):
    monkeypatch.setattr(rs, "_run_verdicts",
                        mutant(rs._run_verdicts, "np.argsort(-v,", "np.argsort(v,"))


def flipped_flux(monkeypatch):
    # Tr{(rho_E' - rho_E) ln rho_E} in place of Tr{(rho_E - rho_E') ln rho_E}
    balance = mutant(eps.EpisodeStack.balance.func, "_trace_rows(m_env0 - m_env,",
                     "_trace_rows(m_env - m_env0,")
    balance.__set_name__(eps.EpisodeStack, "balance")
    monkeypatch.setattr(eps.EpisodeStack, "balance", balance)


def system_weights_twice(monkeypatch):
    # rho_SE' made with the weights p_n p_n in place of p_n q_nu
    evolved = mutant(eps.EpisodeStack.evolved.func, "self.initial_weights.reshape(",
                     "(self.rho_system.weights[..., :, None]"
                     " * self.rho_system.weights[..., None, :]).reshape(")
    evolved.__set_name__(eps.EpisodeStack, "evolved")
    monkeypatch.setattr(eps.EpisodeStack, "evolved", evolved)


def unpermuted_vectors(monkeypatch):
    # the sorted weights of a known spectrum paired with its unsorted eigenvectors
    sorted_vecs = "vecs[rows[..., None], np.arange(order.shape[-1])[:, None], order[:, None, :]]"
    monkeypatch.setattr(core, "_ascending", mutant(core._ascending, sorted_vecs, "vecs"))


def unconjugated_kernel(monkeypatch):
    # the overlaps <sigma_j|rho_i> against V_sigma^T, not V_sigma^dag, in the one divergence
    # kernel, as every module that imports it reads it
    kernel = mutant(core._petz_renyi, "qv.conj().swapaxes", "qv.swapaxes")
    for module in (core, eps, lb, rs, tj, verify):
        monkeypatch.setattr(module, "_petz_renyi", kernel)


def transposed_trace(monkeypatch):
    # Re Tr(a b^T) in place of Re Tr(a b)
    monkeypatch.setattr(eps, "_trace_rows",
                        mutant(eps._trace_rows, '"...ij,...ji->..."', '"...ij,...ij->..."'))


def inverse_conjugation(monkeypatch):
    # rho_SE' = U^dag (rho_S x rho_E) U in place of U (rho_S x rho_E) U^dag
    product = "tensor([rs.matrices, re.matrices])"
    evolved = mutant(eps.EpisodeStack.evolved.func, f"u @ {product} @ u.conj().swapaxes(-1, -2)",
                     f"u.conj().swapaxes(-1, -2) @ {product} @ u")
    evolved.__set_name__(eps.EpisodeStack, "evolved")
    monkeypatch.setattr(eps.EpisodeStack, "evolved", evolved)


def transitions_unconjugated(monkeypatch):
    # |<m mu|^T U|n nu>|^2, the final bases transposed, not conjugate-transposed
    monkeypatch.setattr(eps, "_transition_tensor",
                        mutant(eps._transition_tensor, "tensor([basis_s, basis_e]).conj()",
                               "tensor([basis_s, basis_e])"))


def halved_correction(monkeypatch):
    # Q_E >= -T dS + T dS^2 / (4 + ln^2(d_E - 1)), half the Reeb-Wolf correction
    monkeypatch.setattr(eps, "finite_dimension_bound",
                        mutant(eps.finite_dimension_bound, "corr = 2.0 *", "corr = 1.0 *"))


def heat_without_the_initial_energy(monkeypatch):
    # Q(T') = <E>_T' in place of <E>_T' - <E>_T in the Gibbs erasure bound
    monkeypatch.setattr(eps, "_gibbs_erasure_rows",
                        mutant(eps._gibbs_erasure_rows, ")[1] - e0", ")[1]"))


def flux_of_the_other_stroke(monkeypatch):
    # Phi_hot = Sigma_hot - dS_S of the cold stroke, not of the hot one, in four_stroke
    monkeypatch.setattr(cm, "four_stroke", mutant(cm.four_stroke, "hot.sigma_general - (s1 - s0)",
                                                  "hot.sigma_general - (s2 - s1)"))


def unscaled_drive(monkeypatch):
    # eps in place of eps sqrt(N) in the Kerr model's thermodynamic-limit scaling
    monkeypatch.setattr(lb, "kerr_model", mutant(lb.kerr_model, "drive * math.sqrt(n_scale)",
                                                 "drive"))


def conjugated_phase(monkeypatch):
    # the closed-form eigenvectors of a 2 x 2 stack with the phase conj(b)/|b| for b/|b|
    monkeypatch.setattr(core, "_eigh2", mutant(core._eigh2, "phase.conj() * np.sin",
                                               "phase * np.sin"))


DEFECTS = {
    "curve: beta -> -beta in the beta-order": (negated_beta, EMBEDDING),
    "curve: interpolation without the chord": (step_curves, EMBEDDING),
    "embedding: rounding of reversed weights": (reversed_weights, EMBEDDING),
    "embedding: runs in ascending order": (ascending_runs, EMBEDDING),
    "flux sign flipped in EpisodeStack.balance": (flipped_flux, FLUX),
    "joint weights p_n p_n in EpisodeStack.evolved": (system_weights_twice, CLAUSIUS),
    "known weights sorted without their eigenvectors": (unpermuted_vectors, CLAUSIUS),
    "bath part divergence without .conj() in multibath_balance_rows":
        (unconjugated_kernel, MULTIBATH_PARTS),
    "fixed-point divergences without .conj()": (unconjugated_kernel, FIXED_POINT),
    "_trace_rows as Tr(a b^T)": (transposed_trace, MULTIBATH),
    "EpisodeStack.evolved conjugating by U^dag . U": (inverse_conjugation, FT_AVERAGE),
    "transition tensor without .conj()": (transitions_unconjugated, FT_EXCHANGE),
    "finite-dimension correction halved": (halved_correction, FINITE_DIM),
    "Gibbs erasure heat without <E>_T": (heat_without_the_initial_energy, CAPACITY),
    "four-stroke hot flux with the cold stroke's dS_S": (flux_of_the_other_stroke, FOUR_STROKE),
    "Kerr drive without its sqrt(N) scaling": (unscaled_drive, KERR),
    "closed-form eigenvector phase conj(b)/|b|": (conjugated_phase, STROKE_CHAIN),
}


def test_the_record_passes_without_a_defect(liouvillian_run):
    found = record(*EMBEDDING)
    assert (found.passed, found.value, found.op, found.bound) == (True, 50, "==", 50)
    for name in (FLUX, CLAUSIUS, FIXED_POINT, MULTIBATH, MULTIBATH_PARTS, FT_AVERAGE,
                 FT_EXCHANGE, FINITE_DIM, CAPACITY, FOUR_STROKE, STROKE_CHAIN):
        assert record(*name).passed
    # the liouvillian suite's one defect-free run is shared with acceptance criterion 10
    (kerr,) = [r for r in liouvillian_run[0] if r.name == KERR[1]]
    assert kerr.passed


@pytest.mark.parametrize("plant, suite_record", DEFECTS.values(), ids=DEFECTS.keys())
def test_each_planted_defect_fails_the_record(monkeypatch, plant, suite_record):
    plant(monkeypatch)
    found = record(*suite_record)
    assert not found.passed, found
