import dataclasses
import json
import math

import numpy as np
import pytest

from entroprod import core, episodes as eps, trajectories as tj
from entroprod.core import (
    DensityOperator,
    HermitianOperator,
    HilbertDims,
    PAULI_X,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    UnitaryOperator,
    hermitian_function,
    thermal_state,
    trace_distance,
)
from entroprod.rand import random_density, random_hermitian, random_unitary

RNG = np.random.default_rng(2024)


def exchange_unitary(g, dims=(2, 2)):
    v = g * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
    return UnitaryOperator.from_matrix(hermitian_function(v, lambda x: np.exp(-1j * x)), dims)


def random_episode(rng, beta=1.2, thermal_env=True):
    hs = HermitianOperator.from_matrix(rng.normal() * PAULI_Z + rng.normal() * PAULI_X)
    he = HermitianOperator.from_matrix((0.5 + rng.random()) * PAULI_Z)
    rho_e = thermal_state(he, beta) if thermal_env else random_density(2, rng)
    return eps.Episode(hs, he, random_unitary(4, rng, dims=(2, 2)),
                       random_density(2, rng), rho_e)


SWAP4 = np.zeros((4, 4), dtype=complex)
for _i in range(2):
    for _j in range(2):
        SWAP4[_j * 2 + _i, _i * 2 + _j] = 1.0


def test_evolve_identity_and_swap():
    ep = random_episode(RNG)
    ident = eps.Episode(ep.h_system, ep.h_env,
                        UnitaryOperator.from_matrix(np.eye(4), (2, 2)),
                        ep.rho_system, ep.rho_env)
    ev = eps.evolve(ident)
    assert trace_distance(ev.rho_system, ep.rho_system) < 1e-12
    assert trace_distance(ev.rho_env, ep.rho_env) < 1e-12
    swap_ep = eps.Episode(ep.h_system, ep.h_env,
                          UnitaryOperator.from_matrix(SWAP4, (2, 2)),
                          ep.rho_system, ep.rho_env)
    ev_swap = eps.evolve(swap_ep)
    assert trace_distance(ev_swap.rho_system, ep.rho_env) < 1e-12
    assert trace_distance(ev_swap.rho_env, ep.rho_system) < 1e-12


def test_evolve_preserves_joint_entropy():
    ep = random_episode(RNG, thermal_env=False)
    ev = eps.evolve(ep)
    joint = core.von_neumann_entropy(ev.rho_joint)
    local = (core.von_neumann_entropy(ep.rho_system)
             + core.von_neumann_entropy(ep.rho_env))
    assert abs(joint - local) < 1e-10


def test_balance_identity_unitary_zero():
    ep = random_episode(RNG)
    ident = eps.Episode(ep.h_system, ep.h_env,
                        UnitaryOperator.from_matrix(np.eye(4), (2, 2)),
                        ep.rho_system, ep.rho_env)
    bal = eps.balance(ident)
    assert abs(bal.sigma) < 1e-10
    assert abs(bal.flux) < 1e-10


def test_balance_partial_swap_nonnegative_and_asymmetric_form():
    ep = eps.Episode(
        HermitianOperator.from_matrix(0.8 * np.diag([0.0, 1.0])),
        HermitianOperator.from_matrix(0.8 * np.diag([0.0, 1.0])),
        exchange_unitary(0.6),
        random_density(2, RNG),
        thermal_state(0.8 * np.diag([0.0, 1.0]), 1.5),
    )
    ev = eps.evolve(ep)
    bal = eps.balance(ep, ev)
    assert bal.sigma >= -1e-12
    asym = core.relative_entropy(ev.rho_joint,
                                 core.tensor([ev.rho_system, ep.rho_env]))
    assert abs(bal.sigma - asym) < 1e-10


def test_balance_splits_consistent():
    for _ in range(5):
        ep = random_episode(RNG, thermal_env=False)
        bal = eps.balance(ep)
        assert abs(bal.sigma - (bal.mutual_info + bal.env_displacement)) < 1e-12
        assert abs(bal.sigma - (bal.d_entropy_system + bal.flux)) < 1e-10


def test_balance_pure_environment_reports_infinity():
    hs = HermitianOperator.from_matrix(PAULI_Z)
    he = HermitianOperator.from_matrix(PAULI_Z)
    ep = eps.Episode(hs, he, random_unitary(4, RNG, dims=(2, 2)),
                     random_density(2, RNG), DensityOperator.pure([1, 0]))
    bal = eps.balance(ep)
    assert math.isinf(bal.sigma)
    assert math.isinf(bal.flux)
    assert math.isfinite(bal.mutual_info)


def test_a_cold_swap_reads_one_sigma_through_both_apis(monkeypatch, count_spectral):
    # I/2 swapped with a qubit Gibbs at beta omega = 40, whose weight e^-40 is
    # below the eigensolver round-off cut: Sigma = dS_S + beta Q_E =
    # 20 - ln 2 + ln(1 + e^-40).  The states enter the stack with the spectra
    # they keep, so the stack takes no eigh for them and reads no cut weight.
    h, beta = np.diag([0.0, 1.0]), 40.0
    rho_s, rho_e = DensityOperator.maximally_mixed(2), thermal_state(h, beta)
    calls = []
    count_spectral(lambda kind, m: calls.append(kind))
    stack = eps.EpisodeStack.of(h[None], h[None], SWAP4[None], [rho_s], [rho_e])
    assert calls == []
    monkeypatch.undo()
    one = eps.Episode(*[HermitianOperator.from_matrix(h)] * 2,
                      UnitaryOperator.from_matrix(SWAP4, (2, 2)), rho_s, rho_e)
    exact = 20.0 - math.log(2.0) + math.log1p(math.exp(-beta))
    for sigma in (stack.balance.sigma[0], eps.thermal_balance_rows(stack, beta).sigma[0],
                  eps.balance(one).sigma, eps.thermal_balance(one, beta).sigma):
        assert sigma == pytest.approx(exact, rel=1e-13)


def test_a_stack_reads_the_factor_dims_of_its_states():
    # thermal rows of a (2, 2)-dims H_E bring their dims into the stack: the
    # marginal on E qubit 0 is that qubit's 2x2 state, and a bath of two
    # parts covers the two E factors
    h1, h2 = np.diag([0.0, 1.0]), 0.7 * PAULI_X + 0.3 * PAULI_Z
    h_e = np.kron(h1, np.eye(2)) + np.kron(np.eye(2), h2)
    betas = np.array([0.5, 2.0])
    rho_e = [thermal_state(HermitianOperator.from_matrix(h_e, (2, 2)), b) for b in betas]
    u, rho_s = random_unitary(8, RNG).matrix, random_density(2, RNG)
    stack = eps.EpisodeStack.of([h1, h1], [h_e, h_e], [u, u], [rho_s, rho_s], rho_e)
    assert stack.rho_system.dims.factors == (2,) and stack.rho_env.dims.factors == (2, 2)
    marginal = stack.env_marginal([0]).matrices
    assert marginal.shape == (2, 2, 2)
    assert np.allclose(marginal, [core.partial_trace(r, [0]).matrix for r in rho_e], atol=1e-15)
    parts = [eps.BathPart((0,), h1, betas), eps.BathPart((1,), h2, betas)]
    rows = eps.multibath_balance_rows(stack, parts)
    assert rows.sigma == pytest.approx(stack.balance.sigma, abs=1e-12)


def test_thermal_balance_routes():
    beta = 1.2
    ep = random_episode(RNG, beta=beta)
    bal = eps.balance(ep)
    tb = eps.thermal_balance(ep, beta)
    assert abs(tb.sigma - bal.sigma) < 1e-10
    assert abs(tb.sigma - (tb.d_entropy_system + beta * tb.heat_env)) < 1e-12
    assert abs(tb.sigma - beta * (tb.work - tb.d_free_energy)) < 1e-10


def test_thermal_balance_identity_and_strict_conservation():
    beta = 0.9
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    ident = eps.Episode(h, h, UnitaryOperator.from_matrix(np.eye(4), (2, 2)),
                        random_density(2, RNG), thermal_state(h, beta))
    tb = eps.thermal_balance(ident, beta)
    assert abs(tb.heat_env) < 1e-12 and abs(tb.work) < 1e-12
    conserving = eps.Episode(h, h, exchange_unitary(0.8),
                             random_density(2, RNG), thermal_state(h, beta))
    tb2 = eps.thermal_balance(conserving, beta)
    assert abs(tb2.work) < 1e-10


def test_thermal_balance_rejects_nonthermal():
    ep = random_episode(RNG, thermal_env=False)
    with pytest.raises(eps.EpisodeError):
        eps.thermal_balance(ep, 1.0)


def test_multibath_reduces_to_thermal():
    beta = 1.1
    ep = random_episode(RNG, beta=beta)
    part = eps.BathPart((0,), ep.h_env, beta)
    mb = eps.multibath_balance(ep, [part])
    tb = eps.thermal_balance(ep, beta)
    assert abs(mb.sigma - tb.sigma) < 1e-10


def three_qubit_heat_episode(beta_h=0.4, beta_c=1.6, omega=1.0, g=0.7):
    h1 = HermitianOperator.from_matrix(omega * np.diag([0.0, 1.0]))
    # system exchanges with the cold qubit only; hot rides along
    v = np.kron(np.kron(SIGMA_PLUS, np.eye(2)), SIGMA_MINUS)
    v = g * (v + v.conj().T)
    u = UnitaryOperator.from_matrix(
        hermitian_function(v, lambda x: np.exp(-1j * x)), (2, 2, 2))
    rho_e = DensityOperator.from_matrix(
        core.tensor([thermal_state(h1, beta_h), thermal_state(h1, beta_c)]), (2, 2))
    he = HermitianOperator.from_matrix(
        core.tensor([h1, np.eye(2)]) + core.tensor([np.eye(2), h1]), (2, 2))
    ep = eps.Episode(h1, he, u, thermal_state(h1, beta_h), rho_e)
    parts = [eps.BathPart((0,), h1, beta_h), eps.BathPart((1,), h1, beta_c)]
    return ep, parts


def test_multibath_two_temperatures_pure_heat_exchange():
    # partial exchange of the two bath qubits with the system untouched:
    # dS_S = 0, Q_h = -Q_c and sigma reduces to (beta_c - beta_h) Q_c
    beta_h, beta_c, omega, g = 0.4, 1.6, 1.0, 0.7
    h1 = HermitianOperator.from_matrix(omega * np.diag([0.0, 1.0]))
    v = np.kron(np.eye(2), np.kron(SIGMA_PLUS, SIGMA_MINUS))
    v = g * (v + v.conj().T)
    u = UnitaryOperator.from_matrix(
        hermitian_function(v, lambda x: np.exp(-1j * x)), (2, 2, 2))
    rho_e = DensityOperator.from_matrix(
        core.tensor([thermal_state(h1, beta_h), thermal_state(h1, beta_c)]), (2, 2))
    he = HermitianOperator.from_matrix(
        core.tensor([h1, np.eye(2)]) + core.tensor([np.eye(2), h1]), (2, 2))
    ep = eps.Episode(h1, he, u, random_density(2, RNG), rho_e)
    parts = [eps.BathPart((0,), h1, beta_h), eps.BathPart((1,), h1, beta_c)]
    mb = eps.multibath_balance(ep, parts)
    q_c = mb.heat_per_bath[1]
    assert q_c > 0
    assert abs(mb.d_entropy_system) < 1e-12
    assert abs(mb.heat_per_bath[0] + q_c) < 1e-12
    assert mb.sigma >= -1e-12
    assert abs(mb.sigma - (beta_c - beta_h) * q_c) < 1e-10


def test_multibath_system_mediated():
    ep, parts = three_qubit_heat_episode()
    mb = eps.multibath_balance(ep, parts)
    assert mb.heat_per_bath[1] > 0
    assert mb.sigma >= -1e-12
    expected = mb.d_entropy_system + 0.4 * mb.heat_per_bath[0] \
        + 1.6 * mb.heat_per_bath[1]
    assert abs(mb.sigma - expected) < 1e-12


def test_multibath_total_correlations_identity():
    ep, parts = three_qubit_heat_episode(beta_h=0.6, beta_c=1.2, g=0.9)
    ev = eps.evolve(ep)
    mb = eps.multibath_balance(ep, parts, evolved=ev)
    assert abs(mb.sigma - (mb.total_correlations + mb.env_displacement)) < 1e-10


def test_multibath_rejects_nonproduct():
    ep, parts = three_qubit_heat_episode()
    bell = DensityOperator.pure([1, 0, 0, 1], dims=(2, 2))
    bad = eps.Episode(ep.h_system, ep.h_env, ep.unitary, ep.rho_system, bell)
    with pytest.raises(eps.EpisodeError):
        eps.multibath_balance(bad, parts)


def test_multibath_accepts_parts_of_non_contiguous_factors():
    # parts (0, 2) and (1,) of th(0.5) x th(1.0) x th(0.5): a product over
    # the parts, though not in the order of the E factors
    h1 = np.diag([0.0, 1.0])
    th = {b: thermal_state(HermitianOperator.from_matrix(h1), b).matrix for b in (0.5, 1.0)}
    h_outer = core.tensor([h1, np.eye(2)]) + core.tensor([np.eye(2), h1])
    h_env = core.tensor([h_outer, np.eye(2)]).reshape((2,) * 6).transpose(
        0, 2, 1, 3, 5, 4).reshape(8, 8) + core.tensor([np.eye(2), h1, np.eye(2)])
    rho_env = core.tensor([th[0.5], th[1.0], th[0.5]])
    parts = [eps.BathPart((0, 2), HermitianOperator.from_matrix(h_outer), 0.5),
             eps.BathPart((1,), HermitianOperator.from_matrix(h1), 1.0)]
    rng = np.random.default_rng(19)
    for u in (np.eye(16), random_unitary(16, rng).matrix):
        ep = eps.Episode(HermitianOperator.from_matrix(h1),
                         HermitianOperator.from_matrix(h_env, (2, 2, 2)),
                         UnitaryOperator.from_matrix(u, (2, 2, 2, 2)), random_density(2, rng),
                         DensityOperator.from_matrix(rho_env, (2, 2, 2)))
        mb = eps.multibath_balance(ep, parts)
        joint = eps.evolve(ep).rho_joint
        heats = [float(np.real(np.trace(part.hamiltonian.matrix @ (
            core.partial_trace(joint, [1 + i for i in part.env_factors]).matrix
            - core.partial_trace(ep.rho_env, part.env_factors).matrix)))) for part in parts]
        sigma = mb.d_entropy_system + 0.5 * heats[0] + 1.0 * heats[1]
        np.testing.assert_allclose(mb.heat_per_bath, heats, rtol=0, atol=1e-12)
        assert abs(mb.sigma - sigma) <= 1e-12
        assert abs(mb.sigma - eps.balance(ep).sigma) <= 1e-10
    # correlations between factors 0 and 1 keep every part's marginal thermal
    flip = np.zeros((4, 4))
    flip[1, 2] = flip[2, 1] = 0.05
    correlated = core.tensor([core.tensor([th[0.5], th[1.0]]) + flip, th[0.5]])
    ep = eps.Episode(HermitianOperator.from_matrix(h1),
                     HermitianOperator.from_matrix(h_env, (2, 2, 2)),
                     UnitaryOperator.from_matrix(np.eye(16), (2, 2, 2, 2)),
                     random_density(2, rng), DensityOperator.from_matrix(correlated, (2, 2, 2)))
    with pytest.raises(eps.EpisodeError, match="not a product over the bath parts"):
        eps.multibath_balance(ep, parts)


def test_multibath_rejects_a_part_hamiltonian_of_the_wrong_size():
    # a 3x3 H on a qubit bath used to fail inside numpy broadcasting
    ep, parts = three_qubit_heat_episode()
    wrong = eps.BathPart((1,), HermitianOperator.from_matrix(np.diag([0.0, 1.0, 2.0])), 1.6)
    with pytest.raises(eps.EpisodeError, match="matrix is 3x3, expected 2x2"):
        eps.multibath_balance(ep, [parts[0], wrong])


def test_strict_energy_conservation_checks():
    h = HermitianOperator.from_matrix(0.8 * PAULI_Z)
    h_tot = core.tensor([h, np.eye(2)]) + core.tensor([np.eye(2), h.matrix])
    u = hermitian_function(h_tot, lambda x: np.exp(-1j * 0.3 * x))
    ok, res = eps.is_strict_energy_conserving(u, h, h)
    assert ok and res < 1e-10
    ok2, _ = eps.is_strict_energy_conserving(exchange_unitary(0.5), h, h)
    assert ok2
    h_det = HermitianOperator.from_matrix(1.1 * PAULI_Z)
    ok3, res3 = eps.is_strict_energy_conserving(exchange_unitary(0.5), h_det, h)
    assert not ok3 and res3 > 1e-3


def test_strict_conservation_residual_linear_in_detuning():
    h_e = HermitianOperator.from_matrix(1.0 * PAULI_Z)
    u = exchange_unitary(0.5)
    residuals = []
    detunings = [1e-4, 2e-4, 4e-4]
    for d in detunings:
        h_s = HermitianOperator.from_matrix((1.0 + d) * PAULI_Z)
        _, res = eps.is_strict_energy_conserving(u.matrix, h_s, h_e)
        residuals.append(res)
    assert abs(residuals[1] / residuals[0] - 2.0) < 0.05
    assert abs(residuals[2] / residuals[1] - 2.0) < 0.05


def test_fixed_point_sigma_matches_thermal_operation():
    beta = 1.4
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    rho = random_density(2, RNG)
    ep = eps.Episode(h, h, exchange_unitary(0.7), rho, thermal_state(h, beta))
    ev = eps.evolve(ep)
    bal = eps.balance(ep, ev)
    gibbs = thermal_state(h, beta)
    assert eps.has_global_fixed_point(ep, gibbs)
    fp = eps.fixed_point_sigma(rho, ev.rho_system, gibbs)
    assert abs(fp - bal.sigma) < 1e-10
    assert abs(eps.fixed_point_sigma(rho, rho, gibbs)) < 1e-14


def test_fixed_point_sigma_differs_without_fixed_point():
    beta = 1.4
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    rho = random_density(2, RNG)
    u = random_unitary(4, RNG, dims=(2, 2))
    ep = eps.Episode(h, h, u, rho, thermal_state(h, beta))
    ev = eps.evolve(ep)
    bal = eps.balance(ep, ev)
    gibbs = thermal_state(h, beta)
    assert not eps.has_global_fixed_point(ep, gibbs)
    fp = eps.fixed_point_sigma(rho, ev.rho_system, gibbs)
    assert abs(fp - bal.sigma) > 1e-3


def test_decompositions_per_state(count_spectral):
    """Every state is diagonalized once, when it is built: thermal_balance
    decomposes H_E and its Gibbs state, the thermality distance and the
    two evolved marginals (rho_SE' is made from its product spectrum);
    balance on given states decomposes nothing."""
    ep = random_episode(np.random.default_rng(8))
    ev = eps.evolve(ep)
    calls = []
    count_spectral(lambda kind, m: calls.append(kind))

    def count(call):
        calls.clear()
        call()
        return len(calls)

    assert count(lambda: eps.thermal_balance(ep, 1.2)) <= 6
    assert count(lambda: eps.balance(ep, ev)) == 0
    assert count(lambda: tj.backward_ensemble(ep, tj.BackwardChoice.BOTH_RESET)) <= 3
    # the episode keeps its evolution: only the thermality check is left
    assert count(lambda: eps.thermal_balance(ep, 1.2)) <= 3
    assert count(lambda: eps.balance(ep)) == 0
    for choice in tj.BackwardChoice:
        assert count(lambda: tj.backward_ensemble(ep, choice)) == 0
    fresh = random_episode(np.random.default_rng(8))
    assert count(lambda: [tj.backward_ensemble(fresh, c) for c in tj.BackwardChoice]) == 2


def test_thermality_checked_once_per_episode_and_beta(count_spectral):
    ep = random_episode(np.random.default_rng(8))
    eps.thermal_balance(ep, 1.2)
    calls = []
    count_spectral(lambda kind, m: calls.append(kind))
    again = eps.thermal_balance(ep, 1.2)
    eps.landauer_rows(ep.stack, 1.2)
    assert calls == []
    assert again.sigma == eps.thermal_balance(dataclasses.replace(ep), 1.2).sigma
    # another beta is a new check, and fails here: rho_E is Gibbs at 1.2
    for _ in range(2):
        calls.clear()
        with pytest.raises(eps.EpisodeError, match="not thermal at beta=0.5"):
            eps.thermal_balance(ep, 0.5)
    assert calls == []
    # a non-thermal rho_E raises on every call
    hot = random_episode(np.random.default_rng(3), thermal_env=False)
    for _ in range(3):
        with pytest.raises(eps.EpisodeError, match="not thermal"):
            eps.thermal_balance(hot, 1.2)
    with pytest.raises(eps.EpisodeError, match="not thermal"):
        eps.landauer_rows(hot.stack, 1.2)


def test_episode_keeps_one_evolution():
    ep = random_episode(np.random.default_rng(9))
    twin = random_episode(np.random.default_rng(9))
    before, copy = repr(ep), dataclasses.replace(ep)
    ev = eps.evolve(ep)
    assert eps.evolve(ep) is ev
    # the kept evolution is neither shown nor compared
    assert repr(ep) == before == repr(twin)
    assert ep == copy and copy == ep
    assert eps.evolve(copy) is not ev
    assert np.array_equal(eps.evolve(copy).rho_joint.matrix, ev.rho_joint.matrix)
    u = ep.unitary.matrix
    want = u @ np.kron(ep.rho_system.matrix, ep.rho_env.matrix) @ u.conj().T
    assert np.array_equal(ev.rho_joint.matrix, want)


def test_balances_reject_foreign_evolved_states():
    qubit = random_episode(np.random.default_rng(10))
    heat, parts = three_qubit_heat_episode()
    routes = [
        (qubit, lambda ep, ev: eps.balance(ep, ev).sigma),
        (heat, lambda ep, ev: eps.multibath_balance(ep, parts, evolved=ev).sigma),
    ]
    for ep, route in routes:
        other = dataclasses.replace(ep, rho_system=DensityOperator.pure([1.0, 0.0]))
        with pytest.raises(eps.EpisodeError, match="do not belong"):
            route(ep, eps.evolve(other))
        # an equal episode's evolution holds the same joint state
        assert route(ep, eps.evolve(dataclasses.replace(ep))) == route(ep, None)


def test_conditional_balance_trivial_measurement():
    ep = random_episode(RNG)
    cond = eps.conditional_balance(ep, [np.eye(2)])
    assert abs(cond.holevo) < 1e-12
    assert abs(cond.sigma_conditional - cond.sigma_unconditional) < 1e-12


def test_conditional_balance_projective_in_env_eigenbasis():
    ep = random_episode(RNG)
    ev = eps.evolve(ep)
    _, vecs = np.linalg.eigh(ev.rho_env.matrix)
    kraus = [np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(2)]
    cond = eps.conditional_balance(ep, kraus)
    assert cond.backaction_free
    assert cond.holevo <= cond.mutual_info + 1e-10
    assert cond.holevo >= -1e-12
    assert cond.sigma_conditional >= cond.env_displacement - 1e-10
    assert cond.sigma_conditional <= cond.sigma_unconditional + 1e-12


def test_conditional_balance_incomplete_kraus_rejected():
    ep = random_episode(RNG)
    with pytest.raises(eps.EpisodeError):
        eps.conditional_balance(ep, [np.diag([1.0, 0.0])])


def test_landauer_bounds_random_episodes():
    rng = np.random.default_rng(31)
    count_erasure = 0
    for _ in range(100):
        beta = 0.5 + 1.5 * rng.random()
        hs = HermitianOperator.from_matrix(rng.normal() * PAULI_Z + rng.normal() * PAULI_X)
        he = HermitianOperator.from_matrix((0.5 + rng.random()) * PAULI_Z)
        ep = eps.Episode(hs, he, random_unitary(4, rng, dims=(2, 2)),
                         random_density(2, rng), thermal_state(he, beta))
        rep = eps.landauer_rows(ep.stack, beta)
        assert rep.heat_env[0] >= rep.bound_basic[0] - 1e-10
        assert rep.heat_env[0] >= rep.bound_exponential[0] - 1e-10
        if rep.d_entropy_system[0] < 0:
            count_erasure += 1
            assert rep.bound_finite_dim[0] >= rep.bound_basic[0] - 1e-12
    assert count_erasure > 0


def test_landauer_finite_dim_requires_erasure():
    with pytest.raises(eps.EpisodeError):
        eps.finite_dimension_bound(0.1, 1.0, 2)
    # d_E = 2 correction has the bare 2 T dS^2 / 4 form
    val = eps.finite_dimension_bound(-0.3, 2.0, 2)
    assert abs(val - (0.6 + 2 * 2.0 * 0.09 / 4.0)) < 1e-12


def test_finite_dimension_bound_at_three_levels():
    # d_E = 3, T = 0.7, dS = -0.3: ln(d_E - 1) = ln 2 is not 0, so the sign
    # of its square in 4 + ln^2(d_E - 1) is read
    want = 0.21 + 0.126 / (4.0 + math.log(2.0) ** 2)
    assert abs(want - 0.2381221563) < 1e-10
    assert eps.finite_dimension_bound(-0.3, 0.7, 3) == pytest.approx(want, rel=1e-14)


def test_landauer_linear_heat_capacity_closed_form():
    ds, temp, a = -0.7, 1.3, 2.1
    bound = eps.heat_capacity_bound(ds, temp, lambda t: a * t)
    assert abs(bound - (-temp * ds + ds ** 2 / (2 * a))) < 1e-10


def schottky(gap):
    """Heat capacity of a two-level Gibbs state with this gap."""
    def capacity(temp):
        x = gap / temp
        return x * x * math.exp(x) / (math.exp(x) + 1.0) ** 2
    return capacity


def gibbs_capacity(levels):
    """Heat capacity Var(E) / T^2 of the Gibbs state of these levels."""
    def capacity(temp):
        w = np.exp(-(levels - levels.min()) / temp)
        w = w / w.sum()
        return float(w @ levels ** 2 - (w @ levels) ** 2) / temp ** 2
    return capacity


@pytest.mark.parametrize("levels, capacity", [
    ([0.0, 1.3], schottky(1.3)),
    ([0.0, 0.6, 1.7], gibbs_capacity(np.array([0.0, 0.6, 1.7]))),
], ids=["qubit-schottky", "qutrit"])
def test_gibbs_erasure_bound_is_the_capacity_quadrature(levels, capacity):
    # the closed-form entropy and heat of the Gibbs bath against the nested
    # quadrature of its heat capacity, one erasure at a time and as rows
    cases = [(-0.05, 0.4), (-0.25, 0.7), (-0.4, 0.3), (-0.05, 1.5)]
    rows = eps.gibbs_erasure_bound(*np.array(cases).T, np.tile(levels, (len(cases), 1)))
    for (ds, temp), row in zip(cases, rows):
        one = eps.gibbs_erasure_bound(ds, temp, levels)
        assert abs(one - eps.heat_capacity_bound(ds, temp, capacity)) <= 1e-8
        assert one == row
        assert one >= -temp * ds
    with pytest.raises(eps.EpisodeError, match="only to dS_S < 0"):
        eps.gibbs_erasure_bound([-0.1, 0.1], 1.0, levels)
    with pytest.raises(eps.EpisodeError, match="too small"):
        eps.gibbs_erasure_bound(-math.log(len(levels)), 1.0, levels)


def test_landauer_gibbs_route_is_the_schottky_route():
    rng = np.random.default_rng(33)
    erasures = 0
    for _ in range(40):
        beta = 0.5 + 1.5 * rng.random()
        ep = random_episode(rng, beta=beta)
        gap = float(np.ptp(np.linalg.eigvalsh(ep.h_env.matrix)))
        rep = eps.landauer_rows(ep.stack, beta)
        bound, ds = rep.bound_heat_capacity[0], rep.d_entropy_system[0]
        assert np.isnan(bound) == (ds >= 0)
        if not np.isnan(bound):
            erasures += 1
            quad = eps.heat_capacity_bound(ds, 1.0 / beta, schottky(gap))
            assert abs(bound - quad) <= 1e-8
            assert rep.satisfied["heat_capacity"][0]
    assert erasures > 0


def test_a_saturating_swap_reaches_the_infinite_temperature_end():
    # the full SWAP of a maximally mixed qubit into a Gibbs qubit leaves E
    # maximally mixed: -dS_S = ln 2 - S(T), and Q_E = <E>_uniform - <E>_T is the bound
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    swap = UnitaryOperator.from_matrix(SWAP4, (2, 2))
    ep = eps.Episode(h, h, swap, DensityOperator.maximally_mixed(2), thermal_state(h, 1.0))
    rep = eps.landauer_rows(ep.stack, 1.0)
    assert abs(rep.bound_heat_capacity[0] - 0.2310585786300049) <= 1e-10
    assert abs(rep.heat_env[0] - (0.5 - 1.0 / (1.0 + math.e))) <= 1e-15
    assert rep.satisfied["heat_capacity"][0]
    end = math.log(2.0) - (1.0 / (1.0 + math.e) + math.log(1.0 + math.exp(-1.0)))
    for ds in (-end, -end - 0.5 * eps.ERASURE_END_TOL, -end + 0.5 * eps.ERASURE_END_TOL):
        assert eps.gibbs_erasure_bound(ds, 1.0, [0.0, 1.0]) == pytest.approx(
            0.5 - 1.0 / (1.0 + math.e), abs=1e-15)
    # just inside the end, beta' is small but not 0
    below = eps.gibbs_erasure_bound(-end + 1e-6, 1.0, [0.0, 1.0])
    assert 0.2310585786300049 - 2e-3 < below < 0.2310585786300049
    with pytest.raises(eps.EpisodeError, match="too small"):
        eps.gibbs_erasure_bound(-end - 2.0 * eps.ERASURE_END_TOL, 1.0, [0.0, 1.0])
    with pytest.raises(eps.EpisodeError, match="too small"):
        eps.gibbs_erasure_bound(-1.0, 1.0, [0, 1])


def test_a_thermal_rho_e_past_the_gibbs_end_is_at_the_end():
    # rho_E passes the thermality check but has S(rho_E) ~5e-10 below S(T): under the
    # full SWAP -dS_S passes ln 2 - S(T) by that much, and the bound is the end's
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    p = 1.0 / (1.0 + math.exp(-1.0))
    rho_e = DensityOperator.from_matrix(np.diag([p + 5e-10, 1.0 - p - 5e-10]))
    ep = eps.Episode(h, h, UnitaryOperator.from_matrix(SWAP4, (2, 2)),
                     DensityOperator.maximally_mixed(2), rho_e)
    rep = eps.landauer_rows(ep.stack, 1.0)
    assert abs(rep.bound_heat_capacity[0] - 0.2310585786300049) <= 1e-10
    assert rep.satisfied["heat_capacity"][0]
    with pytest.raises(eps.EpisodeError, match="too small"):
        eps.gibbs_erasure_bound(rep.d_entropy_system[0], 1.0, [0.0, 1.0])
    # one such row in a stack leaves the other rows as they are
    gibbs = thermal_state(h, 1.0)
    two = np.stack([h.matrix] * 2)
    stack = eps.EpisodeStack.of(two, two, np.stack([SWAP4] * 2),
                                [DensityOperator.maximally_mixed(2)] * 2, [rho_e, gibbs])
    rows = eps.landauer_rows(stack, 1.0)
    assert np.allclose(rows.bound_heat_capacity, 0.2310585786300049, rtol=0.0, atol=1e-10)
    assert rows.satisfied["heat_capacity"].all()


def test_landauer_gibbs_levels_after_a_multibath_check_of_all_of_e():
    # a part over all of E given as one (d, d) Hamiltonian shares its kept
    # Gibbs check with the episode's own thermality check
    rng = np.random.default_rng(34)
    erasures = 0
    for _ in range(20):
        beta = 0.5 + 1.5 * rng.random()
        ep = random_episode(rng, beta=beta)
        fresh = eps.Episode(ep.h_system, ep.h_env, ep.unitary, ep.rho_system, ep.rho_env)
        eps.multibath_balance(ep, [eps.BathPart((0,), ep.h_env, beta)])
        rep, want = (eps.landauer_rows(e.stack, beta) for e in (ep, fresh))
        for rows, ones in ((vars(rep), vars(want)), (rep.satisfied, want.satisfied)):
            for name, value in ones.items():
                assert name == "satisfied" or np.array_equal(rows[name], value, equal_nan=True)
        erasures += not np.isnan(rep.bound_heat_capacity[0])
    assert erasures > 0


def test_fixed_point_sigma_rows_broadcasts_one_initial_state():
    rng = np.random.default_rng(35)
    h = HermitianOperator.from_matrix(PAULI_Z + 0.3 * PAULI_X)
    gibbs = thermal_state(h, 0.8)
    before = random_density(2, rng)
    afters = [random_density(2, rng) for _ in range(3)]
    rows = eps.fixed_point_sigma_rows(before, afters, gibbs)
    assert rows.shape == (3,)
    assert np.array_equal(rows, [eps.fixed_point_sigma(before, a, gibbs) for a in afters])
    # a DensityRows and a bare stack read as the same states
    for form in (DensityOperator.from_stack, np.array):
        got = eps.fixed_point_sigma_rows(form([before.matrix] * 3),
                                         form([a.matrix for a in afters]), form([gibbs.matrix] * 3))
        assert np.allclose(got, rows, rtol=0.0, atol=1e-12)


def test_fixed_point_sigma_rows_reads_states():
    # each argument a stack of states: a DensityRows and a shared Gibbs state give the values
    # of the one-state calls, where a stack's spectra, (weights, eigenvectors), fail typed
    rows = DensityOperator.from_stack([np.diag([0.7, 0.3]), np.diag([0.2, 0.8]),
                                       [[0.5, 0.25j], [-0.25j, 0.5]]])
    gibbs = thermal_state(np.diag([0.0, 1.0]), 1.0)
    got = eps.fixed_point_sigma_rows(rows, rows, gibbs)
    assert got.shape == (3,) and np.array_equal(got, np.zeros(3))
    after = DensityOperator.from_stack([np.diag([0.6, 0.4])] * 3)
    assert np.array_equal(eps.fixed_point_sigma_rows(rows, after, gibbs),
                          [eps.fixed_point_sigma(r, after[0], gibbs) for r in rows])
    with pytest.raises(eps.EpisodeError):
        eps.fixed_point_sigma_rows(rows.eig(), rows.eig(), gibbs)


def test_heat_distribution_identity_and_swap_support():
    beta = 1.0
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    rho_e = thermal_state(h, beta)
    ident = eps.Episode(h, h, UnitaryOperator.from_matrix(np.eye(4), (2, 2)),
                        random_density(2, RNG), rho_e)
    vals, probs, diag = eps.heat_distribution(ident, beta)
    assert len(vals) == 1 and abs(vals[0]) < 1e-12 and abs(probs[0] - 1) < 1e-12
    swap_ep = eps.Episode(h, h, exchange_unitary(math.pi / 2),
                          random_density(2, RNG), rho_e)
    vals2, _, _ = eps.heat_distribution(swap_ep, beta)
    assert set(np.round(vals2, 9)).issubset({-1.0, 0.0, 1.0})


def test_heat_distribution_identities():
    beta = 0.8
    ep = random_episode(RNG, beta=beta)
    vals, probs, diag = eps.heat_distribution(ep, beta)
    assert abs(diag["norm"] - 1.0) < 1e-10
    bal = eps.balance(ep)
    assert abs(diag["mean"] - bal.heat_env) < 1e-10
    assert abs(diag["exp_avg"] - diag["trace_formula"]) < 1e-10
    # Jensen: -T ln <e^{-beta Q}> <= <Q>
    assert -math.log(diag["exp_avg"]) / beta <= diag["mean"] + 1e-10


def test_correlated_heat_flow_uncorrelated_hot_to_cold():
    rho, h_a, h_b, u, q_closed = eps.two_qubit_exchange_scenario(
        alpha=0.0, theta=0.0, phi=0.0, g=1.0, t=0.4, beta_a=0.5, beta_b=2.0)
    out = eps.correlated_heat_flow(rho, h_a, h_b, u, 0.5, 2.0)
    assert out.heat_b > 0
    assert out.bound_satisfied
    assert abs(out.heat_b - q_closed) < 1e-10


def test_correlated_heat_flow_reversal():
    # correlations tuned to push heat cold -> hot at small gt
    rho, h_a, h_b, u, q_closed = eps.two_qubit_exchange_scenario(
        alpha=0.05, theta=math.pi / 2, phi=0.0, g=1.0, t=0.15,
        beta_a=0.8, beta_b=1.6)
    out = eps.correlated_heat_flow(rho, h_a, h_b, u, 0.8, 1.6)
    assert out.heat_b < 0
    assert abs(out.heat_b - q_closed) < 1e-10
    assert out.bound_satisfied


def test_correlated_heat_flow_closed_form_sweep():
    for t in np.linspace(0.05, 1.4, 9):
        rho, h_a, h_b, u, q_closed = eps.two_qubit_exchange_scenario(
            alpha=0.04, theta=0.9, phi=0.3, g=1.0, t=float(t),
            beta_a=0.6, beta_b=1.8)
        out = eps.correlated_heat_flow(rho, h_a, h_b, u, 0.6, 1.8)
        assert abs(out.heat_b - q_closed) < 1e-10


def test_correlated_heat_flow_rejects_nonthermal_marginals():
    rho = random_density(4, RNG, dims=(2, 2))
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    with pytest.raises(eps.EpisodeError):
        eps.correlated_heat_flow(rho, h, h, exchange_unitary(0.3), 1.0, 2.0)


def test_mean_force_free_case():
    beta = 1.3
    hs = random_hermitian(2, RNG)
    he = random_hermitian(3, RNG)
    h_tot = core.tensor([hs, np.eye(3)]) + core.tensor([np.eye(2), he])
    mf = eps.mean_force_hamiltonian(h_tot, (2, 3), beta, he)
    assert np.abs(mf.matrix - hs.matrix).max() < 1e-10


def test_mean_force_shifts_with_the_total_hamiltonian():
    # H_tot - c 1 gives H_mf - c 1; e^{-beta H_tot} itself overflows at c = 800
    beta, c, rng = 1.0, 800.0, np.random.default_rng(800)
    hs, he = random_hermitian(2, rng), random_hermitian(3, rng)
    v = 0.4 * core.tensor([random_hermitian(2, rng), random_hermitian(3, rng)])
    h_tot = core.tensor([hs, np.eye(3)]) + core.tensor([np.eye(2), he]) + v
    mf = eps.mean_force_hamiltonian(h_tot, (2, 3), beta, he).matrix
    shifted = eps.mean_force_hamiltonian(h_tot - c * np.eye(6), (2, 3), beta, he).matrix
    assert np.abs(shifted - (mf - c * np.eye(2))).max() < 1e-10


def gibbs_start(n_points=7):
    """A driven qubit pair that starts in its Gibbs state at beta = 1: the trajectory
    (t, rho_SE, lambda) of n_points times in [0, 1.2], H_tot(lambda) and H_E."""
    hs = 0.7 * PAULI_Z
    he = 0.9 * PAULI_Z
    v = 0.4 * core.tensor([PAULI_X, PAULI_X])

    def h_total_of(lam):
        return (core.tensor([hs + lam * PAULI_X, np.eye(2)])
                + core.tensor([np.eye(2), he]) + v)

    h0 = HermitianOperator.from_matrix(h_total_of(0.0), (2, 2))
    rho0 = thermal_state(h0, 1.0)
    traj = []
    for t in np.linspace(0.0, 1.2, n_points):
        lam = 0.5 * t
        u = hermitian_function(h_total_of(0.25 * t), lambda x: np.exp(-1j * t * x))
        rho_t = u @ rho0.matrix @ u.conj().T
        traj.append((t, rho_t, lam))
    return traj, h_total_of, he


def test_strong_coupling_sigma_gibbs_start():
    traj, h_total_of, he = gibbs_start()
    out = eps.strong_coupling_sigma(traj, h_total_of, 1.0, he, (2, 2))
    assert np.abs(out["sigma_work_route"]
                  - out["sigma_relative_entropy_route"]).max() < 1e-9
    assert np.all(out["sigma_work_route"] >= -1e-9)


def test_strong_coupling_decompositions_do_not_grow_with_the_trajectory(monkeypatch,
                                                                          count_spectral):
    # one stacked eigh each of H_tot, the reduced exponential (which also gives
    # pi_S), rho_SE and rho_S, and one eigvalsh of H_E; one evaluation per point
    # used to take 7 eigh and 1 eigvalsh, point 0 twice (64 at 7 points, 408 at 50)
    counts = []
    for n_points in (7, 50):
        traj, h_total_of, he = gibbs_start(n_points)
        calls = []
        count_spectral(lambda kind, m: calls.append(kind))
        eps.strong_coupling_sigma(traj, h_total_of, 1.0, he, (2, 2))
        monkeypatch.undo()
        counts.append({kind: calls.count(kind) for kind in set(calls)})
    assert counts[0] == counts[1] == {"eigh": 4, "eigvalsh": 1}


def test_blp_witness_identical_trajectories_markovian():
    times = np.linspace(0, 1, 5)
    states = [random_density(2, RNG) for _ in times]
    out = eps.blp_witness(times, states, states)
    assert np.abs(out["trace_distance"]).max() < 1e-14
    assert not out["is_nonmarkovian"]


def jc_pair_trajectories(n_time=41, g=1.0, t_max=4.0):
    h = 0.5 * PAULI_Z
    v = g * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
    h_tot = core.tensor([h, np.eye(2)]) + core.tensor([np.eye(2), h]) + v
    rho_e = thermal_state(HermitianOperator.from_matrix(h), 1.0)
    s1 = DensityOperator.pure([1, 0])
    s2 = DensityOperator.pure([0, 1])
    times = np.linspace(0.0, t_max, n_time)
    joint1, joint2, sys1, sys2 = [], [], [], []
    for t in times:
        u = hermitian_function(h_tot, lambda x: np.exp(-1j * t * x))
        for s, jl, sl in ((s1, joint1, sys1), (s2, joint2, sys2)):
            big = u @ core.tensor([s, rho_e]) @ u.conj().T
            jl.append(big)
            sl.append(core._ptrace_matrix(big, (2, 2), [0]))
    return times, h_tot, joint1, joint2, sys1, sys2


def test_blp_witness_revival_detected():
    times, _, _, _, sys1, sys2 = jc_pair_trajectories()
    out = eps.blp_witness(times, sys1, sys2)
    assert out["is_nonmarkovian"]
    assert out["max_slope"] > 0.01


def test_witness_decompositions_do_not_grow_with_the_trajectory(monkeypatch, count_spectral):
    # the witnesses validate each list of bare states by one stacked eigh and take
    # the trace distances by one eigvalsh, at any number of time points
    counts = []
    for n_time in (5, 41):
        times, h_tot, joint1, joint2, sys1, sys2 = jc_pair_trajectories(n_time)
        for call in (lambda: eps.blp_witness(times, sys1, sys2),
                     lambda: eps.correlation_witness_terms(times, joint1, joint2, h_tot, (2, 2))):
            calls = []
            count_spectral(lambda kind, m: calls.append(kind))
            call()
            monkeypatch.undo()
            counts.append({kind: calls.count(kind) for kind in set(calls)})
    assert counts[0] == counts[1] == counts[2] == counts[3] == {"eigh": 2, "eigvalsh": 1}


def test_correlation_witness_bound_holds():
    times, h_tot, joint1, joint2, _, _ = jc_pair_trajectories(n_time=61)
    out = eps.correlation_witness_terms(times, joint1, joint2, h_tot, (2, 2))
    assert out["bound_satisfied"]


def test_correlation_witness_static_factorized_env():
    # pure-dephasing coupling with equal system populations: the two
    # environment trajectories coincide, so the E term vanishes and the
    # bound is carried by the correlation term alone.
    h_tot = 0.8 * core.tensor([PAULI_Z, PAULI_X])
    rho_e = DensityOperator.from_matrix(np.diag([0.6, 0.4]))
    s1 = DensityOperator.from_matrix(np.array([[0.5, 0.3], [0.3, 0.5]]))
    s2 = DensityOperator.from_matrix(np.array([[0.5, -0.2j], [0.2j, 0.5]]))
    times = np.linspace(0.0, 2.0, 31)
    joint1, joint2 = [], []
    for t in times:
        u = hermitian_function(h_tot, lambda x: np.exp(-1j * t * x))
        joint1.append(u @ core.tensor([s1, rho_e]) @ u.conj().T)
        joint2.append(u @ core.tensor([s2, rho_e]) @ u.conj().T)
    out = eps.correlation_witness_terms(times, joint1, joint2, h_tot, (2, 2))
    assert np.abs(out["env_term"]).max() < 1e-10
    assert out["correlation_term"].max() > 1e-3
    assert out["bound_satisfied"]


def test_sigma_zero_iff_product_output():
    # zero entropy production happens exactly when the evolved joint state
    # factorizes over (rho_S', rho_E); a generic interaction correlates
    ep = random_episode(RNG, thermal_env=False)
    ev = eps.evolve(ep)
    bal = eps.balance(ep, ev)
    product_gap = np.abs(ev.rho_joint.matrix
                         - core.tensor([ev.rho_system, ep.rho_env])).max()
    assert bal.sigma > 1e-3 and product_gap > 1e-3
    ident = eps.Episode(ep.h_system, ep.h_env,
                        UnitaryOperator.from_matrix(np.eye(4), (2, 2)),
                        ep.rho_system, ep.rho_env)
    ev0 = eps.evolve(ident)
    bal0 = eps.balance(ident, ev0)
    gap0 = np.abs(ev0.rho_joint.matrix
                  - core.tensor([ev0.rho_system, ident.rho_env])).max()
    assert bal0.sigma < 1e-10 and gap0 < 1e-8


def test_episode_json_roundtrip():
    ep = random_episode(RNG)
    back = eps.Episode.from_json(ep.to_json())
    assert np.abs(back.unitary.matrix - ep.unitary.matrix).max() < 1e-15
    bal = eps.balance(ep)
    blob = bal.to_json()
    assert "sigma" in blob and "flux" in blob
    # the optional fields, each written once it is set, and read back as written
    heat_ep, parts = three_qubit_heat_episode()
    optional = {"d_free_energy": eps.thermal_balance(ep, 1.2),
                "total_correlations": eps.multibath_balance(heat_ep, parts)}
    for name, balance in optional.items():
        blob = json.loads(json.dumps(balance.to_json()))
        assert name in blob and blob == {k: list(v) if isinstance(v, tuple) else v
                                         for k, v in vars(balance).items() if v is not None}
    assert len(blob["heat_per_bath"]) == 2


def test_balance_json_of_one_row_and_of_a_stack():
    # one row: the bytes of the former rule (floats as they are, the per-bath heats as a
    # list); a row form: every field one JSON list, read back as its array
    heat_ep, parts = three_qubit_heat_episode()
    one = eps.multibath_balance(heat_ep, parts)
    former = {k: list(v) if k == "heat_per_bath" else v for k, v in vars(one).items()
              if v is not None}
    assert json.dumps(one.to_json()) == json.dumps(former)
    episodes = [random_episode(np.random.default_rng(890 + k)) for k in range(3)]
    stack = eps.EpisodeStack.of(*(np.array([getattr(ep, name).matrix for ep in episodes])
                                  for name in ("h_system", "h_env", "unitary", "rho_system",
                                               "rho_env")))
    for rows in (stack.balance, eps.thermal_balance_rows(stack, 1.2),
                 eps.multibath_balance_rows(heat_ep.stack, parts)):
        blob = json.loads(json.dumps(rows.to_json()))
        want = {k: v for k, v in vars(rows).items() if v is not None}
        assert list(blob) == list(want)
        assert all(np.array_equal(blob[k], v) for k, v in want.items())


def test_conditional_balance_with_backaction_uses_the_measured_environment():
    # sigma_x projectors on E, whose evolved state is not diagonal in that basis
    ep = random_episode(np.random.default_rng(808))
    rho_env_after = eps.evolve(ep).rho_env.matrix
    kraus = [0.5 * (np.eye(2) + s * PAULI_X) for s in (1.0, -1.0)]
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert abs(plus @ rho_env_after @ minus) > 1e-3
    cond = eps.conditional_balance(ep, kraus)
    assert not cond.backaction_free
    vals, vecs = np.linalg.eigh(ep.rho_env.matrix)
    log_env = (vecs * np.log(vals)) @ vecs.conj().T
    measured = sum(m @ rho_env_after @ m.conj().T for m in kraus)
    flux = np.real(np.trace((ep.rho_env.matrix - measured) @ log_env))
    assert abs(cond.flux_conditional - flux) < 1e-12
    assert abs(flux - eps.balance(ep).flux) > 1e-2
