"""Invalid input fails at the validation boundary with a typed error: one
row per input check that the other tests do not reach, each with the call,
the error class and a fragment of its message.  A bare matrix given as a
state, a probability vector, a bare Hamiltonian, a bare unitary and a
declared bath temperature each pass their type's one check, and every
operand of a multi-operator entry point passes the one size rule."""

import json
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from entroprod import classical as cl
from entroprod import cli
from entroprod import collisional as cm
from entroprod import core
from entroprod import episodes as eps
from entroprod import gaussian as gs
from entroprod import lindblad as lb
from entroprod import resource as rs
from entroprod import trajectories as tj
from entroprod.core import (
    PAULI_X,
    PAULI_Z,
    SIGMA_MINUS,
    DensityOperator,
    HermitianOperator,
    UnitaryOperator,
    thermal_state,
)
from entroprod.rand import ginibre, haar_unitaries, random_density
from test_tolerances import _parameters, _public_callables

H2 = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
H3 = HermitianOperator.from_matrix(np.diag([0.0, 1.0, 2.0]))
RHO2 = thermal_state(H2, 1.0)
MIXED2 = DensityOperator.from_matrix(np.eye(2) / 2)
ID4 = UnitaryOperator.from_matrix(np.eye(4), (2, 2))
FLIP = UnitaryOperator.from_matrix(PAULI_X)
HALF = [0.5, 0.5]
NAN = float("nan")
NOT_HERMITIAN = [[0.0, 1.0], [0.0, 0.0]]
THERMAL_AB = DensityOperator.from_matrix(np.kron(RHO2.matrix, RHO2.matrix), (2, 2))
W3 = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])   # symmetric 3-state
RATES3 = cl.RateMatrix(W3, (W3 / 2, W3 / 2))
MIXED3 = DensityOperator.maximally_mixed(3)


def _episode(**changes):
    parts = dict(h_system=H2, h_env=H2, unitary=ID4, rho_system=RHO2, rho_env=RHO2)
    return eps.Episode(**{**parts, **changes})


def _stroke(unitary=ID4, beta=1.0):
    return cm.AncillaStroke(RHO2, H2, unitary, beta=beta)


def _stack(n_env):
    """Qubit stacks: one row of everything but n_env rows of H_E."""
    one = np.eye(2)[None] / 2
    return eps.EpisodeStack.of(one, np.repeat(one, n_env, 0), np.eye(4)[None], one, one)


def _load(text):
    Path("config.json").write_text(text, encoding="utf-8")
    return cli.load_config(Path("config.json"))


def _config(**fields):
    return json.dumps({"kind": "resource", "parameters": {"beta": 1.0}, **fields})


# Invalid configs, each with a fragment of the message `load_config` gives
# and `run_config` repeats (`test_run_config_reads_a_config_as_load_config_does`).
INVALID_CONFIGS = {
    "cli config not an object": ("[1, 2]", "must be a JSON object"),
    "cli schema": (_config(schema="v0"), "unsupported schema 'v0'"),
    "cli schema v9": (_config(schema="v9"), "unsupported schema 'v9'"),
    "cli kind": (json.dumps({"kind": "nope"}), "unknown kind 'nope'"),
    "cli parameters not an object": (_config(parameters=[1.0]), "'parameters' must be an object"),
    "cli sweep keys": (_config(sweep={"parameter": "beta"}), "needs 'parameter' and 'grid'"),
    "cli empty sweep grid": (_config(sweep={"parameter": "beta", "grid": []}), "non-empty list"),
    "cli unknown parameter": (
        _config(parameters={"beta": 1.0, "betta": 1.0}), "unknown parameter(s) ['betta']"),
    "cli undeclared sweep parameter": (
        _config(sweep={"parameter": "gamma", "grid": [1.0]}), "unknown parameter(s) ['gamma']"),
    "cli missing parameter": (json.dumps({"kind": "resource"}),
                              "missing required parameter 'beta'"),
    "cli sweep grid value": (_config(sweep={"parameter": "gap", "grid": [1.0, "2"]}),
                             "parameter 'gap' must be a finite number, got '2'"),
    "cli output path names no file": (_config(output={"path": ""}), "'output.path' names no file"),
    "cli output format": (_config(output={"format": "xml"}), "unknown output format 'xml'"),
}


CASES = {
    # core
    "core.HilbertDims zero factor": (
        lambda: core.HilbertDims((2, 0)), core.CoreError,
        "factor dimension must be an integer >= 1, got 0"),
    "core dims against the matrix size": (
        lambda: HermitianOperator.from_matrix(np.eye(2), (3,)), core.CoreError,
        "do not match matrix size"),
    "core non-square matrix": (
        lambda: HermitianOperator.from_matrix(np.ones((2, 3))), core.CoreError,
        "expected a square matrix"),
    "resource.classical_renyi_divergence sizes": (
        lambda: rs.classical_renyi_divergence(HALF, [0.2, 0.3, 0.5], 1.0), rs.ResourceError,
        "equally sized probability vectors"),
    "core.trace_distance sizes": (
        lambda: core.trace_distance(np.eye(2) / 2, np.eye(3) / 3), core.CoreError,
        "matrix is 3x3, expected 2x2"),
    "core.trace_distance NaN rho1": (
        lambda: core.trace_distance([[NAN, 0.0], [0.0, 1.0]], np.eye(2) / 2), core.CoreError,
        "NaN or infinite entries"),
    "core.dephase NaN rho": (
        lambda: core.dephase([[NAN, 0.0], [0.0, 1.0]], H2), core.CoreError,
        "NaN or infinite entries"),
    "core.ancilla_kraus NaN operator": (
        lambda: core.ancilla_kraus(np.full((4, 4), NAN), RHO2), core.CoreError,
        "NaN or infinite entries"),
    "core.von_neumann_entropy bare matrix of trace 6": (
        lambda: core.von_neumann_entropy(3 * np.eye(2)), core.CoreError, "differs from 1"),
    "core.von_neumann_entropy bare matrix with NaN": (
        lambda: core.von_neumann_entropy([[NAN, 0.0], [0.0, 1.0]]), core.CoreError,
        "NaN or infinite entries"),
    "core.relative_entropy bare matrix of trace 2": (
        lambda: core.relative_entropy(np.diag([0.6, 1.4]), np.eye(2) / 2), core.CoreError,
        "differs from 1"),
    "core.shannon_entropy NaN": (
        lambda: core.shannon_entropy([NAN, 1.0]), core.CoreError, "must be finite"),
    "resource.classical_renyi_divergence KL unnormalized": (
        lambda: rs.classical_renyi_divergence([0.5, 0.7], HALF, 1.0), rs.ResourceError,
        "sum to 1.2"),
    "core.thermal_state non-Hermitian H": (
        lambda: thermal_state(NOT_HERMITIAN, 1.0), core.CoreError, "not Hermitian"),
    "core.thermal_state complex beta": (
        lambda: thermal_state(H2, 1 + 1j), core.CoreError,
        "inverse temperature must be real, got a nonzero imaginary part"),
    "core.dephase non-Hermitian H": (
        lambda: core.dephase(np.eye(2) / 2, NOT_HERMITIAN), core.CoreError, "not Hermitian"),
    "core.hermitian_function non-Hermitian matrix": (
        lambda: core.hermitian_function(NOT_HERMITIAN, np.exp), core.CoreError,
        "not Hermitian"),
    "core.shannon_entropy complex": (
        lambda: core.shannon_entropy(np.array([0.5 + 0.3j, 0.5 - 0.3j])), core.CoreError,
        "probabilities must be real, got a nonzero imaginary part"),
    "resource.classical_renyi_divergence list with a complex entry": (
        lambda: rs.classical_renyi_divergence([0.5, 0.5j], HALF, 1.0), rs.ResourceError,
        "probabilities must be real, got a nonzero imaginary part"),
    "core.shannon_entropy non-numeric": (
        lambda: core.shannon_entropy(["a", "b"]), core.CoreError,
        "probabilities must be real numbers"),
    "core ragged stack": (
        lambda: core.hermitian_function([np.eye(2), np.eye(3)], np.exp), core.CoreError,
        "matrix 1 of the stack: shape (3, 3), expected (2, 2)"),
    "core ragged matrix": (
        lambda: core.thermal_state([[1.0, 0.0], [0.0]], 1.0), core.CoreError,
        "row 1 of the matrix: shape (1,), expected (2,)"),
    "core.matrix_from_json missing key": (
        lambda: core.matrix_from_json({"dims": [2], "re": [[1, 0], [0, 1]]}), core.CoreError,
        "malformed matrix object: 'im'"),
    "core stack where one matrix is read": (
        lambda: eps.has_global_fixed_point(_episode(), (np.eye(2) / 2)[None]), eps.EpisodeError,
        "expected a square matrix, got shape (1, 2, 2)"),
    "core.thermal_state stack of stacks": (
        lambda: thermal_state(np.zeros((2, 2, 2, 2)), 1.0), core.CoreError,
        "expected one Hamiltonian or an (n, d, d) stack, got shape (2, 2, 2, 2)"),
    "core.matrix_from_json parts": (
        lambda: core.matrix_from_json({"dims": [2], "re": [[1, 0], [0, 1]], "im": [[0, 0]]}),
        core.CoreError, "matching 2-d arrays"),
    # classical
    "classical.RateMatrix non-square": (
        lambda: cl.RateMatrix(np.zeros((2, 3))), cl.ClassicalError, "rate matrix must be square"),
    "classical.RateMatrix 1-d": (
        lambda: cl.RateMatrix(np.zeros(3)), cl.ClassicalError, "rate matrix must be square"),
    "classical.RateMatrix 3-d": (
        lambda: cl.RateMatrix(np.zeros((2, 2, 2))), cl.ClassicalError,
        "rate matrix must be square"),
    "classical.RateMatrix 0 x 0": (
        lambda: cl.RateMatrix(np.zeros((0, 0))), cl.ClassicalError, "non-empty"),
    "classical.RateMatrix part shape": (
        lambda: cl.RateMatrix(W3, (np.zeros((2, 2)),)), cl.ClassicalError,
        "reservoir part 0 is 2x2, the rate matrix 3x3"),
    "classical.RateMatrix part negative rate": (
        lambda: cl.RateMatrix(W3, (2 * W3, -W3)), cl.ClassicalError,
        "reservoir part 1: negative off-diagonal rate"),
    "classical.RateMatrix complex rate": (
        lambda: cl.RateMatrix(np.array([[-1.0, 1 + 2j], [1.0, -1 - 2j]])), cl.ClassicalError,
        "rate matrix must be real, got a nonzero imaginary part"),
    "classical.tur_check vanishing current": (
        lambda: cl.tur_check(RATES3, [(0, 1, 0)]), cl.ClassicalError, "current vanishes"),
    "classical.schnakenberg p length": (
        lambda: cl.schnakenberg(RATES3, HALF), cl.ClassicalError, "not (3,) for the 3 states"),
    "classical.multibath_sigma p length": (
        lambda: cl.multibath_sigma(RATES3, HALF), cl.ClassicalError, "not (3,) for the 3 states"),
    "classical.kl_divergence_rate p length": (
        lambda: cl.kl_divergence_rate(RATES3, HALF, np.ones(3) / 3), cl.ClassicalError,
        "not (3,) for the 3 states"),
    "classical.tur_check p_stationary length": (
        lambda: cl.tur_check(RATES3, [(0, 1, 0)], HALF), cl.ClassicalError,
        "not (3,) for the 3 states"),
    "classical.is_detailed_balanced p length": (
        lambda: cl.is_detailed_balanced(RATES3, HALF), cl.ClassicalError,
        "not (3,) for the 3 states"),
    "classical.tilted_generator reservoir": (
        lambda: cl.tilted_generator(cl.RateMatrix.from_offdiagonal(np.ones((2, 2))),
                                    [(0, 1, 3)], 0.1),
        cl.ClassicalError, "unknown reservoir 3"),
    "classical.onsager_sigma non-square": (
        lambda: cl.onsager_sigma(np.ones((2, 3)), [1.0, 1.0]), cl.ClassicalError,
        "Onsager matrix must be square"),
    "classical.onsager_sigma complex": (
        lambda: cl.onsager_sigma(np.array([[1.0, 0.5j], [-0.5j, 1.0]]), [1.0, 1.0]),
        cl.ClassicalError, "Onsager matrix must be real, got a nonzero imaginary part"),
    "classical.onsager_sigma 1-d": (
        lambda: cl.onsager_sigma([1.0, 2.0], [1.0, 1.0]), cl.ClassicalError,
        "Onsager matrix must be square, got shape (2,)"),
    "classical.onsager_sigma affinities length": (
        lambda: cl.onsager_sigma(np.eye(2), [1.0, 1.0, 1.0]), cl.ClassicalError,
        "3 affinities for the 2x2 Onsager matrix"),
    "classical.glauber_ising adjacency": (
        lambda: cl.glauber_ising(3, 1.0, 1.0, 0.0, [[1], [0]]), cl.ClassicalError,
        "cover every site"),
    # collisional
    "collisional empty alphabet": (
        lambda: cm.CollisionSpec((), ()), cm.CollisionalError, "alphabet must be non-empty"),
    "collisional Hamiltonian schedule": (
        lambda: cm.CollisionSpec((_stroke(),), (H2, H2)), cm.CollisionalError,
        "one system Hamiltonian per alphabet entry"),
    "collisional stroke unitary dims": (
        lambda: cm.CollisionSpec((_stroke(FLIP),), (H2,)), cm.CollisionalError,
        "matrix is 2x2, expected 4x4"),
    "collisional unitary schedule": (
        lambda: cm.CollisionSpec((_stroke(),), (H2,), (FLIP, FLIP)), cm.CollisionalError,
        "one system unitary per alphabet entry"),
    "collisional.run stroke count": (
        lambda: cm.run(cm.CollisionSpec((_stroke(),), (H2,)), RHO2, 0),
        cm.CollisionalError, "n_strokes must be an integer >= 1, got 0"),
    "collisional.continuous_limit non-Hermitian V": (
        lambda: cm.continuous_limit(np.kron(core.SIGMA_PLUS, np.eye(2)), RHO2),
        cm.CollisionalError, "not Hermitian"),
    "collisional.continuous_limit NaN pair operator": (
        lambda: cm.continuous_limit(np.kron(PAULI_X, PAULI_X), RHO2,
                                    [(SIGMA_MINUS, [[NAN, 0.0], [0.0, 0.0]], 1.0)]),
        cm.CollisionalError, "NaN or infinite entries"),
    "collisional.continuous_limit pairs that are not V": (
        lambda: cm.continuous_limit(0.3 * (np.kron(core.SIGMA_PLUS, SIGMA_MINUS)
                                           + np.kron(SIGMA_MINUS, core.SIGMA_PLUS)), RHO2,
                                    [(PAULI_Z, SIGMA_MINUS, 1.5)]),
        cm.CollisionalError, "pairs miss V by 1.500e+00"),
    "collisional.continuous_limit pair operator on the ancilla size": (
        lambda: cm.continuous_limit(np.kron(PAULI_X, PAULI_X), RHO2,
                                    [(np.eye(3), SIGMA_MINUS, 1.0)]),
        cm.CollisionalError, "3x3, expected 2x2"),
    "collisional.four_stroke bare h_hot": (
        lambda: cm.four_stroke(np.eye(2), np.eye(2), ID4, ID4, RHO2, RHO2, H2, h_hot=np.eye(3)),
        cm.CollisionalError, "3x3, expected 2x2"),
    "collisional.four_stroke bare h_cold": (
        lambda: cm.four_stroke(np.eye(2), np.eye(2), ID4, ID4, RHO2, RHO2, H2, h_cold=np.eye(3)),
        cm.CollisionalError, "3x3, expected 2x2"),
    "collisional.four_stroke bare rho0": (
        lambda: cm.four_stroke(np.eye(2), np.eye(2), ID4, ID4, RHO2, RHO2, H2,
                               rho0=np.eye(3) / 3),
        cm.CollisionalError, "3x3, expected 2x2"),
    "collisional.four_stroke bare rho0 that is not a state": (
        lambda: cm.four_stroke(np.eye(2), np.eye(2), ID4, ID4, RHO2, RHO2, H2,
                               rho0=np.diag([1.5, -0.5])),
        cm.CollisionalError, "negative eigenvalue -5.000e-01"),
    "collisional.four_stroke bare rho_hot": (
        lambda: cm.four_stroke(np.eye(2), np.eye(2), ID4, ID4, np.eye(3) / 3, RHO2, H2),
        cm.CollisionalError, "4x4, expected 6x6"),
    "collisional.four_stroke bare h_system": (
        lambda: cm.four_stroke(np.eye(2), np.eye(2), ID4, ID4, RHO2, RHO2, np.eye(3)),
        cm.CollisionalError, "2x2, expected 3x3"),
    "collisional.preferred_basis work strokes": (
        lambda: cm.preferred_basis(cm.CollisionSpec((_stroke(),), (H2,), (FLIP,)), RHO2, 2),
        cm.CollisionalError, "instantaneous (identity) work strokes"),
    "collisional.preferred_basis ancilla temperature": (
        lambda: cm.preferred_basis(cm.CollisionSpec((_stroke(beta=None),), (H2,)), RHO2, 2),
        cm.CollisionalError, "needs thermal ancillas"),
    "collisional.preferred_basis thermal operation": (
        lambda: cm.preferred_basis(cm.CollisionSpec(
            (_stroke(UnitaryOperator.from_matrix(np.kron(PAULI_X, PAULI_X), (2, 2))),),
            (H2,)), RHO2, 2),
        cm.CollisionalError, "is not a thermal operation"),
    "collisional.AncillaStroke declared beta of a non-thermal ancilla": (
        lambda: cm.AncillaStroke(
            DensityOperator.from_matrix(np.diag([0.3, 0.7])), H2,
            UnitaryOperator.from_matrix(core.hermitian_function(
                0.5 * (np.kron(core.SIGMA_PLUS, SIGMA_MINUS)
                       + np.kron(SIGMA_MINUS, core.SIGMA_PLUS)),
                lambda x: np.exp(-1j * x)), (2, 2)), beta=1.0),
        cm.CollisionalError, "ancilla is not thermal at beta=1.0"),
    "collisional.AncillaStroke bare Hamiltonian": (
        lambda: cm.AncillaStroke(RHO2, np.diag([0.0, 1.0]), ID4), cm.CollisionalError,
        "hamiltonian must be a HermitianOperator, got ndarray"),
    "collisional.SwapEngineSpec gap": (
        lambda: cm.SwapEngineSpec(0.0, 1.0, 1.0, 1.0), cm.CollisionalError,
        "eps_a must be finite and > 0, got 0.0"),
    "collisional.SwapEngineSpec NaN gap": (
        lambda: cm.swap_engine(cm.SwapEngineSpec(1.0, NAN, 1.0, 0.5)), cm.CollisionalError,
        "eps_b must be finite and > 0, got nan"),
    # episodes
    "episodes Hamiltonian dims": (
        lambda: _episode(h_system=H3), eps.EpisodeError, "matrix is 3x3, expected 2x2"),
    "episodes unitary dims": (
        lambda: _episode(unitary=FLIP), eps.EpisodeError, "matrix is 2x2, expected 4x4"),
    "episodes.Episode bare state": (
        lambda: eps.Episode(H2, H2, ID4, np.eye(2) / 2, RHO2), eps.EpisodeError,
        "rho_system must be a DensityOperator, got ndarray"),
    "episodes.mean_force_hamiltonian H_tot against dims": (
        lambda: eps.mean_force_hamiltonian(np.eye(5), (2, 2), 1.0, H2), eps.EpisodeError,
        "dims (2, 2) do not match matrix size 5"),
    "episodes.thermal_balance_rows complex beta": (
        lambda: eps.thermal_balance_rows(_stack(1), 1 + 1j), eps.EpisodeError,
        "inverse temperature must be real, got a nonzero imaginary part"),
    "episodes.EpisodeStack.of row counts": (
        lambda: _stack(2), eps.EpisodeError, "one (N, d, d) stack of equal N"),
    "episodes.EpisodeStack.of states of two sizes": (
        lambda: eps.EpisodeStack.of(*[np.eye(2)[None]] * 2, np.eye(4)[None], [MIXED2],
                                    [RHO2, MIXED3]),
        eps.EpisodeError, "matrix 1 of the stack: shape (3, 3), expected (2, 2)"),
    "episodes.EpisodeStack.of states of two factor dims": (
        lambda: eps.EpisodeStack.of([np.eye(2)] * 2, [np.eye(4)] * 2, [np.eye(8)] * 2,
                                    [MIXED2] * 2, [DensityOperator.maximally_mixed(4), THERMAL_AB]),
        eps.EpisodeError, "factor dims (4,) and (2, 2) in one stack"),
    "core.DensityOperator.pure zero vector": (
        lambda: DensityOperator.pure([0, 0]), core.CoreError, "finite nonzero vector, got [0, 0]"),
    "core.DensityOperator.pure NaN vector": (
        lambda: DensityOperator.pure([NAN, 1.0]), core.CoreError, "finite nonzero vector"),
    "core.DensityOperator.pure infinite vector": (
        lambda: DensityOperator.pure(np.array([np.inf, 0.0])), core.CoreError,
        "finite nonzero vector"),
    "episodes.multibath_balance partition": (
        lambda: eps.multibath_balance(_episode(), [eps.BathPart((1,), H2, 1.0)]),
        eps.EpisodeError, "must cover all"),
    "episodes.finite_dimension_bound dimension": (
        lambda: eps.finite_dimension_bound(-0.1, 1.0, 1), eps.EpisodeError,
        "environment dimension must be an integer >= 2, got 1"),
    "episodes.finite_dimension_bound temperature": (
        lambda: eps.finite_dimension_bound(-0.1, -1.0, 4), eps.EpisodeError,
        "temperature must be finite and > 0"),
    "episodes.gibbs_erasure_bound NaN temperature": (
        lambda: eps.gibbs_erasure_bound(-0.1, NAN, [0.0, 1.0]), eps.EpisodeError,
        "temperature must be finite and > 0"),
    "episodes.finite_dimension_bound NaN dS_S": (
        lambda: eps.finite_dimension_bound(NAN, 1.0, 4), eps.EpisodeError,
        "dS_S must be a finite number, got nan"),
    "episodes.heat_capacity_bound NaN dS_S": (
        lambda: eps.heat_capacity_bound(NAN, 1.0, lambda t: t), eps.EpisodeError,
        "dS_S must be a finite number, got nan"),
    "episodes.gibbs_erasure_bound NaN dS_S": (
        lambda: eps.gibbs_erasure_bound([-0.1, NAN], 1.0, [0.0, 1.0]), eps.EpisodeError,
        "dS_S must be a finite number, got [-0.1, nan]"),
    "episodes.heat_capacity_bound capacity too small": (
        lambda: eps.heat_capacity_bound(-0.1, 1.0, lambda t: 0.0), eps.EpisodeError,
        "heat capacity too small to reach the requested entropy"),
    "episodes.mean_force_hamiltonian underflowing exponential": (
        lambda: eps.mean_force_hamiltonian(np.kron(np.diag([0.0, 1.0]), np.eye(2)), (2, 2),
                                           1000.0, H2),
        eps.EpisodeError, "reduced exponential is singular"),
    "episodes.correlated_heat_flow non-conserving U": (
        lambda: eps.correlated_heat_flow(THERMAL_AB, H2, H2, np.kron(PAULI_X, np.eye(2)), 1.0, 1.0),
        eps.EpisodeError, "unitary violates strict energy conservation"),
    "episodes.heat_capacity_bound erasure": (
        lambda: eps.heat_capacity_bound(0.1, 1.0, lambda t: t), eps.EpisodeError,
        "heat-capacity bound applies only to dS_S < 0"),
    "episodes.landauer_rows one episode temperature": (
        lambda: eps.landauer_rows(_episode(rho_env=MIXED2).stack, 0.0), eps.EpisodeError,
        "inverse temperature must be finite and > 0, got 0.0"),
    "episodes.mean_force_hamiltonian non-Hermitian H": (
        lambda: eps.mean_force_hamiltonian(np.kron(NOT_HERMITIAN, np.eye(2)), (2, 2), 1.0,
                                           np.eye(2)),
        eps.EpisodeError, "not Hermitian"),
    "episodes.correlated_heat_flow non-Hermitian H": (
        lambda: eps.correlated_heat_flow(DensityOperator.from_matrix(np.eye(4) / 4, (2, 2)),
                                         NOT_HERMITIAN, H2, ID4, 1.0, 1.0),
        eps.EpisodeError, "not Hermitian"),
    "episodes.blp_witness time points": (
        lambda: eps.blp_witness([0.0, 1.0], [RHO2, RHO2], [MIXED2, MIXED2]),
        eps.EpisodeError, "at least 3 time points"),
    "episodes.blp_witness state sizes": (
        lambda: eps.blp_witness([0.0, 1.0, 2.0], [RHO2] * 3, [MIXED3] * 3), eps.EpisodeError,
        "matrix is 3x3, expected 2x2"),
    "episodes.blp_witness fewer states than times": (
        lambda: eps.blp_witness([0.0, 1.0, 2.0], [RHO2] * 3, [MIXED2] * 2), eps.EpisodeError,
        "3 and 2 states for 3 times"),
    "episodes.blp_witness no states": (
        lambda: eps.blp_witness([0.0, 1.0, 2.0], None, None), eps.EpisodeError,
        "matrix entries must be numbers, got None"),
    "episodes.mean_force_hamiltonian stack of H_tot": (
        lambda: eps.mean_force_hamiltonian(np.stack([np.eye(4)] * 4), (2, 2), 1.0, H2),
        eps.EpisodeError, "expected a square matrix, got shape (4, 4, 4)"),
    "episodes.is_strict_energy_conserving stack of H_S": (
        lambda: eps.is_strict_energy_conserving(np.eye(4), np.stack([H2.matrix] * 2), H2),
        eps.EpisodeError, "expected a square matrix, got shape (2, 2, 2)"),
    "episodes.is_strict_energy_conserving stack of U": (
        lambda: eps.is_strict_energy_conserving(np.stack([np.eye(4)] * 4), H2, H2),
        eps.EpisodeError, "expected a square matrix, got shape (4, 4, 4)"),
    "episodes.is_strict_energy_conserving stack of H_S of U's size": (
        lambda: eps.is_strict_energy_conserving(np.eye(8), np.stack([H2.matrix] * 4), H2),
        eps.EpisodeError, "expected a square matrix, got shape (4, 2, 2)"),
    "episodes.blp_witness more times than states": (
        lambda: eps.blp_witness([0.0, 1.0, 2.0, 3.0], [RHO2] * 3, [MIXED2] * 3),
        eps.EpisodeError, "3 and 3 states for 4 times"),
    "episodes.correlation_witness_terms fewer joint states than times": (
        lambda: eps.correlation_witness_terms([0.0, 1.0, 2.0, 3.0], [np.eye(4) / 4] * 3,
                                              [np.eye(4) / 4] * 3, H4, (2, 2)),
        eps.EpisodeError, "3 and 3 states for 4 times"),
    "episodes.correlation_witness_terms ragged joint state": (
        lambda: eps.correlation_witness_terms([0.0, 1.0, 2.0], [[[1, 2], [3]]] * 3,
                                              [np.eye(4) / 4] * 3, H4, (2, 2)),
        eps.EpisodeError, "matrix 0 of the stack: shape (2,), expected (4, 4)"),
    "episodes.correlation_witness_terms NaN H": (
        lambda: eps.correlation_witness_terms([0.0, 1.0, 2.0], [np.eye(4) / 4] * 3,
                                              [np.eye(4) / 4] * 3, np.full((4, 4), NAN), (2, 2)),
        eps.EpisodeError, "NaN or infinite entries"),
    "episodes.correlation_witness_terms non-Hermitian H": (
        lambda: eps.correlation_witness_terms([0.0, 1.0, 2.0], [np.eye(4) / 4] * 3,
                                              [np.eye(4) / 4] * 3,
                                              np.kron(SIGMA_MINUS, np.eye(2)), (2, 2)),
        eps.EpisodeError, "not Hermitian"),
    "episodes.gibbs_erasure_bound complex levels": (
        lambda: eps.gibbs_erasure_bound(-0.1, 1.0, np.array([0.0, 1.0 + 1j])), eps.EpisodeError,
        "energies must be real, got a nonzero imaginary part"),
    # gaussian
    "gaussian complex drift": (
        lambda: gs.GaussianModel(np.array([[-1.0, 1j], [0.0, -1.0]]), np.eye(2)),
        gs.GaussianError, "drift must be real, got a nonzero imaginary part"),
    "gaussian complex covariance": (
        lambda: gs.GaussianState(np.zeros(2), np.array([[1.0, 0.1j], [-0.1j, 1.0]])),
        gs.GaussianError, "covariance must be real, got a nonzero imaginary part"),
    "gaussian.lyapunov_steady complex drift": (
        lambda: gs.lyapunov_steady(np.eye(2) * (1 + 1j), np.eye(2)), gs.GaussianError,
        "drift must be real, got a nonzero imaginary part"),
    "gaussian.lyapunov_steady complex diffusion": (
        lambda: gs.lyapunov_steady(np.eye(2), np.eye(2) * (1 + 1j)), gs.GaussianError,
        "diffusion must be real, got a nonzero imaginary part"),
    "gaussian drift and diffusion shapes": (
        lambda: gs.GaussianModel(np.eye(2), np.eye(4)), gs.GaussianError,
        "equal square matrices"),
    "gaussian odd phase space": (
        lambda: gs.GaussianModel(np.eye(3), np.eye(3)), gs.GaussianError,
        "dimension must be even"),
    "gaussian asymmetric diffusion": (
        lambda: gs.GaussianModel(np.eye(2), [[1.0, 1.0], [0.0, 1.0]]), gs.GaussianError,
        "diffusion matrix must be symmetric"),
    "gaussian parity": (
        lambda: gs.GaussianModel(np.eye(2), np.eye(2), 2.0 * np.eye(2)), gs.GaussianError,
        "square to the identity"),
    "gaussian covariance shape": (
        lambda: gs.GaussianState(np.zeros(2), np.eye(3)), gs.GaussianError,
        "does not match the mean"),
    "gaussian asymmetric covariance": (
        lambda: gs.GaussianState(np.zeros(2), [[1.0, 1.0], [0.0, 1.0]]), gs.GaussianError,
        "covariance must be symmetric"),
    "gaussian classical covariance": (
        lambda: gs.GaussianState(np.zeros(2), -np.eye(2), quantum=False), gs.GaussianError,
        "classical covariance must be PSD"),
    "gaussian.renyi2_entropy singular covariance": (
        lambda: gs.renyi2_entropy(gs.GaussianState(np.zeros(2), np.zeros((2, 2)), quantum=False)),
        gs.GaussianError, "covariance must be positive definite"),
    "gaussian.single_mode_rates modes": (
        lambda: gs.single_mode_rates(0.3, 0.5, gs.GaussianState.thermal(0.5, 2)),
        gs.GaussianError, "expects one mode"),
    "gaussian.TwoModeNessSpec rates": (
        lambda: gs.TwoModeNessSpec(0.0, 1.5, 0.3, 0.4, 0.2, 0.6), gs.GaussianError,
        "omega_a must be finite and > 0, got 0.0"),
    "gaussian.TwoModeNessSpec occupation": (
        lambda: gs.TwoModeNessSpec(1.0, 1.5, 0.3, 0.4, 0.2, -0.1), gs.GaussianError,
        "n_tb must be finite and >= 0, got -0.1"),
    "gaussian.TwoModeNessSpec NaN occupation": (
        lambda: gs.TwoModeNessSpec(1.0, 1.5, 0.3, 0.4, 0.2, NAN), gs.GaussianError,
        "n_tb must be finite and >= 0, got nan"),
    "gaussian.squeezed_sigma zero beta": (
        lambda: gs.squeezed_sigma(gs.SqueezedExchangeSpec(1.0, 1.0, 0.5, 0.2, 0.3, 0.0, 4),
                                  DensityOperator.maximally_mixed(4)),
        gs.GaussianError, "inverse temperature must be finite and > 0"),
    "gaussian.squeezed_sigma NaN beta": (
        lambda: gs.squeezed_sigma(gs.SqueezedExchangeSpec(1.0, 1.0, 0.5, 0.2, 0.3, NAN, 4),
                                  DensityOperator.maximally_mixed(4)),
        gs.GaussianError, "inverse temperature must be finite and > 0"),
    # lindblad
    "lindblad non-square Hamiltonian": (
        lambda: lb.LindbladModel(np.ones((2, 3)), ()), lb.LindbladError,
        "expected a square matrix, got shape (2, 3)"),
    "lindblad negative rate": (
        lambda: lb.LindbladModel(np.eye(2), ((np.eye(2), -1.0),)), lb.LindbladError,
        "jump rates must be finite and >= 0, got [-1.0]"),
    "lindblad non-Hermitian cross terms": (
        lambda: lb.LindbladModel(np.eye(2), (), ((np.eye(2), np.eye(2)),
                                                 [[1.0, 1j], [1j, 1.0]])),
        lb.LindbladError, "coefficient matrix must be Hermitian"),
    "lindblad non-Hermitian Hamiltonian": (
        lambda: lb.LindbladModel(NOT_HERMITIAN, ((SIGMA_MINUS, 1.0),)), lb.LindbladError,
        "not Hermitian"),
    "lindblad.thermal_qubit_model zero beta": (
        lambda: lb.thermal_qubit_model(1.0, 1.0, 0.0), lb.LindbladError,
        "inverse temperature must be finite and > 0"),
    "lindblad.thermal_qubit_model negative beta": (
        lambda: lb.thermal_qubit_model(1.0, 1.0, -1.0), lb.LindbladError,
        "inverse temperature must be finite and > 0"),
    "lindblad.validate_kerr_truncation occupation": (
        lambda: lb.validate_kerr_truncation(lb.LindbladModel(np.zeros((4, 4)), ()),
                                            DensityOperator.pure([0, 0, 0, 1])),
        lb.LindbladError, "beyond half the Fock cut"),
    # resource
    "resource energies rank": (
        lambda: rs.thermo_majorizes_rows(np.zeros((1, 2)), [HALF], [HALF], 1.0),
        rs.ResourceError, "energies must be a 1-d array"),
    "resource population stack shapes": (
        lambda: rs.thermo_majorizes_rows([0.0, 1.0], [HALF], [HALF, HALF], 1.0),
        rs.ResourceError, "population stacks of shapes"),
    "resource betas per row": (
        lambda: rs.thermo_majorizes_rows([0.0, 1.0], [HALF, HALF], [HALF, HALF],
                                         [1.0, 1.0, 1.0]),
        rs.ResourceError, "inverse temperature has shape (3,): one value, or one per row of (2,)"),
    "resource.EnergyPopulations shapes": (
        lambda: rs.EnergyPopulations([0.0, 1.0], [1.0]), rs.ResourceError,
        "matching 1-d arrays"),
    "resource.EnergyPopulations complex levels": (
        lambda: rs.EnergyPopulations(np.array([0.0, 1 + 1j]), HALF), rs.ResourceError,
        "energies must be real, got a nonzero imaginary part"),
    "resource.majorization_verdict lengths": (
        lambda: rs.majorization_verdict([1.0, 0.0], [1.0, 0.0, 0.0]), rs.ResourceError,
        "equal-length vectors"),
    "resource.classical_renyi_rows sizes": (
        lambda: rs.classical_renyi_rows(HALF, [0.2, 0.3, 0.5], [1.0]), rs.ResourceError,
        "equally sized probability vectors"),
    "resource.classical_renyi_rows order grid": (
        lambda: rs.classical_renyi_rows(HALF, HALF, [[1.0]]), rs.ResourceError,
        "Renyi orders must be a 1-d grid"),
    "resource.work_bounds_rows eta beyond beta": (
        lambda: rs.work_bounds_rows(np.eye(2)[None], 1.0, (np.eye(2) / 2)[None], 0.0, 0.0, [2.0]),
        rs.ResourceError, "eta beyond beta: negative Renyi order"),
    "resource.classical_renyi_divergence NaN": (
        lambda: rs.classical_renyi_divergence([NAN, 1.0], HALF, 0.5), rs.ResourceError,
        "must be finite"),
    "resource.classical_renyi_divergence unnormalized": (
        lambda: rs.classical_renyi_divergence([2.0, 3.0], [1.0, 1.0], 2.0), rs.ResourceError,
        "sum to 5.0"),
    "resource.work_bounds_rows stacks": (
        lambda: rs.work_bounds_rows(np.eye(2), 1.0, np.eye(2) / 2, 0.0, 0.0, [0.5]),
        rs.ResourceError, "expected (n, d, d) stacks"),
    "resource.work_bounds_rows one H for a stack of states": (
        lambda: rs.work_bounds_rows(np.eye(2), 1.0, (np.eye(2) / 2)[None], 0.0, 0.0, [0.5]),
        rs.ResourceError, "expected (n, d, d) stacks of one shape, got (2, 2) and (1, 2, 2)"),
    "resource.gibbs_stochastic_feasible_2d_rows levels": (
        lambda: rs.gibbs_stochastic_feasible_2d_rows([0.0, 1.0, 2.0], [[0.2, 0.3, 0.5]],
                                                     [[0.2, 0.3, 0.5]], 1.0),
        rs.ResourceError, "two-level systems"),
    # trajectories
    "trajectories.ScalarDistribution negative weight": (
        lambda: tj.ScalarDistribution([0.0, 1.0], [1.5, -0.5]), tj.TrajectoryError,
        "negative probability"),
    "trajectories.ScalarDistribution complex value": (
        lambda: tj.ScalarDistribution(np.array([0.0, 1.0 + 1j]), HALF), tj.TrajectoryError,
        "values must be real, got a nonzero imaginary part"),
    "trajectories.backward_ensemble_rows choice": (
        lambda: tj.backward_ensemble_rows(_stack(1), "bath reset"), tj.TrajectoryError,
        "unknown backward choice bath reset"),
    "trajectories.stochastic_sigma backward process": (
        lambda: tj.stochastic_sigma(tj.PathEnsemble(np.array([1.0]))), tj.TrajectoryError,
        "no backward probabilities"),
    "trajectories.work_distribution non-Hermitian H": (
        lambda: tj.work_distribution([[0.0, 1.0], [0.0, 1.0]], PAULI_Z, np.eye(2), 1.0),
        tj.TrajectoryError, "not Hermitian"),
    "trajectories.augmented_tpm non-Hermitian H": (
        lambda: tj.augmented_tpm(DensityOperator.from_matrix(np.eye(4) / 4, (2, 2)), ID4,
                                 NOT_HERMITIAN, H2),
        tj.TrajectoryError, "not Hermitian"),
    "trajectories.measurement_trajectories unitaries": (
        lambda: tj.measurement_trajectories([1.0, 0.0], [np.eye(2), np.eye(2)], []),
        tj.TrajectoryError, "exactly one unitary between consecutive bases"),
    "trajectories.measurement_trajectories ragged basis": (
        lambda: tj.measurement_trajectories([1.0, 0.0], [[[1, 0], [0]], np.eye(2)], [np.eye(2)]),
        tj.TrajectoryError, "matrix 0 of the stack: shape (2,), expected (2, 2)"),
    "trajectories.quench_report ragged H": (
        lambda: tj.quench_report(lambda lam: [[lam, 0.0], [0.0]], 0.0, 0.1, 1.0),
        tj.TrajectoryError, "shape (1,), expected (2,)"),
    "trajectories.quench_cgf ragged H": (
        lambda: tj.quench_cgf([[0.0, 0.0], [0.0]], PAULI_Z, 1.0, [0.5]),
        tj.TrajectoryError, "shape (1,), expected (2,)"),
    # the CLI loader, then the configs that `_read` rejects (INVALID_CONFIGS)
    "cli unreadable config": (
        lambda: cli.load_config(Path("missing.json")), cli.ConfigError, "cannot read config"),
    "cli malformed JSON": (
        lambda: _load("{not json"), cli.ConfigError, "not valid JSON"),
    **{name: (lambda text=text: _load(text), cli.ConfigError, fragment)
       for name, (text, fragment) in INVALID_CONFIGS.items()},
    # a bare state is read at the size its call expects, and has one factor,
    # so no bipartition (`core._typed`)
    "gaussian.squeezed_sigma state size": (
        lambda: gs.squeezed_sigma(SQUEEZED, np.eye(3) / 3), gs.GaussianError, "3x3, expected 4x4"),
    "episodes.correlated_heat_flow bare state not A x B": (
        lambda: eps.correlated_heat_flow(np.eye(6) / 6, H2, H2, np.eye(6), 1.0, 1.0),
        eps.EpisodeError, "dims (2, 2) do not match matrix size 6"),
    "core.mutual_information bare state": (
        lambda: core.mutual_information(np.eye(4) / 4, [0]), core.CoreError,
        "bipartition [0] of rho's dims (4,) must leave a non-empty complement"),
}


@pytest.mark.parametrize("call, error, fragment", CASES.values(), ids=CASES.keys())
def test_invalid_input_raises_a_typed_error(call, error, fragment, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


@pytest.mark.parametrize("text, fragment", INVALID_CONFIGS.values(),
                         ids=INVALID_CONFIGS.keys())
def test_run_config_reads_a_config_as_load_config_does(text, fragment, tmp_path, monkeypatch):
    # run_config used to run an unknown key, an undeclared sweep parameter and
    # schema "v9" without notice, and to end in a KeyError or TypeError on others
    monkeypatch.chdir(tmp_path)
    with pytest.raises(cli.ConfigError) as loaded:
        _load(text)
    with pytest.raises(cli.ConfigError) as ran:
        cli.run_config(json.loads(text), tmp_path / "out")
    assert fragment in str(loaded.value)
    assert str(ran.value) == str(loaded.value)
    assert not (tmp_path / "out").exists()


# Every real and integer parameter is read by one rule (`core._real`,
# `core._integer`) with the module's error, whose message begins with the
# parameter's name: strings and booleans are not numbers, NaN is never a
# value, a size is a whole number, and a value is shared or one per row of
# the stack it meets (`core._shared_or_rows`).
NUMBERS = {
    # strings and booleans
    "core.thermal_state string beta": (
        lambda: thermal_state(H2, "2"), core.CoreError,
        "inverse temperature must be finite and >= 0, got '2'"),
    "core.thermal_state bool beta": (
        lambda: thermal_state(H2, True), core.CoreError,
        "inverse temperature must be finite and >= 0, got True"),
    "resource.EnergyPopulations string levels": (
        lambda: rs.EnergyPopulations(["0", "1"], HALF), rs.ResourceError,
        "energies must be a finite number, got ['0', '1']"),
    "classical.RateMatrix.from_offdiagonal string rates": (
        lambda: cl.RateMatrix.from_offdiagonal([["0", "1"], ["1", "0"]]), cl.ClassicalError,
        "rates must be real numbers, got [['0', '1'], ['1', '0']]"),
    "core.shannon_entropy strings": (
        lambda: core.shannon_entropy(["0.5", "0.5"]), core.CoreError,
        "probabilities must be real numbers, got ['0.5', '0.5']"),
    # NaN
    "episodes.heat_distribution NaN beta": (
        lambda: eps.heat_distribution(_episode(), NAN), eps.EpisodeError,
        "inverse temperature must be finite and >= 0, got nan"),
    "trajectories.crooks_check NaN beta": (
        lambda: tj.crooks_check(tj.work_distribution(PAULI_Z, PAULI_Z + PAULI_X, np.eye(2), 1.0),
                                NAN), tj.TrajectoryError,
        "inverse temperature must be finite and > 0, got nan"),
    "trajectories.work_cgf NaN lambda": (
        lambda: tj.work_cgf(PAULI_Z, PAULI_Z + PAULI_X, np.eye(2), 1.0, [0.0, NAN]),
        tj.TrajectoryError, "lambda grid must be a finite number, got [0.0, nan]"),
    "trajectories.quench_cgf NaN lambda": (
        lambda: tj.quench_cgf(PAULI_Z, PAULI_Z + 0.1 * PAULI_X, 1.0, [NAN]), tj.TrajectoryError,
        "lambda grid must be a finite number, got [nan]"),
    "trajectories.ScalarDistribution.cgf NaN lambda": (
        lambda: tj.ScalarDistribution([0.0, 1.0], HALF).cgf(NAN), tj.TrajectoryError,
        "lambda must be a finite number, got nan"),
    "trajectories.weight_convolve NaN gap": (
        lambda: tj.weight_convolve(tj.ScalarDistribution([0.0, 1.0], HALF), 0.5, gaps=[NAN]),
        tj.TrajectoryError, "gaps must be a finite number, got [nan]"),
    "classical.onsager_sigma NaN affinity": (
        lambda: cl.onsager_sigma(np.eye(2), [NAN, 0.0]), cl.ClassicalError,
        "affinities must be a finite number, got [nan, 0.0]"),
    "episodes.gibbs_erasure_bound NaN level": (
        lambda: eps.gibbs_erasure_bound(-0.1, 1.0, [0.0, NAN]), eps.EpisodeError,
        "energies must be a finite number, got [0.0, nan]"),
    "gaussian.single_mode_rates NaN omega": (
        lambda: gs.single_mode_rates(0.3, 0.5, gs.GaussianState.thermal(0.5), omega=NAN),
        gs.GaussianError, "omega must be finite and > 0, got nan"),
    "gaussian.squeezed_sigma NaN omega": (
        lambda: gs.squeezed_sigma(gs.SqueezedExchangeSpec(NAN, 1.0, 0.5, 0.2, 0.3, 0.4, 4),
                                  DensityOperator.maximally_mixed(4)),
        gs.GaussianError, "omega must be finite and > 0, got nan"),
    "gaussian.TwoModeNessSpec NaN coupling": (
        lambda: gs.TwoModeNessSpec(1.0, 1.5, NAN, 0.4, 0.2, 0.6), gs.GaussianError,
        "g_ab must be a finite number, got nan"),
    # fractional sizes
    "episodes.finite_dimension_bound fractional dimension": (
        lambda: eps.finite_dimension_bound(-0.1, 1, 2.5), eps.EpisodeError,
        "environment dimension must be an integer, got 2.5"),
    "classical.glauber_ising fractional lattice": (
        lambda: cl.glauber_ising(2.5, 1.0, 1.0, 0.0, [[1], [0]]), cl.ClassicalError,
        "n_sites must be an integer, got 2.5"),
    "lindblad.kerr_model fractional Fock cut": (
        lambda: lb.kerr_model(-2.0, 1.0, 0.2, 0.5, fock_cut=2.5), lb.LindbladError,
        "fock_cut must be an integer, got 2.5"),
    # the module's error, not CoreError or a bare ValueError
    "lindblad.spohn_rates NaN beta": (
        lambda: lb.spohn_rates(lambda t: QUBIT_MODEL, [(0.0, RHO2)], NAN), lb.LindbladError,
        "inverse temperature must be finite and >= 0, got nan"),
    "resource.interconversion_rate NaN beta": (
        lambda: rs.interconversion_rate(RHO2, MIXED2, NAN, H2), rs.ResourceError,
        "inverse temperature must be finite and >= 0, got nan"),
    "episodes.two_qubit_exchange_scenario NaN alpha": (
        lambda: eps.two_qubit_exchange_scenario(NAN, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0),
        eps.EpisodeError, "alpha must be a finite number, got nan"),
    "gaussian.squeezed_sigma NaN time": (
        lambda: gs.squeezed_sigma(gs.SqueezedExchangeSpec(1.0, 1.0, NAN, 0.2, 0.3, 0.4, 4),
                                  DensityOperator.maximally_mixed(4)),
        gs.GaussianError, "t must be a finite number, got nan"),
    "lindblad.spin_operators NaN spin": (
        lambda: lb.spin_operators(NAN), lb.LindbladError,
        "spin s must be finite and >= 0, got nan"),
    # operator entries: strings and booleans are not numbers (`core._numbers`)
    "core.HermitianOperator.from_matrix strings": (
        lambda: HermitianOperator.from_matrix([["1", "0"], ["0", "1"]]), core.CoreError,
        "matrix entries must be numbers, got [['1', '0'], ['0', '1']]"),
    "core.HermitianOperator.from_matrix booleans": (
        lambda: HermitianOperator.from_matrix([[True, False], [False, True]]), core.CoreError,
        "matrix entries must be numbers, got [[True, False], [False, True]]"),
    "core.HermitianOperator.from_matrix booleans among numbers": (
        lambda: HermitianOperator.from_matrix([[1.0, True], (True, 0.0)]), core.CoreError,
        "matrix entries must be numbers, got [[1.0, True], (True, 0.0)]"),
    "core.thermal_state string Hamiltonian": (
        lambda: thermal_state([["1", "0"], ["0", "2"]], 1.0), core.CoreError,
        "matrix entries must be numbers, got [['1', '0'], ['0', '2']]"),
    "core.DensityOperator.pure strings": (
        lambda: DensityOperator.pure(["1", "0"]), core.CoreError,
        "a pure state's vector must be numbers, got ['1', '0']"),
    "core.von_neumann_entropy string state": (
        lambda: core.von_neumann_entropy([["0.5", "0"], ["0", "0.5"]]), core.CoreError,
        "matrix entries must be numbers, got [['0.5', '0'], ['0', '0.5']]"),
    "trajectories.measurement_trajectories string psi0": (
        lambda: tj.measurement_trajectories(["1", "0"], [np.eye(2)], []), tj.TrajectoryError,
        "psi0 must be numbers, got ['1', '0']"),
    "lindblad.LindbladModel string cross-term coefficients": (
        lambda: lb.LindbladModel(np.eye(2), (), ((np.eye(2), np.eye(2)),
                                                 [["1", "0"], ["0", "1"]])),
        lb.LindbladError, "matrix entries must be numbers, got [['1', '0'], ['0', '1']]"),
    # part indices and the Kerr scale are integers (`core._integer`)
    "core.mutual_information fractional part": (
        lambda: core.mutual_information(THERMAL_AB, [0.5]), core.CoreError,
        "part index must be an integer, got 0.5"),
    "core.mutual_information boolean part": (
        lambda: core.mutual_information(THERMAL_AB, [True]), core.CoreError,
        "part index must be an integer, got True"),
    "lindblad.kerr_model string scale": (
        lambda: lb.kerr_model(-2.0, 1.0, 0.2, 0.5, n_scale="3", fock_cut=4), lb.LindbladError,
        "n_scale must be an integer, got '3'"),
    "lindblad.kerr_model zero scale": (
        lambda: lb.kerr_model(-2.0, 1.0, 0.2, 0.5, n_scale=0, fock_cut=4), lb.LindbladError,
        "n_scale must be an integer >= 1, got 0"),
    "lindblad.kerr_model NaN scale": (
        lambda: lb.kerr_model(-2.0, 1.0, 0.2, 0.5, n_scale=NAN, fock_cut=4), lb.LindbladError,
        "n_scale must be an integer, got nan"),
    # the Glauber lattices, the squeezed bath and the random state's rank
    "classical.glauber_ising_competing zero temperature": (
        lambda: cl.glauber_ising_competing(2, 1.0, 0.0, 0.5, -0.5, cl.ring_adjacency(2)),
        cl.ClassicalError, "temperature must be finite and > 0, got 0.0"),
    "classical.glauber_ising_competing negative temperature": (
        lambda: cl.glauber_ising_competing(2, 1.0, -1.0, 0.5, -0.5, cl.ring_adjacency(2)),
        cl.ClassicalError, "temperature must be finite and > 0, got -1.0"),
    "classical.glauber_ising_competing boolean mu_a": (
        lambda: cl.glauber_ising_competing(2, 1.0, 1.0, True, -0.5, cl.ring_adjacency(2)),
        cl.ClassicalError, "mu_a must be a finite number, got True"),
    "classical.glauber_ising_competing infinite mu_a": (
        lambda: cl.glauber_ising_competing(2, 1.0, 1.0, float("inf"), -0.5, cl.ring_adjacency(2)),
        cl.ClassicalError, "mu_a must be a finite number, got inf"),
    "classical.glauber_ising_competing string coupling": (
        lambda: cl.glauber_ising_competing(2, "1", 1.0, 0.5, -0.5, cl.ring_adjacency(2)),
        cl.ClassicalError, "coupling must be a finite number, got '1'"),
    "classical.glauber_ising string coupling": (
        lambda: cl.glauber_ising(2, "1", 1.0, 0.0, [[1], [0]]), cl.ClassicalError,
        "coupling must be a finite number, got '1'"),
    "lindblad.squeezed_dissipator_from_moments string m_eff": (
        lambda: lb.squeezed_dissipator_from_moments(0.5, 0.2, "0.1", fock_cut=4),
        lb.LindbladError, "m_eff must be one finite complex number, got '0.1'"),
    "lindblad.squeezed_dissipator_from_moments boolean m_eff": (
        lambda: lb.squeezed_dissipator_from_moments(0.5, 0.2, True, fock_cut=4),
        lb.LindbladError, "m_eff must be one finite complex number, got True"),
    "lindblad.squeezed_dissipator_from_moments string n_eff": (
        lambda: lb.squeezed_dissipator_from_moments(0.5, "1", 0.1, fock_cut=4),
        lb.LindbladError, "n_eff must be finite and >= 0, got '1'"),
    "lindblad.squeezed_dissipator boolean gamma": (
        lambda: lb.squeezed_dissipator(True, 0.2, 0.1, 0.3, fock_cut=4), lb.LindbladError,
        "gamma must be finite and >= 0, got True"),
    "lindblad.squeezed_dissipator negative nbar": (
        lambda: lb.squeezed_dissipator(1.0, -1.0, 0.0, 0.3, fock_cut=4), lb.LindbladError,
        "nbar must be finite and >= 0, got -1.0"),
    "lindblad.squeezed_dissipator NaN r": (
        lambda: lb.squeezed_dissipator(1.0, 0.2, NAN, 0.3, fock_cut=4), lb.LindbladError,
        "r must be a finite number, got nan"),
    "lindblad.squeezed_dissipator string theta": (
        lambda: lb.squeezed_dissipator(1.0, 0.2, 0.1, "0.3", fock_cut=4), lb.LindbladError,
        "theta must be a finite number, got '0.3'"),
    "lindblad.squeezed_dissipator NaN omega": (
        lambda: lb.squeezed_dissipator(1.0, 0.2, 0.1, 0.3, fock_cut=4, omega=NAN),
        lb.LindbladError, "omega must be a finite number, got nan"),
    "rand.random_density fractional rank": (
        lambda: random_density(3, np.random.default_rng(0), rank=2.5), core.CoreError,
        "rank must be an integer, got 2.5"),
    # a per-row operand of another length than the rows
    "episodes.thermal_balance_rows betas": (
        lambda: eps.thermal_balance_rows(_stack(1), [1.0, 1.0]), eps.EpisodeError,
        "inverse temperature has shape (2,): one value, or one per row of (1,)"),
    "episodes.landauer_rows betas": (
        lambda: eps.landauer_rows(_stack(1), [1.0, 1.0]), eps.EpisodeError,
        "inverse temperature has shape (2,): one value, or one per row of (1,)"),
    "episodes.multibath_balance_rows part betas": (
        lambda: eps.multibath_balance_rows(_stack(1), [eps.BathPart((0,), np.eye(2), [1.0, 1.0])]),
        eps.EpisodeError, "inverse temperature has shape (2,): one value, or one per row of (1,)"),
    "trajectories.work_rows betas": (
        lambda: tj.work_rows(H2.matrix[None], H2.matrix[None], np.eye(2)[None], [1.0, 1.0]),
        tj.TrajectoryError,
        "inverse temperature has shape (2,): one value, or one per row of (1,)"),
    "resource.work_bounds_rows mean works": (
        lambda: rs.work_bounds_rows(np.eye(2)[None], 1.0, (np.eye(2) / 2)[None], [0.0, 0.0], 0.0,
                                    [0.5]),
        rs.ResourceError, "mean work has shape (2,): one value, or one per row of (1,)"),
    "episodes.gibbs_erasure_bound dS_S rows": (
        lambda: eps.gibbs_erasure_bound([-0.1, -0.2], [1.0, 1.0, 1.0], [0.0, 1.0]),
        eps.EpisodeError, "dS_S has shape (2,): one value, or one per row of (3,)"),
    "episodes.finite_dimension_bound dS_S rows": (
        lambda: eps.finite_dimension_bound([-0.1, -0.2], [1.0, 1.0, 1.0], 4), eps.EpisodeError,
        "dS_S has shape (2,): one value, or one per row of (3,)"),
    "episodes.fixed_point_sigma_rows rho' rows": (
        lambda: eps.fixed_point_sigma_rows(*(tuple(np.array([x] * n) for x in RHO2.eig())
                                             for n in (3, 2)), RHO2.eig()),
        eps.EpisodeError, "rho' has shape (2, 2): one value, or one per row of (3,)"),
    "resource.classical_renyi_rows q rows": (
        lambda: rs.classical_renyi_rows([HALF] * 3, [HALF] * 2, [1.0]), rs.ResourceError,
        "q has shape (2, 2): one value, or one per row of (3,)"),
}


@pytest.mark.parametrize("call, error, message", NUMBERS.values(), ids=NUMBERS.keys())
def test_a_number_is_read_by_the_one_rule(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value).startswith(message)


# A state that an entry point needs as a `DensityOperator` is read by one rule
# (`core._typed`): a bare matrix is the state of one factor, or of the factor
# dims the call infers from its other operands, and gives the numbers of that
# state.  Each call used to raise AttributeError on a bare matrix.
SWAP = np.eye(4)[[0, 2, 1, 3]]
WARM_COLD = np.kron(RHO2.matrix, thermal_state(H2, 2.0).matrix)
KERR8 = lb.kerr_model(-2.0, 1.0, 0.2, 0.5, fock_cut=8)
SQUEEZED = gs.SqueezedExchangeSpec(1.0, 0.5, 0.2, 0.1, 0.3, 0.4, fock_cut=4)
BARE_STATES = {
    # entry point: (the numbers it gives for a state, the state's matrix, its inferred dims)
    "collisional.run": (
        lambda rho: [r.as_row() for r in cm.run(cm.CollisionSpec((_stroke(),), (H2,)), rho, 2)[1]],
        RHO2.matrix, None),
    "collisional.continuous_limit": (
        lambda rho: cm.continuous_limit(np.kron(PAULI_X, PAULI_X), rho).superop,
        RHO2.matrix, None),
    "episodes.correlated_heat_flow": (
        lambda rho: attrgetter("heat_b", "d_mutual_info")(
            eps.correlated_heat_flow(rho, H2, H2, SWAP, 1.0, 2.0)), WARM_COLD, (2, 2)),
    "trajectories.correlated_tpm": (
        lambda rho: attrgetter("mean_heat_dephased", "integral_ft", "rhs")(
            tj.correlated_tpm(rho, H2, H2, SWAP, 1.0, 2.0)), WARM_COLD, (2, 2)),
    "lindblad.integrate": (
        lambda rho: [s.matrix for s in lb.integrate(QUBIT_MODEL, rho, [0.0, 0.5]).states],
        np.eye(2) / 2, None),
    "lindblad.fock_tail_mass": (lb.fock_tail_mass, np.diag([0.5, 0.3, 0.2]), None),
    "lindblad.validate_kerr_truncation": (
        lambda rho: lb.validate_kerr_truncation(KERR8, rho), np.diag([0.9, 0.1] + [0.0] * 6),
        None),
    "gaussian.squeezed_sigma": (
        lambda rho: attrgetter("sigma_affinity", "sigma_relative_entropy")(
            gs.squeezed_sigma(SQUEEZED, rho)), np.diag([0.4, 0.3, 0.2, 0.1]), None),
    "core.partial_trace": (
        lambda rho: core.partial_trace(rho, [0]).matrix, RHO2.matrix, None),
    "lindblad.spohn_rates": (
        lambda rho: list(vars(lb.spohn_rates(lambda t: QUBIT_MODEL, [(0.0, rho), (0.5, rho)],
                                             1.0)).values()),
        np.array([[0.3, 0.1], [0.1, 0.7]]), None),
}


@pytest.mark.parametrize("call, matrix, dims", BARE_STATES.values(), ids=BARE_STATES.keys())
def test_a_bare_state_gives_the_numbers_of_its_typed_form(call, matrix, dims):
    np.testing.assert_array_equal(call(matrix), call(DensityOperator.from_matrix(matrix, dims)))


@pytest.mark.parametrize("beta", [-1.0, 0.0, NAN])
def test_mean_force_hamiltonian_needs_a_positive_beta(beta):
    # -1 gave a Hamiltonian without notice, 0 and NaN a RuntimeWarning and
    # then a CoreError about NaN entries; the strong-coupling balance builds
    # its mean-force Hamiltonians with the same check
    h_total = np.kron(np.diag([0.0, 1.0]), np.eye(2)) + np.kron(np.eye(2), np.diag([0.0, 1.0]))
    calls = [
        lambda: eps.mean_force_hamiltonian(h_total, (2, 2), beta, H2),
        lambda: eps.strong_coupling_sigma([(0.0, np.eye(4) / 4, 0.0)], lambda lam: h_total,
                                          beta, H2, (2, 2)),
    ]
    for call in calls:
        with pytest.raises(eps.EpisodeError, match="inverse temperature must be finite and > 0"):
            call()


# A bare unitary passes the `UnitaryOperator` check (`core._unitary`) with the
# module's error: 2 I, a Haar unitary scaled by 1 + 1e-6, a NaN entry and a
# non-square matrix, each as a function of the dimension.
BAD_UNITARIES = {
    "2I": (lambda d: 2.0 * np.eye(d), "matrix is not unitary (residual"),
    "Haar x (1 + 1e-6)": (
        lambda d: (1.0 + 1e-6) * haar_unitaries(ginibre(np.random.default_rng(d), (d, d))),
        "matrix is not unitary (residual"),
    "NaN": (lambda d: np.diag([NAN] + [1.0] * (d - 1)), "NaN or infinite entries"),
    "non-square": (lambda d: np.eye(d)[:, :-1], "expected a square matrix"),
}
UNITARY_READERS = {
    # entry point: (its call on a bare U, the dimension of U, the error)
    "episodes.EpisodeStack.of": (
        lambda u: eps.EpisodeStack.of(*[np.eye(2)[None] / 2] * 2, np.asarray(u)[None],
                                      *[np.eye(2)[None] / 2] * 2), 4, eps.EpisodeError),
    "episodes.is_strict_energy_conserving": (
        lambda u: eps.is_strict_energy_conserving(u, H2, H2), 4, eps.EpisodeError),
    "episodes.correlated_heat_flow": (
        lambda u: eps.correlated_heat_flow(THERMAL_AB, H2, H2, u, 1.0, 1.0), 4,
        eps.EpisodeError),
    "trajectories.correlated_tpm": (
        lambda u: tj.correlated_tpm(THERMAL_AB, H2, H2, u, 1.0, 1.0), 4, tj.TrajectoryError),
    "trajectories.work_distribution": (
        lambda u: tj.work_distribution(PAULI_Z, PAULI_Z + PAULI_X, u, 1.0), 2,
        tj.TrajectoryError),
    "trajectories.work_cgf": (
        lambda u: tj.work_cgf(PAULI_Z, PAULI_Z + PAULI_X, u, 1.0, [0.0, 0.5]), 2,
        tj.TrajectoryError),
    "trajectories.augmented_tpm": (
        lambda u: tj.augmented_tpm(THERMAL_AB, u, H2, H2), 4, tj.TrajectoryError),
    "trajectories.measurement_trajectories": (
        lambda u: tj.measurement_trajectories([1.0, 0.0], [np.eye(2), np.eye(2)], [u]), 2,
        tj.TrajectoryError),
    "collisional.four_stroke v1": (
        lambda u: cm.four_stroke(u, np.eye(2), ID4, ID4, RHO2, RHO2, H2), 2,
        cm.CollisionalError),
    "collisional.four_stroke v2": (
        lambda u: cm.four_stroke(np.eye(2), u, ID4, ID4, RHO2, RHO2, H2), 2, cm.CollisionalError),
}
UNITARY_CASES = [(reader, bad) for reader in UNITARY_READERS for bad in BAD_UNITARIES]


@pytest.mark.parametrize("reader, bad", UNITARY_CASES,
                         ids=[f"{reader} {bad}" for reader, bad in UNITARY_CASES])
def test_bare_unitaries_raise_the_module_error(reader, bad):
    call, d, error = UNITARY_READERS[reader]
    make, fragment = BAD_UNITARIES[bad]
    with pytest.raises(error) as info:
        call(make(d))
    assert fragment in str(info.value)


BAD_HAMILTONIANS = {
    "NaN": ([[NAN, 0.0], [0.0, 1.0]], "NaN or infinite entries"),
    "non-square": (np.ones((2, 3)), "expected a square matrix"),
}
HAMILTONIAN_READERS = {
    # entry point: (its call on a bare 2 x 2 H, the error)
    "episodes.is_strict_energy_conserving": (
        lambda h: eps.is_strict_energy_conserving(np.eye(4), h, H2), eps.EpisodeError),
    "episodes.correlated_heat_flow": (
        lambda h: eps.correlated_heat_flow(THERMAL_AB, h, H2, ID4, 1.0, 1.0), eps.EpisodeError),
    "episodes.mean_force_hamiltonian": (
        lambda h: eps.mean_force_hamiltonian(np.eye(4), (2, 2), 1.0, h), eps.EpisodeError),
    "trajectories.work_distribution": (
        lambda h: tj.work_distribution(h, PAULI_Z, np.eye(2), 1.0), tj.TrajectoryError),
    "trajectories.augmented_tpm": (
        lambda h: tj.augmented_tpm(THERMAL_AB, ID4, h, H2), tj.TrajectoryError),
    "resource.work_bounds_rows": (
        lambda h: rs.work_bounds_rows(np.asarray(h)[None], 1.0, (np.eye(2) / 2)[None],
                                      0.0, 0.0, [0.5]),
        rs.ResourceError),
    "collisional.continuous_limit": (
        lambda h: cm.continuous_limit(h, RHO2), cm.CollisionalError),
}


@pytest.mark.parametrize("bad", BAD_HAMILTONIANS)
@pytest.mark.parametrize("reader", HAMILTONIAN_READERS)
def test_bare_hamiltonians_raise_the_module_error(reader, bad):
    call, error = HAMILTONIAN_READERS[reader]
    h, fragment = BAD_HAMILTONIANS[bad]
    with pytest.raises(error) as info:
        call(h)
    assert fragment in str(info.value)


def _capacity(value):
    """A heat capacity C(T) = value(T) that fails the test past 10 000 calls,
    so a quadrature that cannot stop shows as a failure, not a hang."""
    calls = []

    def capacity(t):
        calls.append(t)
        assert len(calls) <= 10_000, "heat capacity evaluated more than 10 000 times"
        return value(t)
    return capacity


@pytest.mark.parametrize("temperature, value", [
    (NAN, lambda t: t),                  # the quadrature's limits are NaN
    (1.0, lambda t: NAN),                # the integrand is NaN
    (1.0, lambda t: float("inf") * t),   # the integrand is infinite
    (-1.0, lambda t: t),
], ids=["NaN temperature", "NaN capacity", "infinite capacity", "negative temperature"])
def test_heat_capacity_bound_rejects_what_no_quadrature_resolves(temperature, value):
    # at 2^49 possible evaluations, each of these ran past a 10 s limit
    with pytest.raises(eps.EpisodeError, match="^temperature must be finite|non-finite integrand"):
        eps.heat_capacity_bound(-0.1, temperature, _capacity(value))


# One size rule (`core._check_size`): an operand of another size than the one
# its entry point derives from the operands read before it raises the
# module's error naming both sizes.  One row per entry point; the contract
# below keeps a row for every public callable that takes two or more
# operators.
THREE_LEVELS = [0.0, 1.0, 2.0]
H4 = np.kron(np.diag([0.0, 1.0]), np.eye(2)) + np.kron(np.eye(2), np.diag([0.0, 1.0]))
QUBIT_MODEL = lb.thermal_qubit_model(1.0, 1.0, 1.0)
MISMATCHED = {
    # entry point: (its call with one operand of the wrong size, the error, the sizes)
    "entroprod.core.relative_entropy": (
        lambda: core.relative_entropy(RHO2, np.eye(3) / 3), core.CoreError, "3x3, expected 2x2"),
    "entroprod.core.renyi_divergence": (
        lambda: core.renyi_divergence(RHO2, MIXED3, 2.0), core.CoreError, "3x3, expected 2x2"),
    "entroprod.core.trace_distance": (
        lambda: core.trace_distance(RHO2, ID4), core.CoreError, "4x4, expected 2x2"),
    "entroprod.core.dephase": (
        lambda: core.dephase(np.eye(2) / 2, H3), core.CoreError, "3x3, expected 2x2"),
    "entroprod.core.relative_entropy_of_coherence": (
        lambda: core.relative_entropy_of_coherence(RHO2, H3), core.CoreError,
        "3x3, expected 2x2"),
    "entroprod.core.ancilla_kraus": (
        lambda: core.ancilla_kraus(ID4, MIXED3), core.CoreError, "4x4, expected 3x3"),
    "entroprod.episodes.Episode": (
        lambda: _episode(h_env=H3), eps.EpisodeError, "3x3, expected 2x2"),
    "entroprod.episodes.EpisodeStack.of": (
        lambda: eps.EpisodeStack.of(*[(np.eye(2) / 2)[None]] * 2, np.eye(2)[None],
                                    *[(np.eye(2) / 2)[None]] * 2),
        eps.EpisodeError, "2x2, expected 4x4"),
    "entroprod.episodes.is_strict_energy_conserving": (
        lambda: eps.is_strict_energy_conserving(np.eye(2), H2, H2), eps.EpisodeError,
        "2x2, expected 4x4"),
    "entroprod.episodes.fixed_point_sigma": (
        lambda: eps.fixed_point_sigma(RHO2, RHO2, np.eye(3) / 3), eps.EpisodeError,
        "3x3, expected 2x2"),
    "entroprod.episodes.has_global_fixed_point": (
        lambda: eps.has_global_fixed_point(_episode(), MIXED3), eps.EpisodeError,
        "3x3, expected 2x2"),
    "entroprod.episodes.conditional_balance": (
        lambda: eps.conditional_balance(_episode(), [np.eye(3)]), eps.EpisodeError,
        "3x3, expected 2x2"),
    "entroprod.episodes.correlated_heat_flow": (
        lambda: eps.correlated_heat_flow(THERMAL_AB, H2, H2, FLIP, 1.0, 1.0), eps.EpisodeError,
        "2x2, expected 4x4"),
    "entroprod.episodes.mean_force_hamiltonian": (
        # an H_E of the wrong size used to return H_mf shifted by (ln Z_3 - ln Z_2) / beta
        lambda: eps.mean_force_hamiltonian(np.eye(4), (2, 2), 1.0, np.diag(THREE_LEVELS)),
        eps.EpisodeError, "3x3, expected 2x2"),
    "entroprod.episodes.strong_coupling_sigma": (
        lambda: eps.strong_coupling_sigma([(0.0, np.eye(4) / 4, 0.0)], lambda lam: H4, 1.0,
                                          np.diag(THREE_LEVELS), (2, 2)),
        eps.EpisodeError, "3x3, expected 2x2"),
    "entroprod.episodes.correlation_witness_terms": (
        lambda: eps.correlation_witness_terms([0.0, 1.0, 2.0], [np.eye(4) / 4] * 3,
                                              [np.eye(2) / 2] * 3, H4, (2, 2)),
        eps.EpisodeError, "2x2, expected 4x4"),
    "entroprod.trajectories.work_rows": (
        lambda: tj.work_rows(H2.matrix[None], H3.matrix[None], np.eye(2)[None], 1.0),
        tj.TrajectoryError, "3x3, expected 2x2"),
    "entroprod.trajectories.work_distribution": (
        lambda: tj.work_distribution(PAULI_Z, PAULI_Z, np.eye(3), 1.0), tj.TrajectoryError,
        "3x3, expected 2x2"),
    "entroprod.trajectories.work_cgf": (
        lambda: tj.work_cgf(PAULI_Z, PAULI_Z, np.eye(3), 1.0, [0.0, 0.5]), tj.TrajectoryError,
        "3x3, expected 2x2"),
    "entroprod.trajectories.quench_cgf": (
        lambda: tj.quench_cgf(PAULI_Z, np.diag(THREE_LEVELS), 1.0, [0.0, 0.5]), tj.TrajectoryError,
        "3x3, expected 2x2"),
    "entroprod.trajectories.correlated_tpm": (
        lambda: tj.correlated_tpm(THERMAL_AB, H2, H2, FLIP, 1.0, 1.0), tj.TrajectoryError,
        "2x2, expected 4x4"),
    "entroprod.trajectories.augmented_tpm": (
        lambda: tj.augmented_tpm(THERMAL_AB, FLIP, H2, H2), tj.TrajectoryError,
        "2x2, expected 4x4"),
    "entroprod.trajectories.populations": (
        lambda: tj.populations(np.eye(3) / 3, np.eye(2)), tj.TrajectoryError,
        "3x3, expected 2x2"),
    "entroprod.trajectories.measurement_trajectories": (
        lambda: tj.measurement_trajectories([1.0, 0.0], [np.eye(2), np.eye(3)], [np.eye(2)]),
        tj.TrajectoryError, "matrix 1 of the stack: shape (3, 3), expected (2, 2)"),
    "entroprod.collisional.AncillaStroke": (
        lambda: cm.AncillaStroke(RHO2, H3, ID4), cm.CollisionalError, "3x3, expected 2x2"),
    "entroprod.collisional.CollisionSpec": (
        lambda: cm.CollisionSpec((_stroke(),), (H2,), (UnitaryOperator.from_matrix(np.eye(3)),)),
        cm.CollisionalError, "3x3, expected 2x2"),
    "entroprod.collisional.run": (
        lambda: cm.run(cm.CollisionSpec((_stroke(),), (H2,)), MIXED3, 2), cm.CollisionalError,
        "3x3, expected 2x2"),
    "entroprod.collisional.continuous_limit": (
        lambda: cm.continuous_limit(np.kron(PAULI_X, PAULI_X), MIXED3), cm.CollisionalError,
        "4x4, expected 3x3"),
    "entroprod.collisional.four_stroke": (
        lambda: cm.four_stroke(np.eye(2), np.eye(2), ID4, ID4, RHO2, MIXED3, H2),
        cm.CollisionalError, "4x4, expected 6x6"),
    "entroprod.resource.coherence_second_laws": (
        lambda: rs.coherence_second_laws(RHO2, RHO2, H3), rs.ResourceError, "3x3, expected 2x2"),
    "entroprod.resource.interconversion_rate": (
        lambda: rs.interconversion_rate(RHO2, MIXED3, 1.0, H2), rs.ResourceError,
        "3x3, expected 2x2"),
    "entroprod.resource.work_bounds_rows": (
        lambda: rs.work_bounds_rows(np.eye(2)[None], 1.0, (np.eye(3) / 3)[None], 0.0, 0.0,
                                    [0.5]),
        rs.ResourceError, "3x3, expected 2x2"),
    "entroprod.lindblad.apply_superop": (
        lambda: lb.apply_superop(lb.build(QUBIT_MODEL), np.eye(3) / 3), lb.LindbladError,
        "3x3, expected 2x2"),
    "entroprod.lindblad.integrate": (
        lambda: lb.integrate(QUBIT_MODEL, MIXED3, [0.0, 1.0]), lb.LindbladError,
        "3x3, expected 2x2"),
}


@pytest.mark.parametrize("call, error, sizes", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_a_mismatched_operand_raises_the_module_error(call, error, sizes):
    with pytest.raises(error) as info:
        call()
    assert sizes in str(info.value)


# The parameter names that hold an operator on a Hilbert space (a state, a
# Hamiltonian, a unitary or a superoperator, bare or typed, one or a list).
OPERATORS = {
    "rho", "sigma", "rho1", "rho2", "rho0", "rho_ab", "rho_before", "rho_after", "fixed_point",
    "candidate", "rho_system", "rho_env", "rho_ancilla", "rho_final", "rho_hot", "rho_cold",
    "hamiltonian", "h_system", "h_env", "h_initial", "h_final", "h_a", "h_b", "h_total", "h_hot",
    "h_cold", "unitary", "protocol_unitary", "system_unitaries", "v1", "v2", "u_sh", "u_sc",
    "v_int", "op", "superop", "basis", "bases", "unitaries", "kraus_env", "joint_1", "joint_2",
}
# Multi-operator callables that read no operand themselves, each with the reason.
EXEMPT = {
    "entroprod.episodes.EpisodeStack": "its fields are validated by `EpisodeStack.of`",
    "entroprod.episodes.EvolvedStates": "a record of the states `evolve` made",
}


def _multi_operator_callables():
    return sorted(name for name, obj in _public_callables()
                  if len(OPERATORS.intersection(_parameters(obj))) >= 2)


def test_every_multi_operator_callable_has_a_mismatched_operand_row():
    assert [name for name in _multi_operator_callables()
            if name not in MISMATCHED and name not in EXEMPT] == []


def test_every_size_row_and_exemption_names_a_public_callable():
    names = {name for name, _ in _public_callables()}
    assert sorted(set(MISMATCHED) - names) == []
    assert sorted(set(EXEMPT).difference(_multi_operator_callables())) == []


# A time-resolved route reads its times by one rule (`core._times`): finite
# reals, strictly increasing, at least as many as its derivative needs; a
# trajectory's entries by `core._trajectory`; and its states by
# `core._density_stack`, each with the module's error.  Most of these used to
# return NaN slopes or rates, a Markovian verdict or string times, or to raise
# IndexError, AttributeError or CoreError.
def _spohn(times, state=RHO2, model=QUBIT_MODEL):
    return lb.spohn_rates(lambda t: model, [(t, state) for t in times], 1.0)


def _strong(trajectory):
    return eps.strong_coupling_sigma(trajectory, lambda lam: H4, 1.0, H2, (2, 2))


def _blp(times, states=None):
    return eps.blp_witness(times, states or [RHO2] * len(times), [MIXED2] * len(times))


def _correlation(times, joint=None):
    n = len(times)
    return eps.correlation_witness_terms(times, [np.eye(4) / 4] * n,
                                         joint or [np.eye(4) / 4] * n, H4, (2, 2))


NOT_A_STATE = np.diag([1.5, -0.5])
BAD_TIMES = {
    # bad input: (the times, the message)
    "NaN time": ([0.0, NAN, 1.0], "times must be a finite number, got [0.0, nan, 1.0]"),
    "repeated time": ([0.0, 0.0, 1.0], "times must increase strictly: t[1] = 0 after 0"),
    "decreasing times": ([1.0, 0.5, 0.0], "times must increase strictly: t[1] = 0.5 after 1"),
    "string time": ([0.0, "0.5", 1.0], "times must be a finite number, got [0.0, '0.5', 1.0]"),
    "boolean time": ([0.0, True, 2.0], "times must be a finite number, got [0.0, True, 2.0]"),
}
TIME_ROUTES = {
    # route: (its call on a list of times, the error)
    "lindblad.spohn_rates": (_spohn, lb.LindbladError),
    "episodes.strong_coupling_sigma": (
        lambda times: _strong([(t, np.eye(4) / 4, 0.0) for t in times]), eps.EpisodeError),
    "episodes.blp_witness": (_blp, eps.EpisodeError),
    "episodes.correlation_witness_terms": (_correlation, eps.EpisodeError),
}
TIME_SERIES = {
    f"{route} {bad}": (lambda call=call, times=times: call(times), error, message)
    for route, (call, error) in TIME_ROUTES.items()
    for bad, (times, message) in BAD_TIMES.items()
} | {
    "lindblad.spohn_rates one point": (
        lambda: _spohn([0.0]), lb.LindbladError,
        "need at least 2 time points in a 1-d sequence, got shape (1,)"),
    "lindblad.spohn_rates empty trajectory": (
        lambda: _spohn([]), lb.LindbladError, "need at least 2 time points"),
    "episodes.strong_coupling_sigma empty trajectory": (
        lambda: _strong([]), eps.EpisodeError, "need at least 1 time points"),
    "episodes.blp_witness no times": (
        lambda: _blp([]), eps.EpisodeError, "need at least 3 time points"),
    "episodes.correlation_witness_terms no times": (
        lambda: _correlation([]), eps.EpisodeError, "need at least 3 time points"),
    "lindblad.spohn_rates entry not (t, rho)": (
        lambda: lb.spohn_rates(lambda t: QUBIT_MODEL, [(0.0, RHO2), (0.5, RHO2, 0.0)], 1.0),
        lb.LindbladError, "trajectory must be a list of (t, rho): entry 1 is not"),
    "episodes.strong_coupling_sigma entry not (t, rho_SE, lambda)": (
        lambda: _strong([(0.0, np.eye(4) / 4)]), eps.EpisodeError,
        "trajectory must be a list of (t, rho_SE, lambda): entry 0 is not"),
    "lindblad.spohn_rates non-state": (
        lambda: lb.spohn_rates(lambda t: QUBIT_MODEL, [(0.0, RHO2), (0.5, NOT_A_STATE)], 1.0),
        lb.LindbladError, "matrix 1 of the stack: density matrix has negative eigenvalue"),
    "episodes.strong_coupling_sigma non-state": (
        lambda: _strong([(0.0, np.kron(NOT_A_STATE, np.eye(2) / 2), 0.0)]), eps.EpisodeError,
        "matrix 0 of the stack: density matrix has negative eigenvalue"),
    "episodes.blp_witness non-state": (
        lambda: _blp([0.0, 1.0, 2.0], [RHO2, NOT_A_STATE, RHO2]), eps.EpisodeError,
        "matrix 1 of the stack: density matrix has negative eigenvalue"),
    "episodes.correlation_witness_terms non-state": (
        lambda: _correlation([0.0, 1.0, 2.0], [np.kron(NOT_A_STATE, np.eye(2) / 2)] * 3),
        eps.EpisodeError, "matrix 0 of the stack: density matrix has negative eigenvalue"),
    "lindblad.spohn_rates model not a LindbladModel": (
        lambda: lb.spohn_rates(lambda t: np.eye(2), [(0.0, RHO2), (0.5, RHO2)], 1.0),
        lb.LindbladError, "model_of_t(0) is not a LindbladModel of size 2"),
    "lindblad.spohn_rates model of another size": (
        lambda: _spohn([0.0, 0.5], model=lb.LindbladModel(np.diag(THREE_LEVELS), ())),
        lb.LindbladError, "model_of_t(0) is not a LindbladModel of size 2"),
}


@pytest.mark.parametrize("call, error, message", TIME_SERIES.values(), ids=TIME_SERIES.keys())
def test_a_trajectory_is_read_by_the_one_rule(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert message in str(info.value)
