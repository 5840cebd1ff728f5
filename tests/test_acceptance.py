"""Acceptance battery: every formulation of entropy production is
cross-validated against an independent route on exactly solvable
instances, at pinned tolerances.  One test per criterion; each prints a
PASS/FAIL line so the battery reads as a report under `pytest -s`.
"""

import time

from entroprod import verify


def _assert_suite(name, records, budget=None, elapsed=None):
    assert all(isinstance(record, verify.Record) for record in records), records
    for record in records:
        print(record)
    if budget is not None:
        tag = "PASS" if elapsed < budget else "FAIL"
        print(f"[{tag}] {name} runtime {elapsed:.1f}s (budget {budget:.0f}s)")
        assert elapsed < budget
    assert all(record.passed for record in records), f"{name}: " + "; ".join(
        record.name for record in records if not record.passed)


def _assert_pinned(records, tol, names=None):
    """The records named (every record when None) compare with the pinned tolerance."""
    names = [record.name for record in records] if names is None else names
    assert {r.name: r.bound for r in records if r.name in names} == dict.fromkeys(names, tol)


def test_criterion_01_ft_table_identities():
    """25 random 2x2 episodes: all four backward-choice averages at 1e-10
    and the integral fluctuation theorem, within 10 s."""
    start = time.time()
    records = verify.ft_table_suite(n_episodes=25)
    _assert_suite("ft-table", records, budget=10.0, elapsed=time.time() - start)
    _assert_pinned(records, 1e-10)


def test_criterion_02_route_equality():
    """Information, Clausius, free-energy and fixed-point routes agree
    pairwise at 1e-10 on 25 random thermal episodes."""
    records = verify.route_equality_suite(n_episodes=25)
    _assert_suite("route-equality", records)
    _assert_pinned(records, 1e-10)


def test_criterion_03_swap_engine():
    """Closed forms vs exact 4x4 simulation at 1e-12 over a 50-point sweep
    at T_b/T_a = 1/2; Carnot point all-zero; Otto efficiency exact."""
    records = verify.swap_engine_suite()
    _assert_suite("swap-engine", records)
    _assert_pinned(records, 1e-12, ["swap closed forms == 4x4 simulation",
                                    "swap closed forms == four-stroke cycle",
                                    "swap Carnot point all-zero"])


def test_criterion_04_landauer_bounds():
    """100 random qubit-bath episodes: Q >= -T dS, the finite-dimension
    tightening, the exponential-average bound, the heat-capacity chain,
    and the linear-capacity closed form at 1e-10."""
    records = verify.landauer_suite(n_episodes=100)
    _assert_suite("landauer", records)
    _assert_pinned(records, 1e-10, ["landauer linear capacity closed form",
                                    "landauer finite-d bound closed form"])


def test_criterion_05_gaussian_ness():
    """Two-mode steady state: Pi equals the general linear-dynamics
    formula at 1e-8 across a coupling sweep, diverges by > 10x near the
    critical coupling, and the phase-space flux prefactor reaches 1/T
    within 1% at T = 50 omega."""
    records = verify.gaussian_ness_suite()
    _assert_suite("gaussian-ness", records)
    _assert_pinned(records, 1e-8, ["ness Pi == general linear formula"])


def test_criterion_06_classical_suite():
    """Schnakenberg non-negativity on 200 random generators, the exact
    rate balance, the TUR on 20 two-bath instances and the lattice NESS
    within 30 s."""
    start = time.time()
    records = verify.classical_suite()
    _assert_suite("classical", records, budget=30.0, elapsed=time.time() - start)


def test_criterion_07_quench_suite():
    """Qubit sudden quenches: the commuting fluctuation-dissipation
    relation at 1e-9, its coherence-induced breaking with positive higher
    cumulants, and the Gallavotti-Cohen symmetry on a 21-point grid."""
    records = verify.quench_suite()
    _assert_suite("quench", records)
    _assert_pinned(records, 1e-9, ["quench commuting FDR <sigma> = var/2",
                                   "quench coherent FDR breaking by Q",
                                   "quench Gallavotti-Cohen K(l) = K(1-l)"])


def test_criterion_08_resource_suite():
    """Thermo-majorization verdict equals the embedding verdict on 50
    qubit pairs (D = 10^4), Renyi monotonicity on 100 pairs, the work
    sandwich on 20 sudden quenches, and the 2x2 Gibbs-stochastic oracle
    on 100 pairs."""
    _assert_suite("majorization", verify.majorization_suite())


def test_criterion_09_squeezed_bath():
    """Affinity and fixed-point routes agree at 1e-8 on 10 conserving
    two-mode episodes at Fock cut 20; r = 0 reduces to the thermal
    route."""
    records = verify.squeezed_suite()
    _assert_suite("squeezed", records)
    _assert_pinned(records, 1e-8, ["squeezed affinity == fixed-point route"])


def test_criterion_10_liouvillian_suite(liouvillian_run):
    """Kerr gap has a local minimum off both ends of its drive grid, which
    lies inside the semiclassical bistable window, at N = 3; the macrospin
    order parameter stays negative below h = 2 kappa with monotone approach;
    within 60 s (the run's own time: the run is shared, `conftest.liouvillian_run`)."""
    records, elapsed = liouvillian_run
    _assert_suite("liouvillian", records, budget=60.0, elapsed=elapsed)
