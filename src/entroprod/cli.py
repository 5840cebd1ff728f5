"""Scenario runner: declarative JSON configs in, CSV/JSON tables out.

    entroprod run <config.json> [--jobs N] [--out DIR]
    entroprod verify <suite>

Config schema (version "v1"): {"schema": "v1", "kind": <scenario>,
"parameters": {...}, "sweep": {"parameter": name, "grid": [...]},
"seed": int, "output": {"path": ..., "format": "csv"|"json"}}.
Each kind declares its parameters once, in SCENARIOS, and one reader
(`_read`) checks a config against them for `load_config` and `run_config`
alike, before anything runs: any other key is a validation error, and every
value, grid values included, passes its parameter's rule.
Runs are deterministic given the seed; every CSV carries a header row and
a provenance comment with the config hash and seed.  Exit codes: 0 ok,
2 validation error, 3 numerical failure; in a sweep the failure names its
point index and the swept parameter's value.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import classical as cl
from . import collisional as cm
from . import episodes as eps
from . import gaussian as gs
from . import lindblad as lb
from . import resource as rs
from . import trajectories as tj
from . import verify
from .core import CoreError, HermitianOperator, PAULI_X, PAULI_Z, _integer, _real
from .rand import random_probability

SCHEMA_VERSION = "v1"
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
REQUIRED = None     # the default of a parameter a config must give


class ConfigError(ValueError):
    pass


class SweepPointError(ValueError):
    """A numerical failure at one point of a sweep, named by its index and
    the swept parameter's value; the original error is its cause."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# ---------------------------------------------------------------------------
# Scenario table builders: each takes the seeded rng and its checked
# parameters (SCENARIOS) by name, and returns (header, rows)
# ---------------------------------------------------------------------------

def _scenario_collisional(rng, t_a, t_b, eps_a, ratio):
    """SWAP engine sweep over the gap ratio."""
    res = cm.swap_engine(cm.SwapEngineSpec(eps_a, ratio * eps_a, t_a, t_b))
    return (["ratio", "W", "Qa", "Qb", "Sigma", "regime"],
            [[ratio, res.work, res.q_a, res.q_b, res.sigma, res.regime]])


def _scenario_episode(rng, beta, omega, g):
    """Random (seeded) resonant-qubit thermal episode balance."""
    from .core import SIGMA_MINUS, SIGMA_PLUS, UnitaryOperator, hermitian_function, thermal_state
    from .rand import random_density
    h = HermitianOperator.from_matrix(omega * np.diag([0.0, 1.0]))
    v = g * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
    u = UnitaryOperator.from_matrix(hermitian_function(v, lambda x: np.exp(-1j * x)), (2, 2))
    ep = eps.Episode(h, h, u, random_density(2, rng), thermal_state(h, beta))
    bal = eps.thermal_balance(ep, beta)
    row = [g, bal.sigma, bal.flux, bal.d_entropy_system, bal.mutual_info,
           bal.env_displacement, bal.heat_env, bal.work]
    return (["g", "sigma", "flux", "dS_S", "I_SE", "D_env", "Q_E", "W"], [row])


def _scenario_trajectories(rng, beta, dlam):
    """Qubit sudden-quench work distribution."""
    stats = tj.work_distribution(PAULI_Z, PAULI_Z + dlam * PAULI_X, np.eye(2), beta)
    rows = [[v, p] for v, p in zip(stats.forward.values,
                                   stats.forward.probabilities)]
    return (["value", "probability"], rows)


def _scenario_lindblad(rng, drive, delta, kerr, kappa, n_scale, fock_cut):
    """Liouvillian gap and steady occupation of the driven Kerr model."""
    model = lb.kerr_model(delta, kerr, drive, kappa, n_scale=n_scale, fock_cut=fock_cut)
    gap_val = lb.gap(model)
    rho_ss = lb.steady_state(model)
    n_mean, _ = lb.validate_kerr_truncation(model, rho_ss)
    return (["parameter", "gap", "order_parameter", "n_a"],
            [[drive, gap_val, n_mean / n_scale, n_mean]])


def _scenario_gaussian(rng, g_ab, omega_a, omega_b, kappa_a, gamma_b, n_tb):
    """Two-mode NESS sweep row."""
    res = gs.two_mode_ness(gs.TwoModeNessSpec(omega_a, omega_b, g_ab, kappa_a, gamma_b, n_tb))
    return (["g_ab", "n_a", "n_b", "Pi", "mu_a", "mu_b"],
            [[g_ab, res.n_a, res.n_b, res.entropy_rate, res.mu_a, res.mu_b]])


def _scenario_classical(rng, temperature, mu, n_sites, coupling):
    """Competing-reservoir Ising lattice entropy production."""
    w = cl.glauber_ising_competing(n_sites, coupling, temperature, mu, -mu,
                                   cl.ring_adjacency(n_sites))
    sigma, lumped = cl.multibath_sigma(w, cl.stationary_distribution(w))
    return (["T", "sigma", "sigma_lumped"], [[temperature, sigma, lumped]])


def _scenario_resource(rng, beta, gap, denominator):
    """Thermo-majorization verdict for a random (seeded) qubit pair."""
    e2 = np.array([0.0, gap])
    pop1 = rs.EnergyPopulations(e2, random_probability(2, rng))
    pop2 = rs.EnergyPopulations(e2, random_probability(2, rng))
    verdict = rs.thermo_majorizes(pop1, pop2, beta)
    g1, err = rs.gamma_embed(pop1, beta, denominator)
    return (["beta", "p1_ground", "p2_ground", "verdict", "embedding_error"],
            [[beta, pop1.probabilities[0], pop2.probabilities[0],
              verdict.value, err]])


# Each scenario with its parameters, each declared once, with its default or
# REQUIRED: an int default marks an integer (`core._integer`), any other one
# real number (`core._real`), each read with ConfigError.  A config naming any
# other key, in "parameters" or as the sweep parameter, is a validation error.
SCENARIOS = {
    "collisional": (_scenario_collisional,
                    {"t_a": REQUIRED, "t_b": REQUIRED, "eps_a": REQUIRED, "ratio": 0.5}),
    "episode": (_scenario_episode, {"beta": REQUIRED, "omega": 1.0, "g": 0.7}),
    "trajectories": (_scenario_trajectories, {"beta": REQUIRED, "dlam": 0.3}),
    "lindblad": (_scenario_lindblad, {"drive": REQUIRED, "delta": -2.0, "kerr": 1.0,
                                      "kappa": 0.5, "n_scale": 1, "fock_cut": 20}),
    "gaussian": (_scenario_gaussian, {"g_ab": REQUIRED, "omega_a": 1.0, "omega_b": 1.5,
                                      "kappa_a": 0.4, "gamma_b": 0.2, "n_tb": 0.6}),
    "classical": (_scenario_classical, {"temperature": REQUIRED, "mu": 0.8, "n_sites": 4,
                                        "coupling": 1.0}),
    "resource": (_scenario_resource, {"beta": REQUIRED, "gap": 1.0, "denominator": 10_000}),
}


# ---------------------------------------------------------------------------
# Config handling and output
# ---------------------------------------------------------------------------

def _point(declared: dict, given: dict) -> dict:
    """Every declared parameter, checked by its rule: the given value, else its default."""
    point = {}
    for name, default in declared.items():
        if name not in given:
            if default is REQUIRED:
                raise ConfigError(f"missing required parameter '{name}'")
            point[name] = default
        else:
            label = f"parameter '{name}'"
            point[name] = (_integer(given[name], ConfigError, label) if type(default) is int
                           else float(_real(given[name], ConfigError, label, rows=())))
    return point


def _read(cfg) -> tuple:
    """The one config reader: (builder, checked points, swept parameter or None,
    seed, output path, format) of a config dict, else a ConfigError."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema '{cfg.get('schema')}'")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in SCENARIOS:
        raise ConfigError(f"unknown kind '{kind}'; choose from {sorted(SCENARIOS)}")
    builder, declared = SCENARIOS[kind]
    params = cfg.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("'parameters' must be an object")
    sweep, swept = cfg.get("sweep"), None
    if sweep is not None:
        if not isinstance(sweep, dict) or "parameter" not in sweep \
                or "grid" not in sweep:
            raise ConfigError("'sweep' needs 'parameter' and 'grid'")
        if not isinstance(sweep["grid"], list) or len(sweep["grid"]) == 0:
            raise ConfigError("sweep grid must be a non-empty list")
        swept = sweep["parameter"]
    keys = list(declared)
    unknown = [k for k in [*params, *([] if sweep is None else [swept])] if k not in keys]
    if unknown:
        raise ConfigError(f"unknown parameter(s) {unknown} for kind '{kind}'; "
                          f"it reads {keys}")
    seed = _integer(cfg.get("seed", 0), ConfigError, "'seed'", low=0)
    output = cfg.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("'output' must be an object")
    path = output.get("path", f"{kind}.csv")
    if not isinstance(path, str):
        raise ConfigError(f"'output.path' must be a string, got {path!r}")
    if not Path(path).name:
        raise ConfigError(f"'output.path' names no file, got {path!r}")
    fmt = output.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format '{fmt}'")
    points = [_point(declared, params if sweep is None else {**params, swept: value})
              for value in ([None] if sweep is None else sweep["grid"])]
    return builder, points, swept, seed, path, fmt


def load_config(path: Path) -> dict:
    """The config in the JSON file at `path`, once `_read` passes it."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _read(cfg)
    return cfg


def run_config(cfg: dict, out_dir: Path | None = None, jobs: int = 1) -> Path:
    jobs = _integer(jobs, ConfigError, "'jobs'", low=1)
    scenario, points, swept, seed, path, fmt = _read(cfg)
    out_path = Path(path) if out_dir is None else out_dir / Path(path).name
    # before any point runs: the output is no directory, its parent a directory or creatable
    if out_path.name == ".." or out_path.is_dir():
        raise ConfigError(f"output '{out_path}' is a directory")
    above = next(p for p in (out_path.parent, *out_path.parent.parents) if p.exists())
    if not above.is_dir():
        raise ConfigError(f"output '{out_path}' is under '{above}', which is not a directory")

    def run_point(idx_point):
        idx, point = idx_point
        rng = np.random.default_rng(seed + idx)
        try:
            return scenario(rng, **point)
        except (ValueError, ArithmeticError) as exc:
            if swept is None:
                raise
            raise SweepPointError(
                f"sweep point {idx} ({swept} = {point[swept]!r}): {exc}") from exc

    if jobs > 1 and len(points) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_point, enumerate(points)))
    else:
        results = [run_point(x) for x in enumerate(points)]

    header = results[0][0]
    rows = [row for _, table in results for row in table]
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        lines = [f"# entroprod {SCHEMA_VERSION} config_sha256={digest} seed={seed}"]
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(x) for x in row))
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        payload = {
            "provenance": {"config_sha256": digest, "seed": seed,
                           "schema": SCHEMA_VERSION},
            "header": header,
            "rows": rows,
        }
        out_path.write_text(json.dumps(payload, indent=2, default=_fmt) + "\n",
                            encoding="utf-8")
    return out_path


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="entroprod",
                                     description="entropy production toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--out", type=Path, default=None)
    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", help=" | ".join([*verify.SUITES, "all"]))
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            cfg = load_config(args.config)
            out = run_config(cfg, args.out, args.jobs)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except (CoreError, ValueError, ArithmeticError) as exc:
            print(f"numerical failure [{cfg.get('kind')}]: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(out)
        return EXIT_OK

    if args.command == "verify":
        try:
            records = verify.run_suite(args.suite)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return EXIT_VALIDATION
        for record in records:
            print(record)
        passed = sum(record.passed for record in records)
        print(f"{passed}/{len(records)} checks passed")
        return EXIT_OK if passed == len(records) else EXIT_NUMERICAL

    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
