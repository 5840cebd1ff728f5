import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entroprod import cli
from entroprod.classical import (
    glauber_ising_competing,
    multibath_sigma,
    ring_adjacency,
    stationary_distribution,
)
from entroprod.collisional import SwapEngineSpec, swap_engine
from entroprod.core import (
    PAULI_X,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    HermitianOperator,
    UnitaryOperator,
    hermitian_function,
    thermal_state,
)
from entroprod.episodes import Episode, thermal_balance
from entroprod.rand import random_density
from entroprod.trajectories import work_distribution


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def swap_config(out_name="swap.csv"):
    return {
        "schema": "v1",
        "kind": "collisional",
        "parameters": {"t_a": 1.0, "t_b": 0.5, "eps_a": 1.0},
        "sweep": {"parameter": "ratio", "grid": [0.3, 0.7, 1.2]},
        "seed": 7,
        "output": {"path": out_name, "format": "csv"},
    }


def test_run_swap_sweep_golden(tmp_path, capsys):
    path = write_config(tmp_path, swap_config())
    code = cli.main(["run", str(path), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "swap.csv").read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert "seed=7" in lines[0]
    assert lines[1] == "ratio,W,Qa,Qb,Sigma,regime"
    assert len(lines) == 5
    # golden values from the closed forms
    for row, ratio in zip(lines[2:], (0.3, 0.7, 1.2)):
        cells = row.split(",")
        res = swap_engine(SwapEngineSpec(1.0, ratio, 1.0, 0.5))
        assert abs(float(cells[1]) - res.work) < 1e-15
        assert abs(float(cells[4]) - res.sigma) < 1e-15
        assert cells[5] == res.regime


def test_run_deterministic_given_seed(tmp_path):
    cfg = {
        "schema": "v1",
        "kind": "resource",
        "parameters": {"beta": 1.0},
        "seed": 99,
        "output": {"path": "verdict.csv", "format": "csv"},
    }
    p1 = write_config(tmp_path, cfg, "a.json")
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["run", str(p1), "--out", str(out1)]) == 0
    assert cli.main(["run", str(p1), "--out", str(out2)]) == 0
    assert (out1 / "verdict.csv").read_bytes() == (out2 / "verdict.csv").read_bytes()


def test_run_parallel_sweep_matches_serial(tmp_path):
    cfg = swap_config("parallel.csv")
    path = write_config(tmp_path, cfg)
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert cli.main(["run", str(path), "--out", str(out1)]) == 0
    assert cli.main(["run", str(path), "--out", str(out2), "--jobs", "3"]) == 0
    assert (out1 / "parallel.csv").read_bytes() == (out2 / "parallel.csv").read_bytes()


def test_run_missing_parameter_exit_2(tmp_path, capsys):
    cfg = {"schema": "v1", "kind": "episode", "parameters": {"omega": 1.0},
           "output": {"path": "x.csv"}}
    path = write_config(tmp_path, cfg)
    code = cli.main(["run", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_run_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", str(path)]) == 2


def test_run_unknown_kind_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {"schema": "v1", "kind": "nope"})
    assert cli.main(["run", str(path)]) == 2


def test_run_numerical_failure_exit_3(tmp_path, capsys):
    # coupling far beyond the critical value: unstable drift
    cfg = {
        "schema": "v1",
        "kind": "gaussian",
        "parameters": {"g_ab": 5.0},
        "output": {"path": "ness.csv"},
    }
    path = write_config(tmp_path, cfg)
    code = cli.main(["run", str(path), "--out", str(tmp_path)])
    assert code == 3
    assert "critical" in capsys.readouterr().err


def test_run_gaussian_sweep_columns(tmp_path):
    cfg = {
        "schema": "v1",
        "kind": "gaussian",
        "parameters": {},
        "sweep": {"parameter": "g_ab", "grid": [0.05, 0.2, 0.4]},
        "output": {"path": "ness.csv"},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ness.csv").read_text().strip().splitlines()
    assert lines[1] == "g_ab,n_a,n_b,Pi,mu_a,mu_b"
    assert len(lines) == 5


def test_run_json_output(tmp_path):
    cfg = {
        "schema": "v1",
        "kind": "resource",
        "parameters": {"beta": 0.7},
        "seed": 3,
        "output": {"path": "verdict.json", "format": "json"},
    }
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert payload["provenance"]["seed"] == 3
    assert payload["header"][0] == "beta"


def test_verify_unknown_suite_exit_2(capsys):
    assert cli.main(["verify", "bogus"]) == 2


def test_verify_quench_suite_passes(capsys):
    code = cli.main(["verify", "quench"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_named_suites_listed():
    from entroprod import verify
    assert set(verify.SUITES) == {"ft-table", "landauer", "gaussian-ness",
                                  "majorization", "quench"}


def test_run_unknown_parameter_exit_2(tmp_path, capsys):
    cfg = {"schema": "v1", "kind": "resource", "parameters": {"beta": 1.0, "betta": 2.0},
           "output": {"path": "x.csv"}}
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "betta" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_run_unknown_sweep_parameter_exit_2(tmp_path, capsys):
    cfg = {"schema": "v1", "kind": "gaussian", "parameters": {},
           "sweep": {"parameter": "g_abb", "grid": [0.1, 0.2]},
           "output": {"path": "ness.csv"}}
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "g_abb" in capsys.readouterr().err
    assert not (tmp_path / "ness.csv").exists()


def test_run_lindblad_reads_every_kerr_key(tmp_path):
    cfg = {"schema": "v1", "kind": "lindblad",
           "parameters": {"delta": -2.0, "kerr": 1.0, "kappa": 0.5, "n_scale": 1,
                          "fock_cut": 10, "drive": 0.2},
           "sweep": {"parameter": "drive", "grid": [0.1, 0.2]},
           "output": {"path": "kerr.csv"}}
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "kerr.csv").read_text().strip().splitlines()
    assert lines[1] == "parameter,gap,order_parameter,n_a"
    assert len(lines) == 4


def test_run_sweep_failure_names_its_point(tmp_path, capsys):
    # drive 3.0 at Fock cut 10 leaves the truncation (validate_kerr_truncation)
    cfg = {"schema": "v1", "kind": "lindblad",
           "parameters": {"fock_cut": 10},
           "sweep": {"parameter": "drive", "grid": [0.1, 0.2, 3.0]},
           "output": {"path": "kerr.csv"}}
    path = write_config(tmp_path, cfg)
    for jobs in ("1", "2"):
        assert cli.main(["run", str(path), "--out", str(tmp_path), "--jobs", jobs]) == 3
        err = capsys.readouterr().err
        assert "sweep point 2 (drive = 3.0)" in err
        assert "beyond" in err
    assert not (tmp_path / "kerr.csv").exists()


def test_run_resource_denominator_bounded(tmp_path, capsys):
    # 10^12 would ask for an 8 TB embedding; 0 divided by zero
    for denominator in (10 ** 12, 0):
        cfg = {"schema": "v1", "kind": "resource",
               "parameters": {"beta": 1.0, "denominator": denominator},
               "output": {"path": "x.csv"}}
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) in (2, 3)
        assert "denominator" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def test_run_integer_parameters_must_be_whole(tmp_path, capsys):
    # 2.7 used to run as 2; a whole float such as 10000.0 is accepted
    for denominator, code in ((2.7, 2), ("100", 2), (True, 2), (10000.0, 0), (500, 0)):
        cfg = {"schema": "v1", "kind": "resource",
               "parameters": {"beta": 1.0, "denominator": denominator},
               "output": {"path": "x.csv"}}
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == code, denominator
        assert ("must be an integer" in capsys.readouterr().err) == (code == 2)
        assert (tmp_path / "x.csv").exists() == (code == 0)
        (tmp_path / "x.csv").unlink(missing_ok=True)


CONFIG_CASES = {
    "string seed": ({"seed": "abc"}, "'seed' must be an integer, got 'abc'"),
    "fractional seed": ({"seed": 2.7}, "'seed' must be an integer, got 2.7"),
    "bool seed": ({"seed": True}, "'seed' must be an integer, got True"),
    "negative seed": ({"seed": -1}, "'seed' must be an integer >= 0, got -1"),
    "output not an object": ({"output": "x.csv"}, "'output' must be an object"),
    "output path not a string": ({"output": {"path": 5}}, "'output.path' must be a string, got 5"),
}


@pytest.mark.parametrize("fields, message", CONFIG_CASES.values(), ids=CONFIG_CASES.keys())
def test_run_seed_and_output_are_read_strictly(tmp_path, capsys, fields, message):
    # "abc" and -1 used to exit 3, 2.7 and true to run as seeds 2 and 1, a
    # string output to end in an AttributeError traceback and a numeric
    # output path in a TypeError one
    cfg = {"schema": "v1", "kind": "episode", "parameters": {"beta": 1.0},
           "output": {"path": "x.csv"}, **fields}
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


OUTPUT_TARGETS = {
    # (--out under tmp_path or None, output.path): each used to run every point first and
    # end in a FileExistsError, NotADirectoryError or IsADirectoryError traceback
    "out is a file": ("F", "x.csv", "output 'F/x.csv' is under 'F', which is not a directory"),
    "out under a file": ("F/sub", "x.csv",
                         "output 'F/sub/x.csv' is under 'F', which is not a directory"),
    "name resolves to a directory": ("d", "x/..", "output 'd/..' is a directory"),
    "path is a directory": (None, "D", "output 'D' is a directory"),
}


@pytest.mark.parametrize("out, name, message", OUTPUT_TARGETS.values(),
                         ids=OUTPUT_TARGETS.keys())
def test_run_checks_the_output_target_before_any_point(tmp_path, capsys, monkeypatch,
                                                       out, name, message):
    (tmp_path / "F").write_text("kept\n", encoding="utf-8")
    (tmp_path / "D").mkdir()
    ran = []
    builder, declared = cli.SCENARIOS["collisional"]
    monkeypatch.setitem(cli.SCENARIOS, "collisional",
                        (lambda rng, **p: ran.append(p) or builder(rng, **p), declared))
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, swap_config(name))
    assert cli.main(["run", str(path)] + ([] if out is None else ["--out", out])) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert ran == [] and (tmp_path / "F").read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["D", "F", "config.json"]


FLOAT_CASES = {
    "string": ("omega", "abc"),
    "null": ("g", None),
    "bool": ("beta", True),
    "numeric string": ("beta", "1.5"),
    "NaN": ("omega", float("nan")),
    "Infinity": ("g", float("inf")),
    "beyond a float": ("omega", 10 ** 400),
}


@pytest.mark.parametrize("in_sweep", [False, True], ids=["parameters", "sweep"])
@pytest.mark.parametrize("name, value", FLOAT_CASES.values(), ids=FLOAT_CASES.keys())
def test_run_float_parameters_must_be_finite_numbers(tmp_path, capsys, name, value, in_sweep):
    # "abc" used to exit 3, null to end in a TypeError, true and "1.5" to run
    cfg = {"schema": "v1", "kind": "episode", "parameters": {"beta": 1.0},
           "output": {"path": "x.csv"}}
    if in_sweep:
        cfg["sweep"] = {"parameter": name, "grid": [0.5, value]}
    else:
        cfg["parameters"][name] = value
    path = write_config(tmp_path, cfg)
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: parameter '{name}' must be a finite number, got ")
    assert not (tmp_path / "x.csv").exists()


def test_run_float_parameters_take_ints_as_floats(tmp_path):
    rows = []
    for beta, g in ((2, 1), (2.0, 1.0)):
        cfg = {"schema": "v1", "kind": "episode", "parameters": {"beta": beta, "g": g},
               "seed": 4, "output": {"path": "x.csv"}}
        assert cli.main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
        rows.append((tmp_path / "x.csv").read_text().splitlines()[1:])
    assert rows[0] == rows[1]


def read_rows(path):
    """The data rows of a CLI output CSV as floats."""
    return [[float(x) for x in line.split(",")]
            for line in path.read_text().strip().splitlines()[2:]]


def test_run_episode_rows_are_the_api_on_each_points_draw(tmp_path):
    cfg = {"schema": "v1", "kind": "episode", "parameters": {"beta": 1.3, "omega": 0.8},
           "sweep": {"parameter": "g", "grid": [0.3, 0.9]}, "seed": 11,
           "output": {"path": "ep.csv"}}
    assert cli.main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    h = HermitianOperator.from_matrix(0.8 * np.diag([0.0, 1.0]))
    for idx, (g, row) in enumerate(zip((0.3, 0.9), read_rows(tmp_path / "ep.csv"))):
        v = g * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
        u = UnitaryOperator.from_matrix(hermitian_function(v, lambda x: np.exp(-1j * x)), (2, 2))
        rho = random_density(2, np.random.default_rng(11 + idx))
        bal = thermal_balance(Episode(h, h, u, rho, thermal_state(h, 1.3)), 1.3)
        assert row == [g, bal.sigma, bal.flux, bal.d_entropy_system, bal.mutual_info,
                       bal.env_displacement, bal.heat_env, bal.work]


def test_run_trajectories_rows_are_the_work_distribution(tmp_path):
    cfg = {"schema": "v1", "kind": "trajectories", "parameters": {"beta": 0.7, "dlam": 0.4},
           "output": {"path": "w.csv"}}
    assert cli.main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "w.csv").read_text().splitlines()
    assert lines[1] == "value,probability"
    forward = work_distribution(PAULI_Z, PAULI_Z + 0.4 * PAULI_X, np.eye(2), 0.7).forward
    assert read_rows(tmp_path / "w.csv") == [[v, p] for v, p in zip(forward.values,
                                                                    forward.probabilities)]


def test_run_classical_rows_are_the_lattice_sigma(tmp_path):
    cfg = {"schema": "v1", "kind": "classical",
           "parameters": {"mu": 0.6, "n_sites": 3, "coupling": 0.9},
           "sweep": {"parameter": "temperature", "grid": [0.8, 1.6]},
           "output": {"path": "cl.csv"}}
    assert cli.main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    for temperature, row in zip((0.8, 1.6), read_rows(tmp_path / "cl.csv")):
        w = glauber_ising_competing(3, 0.9, temperature, 0.6, -0.6, ring_adjacency(3))
        assert row == [temperature, *multibath_sigma(w, stationary_distribution(w))]


def test_verify_all_runs_the_standard_suites_in_order(monkeypatch):
    from entroprod import verify
    ran = []
    for table in (verify.SUITES, verify.EXTRA_SUITES):
        for name in table:
            monkeypatch.setitem(table, name,
                                lambda name=name: ran.append(name) or [(name, True, "")])
    records = verify.run_suite("all")
    assert ran == ["ft-table", "landauer", "gaussian-ness", "majorization", "quench"]
    assert [name for name, _, _ in records] == ran


def test_importing_the_cli_leaves_scipy_unloaded():
    """scipy is imported by the generator kernels that need it, so a `verify`
    suite that builds no generator does not pay for loading it."""
    code = ("import sys, entroprod.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_each_builder_takes_the_parameters_its_scenario_declares():
    for kind, (builder, declared) in cli.SCENARIOS.items():
        assert list(inspect.signature(builder).parameters) == ["rng", *declared], kind


def test_readme_lists_each_scenarios_parameters_as_declared():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for kind, (builder, declared) in cli.SCENARIOS.items():
        params = ", ".join(f"`{n}` (required)" if v is cli.REQUIRED else f"`{n}` = {v!r}"
                           for n, v in declared.items())
        assert f"| `{kind}` | {builder.__doc__} | {params} |" in readme, kind
