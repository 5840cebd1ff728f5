import json

from entroprod import cli
from entroprod.collisional import SwapEngineSpec, swap_engine


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
