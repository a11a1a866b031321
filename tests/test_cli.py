import csv
import io
import json
import math

import numpy as np
import pytest

from modefisher import schwinger
from modefisher.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def twin4(tmp_path):
    return write_json(tmp_path / "twin4.json",
                      {"N": 4, "kind": "fock", "k": 2, "frame": {"kind": "spatial"}})


@pytest.fixture
def cat2(tmp_path):
    amp = 1 / math.sqrt(2)
    return write_json(tmp_path / "cat.json",
                      {"N": 2, "kind": "pure", "amplitudes_re": [amp, 0.0, amp],
                       "amplitudes_im": [0.0, 0.0, 0.0], "frame": {"kind": "spatial"}})


@pytest.fixture
def bogo0(tmp_path):
    return write_json(tmp_path / "bogo0.json", {"kind": "bogolubov", "phi": 0.0})


class TestQfiCommand:
    def test_both_methods_twin_fock(self, capsys, twin4):
        code, out = run_cli(capsys, ["qfi", "--state", twin4, "--direction", "1,0,0",
                                     "--method", "both"])
        assert code == 0
        report = json.loads(out)
        assert report["fisher_spectral"] == pytest.approx(12.0, abs=1e-9)
        assert report["fisher_closed_form"] == pytest.approx(12.0, abs=1e-9)
        assert report["classification"] == "sub-shot-noise"
        assert report["schema_version"] == "1"

    def test_non_unit_direction_exits_2(self, capsys, twin4):
        code, out = run_cli(capsys, ["qfi", "--state", twin4, "--direction", "0,0,2"])
        assert code == 2
        assert "unit" in json.loads(out)["error"]["message"]

    def test_csv_and_json_agree(self, capsys, twin4):
        _, out_json = run_cli(capsys, ["qfi", "--state", twin4, "--direction", "1,0,0",
                                       "--method", "spectral", "--format", "json"])
        _, out_csv = run_cli(capsys, ["qfi", "--state", twin4, "--direction", "1,0,0",
                                      "--method", "spectral", "--format", "csv"])
        report = json.loads(out_json)
        rows = list(csv.DictReader(io.StringIO(out_csv)))
        assert len(rows) == 1
        for key in ("fisher", "phase_bound", "heisenberg_fraction"):
            assert float(rows[0][key]) == pytest.approx(report[key], abs=1e-12)

    def test_closed_form_rejects_coherent_state(self, capsys, cat2):
        code, out = run_cli(capsys, ["qfi", "--state", cat2, "--direction", "1,0,0",
                                     "--method", "closed-form"])
        assert code == 2
        assert "diagonal" in json.loads(out)["error"]["message"]

    def test_default_method_reports_nan_closed_form_for_coherent_state(self, capsys, cat2):
        # (|0,2> + |2,0>)/sqrt(2): F = 4 Var(Jx) = 4
        code, out = run_cli(capsys, ["qfi", "--state", cat2, "--direction", "1,0,0"])
        assert code == 0
        report = json.loads(out)
        assert math.isnan(report["fisher_closed_form"])
        assert report["fisher"] == report["fisher_spectral"] == pytest.approx(4.0, abs=1e-12)

    def test_tol_reaches_spectral_route(self, capsys, tmp_path):
        big_n = 8
        rng = np.random.default_rng(21)
        c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
        c *= math.sqrt(1.0 + 1e-6) / np.linalg.norm(c)
        path = write_json(tmp_path / "off_norm.json",
                          {"N": big_n, "kind": "pure", "amplitudes_re": c.real.tolist(),
                           "amplitudes_im": c.imag.tolist(), "frame": {"kind": "spatial"}})
        code, out = run_cli(capsys, ["qfi", "--state", path, "--direction", "1,0,0",
                                     "--method", "spectral", "--tol", "1e-5"])
        assert code == 0
        jx = schwinger(big_n)[0].matrix
        psi = c / np.linalg.norm(c)
        four_var = 4.0 * ((psi.conj() @ jx @ jx @ psi).real - (psi.conj() @ jx @ psi).real ** 2)
        assert json.loads(out)["fisher"] == pytest.approx(four_var, abs=1e-4)

    def test_determinism(self, capsys, twin4):
        _, a = run_cli(capsys, ["qfi", "--state", twin4, "--direction", "1,0,0"])
        _, b = run_cli(capsys, ["qfi", "--state", twin4, "--direction", "1,0,0"])
        assert a == b


class TestSeparabilityCommand:
    def test_fock_vs_bogolubov(self, capsys, twin4, bogo0):
        code, out = run_cli(capsys, ["separability", "--state", twin4, "--frame", bogo0])
        assert code == 0
        assert json.loads(out)["separable"] is False

    def test_fock_spatial_separable(self, capsys, twin4, tmp_path):
        spatial = write_json(tmp_path / "spatial.json", {"kind": "spatial"})
        _, out = run_cli(capsys, ["separability", "--state", twin4, "--frame", spatial])
        assert json.loads(out)["separable"] is True

    def test_witness_details(self, capsys, twin4, bogo0):
        _, out = run_cli(capsys, ["separability", "--state", twin4, "--frame", bogo0,
                                  "--witnesses"])
        report = json.loads(out)
        assert "witness" in report
        w = report["witness"]
        assert math.hypot(w["residual_re"], w["residual_im"]) > 1e-10

    def test_coefficient_past_double_range_exits_2(self, capsys, tmp_path):
        state = write_json(tmp_path / "fock200.json", {"N": 200, "kind": "fock", "k": 66})
        frame = write_json(tmp_path / "bogo.json", {"kind": "bogolubov", "phi": 0.4})
        code, out = run_cli(capsys, ["separability", "--state", state, "--frame", frame,
                                     "--witnesses"])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError" and "double range" in error["message"]

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out = run_cli(capsys, ["separability", "--state", str(bad),
                                     "--frame", str(bad)])
        assert code == 2
        assert "error" in json.loads(out)


class TestRotateCommand:
    def test_round_trip_parses(self, capsys, twin4):
        code, out = run_cli(capsys, ["rotate", "--state", twin4, "--direction", "1,0,0",
                                     "--theta", "0.3"])
        assert code == 0
        state_obj = json.loads(out)["state"]
        from modefisher.serialize import state_from_json
        state = state_from_json(state_obj)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)


class TestEstimateCommand:
    def test_small_run(self, capsys, twin4):
        code, out = run_cli(capsys, ["estimate", "--state", twin4, "--direction", "1,0,0",
                                     "--theta", "0.3", "--trials", "4", "--shots", "200",
                                     "--seed", "5"])
        assert code == 0
        report = json.loads(out)
        assert len(report["estimates"]) == 4
        assert report["qcrb"] <= report["ccrb"] + 1e-12

    def test_csv_matches_json(self, capsys, twin4):
        args = ["estimate", "--state", twin4, "--direction", "1,0,0", "--theta", "0.3",
                "--trials", "3", "--shots", "100", "--seed", "9"]
        _, out_json = run_cli(capsys, args + ["--format", "json"])
        _, out_csv = run_cli(capsys, args + ["--format", "csv"])
        report = json.loads(out_json)
        row = next(csv.DictReader(io.StringIO(out_csv)))
        for key in ("empirical_std", "qcrb", "ccrb", "mean_estimate"):
            assert float(row[key]) == pytest.approx(report[key], abs=1e-12)

    def test_non_identifiable_exits_2(self, capsys, tmp_path):
        path = write_json(tmp_path / "diag.json",
                          {"N": 1, "kind": "diagonal", "p": [0.5, 0.5],
                           "frame": {"kind": "spatial"}})
        code, out = run_cli(capsys, ["estimate", "--state", path, "--direction", "0,0,1",
                                     "--theta", "0.3", "--trials", "2", "--shots", "10",
                                     "--seed", "1"])
        assert code == 2
        assert "identifiable" in json.loads(out)["error"]["message"]


class TestSweepCommand:
    def test_theta_sweep_columns(self, capsys, twin4):
        code, out = run_cli(capsys, ["sweep", "--state", twin4, "--direction", "1,0,0",
                                     "--param", "theta", "--values", "0.2,0.4",
                                     "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["param"]) for r in rows] == [0.2, 0.4]
        for row in rows:
            assert float(row["F_spectral"]) == pytest.approx(12.0, abs=1e-8)
            assert float(row["F_closed"]) == pytest.approx(12.0, abs=1e-8)

    def test_phi_sweep(self, capsys, twin4):
        code, out = run_cli(capsys, ["sweep", "--state", twin4, "--param", "phi",
                                     "--values", "0.0,1.0", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(r["F_spectral"] == pytest.approx(12.0, abs=1e-8) for r in rows)


class TestFramesCommand:
    def test_identity_for_spatial(self, capsys, tmp_path):
        spatial = write_json(tmp_path / "spatial.json", {"kind": "spatial"})
        _, out = run_cli(capsys, ["frames", "--n", "3", "--frame", spatial])
        report = json.loads(out)
        assert np.allclose(report["v_re"], np.eye(4))
        assert np.allclose(report["v_im"], 0.0)

    def test_bogolubov_is_unitary(self, capsys):
        _, out = run_cli(capsys, ["frames", "--n", "5", "--phi", "0.8"])
        report = json.loads(out)
        v = np.array(report["v_re"]) + 1j * np.array(report["v_im"])
        assert np.abs(v.conj().T @ v - np.eye(6)).max() <= 1e-10


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out = run_cli(capsys, ["selftest"])
        report = json.loads(out)
        assert code == 0
        assert report["failed"] == 0
        assert report["passed"] >= 5
        assert "frame-unitarity" in [c["name"] for c in report["checks"]]


def test_tolerance_env_override(capsys, tmp_path, monkeypatch, twin4):
    # with a huge tolerance every state looks diagonal, hence separable
    bogo = write_json(tmp_path / "b.json", {"kind": "bogolubov", "phi": 0.0})
    monkeypatch.setenv("MODEFISHER_TOL", "10")
    _, out = run_cli(capsys, ["separability", "--state", twin4, "--frame", bogo])
    assert json.loads(out)["separable"] is True
