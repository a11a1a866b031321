import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import modefisher
from modefisher import (Direction, bogolubov_frame, collective, fock, make_fock_state,
                        metrology, monte_carlo_estimate, schwinger, serialize, transform_state)
from modefisher.cli import BROKEN_PIPE_STATUS, main


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

    @pytest.mark.parametrize("direction", ["nan,0,0", "0,nan,1", "inf,0,0"])
    def test_non_finite_direction_exits_2(self, capsys, twin4, direction):
        # a NaN direction would give F = NaN, which every classification test lets through
        for argv in (["qfi"], ["estimate", "--theta", "0.3", "--trials", "2", "--shots", "50"]):
            code, out = run_cli(capsys, [*argv, "--state", twin4, "--direction", direction])
            assert code == 2, argv
            assert json.loads(out)["error"]["message"] == "direction components must be finite"

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
        # the same --tol reaches the validation of every other subcommand on this state
        for argv in (["rotate", "--theta", "0.3"],
                     ["estimate", "--theta", "0.3", "--trials", "2", "--shots", "50"],
                     ["sweep", "--param", "theta", "--values", "0.3"]):
            code, out = run_cli(capsys, [*argv, "--state", path, "--direction", "1,0,0",
                                         "--tol", "1e-5"])
            assert code == 0, out

    def test_non_spatial_frame_in_own_frame(self, capsys, tmp_path):
        state = write_json(tmp_path / "bogo_twin4.json",
                           {"N": 4, "kind": "fock", "k": 2,
                            "frame": {"kind": "bogolubov", "phi": 0.0}})
        code, out = run_cli(capsys, ["qfi", "--state", state, "--direction", "1,0,0"])
        assert code == 0
        fisher = json.loads(out)["fisher"]
        assert fisher == pytest.approx(12.0, abs=1e-9)
        _, out = run_cli(capsys, ["estimate", "--state", state, "--direction", "1,0,0",
                                  "--theta", "0.3", "--trials", "2", "--shots", "50"])
        assert json.loads(out)["fisher"] == fisher

    def test_noon_state_at_n_1e5_is_heisenberg_saturating(self, capsys, tmp_path):
        big_n = 100_000
        amp = np.zeros(big_n + 1)
        amp[[0, big_n]] = 1 / math.sqrt(2)
        path = write_json(tmp_path / "noon.json",
                          {"N": big_n, "kind": "pure", "amplitudes_re": amp.tolist(),
                           "amplitudes_im": [0.0] * (big_n + 1)})
        code, out = run_cli(capsys, ["qfi", "--state", path, "--direction", "0,0,1"])
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "heisenberg-saturating"
        assert math.isnan(report["fisher_closed_form"])

    def test_pure_state_at_n_1e5_builds_no_dense_matrix(self, capsys, tmp_path):
        # a dense (N+1)^2 complex array at N = 10^5 would take 160 GB
        big_n = 100_000
        path = write_json(tmp_path / "fock.json", {"N": big_n, "kind": "fock", "k": 30_000})
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, ["qfi", "--state", path, "--direction", "0.6,0.8,0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64 * 2 ** 20
        assert json.loads(out)["fisher_spectral"] == pytest.approx(
            big_n + 2 * 30_000 * (big_n - 30_000), rel=1e-12)

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

    def test_witness_log_residual_matches_its_value(self, capsys, twin4, bogo0):
        _, out = run_cli(capsys, ["separability", "--state", twin4, "--frame", bogo0,
                                  "--witnesses"])
        w = json.loads(out)["witness"]
        residual = complex(w["residual_re"], w["residual_im"])
        assert w["log10_abs_residual"] == pytest.approx(math.log10(abs(residual)), rel=1e-14)
        assert w["residual_phase"] == pytest.approx(np.angle(residual), abs=1e-14)

    @pytest.mark.parametrize("big_n", [200, 1000])
    def test_coefficient_past_double_range_reports_log_residual(self, capsys, tmp_path, big_n):
        state = write_json(tmp_path / "fock.json", {"N": big_n, "kind": "fock", "k": big_n // 3})
        frame = write_json(tmp_path / "bogo.json", {"kind": "bogolubov", "phi": 0.4})
        code, out = run_cli(capsys, ["separability", "--state", state, "--frame", frame,
                                     "--witnesses"])
        assert code == 0
        w = json.loads(out)["witness"]
        assert w["residual_re"] is None and w["residual_im"] is None
        # the coefficient's one band entry, sqrt(row! col! (N-row)! (N-col)!), as an integer
        row, col = w["n"], w["m"]
        c = transform_state(make_fock_state(big_n // 3, big_n), bogolubov_frame(0.4)).amplitudes
        exact = math.prod(math.factorial(j) for j in (row, col, big_n - row, big_n - col))
        oracle = math.log10(exact) / 2 + math.log10(abs(c[row])) + math.log10(abs(c[col]))
        assert w["log10_abs_residual"] > 308
        assert w["log10_abs_residual"] == pytest.approx(oracle, rel=1e-12)
        assert w["residual_phase"] == pytest.approx(np.angle(c[row] * c[col].conj()), abs=1e-14)

    def test_verdict_past_double_range_exits_0(self, capsys, tmp_path):
        # the witness coefficient leaves double range here; the verdict does not need it
        state = write_json(tmp_path / "fock200.json", {"N": 200, "kind": "fock", "k": 66})
        frame = write_json(tmp_path / "bogo.json", {"kind": "bogolubov", "phi": 0.4})
        code, out = run_cli(capsys, ["separability", "--state", state, "--frame", frame])
        assert code == 0
        report = json.loads(out)
        assert report["separable"] is False and "witness" not in report

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

    def test_custom_unitary_frame_round_trips(self, capsys, tmp_path):
        # a frame that is neither spatial nor Bogolubov is written as its mixing matrix
        from modefisher.serialize import state_from_json
        rng = np.random.default_rng(17)
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        c /= np.linalg.norm(c)
        obj = {"N": 3, "kind": "pure", "amplitudes_re": c.real.tolist(),
               "amplitudes_im": c.imag.tolist(),
               "frame": {"kind": "unitary", "u_re": u.real.tolist(), "u_im": u.imag.tolist()}}
        path = write_json(tmp_path / "custom.json", obj)
        code, out = run_cli(capsys, ["rotate", "--state", path, "--direction", "0.6,0,0.8",
                                     "--theta", "0.7"])
        assert code == 0
        report = json.loads(out)["state"]
        assert report["frame"]["kind"] == "unitary"
        state, back = state_from_json(obj), state_from_json(report)
        assert (back.frame.label, back.frame.phi) == (state.frame.label, state.frame.phi)
        assert np.array_equal(back.frame.mixing, state.frame.mixing)
        expected = metrology.rotate(state, Direction(0.6, 0.0, 0.8), 0.7)
        assert np.array_equal(back.amplitudes, expected.amplitudes)

    def test_fock_state_at_n_1e4_builds_no_dense_matrix(self, capsys, tmp_path):
        # the dense route's (N+1)^2 complex matrices at N = 10^4 take 1.6 GB each
        big_n, k, theta = 10_000, 3_000, 0.3
        n = np.array([0.48, 0.64, 0.6])
        path = write_json(tmp_path / "fock.json", {"N": big_n, "kind": "fock", "k": k})
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, ["rotate", "--state", path, "--direction",
                                         ",".join(map(str, n)), "--theta", str(theta)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 64 * 2 ** 20
        state = json.loads(out)["state"]
        p = np.array(state["amplitudes_re"]) ** 2 + np.array(state["amplitudes_im"]) ** 2
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        # <J_z> after exp(i theta J_n): the spin vector (0, 0, (2k - N)/2) turned by -theta about n
        spin = np.array([0.0, 0.0, (2 * k - big_n) / 2])
        turned = (spin * math.cos(theta) - np.cross(n, spin) * math.sin(theta)
                  + n * (n @ spin) * (1 - math.cos(theta)))
        assert p @ (np.arange(big_n + 1) - big_n / 2) == pytest.approx(turned[2], abs=1e-8)


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

    def test_theta_outside_the_window_exits_2(self, capsys, twin4):
        # an estimate of theta = 2.0 lay at pi - 2 and exited 0
        for argv in (["estimate", "--direction", "1,0,0", "--theta", "2.0", "--trials", "4"],
                     ["sweep", "--param", "theta", "--values", "0.3,2.0", "--trials", "4"]):
            code, out = run_cli(capsys, [*argv, "--state", twin4, "--shots", "200"])
            error = json.loads(out)["error"]
            assert (code, error["type"]) == (2, "ValueError"), argv
            assert "estimation window [0, pi/2]" in error["message"], argv
        # a sweep without trials reports the bounds at any angle
        code, out = run_cli(capsys, ["sweep", "--state", twin4, "--param", "theta",
                                     "--values=-0.3,2.0,3.0", "--trials", "0"])
        assert code == 0 and len(json.loads(out)["rows"]) == 3, out

    def test_non_identifiable_exits_2(self, capsys, tmp_path):
        path = write_json(tmp_path / "diag.json",
                          {"N": 1, "kind": "diagonal", "p": [0.5, 0.5],
                           "frame": {"kind": "spatial"}})
        code, out = run_cli(capsys, ["estimate", "--state", path, "--direction", "0,0,1",
                                     "--theta", "0.3", "--trials", "2", "--shots", "10",
                                     "--seed", "1"])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "NonIdentifiableError"
        assert "identifiable" in error["message"]


def _count_solvers(monkeypatch):
    """Record each call of numpy's Hermitian eigensolvers by name."""
    calls = []

    def counting(solver):
        def call(*args, **kwargs):
            calls.append(solver.__name__)
            return solver(*args, **kwargs)
        return call

    for solver in (np.linalg.eigh, np.linalg.eigvalsh):
        monkeypatch.setattr(np.linalg, solver.__name__, counting(solver))
    return calls


def test_mixed_estimate_decomposes_rho_once(capsys, tmp_path, monkeypatch):
    # the positivity check computes no eigenvalue: the spectral sum's eigh is the one
    big_n = 30
    p = np.exp(-0.5 * ((np.arange(big_n + 1) - big_n / 2) / 3.0) ** 2)
    path = write_json(tmp_path / "diag.json", {"N": big_n, "kind": "diagonal",
                                               "p": (p / p.sum()).tolist()})
    # caches the real eigenbasis of J_x at N = 30
    collective.eigenbasis(big_n, collective.Direction(1, 0, 0))
    calls = _count_solvers(monkeypatch)
    code, out = run_cli(capsys, ["estimate", "--state", path, "--direction", "1,0,0",
                                 "--theta", "0.6", "--trials", "3", "--shots", "500"])
    assert code == 0, out
    assert calls == ["eigh"]


def test_pure_qfi_runs_no_eigensolver(capsys, tmp_path, monkeypatch):
    # below PROPAGATOR_MIN_N the sector cache builds J_x's eigenbasis only when a rotation reads it
    collective._cached_sector.cache_clear()
    path = write_json(tmp_path / "fock.json", {"N": 40, "kind": "fock", "k": 13})
    calls = _count_solvers(monkeypatch)
    code, out = run_cli(capsys, ["qfi", "--state", path, "--direction", "0.6,0,0.8"])
    assert code == 0, out
    assert calls == []


@pytest.mark.parametrize("rho", [[[1.2, 0.0], [0.0, -0.2]], [[0.5, 0.8], [0.8, 0.5]]],
                         ids=["diagonal", "coherent"])
def test_non_positive_density_exits_2(capsys, tmp_path, rho):
    # each subcommand checks the file once, in its library call, and the error names the file
    path = write_json(tmp_path / "rho.json",
                      {"N": 1, "kind": "density", "rho_re": rho, "rho_im": [[0, 0], [0, 0]]})
    frame = write_json(tmp_path / "frame.json", {"kind": "spatial"})
    for argv in (["qfi", "--direction", "1,0,0", "--method", "spectral"],
                 ["qfi", "--direction", "1,0,0", "--method", "closed-form"],
                 ["qfi", "--direction", "1,0,0", "--method", "both"],
                 ["separability", "--frame", frame],
                 ["rotate", "--direction", "1,0,0", "--theta", "0.3"],
                 ["estimate", "--direction", "1,0,0", "--theta", "0.3", "--trials", "2",
                  "--shots", "50"],
                 ["sweep", "--direction", "1,0,0", "--param", "theta", "--values", "0.3"],
                 ["sweep", "--param", "phi", "--values", "0.3", "--trials", "0"]):
        code, out = run_cli(capsys, [argv[0], "--state", path, *argv[1:]])
        assert code == 2, argv
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError", argv
        assert error["message"].startswith(f"invalid state in {path}: "), (argv, error)
        assert "positivity" in error["message"], (argv, error)


@pytest.mark.parametrize("argv", [
    ["qfi", "--direction", "1,0,0", "--method", "spectral"],
    ["qfi", "--direction", "1,0,0", "--method", "closed-form"],
    ["qfi", "--direction", "1,0,0", "--method", "both"],
    ["separability", "--frame", None],
    ["rotate", "--direction", "1,0,0", "--theta", "0.3"],
    ["estimate", "--direction", "1,0,0", "--theta", "0.3", "--trials", "2", "--shots", "50"],
    ["sweep", "--direction", "1,0,0", "--param", "theta", "--values", "0.3,0.6"],
], ids=["qfi_spectral", "qfi_closed_form", "qfi_both", "separability", "rotate", "estimate",
        "sweep_theta"])
def test_density_file_is_checked_once(capsys, tmp_path, monkeypatch, argv):
    # the positivity check is an O(N^3) Cholesky factor: the CLI leaves it to the library call
    p = [0.1, 0.2, 0.4, 0.2, 0.1]
    path = write_json(tmp_path / "rho.json", {"N": 4, "kind": "density",
                                              "rho_re": np.diag(p).tolist(),
                                              "rho_im": np.zeros((5, 5)).tolist()})
    frame = write_json(tmp_path / "frame.json", {"kind": "spatial"})
    argv = [frame if a is None else a for a in argv]
    checks = []
    real = fock.validate_state
    monkeypatch.setattr(fock, "validate_state",
                        lambda state, tol: checks.append(state) or real(state, tol))
    code, out = run_cli(capsys, [argv[0], "--state", path, *argv[1:]])
    assert code == 0, out
    assert len(checks) == 1


@pytest.fixture
def coherent_x(tmp_path):
    # the spin-coherent state along x at N = 2: about x its p does not depend on theta
    return write_json(tmp_path / "coherent_x.json",
                      {"N": 2, "kind": "pure", "amplitudes_re": [0.5, math.sqrt(0.5), 0.5],
                       "amplitudes_im": [0.0, 0.0, 0.0]})


class TestSweepCommand:
    def test_non_identifiable_value_keeps_its_row(self, capsys, coherent_x):
        # phi = 0 is the axis x, where the estimate raises; the other rows are as without it
        argv = ["sweep", "--state", coherent_x, "--param", "phi", "--trials", "20",
                "--shots", "2000", "--values"]
        code, out = run_cli(capsys, [*argv, "0,0.5,1.0"])
        assert code == 0, out
        rows = json.loads(out)["rows"]
        code, out = run_cli(capsys, [*argv, "0.5,1.0"])
        assert code == 0, out
        assert len(rows) == 3 and rows[1:] == json.loads(out)["rows"]
        flat = rows[0]
        assert set(flat) == set(rows[1]) and flat["param"] == 0.0
        assert math.isnan(flat["empirical_std"])
        assert all(math.isfinite(flat[key]) for key in ("F_spectral", "F_cl", "qcrb", "ccrb"))
        code, out = run_cli(capsys, ["estimate", "--state", coherent_x, "--direction", "1,0,0",
                                     "--theta", "0.3", "--trials", "20", "--shots", "2000"])
        assert (code, json.loads(out)["error"]["type"]) == (2, "NonIdentifiableError")

    def test_other_estimate_errors_still_exit_2(self, capsys, coherent_x, monkeypatch):
        def failing(*args):
            raise ValueError("not an identifiability error")

        monkeypatch.setattr(metrology.PhaseEstimator, "estimate", failing)
        code, out = run_cli(capsys, ["sweep", "--state", coherent_x, "--param", "phi",
                                     "--values", "0.5,1.0", "--trials", "20"])
        assert (code, json.loads(out)["error"]["type"]) == (2, "ValueError")

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

    def test_fock_state_at_theta_zero_has_finite_ccrb(self, capsys, twin4):
        # at theta = 0 every p_m but p_2 is 0, and at 1e-8 they are below 1e-15: F_cl is
        # still N^2/2 + N, and the classical bound equals the quantum one
        code, out = run_cli(capsys, ["sweep", "--state", twin4, "--direction", "1,0,0",
                                     "--param", "theta", "--values", "0,1e-8", "--trials", "0"])
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert row["F_cl"] == pytest.approx(12.0, rel=1e-12)
            assert row["ccrb"] == pytest.approx(row["qcrb"], rel=1e-12)

    def test_z_direction_has_no_classical_fisher(self, capsys, tmp_path):
        amp = [0.6, 0.0, 0.8]
        state = write_json(tmp_path / "pure.json", {"N": 2, "kind": "pure",
                                                    "amplitudes_re": amp,
                                                    "amplitudes_im": [0.0, 0.0, 0.0]})
        code, out = run_cli(capsys, ["sweep", "--state", state, "--direction", "0,0,1",
                                     "--param", "theta", "--values", "0.3",
                                     "--format", "json"])
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["F_cl"] == 0.0 and row["ccrb"] == math.inf

    def test_non_spatial_frame_bounds_in_own_frame(self, capsys, tmp_path):
        state = write_json(tmp_path / "bogo_twin4.json",
                           {"N": 4, "kind": "fock", "k": 2,
                            "frame": {"kind": "bogolubov", "phi": 0.0}})
        code, out = run_cli(capsys, ["sweep", "--state", state, "--param", "theta",
                                     "--values", "0.2,0.4", "--format", "json"])
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert row["F_spectral"] == pytest.approx(12.0, abs=1e-9)
            assert row["F_closed"] == pytest.approx(12.0, abs=1e-9)
            assert row["qcrb"] <= row["ccrb"]

    @pytest.mark.parametrize("argv", [
        ["--param", "shots", "--values", "0"], ["--param", "shots", "--values", "-5"],
        ["--param", "shots", "--values", "2.7"], ["--param", "shots", "--values", "100,nan"],
        ["--param", "trials", "--values", "-3"], ["--param", "trials", "--values", "0,1.5"],
        ["--param", "trials", "--values", "inf"],
        ["--param", "theta", "--values", "0.3", "--shots", "0"],
        ["--param", "theta", "--values", "0.3", "--trials=-1"],
    ], ids=["shots_0", "shots_negative", "shots_fraction", "shots_nan", "trials_negative",
            "trials_fraction", "trials_inf", "shots_flag_0", "trials_flag_negative"])
    def test_bad_counts_exit_2_before_any_bound(self, capsys, twin4, argv):
        # shots = 0 would divide by zero in qcrb, and 2.7 would run as 2 under the label 2.7
        code, out = run_cli(capsys, ["sweep", "--state", twin4, *argv])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError"
        assert "shots" in error["message"] or "trials" in error["message"]

    @pytest.mark.parametrize("param, values", [("theta", [0.2, 0.4, 0.6]),
                                               ("shots", [100, 300]), ("trials", [2, 3, 5])],
                             ids=["theta", "shots", "trials"])
    def test_one_rotation_model_per_sweep(self, capsys, twin4, monkeypatch, param, values):
        # one model serves every value, and each row is what its own estimate reports
        built = []

        class CountingModel(metrology._RotationModel):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(metrology, "_RotationModel", CountingModel)
        argv = ["sweep", "--state", twin4, "--param", param,
                "--values", ",".join(map(str, values)), "--trials", "2", "--shots", "100"]
        code, out_json = run_cli(capsys, [*argv, "--format", "json"])
        assert code == 0
        assert len(built) == 1
        code, out_csv = run_cli(capsys, [*argv, "--format", "csv"])
        assert code == 0
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        state = make_fock_state(2, 4)
        for value, row, csv_row in zip(values, json.loads(out_json)["rows"], csv_rows):
            setting = {"theta_true": 0.3, "trials": 2, "shots": 100}
            setting[{"theta": "theta_true"}.get(param, param)] = value
            run = monte_carlo_estimate(state, Direction(1, 0, 0), seed=0, **setting)
            expected = {"param": value, "F_spectral": run.fisher, "F_cl": run.classical_fisher,
                        "qcrb": run.qcrb, "ccrb": run.ccrb, "empirical_std": run.empirical_std}
            assert {k: row[k] for k in expected} == expected
            assert {k: float(csv_row[k]) for k in expected} == expected

    def test_mixed_sweep_decomposes_rho_once(self, capsys, tmp_path, monkeypatch):
        # the positivity checks compute no eigenvalue, and one model gives every value's estimate
        big_n = 30
        p = np.exp(-0.5 * ((np.arange(big_n + 1) - big_n / 2) / 3.0) ** 2)
        path = write_json(tmp_path / "diag.json", {"N": big_n, "kind": "diagonal",
                                                   "p": (p / p.sum()).tolist()})
        # caches the real eigenbasis of J_x
        collective.eigenbasis(big_n, collective.Direction(1, 0, 0))
        calls = _count_solvers(monkeypatch)
        code, out = run_cli(capsys, ["sweep", "--state", path, "--param", "theta",
                                     "--values", "0.3,0.6,0.9,1.2", "--trials", "3",
                                     "--shots", "500"])
        assert code == 0, out
        assert calls == ["eigh"]

    def test_fixed_direction_computes_fisher_once(self, capsys, twin4, monkeypatch):
        # F and the closed form depend on the direction alone, not on theta
        calls, qfi_state = [], metrology.qfi_state

        def counting_qfi_state(*args):
            calls.append(args)
            return qfi_state(*args)

        monkeypatch.setattr(metrology, "qfi_state", counting_qfi_state)
        code, out = run_cli(capsys, ["sweep", "--state", twin4, "--param", "theta",
                                     "--values", "0.2,0.4,0.6", "--format", "json"])
        assert code == 0
        assert len(calls) == 1
        assert all(r["F_spectral"] == pytest.approx(12.0, abs=1e-8)
                   for r in json.loads(out)["rows"])


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

    def test_csv_lists_every_entry(self, capsys):
        _, out_json = run_cli(capsys, ["frames", "--n", "2", "--phi", "0.4"])
        _, out_csv = run_cli(capsys, ["frames", "--n", "2", "--phi", "0.4", "--format", "csv"])
        report = json.loads(out_json)
        assert out_csv.splitlines()[0] == "row,col,re,im"
        rows = list(csv.DictReader(io.StringIO(out_csv)))
        assert [(int(r["row"]), int(r["col"])) for r in rows] == [(j, k) for j in range(3)
                                                                  for k in range(3)]
        for r in rows:
            j, k = int(r["row"]), int(r["col"])
            assert (float(r["re"]), float(r["im"])) == (report["v_re"][j][k],
                                                        report["v_im"][j][k])

    def test_non_finite_phi_exits_2(self, capsys, tmp_path):
        nan_frame = tmp_path / "nan_frame.json"
        nan_frame.write_text('{"kind": "bogolubov", "phi": NaN}')
        for argv in (["--phi", "nan"], ["--phi", "inf"], ["--frame", str(nan_frame)]):
            code, out = run_cli(capsys, ["frames", "--n", "3", *argv])
            assert code == 2, argv
            assert "finite" in json.loads(out)["error"]["message"]


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out = run_cli(capsys, ["selftest"])
        report = json.loads(out)
        assert code == 0
        assert report["failed"] == 0
        assert report["passed"] >= 5
        names = [c["name"] for c in report["checks"]]
        assert "frame-unitarity" in names and "propagator-vs-dense" in names


class TestUsageErrors:
    def test_negative_direction_without_equals_gives_json_error(self, capsys, twin4):
        # argparse reads "-1,0,0" as an option, not as the value of --direction
        with pytest.raises(SystemExit) as exit_info:
            main(["qfi", "--state", twin4, "--direction", "-1,0,0"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        error = json.loads(captured.out)["error"]
        assert error["type"] == "UsageError"
        assert "--direction" in error["message"]
        assert json.loads(captured.out)["schema_version"] == "1"
        assert "usage:" in captured.err
        code, out = run_cli(capsys, ["qfi", "--state", twin4, "--direction=-1,0,0"])
        assert code == 0 and json.loads(out)["fisher"] == pytest.approx(12.0, rel=1e-12)

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["estimate", "--state", "x.json"],
                                      ["rotate", "--state", "x.json", "--direction", "1,0,0",
                                       "--theta", "abc"]])
    def test_every_parser_gives_json_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "UsageError"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["rotate", "--help"])
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3", "0"])
def test_non_finite_or_negative_tolerance_exits_2(capsys, tmp_path, monkeypatch, tol):
    # a coherent N = 4 state: with a NaN tolerance every `> tol` test is false, so its
    # coherences would pass as diagonal and the closed form would read 1.0 against F = 2.55
    path = write_json(tmp_path / "coherent4.json",
                      {"N": 4, "kind": "pure", "amplitudes_re": [0.5, 0.5, 0.5, 0.5, 0.0],
                       "amplitudes_im": [0.0] * 5})
    argv = ["qfi", "--state", path, "--direction", "1,0,0"]
    code, out = run_cli(capsys, [*argv, f"--tol={tol}"])
    assert code == 2
    assert "tolerance" in json.loads(out)["error"]["message"]
    monkeypatch.setenv("MODEFISHER_TOL", tol)
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert "tolerance" in json.loads(out)["error"]["message"]


def test_tolerance_env_override(capsys, tmp_path, monkeypatch, twin4):
    # with a huge tolerance every state looks diagonal, hence separable
    bogo = write_json(tmp_path / "b.json", {"kind": "bogolubov", "phi": 0.0})
    monkeypatch.setenv("MODEFISHER_TOL", "10")
    _, out = run_cli(capsys, ["separability", "--state", twin4, "--frame", bogo])
    assert json.loads(out)["separable"] is True


@pytest.mark.parametrize("theta", ["nan", "inf"])
@pytest.mark.parametrize("big_n", [240, 260])
def test_non_finite_angle_exits_2(capsys, tmp_path, big_n, theta):
    # N = 240 rotates through the dense eigendecomposition, N = 260 through the propagator
    state = write_json(tmp_path / "fock.json", {"N": big_n, "kind": "fock", "k": big_n // 3})
    for argv in (["rotate", "--theta", theta],
                 ["estimate", "--theta", theta, "--trials", "2", "--shots", "100"],
                 ["sweep", "--param", "theta", "--values", f"0.3,{theta}"],
                 ["sweep", "--param", "theta", "--values", theta, "--trials", "2"]):
        code, out = run_cli(capsys, argv + ["--state", state, "--direction", "1,0,0"])
        assert code == 2, argv
        assert json.loads(out)["error"]["message"] == "rotation angles must be finite"


def test_memory_error_exits_2(capsys, monkeypatch, twin4):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 1.49 GiB")

    monkeypatch.setattr(metrology, "rotate", out_of_memory)
    code, out = run_cli(capsys, ["rotate", "--state", twin4, "--direction", "1,0,0",
                                 "--theta", "0.3"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "MemoryError"


# Values every fuzzed argv draws from: non-finite, zero, negative and non-integral ones
# beside ordinary ones.  Options take the `--flag=value` form, so "-1" is not read as a flag.
FUZZ_REALS = ["nan", "inf", "-inf", "0", "-1", "0.3", "2.7", "-7.1", "1e300"]
FUZZ_COUNTS = ["nan", "inf", "0", "-3", "1", "2", "2.7"]
FUZZ_DIRECTIONS = ["1,0,0", "0.6,0,0.8", "0,0,1", "0.48,0.64,0.6", "nan,0,0", "0,inf,0",
                   "0,0,0", "1,1,1", "1e300,0,0", "0.6,0.8", "a,b,c"]
FUZZ_TOLS = [None, None, None, "nan", "inf", "-1e-3", "0", "1e-5", "10"]
# fields NaN by design: no closed form off the diagonal, no spectral value under
# --method closed-form, no sample std without trials, no N^2 fraction at N = 0
NAN_BY_DESIGN = {"fisher_closed_form", "F_closed", "fisher_spectral", "empirical_std",
                 "heisenberg_fraction"}
# bounds that are infinite by design where their Fisher information is 0
BOUND_OF = {"qcrb": ("fisher", "F_spectral"), "ccrb": ("classical_fisher", "F_cl"),
            "phase_bound": ("fisher",)}


def _fuzz_states(tmp_path, rng):
    states = [write_json(tmp_path / f"fock{n}.json", {"N": n, "kind": "fock", "k": n // 2})
              for n in (0, 1, 4, 8)]
    states.append(write_json(tmp_path / "bogo_fock6.json",
                             {"N": 6, "kind": "fock", "k": 2,
                              "frame": {"kind": "bogolubov", "phi": 0.4}}))
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    c /= np.linalg.norm(c)
    states.append(write_json(tmp_path / "pure5.json",
                             {"N": 5, "kind": "pure", "amplitudes_re": c.real.tolist(),
                              "amplitudes_im": c.imag.tolist()}))
    states.append(write_json(tmp_path / "diag3.json",
                             {"N": 3, "kind": "diagonal", "p": [0.1, 0.2, 0.3, 0.4]}))
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
    states.append(write_json(tmp_path / "dens2.json",
                             {"N": 2, "kind": "density", "rho_re": rho.real.tolist(),
                              "rho_im": rho.imag.tolist()}))
    return states


def _fuzz_argv(rng, states, frames, phis=("0", "0.4", "-7.1")):
    def pick(options):
        return options[rng.integers(len(options))]

    def opt(name, options):
        value = pick(options)
        return [] if value is None else [f"--{name}={value}"]

    sub = pick(["qfi", "separability", "rotate", "estimate", "sweep", "frames"])
    if sub == "frames":
        return ["frames", f"--n={pick(['-1', '0', '1', '4', '8'])}", *opt("tol", FUZZ_TOLS),
                *([f"--frame={pick(frames)}"] if rng.random() < 0.5
                  else [f"--phi={pick(phis)}"]),
                f"--format={pick(['json', 'csv'])}"]
    argv = [sub, f"--state={pick(states)}", *opt("tol", FUZZ_TOLS)]
    if sub == "separability":
        return argv + [f"--frame={pick(frames)}", *(["--witnesses"] if rng.random() < 0.5 else [])]
    argv.append(f"--direction={pick(FUZZ_DIRECTIONS)}")
    if sub == "qfi":
        return argv + [f"--method={pick(['both', 'spectral', 'closed-form'])}",
                       f"--format={pick(['json', 'csv'])}"]
    argv.append(f"--theta={pick(FUZZ_REALS)}")
    if sub == "rotate":
        return argv
    argv += [f"--format={pick(['json', 'csv'])}", *opt("seed", [None, "0", "-1", "7"])]
    if sub == "estimate":
        return argv + [f"--trials={pick(FUZZ_COUNTS)}", f"--shots={pick(FUZZ_COUNTS + ['40'])}"]
    param = pick(["theta", "phi", "shots", "trials"])
    values = ",".join(pick(FUZZ_REALS + FUZZ_COUNTS + ["40"]) for _ in range(rng.integers(1, 4)))
    return argv + [f"--param={param}", f"--values={values}", *opt("trials", [None, *FUZZ_COUNTS]),
                   *opt("shots", [None, *FUZZ_COUNTS, "40"])]


def _numbers(node, parent=None, key=None):
    """(key, value, enclosing dict) for every number in a report, CSV cells included."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _numbers(v, node, k)
    elif isinstance(node, list):
        for v in node:
            yield from _numbers(v, parent, key)
    elif isinstance(node, str):
        try:
            yield key, float(node), parent
        except ValueError:
            pass
    elif isinstance(node, float) or (isinstance(node, int) and not isinstance(node, bool)):
        yield key, float(node), parent


def _check_numbers(argv, report):
    for key, value, row in _numbers(report):
        if math.isfinite(value) or (key in NAN_BY_DESIGN and math.isnan(value)):
            continue
        fishers = [float(row[f]) for f in BOUND_OF.get(key, ()) if f in row]
        assert value == math.inf and fishers == [0.0], (argv, key, value)


def test_fuzzed_argv_keep_the_exit_contract(capsys, tmp_path):
    """Exit 0 with no NaN or infinity outside the fields that carry them by design, or
    exit 2 with the JSON error object; no exception escapes `main`."""
    rng = np.random.default_rng(20261018)
    states = _fuzz_states(tmp_path, rng)
    frames = [write_json(tmp_path / "spatial.json", {"kind": "spatial"}),
              write_json(tmp_path / "bogo.json", {"kind": "bogolubov", "phi": 0.4})]
    exits = {0: 0, 2: 0}
    for _ in range(400):
        exits[_run_fuzzed(capsys, _fuzz_argv(rng, states, frames))] += 1
    assert min(exits.values()) >= 50, exits


def _run_fuzzed(capsys, argv):
    """Run `main(argv)` and check the exit contract; returns the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 2), (argv, code, captured.out)
    if code == 2:
        assert "error" in json.loads(captured.out), argv
    elif "--format=csv" in argv:
        _check_numbers(argv, list(csv.DictReader(io.StringIO(captured.out))))
    else:
        _check_numbers(argv, json.loads(captured.out))
    return code


# JSON's NaN and Infinity, in every kind of state and in frames by angle and by matrix
NON_FINITE_STATES = {
    "nan_pure": '{"N": 2, "kind": "pure", "amplitudes_re": [NaN, 0.6, 0.8], '
                '"amplitudes_im": [0, 0, 0]}',
    "inf_pure": '{"N": 2, "kind": "pure", "amplitudes_re": [0, 0.6, 0.8], '
                '"amplitudes_im": [0, -Infinity, 0]}',
    "inf_diagonal": '{"N": 2, "kind": "diagonal", "p": [Infinity, 0.5, 0.5]}',
    "nan_density": '{"N": 1, "kind": "density", "rho_re": [[0.5, NaN], [NaN, 0.5]], '
                   '"rho_im": [[0, 0], [0, 0]]}',
    "nan_fock_k": '{"N": 3, "kind": "fock", "k": NaN}',
    "nan_phi_fock": '{"N": 3, "kind": "fock", "k": 1, "frame": {"kind": "bogolubov", "phi": NaN}}',
    "inf_phi_fock": '{"N": 3, "kind": "fock", "k": 1, '
                    '"frame": {"kind": "bogolubov", "phi": -Infinity}}',
    "nan_mixing_fock": '{"N": 3, "kind": "fock", "k": 1, "frame": {"kind": "unitary", '
                       '"u_re": [[NaN, 0], [0, 1]], "u_im": [[0, 0], [0, 0]]}}',
}
NON_FINITE_FRAMES = {
    "inf_phi": '{"kind": "bogolubov", "phi": Infinity}',
    "nan_mixing": '{"kind": "unitary", "u_re": [[1, 0], [0, 1]], "u_im": [[0, NaN], [0, 0]]}',
}
FUZZ_PHIS = ["nan", "inf", "-inf", "0", "0.4", "-7.1"]


def test_fuzzed_non_finite_inputs_keep_the_exit_contract(capsys, tmp_path):
    """A second batch: `frames --phi` drawn from non-finite values too, and state and frame
    files with a NaN or infinite entry.  Every argv that reads one exits 2."""
    def write_text(name, text):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        return str(path)

    rng = np.random.default_rng(20261020)
    states = [write_text(name, text) for name, text in NON_FINITE_STATES.items()]
    bad_frames = [write_text(name, text) for name, text in NON_FINITE_FRAMES.items()]
    frames = [write_json(tmp_path / "spatial.json", {"kind": "spatial"}), *bad_frames]
    bad, seen = {*states, *bad_frames, "nan", "inf", "-inf"}, set()
    for _ in range(400):
        argv = _fuzz_argv(rng, states, frames, phis=FUZZ_PHIS)
        code = _run_fuzzed(capsys, argv)
        values = dict(arg.partition("=")[::2] for arg in argv[1:])
        read = {values.get("--state"), values.get("--frame"), values.get("--phi")} & bad
        assert code == 2 or not read, (argv, code)
        seen |= read
    assert seen == bad


@pytest.mark.parametrize("argv, header", [
    (["qfi", "--direction", "1,0,0"],
     "schema_version,n_particles,nx,ny,nz,method,fisher,fisher_spectral,fisher_closed_form,"
     "phase_bound,classification,heisenberg_fraction"),
    (["estimate", "--direction", "1,0,0", "--theta", "0.3", "--trials", "2", "--shots", "100"],
     "schema_version,theta_true,trials,shots_per_trial,seed,mean_estimate,empirical_std,qcrb,"
     "ccrb,fisher,classical_fisher"),
    (["sweep", "--param", "theta", "--values", "0.2,0.4"],
     "param,F_closed,F_spectral,F_cl,qcrb,ccrb,empirical_std"),
], ids=["qfi", "estimate", "sweep"])
def test_csv_header_lists_the_json_row_keys_in_frozen_order(capsys, twin4, argv, header):
    _, out_json = run_cli(capsys, [argv[0], "--state", twin4, *argv[1:]])
    _, out_csv = run_cli(capsys, [argv[0], "--state", twin4, *argv[1:], "--format", "csv"])
    assert out_csv.splitlines()[0] == header
    report = json.loads(out_json)
    rows = report["rows"] if argv[0] == "sweep" else [report]
    assert len(out_csv.splitlines()) == len(rows) + 1
    # `estimate` adds its per-trial estimates to the JSON report only
    assert all(set(row) - {"estimates"} == set(header.split(",")) for row in rows)


def test_bad_tolerance_gives_one_error_in_every_subcommand(capsys, twin4, bogo0, monkeypatch):
    error = {"type": "ValueError", "message": "tolerance must be finite and > 0, got nan"}
    state = ["--state", twin4]
    for argv in (["qfi", *state, "--direction", "1,0,0"],
                 ["separability", *state, "--frame", bogo0],
                 ["rotate", *state, "--direction", "1,0,0", "--theta", "0.3"],
                 ["estimate", *state, "--direction", "1,0,0", "--theta", "0.3"],
                 ["sweep", *state, "--param", "theta", "--values", "0.3"],
                 ["frames", "--n", "3"], ["selftest"]):
        code, out = run_cli(capsys, [*argv, "--tol=nan"])
        assert (code, json.loads(out)["error"]) == (2, error), argv
        monkeypatch.setenv("MODEFISHER_TOL", "nan")
        code, out = run_cli(capsys, argv)
        monkeypatch.delenv("MODEFISHER_TOL")
        assert (code, json.loads(out)["error"]) == (2, error), argv


@pytest.mark.parametrize("obj, message", [
    ({"N": 3, "kind": "pure", "amplitudes_re": [1, 0], "amplitudes_im": [0, 0]},
     "amplitudes must have length N+1 = 4"),
    ({"N": 3, "kind": "diagonal", "p": [0.5, 0.5]}, "p must have length N+1 = 4"),
    ({"N": 1, "kind": "density", "rho_re": [[1, 0, 0]] * 3, "rho_im": [[0, 0, 0]] * 3},
     "rho must be (N+1)x(N+1) = 2x2"),
    ({"N": 2, "kind": "fock", "k": 1, "frame": {"kind": "bogus"}}, "unknown frame kind 'bogus'"),
], ids=["pure", "diagonal", "density", "frame_kind"])
def test_state_file_not_matching_its_schema_exits_2(capsys, tmp_path, obj, message):
    path = write_json(tmp_path / "state.json", obj)
    code, out = run_cli(capsys, ["qfi", "--state", path, "--direction", "1,0,0"])
    assert (code, json.loads(out)["error"]) == (2, {"type": "ValueError", "message": message})


@pytest.mark.parametrize("obj, field", [
    ({"N": 2.9, "kind": "fock", "k": 1}, "N"),
    ({"N": 2, "kind": "fock", "k": 1.7}, "k"),
    ({"N": True, "kind": "fock", "k": 0}, "N"),
    ({"N": "4", "kind": "fock", "k": 2}, "N"),
    ({"N": math.nan, "kind": "fock", "k": 0}, "N"),
    ({"N": 4, "kind": "fock", "k": math.nan}, "k"),
    ({"N": 2.5, "kind": "pure", "amplitudes_re": [1, 0, 0], "amplitudes_im": [0, 0, 0]}, "N"),
], ids=["n_fraction", "k_fraction", "n_bool", "n_string", "n_nan", "k_nan", "pure_n_fraction"])
def test_state_file_with_non_integer_count_exits_2(capsys, tmp_path, obj, field):
    # before, int() read N = 2.9 as 2 and k = 1.7 as 1, and true as 1
    path = write_json(tmp_path / "state.json", obj)
    code, out = run_cli(capsys, ["qfi", "--state", path, "--direction", "1,0,0"])
    error = json.loads(out)["error"]
    assert (code, error["type"]) == (2, "ValueError")
    assert error["message"].startswith(f"{field} must be an integer"), error


def test_state_file_counts_may_be_integral_floats(capsys, tmp_path):
    path = write_json(tmp_path / "state.json", {"N": 4.0, "kind": "fock", "k": 2.0})
    code, out = run_cli(capsys, ["qfi", "--state", path, "--direction", "1,0,0"])
    assert code == 0
    assert json.loads(out)["fisher"] == pytest.approx(12.0, rel=1e-12)


FOCK = {"N": 2, "kind": "fock", "k": 1}


@pytest.mark.parametrize("subcommand, obj, message", [
    ("qfi", {**FOCK, "frame": None}, "frame must be a JSON object, got None"),
    ("qfi", {**FOCK, "frame": [1]}, "frame must be a JSON object, got [1]"),
    ("qfi", [1, 2], "state must be a JSON object, got [1, 2]"),
    ("qfi", "hello", "state must be a JSON object, got 'hello'"),
    ("qfi", {"N": 1, "kind": "diagonal", "p": {"a": 1}}, "p must hold numbers"),
    ("qfi", {**FOCK, "frame": {"kind": "bogolubov", "phi": None}},
     "phi must be a number, got None"),
    ("qfi", {**FOCK, "frame": {"kind": "bogolubov", "phi": [1]}},
     "phi must be a number, got [1]"),
    ("qfi", {**FOCK, "frame": {"kind": "unitary", "u_re": {"a": 1}, "u_im": [[0, 0], [0, 0]]}},
     "u_re must hold numbers"),
    ("qfi", {**FOCK, "frame": {"kind": "bogolubov", "phi": 10 ** 400}}, "phi must hold numbers"),
    ("qfi", {"N": 1, "kind": "diagonal", "p": [10 ** 400, 0]}, "p must hold numbers"),
    ("frames", None, "frame must be a JSON object, got None"),
    ("frames", 3, "frame must be a JSON object, got 3"),
    ("qfi", {"N": 1, "kind": "pure", "amplitudes_re": ["1", 0], "amplitudes_im": [0, 0]},
     "amplitudes_re must hold numbers"),
    ("qfi", {"N": 1, "kind": "diagonal", "p": [True, False]}, "p must hold numbers"),
    ("frames", {"kind": "unitary", "u_re": [["1", 0], [0, 1]], "u_im": [[0, 0], [0, 0]]},
     "u_re must hold numbers"),
    ("qfi", {"N": 1, "kind": "diagonal", "p": [None, 1.0]}, "p must hold numbers"),
    ("qfi", {"kind": "fock", "k": 1}, "N is missing"),
    ("qfi", {"N": 2, "kind": "fock"}, "k is missing"),
    ("qfi", {"N": 1, "kind": "pure", "amplitudes_re": [1, 0]}, "amplitudes_im is missing"),
    ("qfi", {"N": 1, "kind": "diagonal"}, "p is missing"),
    ("qfi", {**FOCK, "frame": {"kind": "bogolubov"}}, "phi is missing"),
    ("frames", {"kind": "unitary", "u_re": [[1, 0], [0, 1]]}, "u_im is missing"),
    ("qfi", {"N": 1, "kind": "pure", "amplitudes_re": [1, 0], "amplitudes_im": [0]},
     "amplitudes_re and amplitudes_im must have the same shape, got (2,) and (1,)"),
    ("qfi", {"N": 1, "kind": "pure", "amplitudes_re": [1, 0], "amplitudes_im": 0},
     "amplitudes_re and amplitudes_im must have the same shape, got (2,) and ()"),
    ("qfi", {"N": 1, "kind": "density", "rho_re": [[1, 0], [0, 0]], "rho_im": [[0]]},
     "rho_re and rho_im must have the same shape, got (2, 2) and (1, 1)"),
    ("frames", {"kind": "unitary", "u_re": [[1, 0], [0, 1]], "u_im": [[0, 0]]},
     "u_re and u_im must have the same shape, got (2, 2) and (1, 2)"),
], ids=["state_frame_null", "state_frame_array", "state_array", "state_string", "p_object",
        "phi_null", "phi_array", "u_re_object", "phi_past_double_range", "p_past_double_range",
        "frame_file_null", "frame_file_number", "amplitudes_string", "p_bool", "u_re_string",
        "p_null", "n_missing", "k_missing", "amplitudes_im_missing", "p_missing",
        "phi_missing", "u_im_missing", "amplitudes_im_short", "amplitudes_im_scalar",
        "rho_im_shape", "u_im_shape"])
def test_malformed_json_exits_2_naming_the_field(capsys, tmp_path, subcommand, obj, message):
    # the first ten ended in a TypeError, AttributeError or OverflowError traceback, exit 1;
    # numpy's float conversion read the strings and booleans as numbers, exit 0, and null as
    # NaN, rejected for its finiteness without naming the field; a missing field was a
    # KeyError whose message was the bare field name; the two parts of a complex array were
    # broadcast, so the last four were read as valid inputs, exit 0
    path = write_json(tmp_path / "input.json", obj)
    argv = (["qfi", "--state", path, "--direction", "1,0,0"] if subcommand == "qfi"
            else ["frames", "--n", "2", "--frame", path])
    code = main(argv)
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert (code, error["type"]) == (2, "ValueError")
    assert error["message"].startswith(message), error
    assert "Traceback" not in captured.err


def test_integers_past_int64_are_numbers(capsys, tmp_path):
    # 10**20 fits no 64-bit integer, and numpy makes an object array of it
    state = {**FOCK, "frame": {"kind": "bogolubov", "phi": 10 ** 20}}
    code, out = run_cli(capsys, ["qfi", "--state", write_json(tmp_path / "state.json", state),
                                 "--direction", "1,0,0"])
    assert code == 0, out
    assert serialize._floats({"p": [10 ** 20, 1]}, "p").tolist() == [1e20, 1.0]


def test_unparseable_tolerance_variable_is_named(capsys, monkeypatch):
    # `--tol abc` is an argparse usage error; the variable is parsed by `main`
    monkeypatch.setenv("MODEFISHER_TOL", "abc")
    code, out = run_cli(capsys, ["selftest"])
    assert (code, json.loads(out)["error"]) == (
        2, {"type": "ValueError", "message": "MODEFISHER_TOL must be a number, got 'abc'"})


@pytest.mark.parametrize("argv", [["frames", "--n", "3"], ["selftest"]])
def test_frames_and_selftest_check_the_tolerance(capsys, argv):
    for tol in ("nan", "0"):
        code, out = run_cli(capsys, [*argv, f"--tol={tol}"])
        assert code == 2
        assert "tolerance" in json.loads(out)["error"]["message"]


def test_states_with_non_finite_entries_exit_2(capsys, tmp_path):
    # NaN fails every `> tol` test: without an explicit check these exit 0 with F = 0 or NaN
    diagonal = tmp_path / "nan_diagonal.json"
    diagonal.write_text('{"N": 2, "kind": "diagonal", "p": [NaN, 0.5, 0.5]}')
    pure = tmp_path / "nan_pure.json"
    pure.write_text('{"N": 2, "kind": "pure", "amplitudes_re": [NaN, 0.6, 0.8], '
                    '"amplitudes_im": [0, 0, 0]}')
    for argv in (["qfi", "--state", str(diagonal), "--direction", "1,0,0"],
                 ["rotate", "--state", str(pure), "--direction", "1,0,0", "--theta", "0.3"]):
        code, out = run_cli(capsys, argv)
        assert code == 2, argv
        assert "finiteness" in json.loads(out)["error"]["message"]


USAGE_ERROR = ["frames", "--n", "x"]


@pytest.mark.parametrize("argv, first_line, unbuffered", [
    # about 180 KB of CSV, more than a pipe holds, so writes still follow the reader's exit
    (["frames", "--n", "60", "--format", "csv"], b"row,col,re,im\n", False),
    # a report that fits the output buffer, whose reader is gone before it is flushed
    (["frames", "--n", "2"], None, False),
    # a usage error, whose report is written while argv is parsed
    (USAGE_ERROR, None, False),
    (USAGE_ERROR, None, True),
], ids=["read_one_line", "closed_at_once", "usage_error", "usage_error_unbuffered"])
def test_closed_pipe_ends_quietly(argv, first_line, unbuffered):
    # stdout block-buffered, as in a shell, unless `unbuffered`
    proc = _cli_process(argv, unbuffered)
    if first_line is not None:
        assert proc.stdout.readline() == first_line
    _assert_quiet_broken_pipe(proc, usage=argv is USAGE_ERROR)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_cut_short_ends_quietly(fmt, unbuffered):
    # about 180 KB either way, more than a pipe holds; unbuffered, a short write to the closed
    # pipe is followed by one that raises, rather than the rest being dropped with exit 0
    proc = _cli_process(["frames", "--n", "60", "--format", fmt], unbuffered)
    assert len(proc.stdout.read(10)) == 10
    _assert_quiet_broken_pipe(proc)


# one argv per subcommand, and a usage error; {state} and {frame} name files in tmp_path
ENTRY_ARGV = {
    "qfi": ["qfi", "--state", "{state}", "--direction", "1,0,0"],
    "separability": ["separability", "--state", "{state}", "--frame", "{frame}", "--witnesses"],
    "rotate": ["rotate", "--state", "{state}", "--direction", "1,0,0", "--theta", "0.3"],
    "estimate": ["estimate", "--state", "{state}", "--direction", "1,1,1", "--theta", "0.3"],
    "sweep": ["sweep", "--state", "{state}", "--param", "theta", "--values", "0.1,0.2",
              "--trials", "4", "--shots", "100", "--format", "csv"],
    "frames": ["frames", "--n", "3", "--phi", "0.4"],
    "selftest": ["selftest"],
    "usage_error": USAGE_ERROR,
}


@pytest.mark.parametrize("name", ENTRY_ARGV)
def test_module_entry_matches_main(capsysbinary, twin4, bogo0, name):
    """`python -m modefisher.cli` exits with the status of in-process `main` and writes the
    same bytes, and `main` leaves the collector as it found it."""
    argv = [arg.format(state=twin4, frame=bogo0) for arg in ENTRY_ARGV[name]]
    collector = gc.isenabled(), gc.get_freeze_count()
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    assert (gc.isenabled(), gc.get_freeze_count()) == collector
    assert code in (0, 2)
    proc = _cli_process(argv, unbuffered=False)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == code
    assert out == capsysbinary.readouterr().out
    assert b"Traceback" not in err, err


def test_import_leaves_the_collector_alone():
    probe = ("import gc; before = gc.isenabled(), gc.get_freeze_count(); import modefisher.cli; "
             "print(before == (gc.isenabled(), gc.get_freeze_count()))")
    proc = _cli_process(["-c", probe], unbuffered=False, module=False)
    assert proc.communicate(timeout=60)[0] == b"True\n"


# Runs cli.run on argv with an atexit handler that writes, unflushed, whether the heap was
# frozen; "raise" in place of argv runs `frames --n 2` with a handler that raises.
RUN_PROBE = """
import atexit, gc, sys
from modefisher import cli
atexit.register(lambda: sys.stdout.write(f"atexit: frozen={gc.get_freeze_count() > 0}\\n"))
if sys.argv[1:] == ["raise"]:
    def _fail(args):
        raise RuntimeError("handler failed")
    cli._cmd_frames = _fail
    sys.argv[1:] = ["frames", "--n", "2"]
cli.run()
"""


@pytest.mark.parametrize("argv, code", [
    (["frames", "--n", "2"], 0),
    (USAGE_ERROR, 2),
    (["raise"], 1),
], ids=["report", "usage_error", "uncaught_exception"])
def test_run_freezes_the_heap_and_keeps_a_normal_exit(argv, code):
    """`run` exits with `main`'s status, or 1 and a traceback when `main` raises; atexit
    handlers still run after the heap is frozen, and what they write is still flushed."""
    proc = _cli_process(["-c", RUN_PROBE, *argv], unbuffered=False, module=False)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == code, err
    frozen = b"atexit: frozen=True\n"
    assert out.endswith(frozen), out
    report = out.removesuffix(frozen)
    if code == 1:
        assert report == b""
        assert b"Traceback" in err and err.rstrip().endswith(b"RuntimeError: handler failed")
    else:
        assert json.loads(report)
        assert b"Traceback" not in err, err


def _cli_process(argv, unbuffered, module=True):
    """`python -m modefisher.cli argv`, or with `module` false `python argv`, with stdout and
    stderr piped, PYTHONUNBUFFERED set only if `unbuffered`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(modefisher.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    entry = ["-m", "modefisher.cli"] if module else []
    return subprocess.Popen([sys.executable, *entry, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _assert_quiet_broken_pipe(proc, usage=False):
    """Close the reader's end: the process exits BROKEN_PIPE_STATUS, and stderr holds nothing,
    or with `usage` nothing but a usage error's usage lines."""
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == BROKEN_PIPE_STATUS
    assert b"Exception" not in err and b"Traceback" not in err, err
    if usage:
        assert err.startswith(b"usage: ")
        assert all(line.startswith((b"usage: ", b" ")) for line in err.splitlines()), err
    else:
        assert err == b""
