"""The two example scripts, run in-process through main() with tiny arguments."""
import importlib.util
import math
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()
    return capsys.readouterr().out


def test_phase_estimation_demo(monkeypatch, capsys):
    out = run_script("phase_estimation_demo",
                     ["--n", "4", "--trials", "4", "--shots", "500", "--seed", "3"],
                     monkeypatch, capsys)
    fields = {key.strip(): float(value) for key, value in
              (line.split(":") for line in out.splitlines()[1:])}
    assert fields["mean estimate"] == pytest.approx(0.3, abs=0.05)
    # printed to 7 significant digits
    assert fields["quantum CRB"] == pytest.approx(1 / math.sqrt(500 * 12), rel=1e-6)
    assert fields["quantum CRB"] <= fields["classical CRB"]


def test_twin_fock_scaling(monkeypatch, capsys):
    out = run_script("twin_fock_scaling", ["--n-max", "6"], monkeypatch, capsys)
    header, *rows = out.splitlines()
    assert header == "N,fisher,phase_bound,shot_noise,heisenberg"
    for row, big_n in zip(rows, (2, 4, 6), strict=True):
        n, fisher = row.split(",")[:2]
        assert int(n) == big_n
        assert float(fisher) == pytest.approx(big_n ** 2 / 2 + big_n, rel=1e-12)
