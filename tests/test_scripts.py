"""The two example scripts, run in-process through main() with tiny arguments, and the
console-script checks."""
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modefisher

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


def test_console_script_checks(tmp_path):
    """check_console_script.sh, with a `modefisher` first on PATH that does what the
    installed console script does: ``sys.exit(run())``."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "modefisher"
    shim.write_text(f"#!{sys.executable}\nimport sys\nfrom modefisher.cli import run\n"
                    "sys.exit(run())\n")
    shim.chmod(0o755)
    (bin_dir / "python").symlink_to(sys.executable)
    env = {k: v for k, v in os.environ.items() if k not in ("MODEFISHER_TOL", "PYTHONUNBUFFERED")}
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    src = str(Path(modefisher.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(["bash", str(SCRIPTS / "check_console_script.sh")], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
