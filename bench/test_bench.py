"""Tests of the benchmark itself: failure counting, oracles, smoke runs, metric names.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracles as orc  # noqa: E402
import spans  # noqa: E402
from harness import Op, require, run_op, run_pass, tail  # noqa: E402
from run import END_TO_END_UNITS, Reference  # noqa: E402
from workloads import WORKLOADS, cli_op  # noqa: E402

WORK = BENCH / ".work" / "tests"


@pytest.fixture
def workdir():
    WORK.mkdir(parents=True, exist_ok=True)
    yield WORK
    shutil.rmtree(WORK, ignore_errors=True)


def _expect_one(answer):
    require(answer == 1.0, f"answer {answer!r}, expected 1.0")


def test_planted_wrong_answer_is_a_failure():
    good = Op("good", "planted", 4, 4, lambda _: 1.0, _expect_one)
    wrong = Op("wrong", "planted", 4, 4, lambda _: 2.0, _expect_one)
    results = run_pass([good, wrong])
    assert [r.ok for r in results] == [True, False]
    assert not results[1].crashed and "expected 1.0" in results[1].message


def test_planted_exception_is_a_failure():
    def boom(_):
        raise OverflowError("int too large to convert to float")

    result = run_op(Op("boom", "planted", 4, 4, boom, _expect_one))
    assert not result.ok and result.crashed and "OverflowError" in result.message


@pytest.mark.parametrize("script", [
    "raise RuntimeError('planted')",  # uncaught: traceback and exit 1
    "import traceback\ntry:\n    1 / 0\nexcept ZeroDivisionError:\n"
    "    traceback.print_exc()",  # traceback printed, exit 0
    "import sys; sys.exit(3)",  # unexpected exit code, no traceback
])
def test_planted_cli_failure_is_a_failure(workdir, script):
    op = cli_op("planted", 4, 4, ["-c", script], workdir, command=[sys.executable])
    result = run_op(op)
    assert not result.ok and result.crashed


def test_cli_op_passes_on_expected_output(workdir):
    op = cli_op("planted", 4, 4, ["-c", "print('{}')"], workdir, command=[sys.executable])
    assert run_op(op).ok


def test_oracles_match_closed_forms():
    big_n, nx = 10, np.array([1.0, 0.0, 0.0])
    twin = np.zeros(big_n + 1, dtype=complex)
    twin[big_n // 2] = 1.0
    assert orc.four_var(twin, nx) == pytest.approx(big_n ** 2 / 2 + big_n, rel=1e-14)
    # Fock-diagonal mixture: the band spectral sum equals the paper's closed form
    rng = np.random.default_rng(0)
    p = rng.random(big_n + 1)
    p /= p.sum()
    k = np.arange(big_n + 1)
    coherence = sum(p[j] * p[j + 1] / (p[j] + p[j + 1]) * (j + 1) * (big_n - j)
                    for j in range(big_n))
    closed = big_n + 2 * np.sum(p * k * (big_n - k)) - 4 * coherence
    assert orc.diagonal_qfi(p, nx) == pytest.approx(closed, rel=1e-12)
    # a quarter turn about z takes <J> = (N/2, 0, 0) of the x-polarized state to -y
    psi = np.array([math.comb(big_n, j) ** 0.5 for j in range(big_n + 1)]) / 2 ** (big_n / 2)
    turned = orc.rotate_vector(orc.spin_vector(psi), np.array([0.0, 0.0, 1.0]), -math.pi / 2)
    assert turned == pytest.approx([0.0, -big_n / 2, 0.0], abs=1e-12)


def test_tail_percentile_does_not_depend_on_pass_count():
    # 21 ops a pass, two passes minimum: p76.2, whatever the pass count
    for passes in (2, 3, 5):
        samples = [float(i) for i in range(21 * passes)]
        value, percentile = tail(samples, 21 * 2)
        assert percentile == pytest.approx(100.0 * 32 / 42)
        assert sum(s > value for s in samples) >= 10
        assert value == samples[math.ceil(len(samples) * 32 / 42) - 1]


def test_reference_scale_uses_the_nearest_reference_times(workdir):
    ref = Reference(workdir)
    # the host runs at full speed for ten samples, then at half speed
    ref.samples = [(float(t), ref.nominal_s * (1 if t < 10 else 2)) for t in range(20)]
    assert ref.scale(2.0) == pytest.approx(1.0)
    assert ref.scale(17.0) == pytest.approx(0.5)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_every_metric():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        spans.per_layer_metric_units()
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if trace and workload == "qfi-scaling":
        assert result["metrics"]["frames.frame_change_unitary.calls"]["value"] == 0


def test_refuses_to_run_without_the_source(workdir):
    bare = workdir / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "out",
                                                                         "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run("qfi-scaling", 0, cwd=bare)
    assert proc.returncode != 0 and proc.stdout == ""
