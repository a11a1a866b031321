"""The four workloads: seeded op lists over a core ladder of N, plus a reach stage.

Each builder returns a ``Plan``.  ``rung_ops(N)`` gives the ops of one rung
and draws its inputs from ``default_rng([seed, N, salt])``, so a reach child
rebuilds exactly the rung the parent would have built.  Named defect ops
(ROADMAP defects a-d) stay in the core op list on purpose.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc
from harness import Op, OracleFailure, require, run_child
from modefisher import collective, fock, frames, metrology, qfi, separability

VERDICT_KINDS = ("same_frame", "spatial_verdict", "cli.separability")
CLI_TIMEOUT_S = 120.0
# The ops that fail on the seed code, by name, each with the ROADMAP defect it
# hits.  Only these may fail without making a run incorrect.
SEED_DEFECTS = {
    # (a) non-spatial frame changes lose unitarity from N = 60
    **{f"{name}@N={n}": "a" for n in (60, 100)
       for name in ("same_frame_bogolubov", "same_frame_custom", "frame_invariance",
                    "frame_unitary")},
    # (b) witness coefficients sqrt(N! (N-1)!) leave float range from N = 99
    "witness_same_frame@N=100": "b",
    "separability@N=200": "b",
    # (c) `qfi --tol` does not reach qfi_spectral
    "tol_reaches_qfi@N=8": "c",
    # (d) classify's absolute tolerance at N = 10^4
    "classify@N=10000": "d",
}


@dataclass
class Plan:
    """A workload: its ladder, reach rungs, and how to build each rung's ops.

    Ops are built on demand, so a reach child builds only its own rung.
    """

    ladder: tuple[int, ...]
    reach: tuple[int, ...]
    rung_ops: Callable[[int], list[Op]]
    extra_ops: Callable[[], list[Op]] = list
    warmup_ops: Callable[[], list[Op]] | None = None
    # wall-time cap of one reach rung's child process
    reach_wall_s: float = 10.0

    def core_ops(self) -> list[Op]:
        return [op for n in self.ladder for op in self.rung_ops(n)] + self.extra_ops()

    def warmup(self) -> list[Op]:
        """One op of each kind, at the smallest rung."""
        return self.warmup_ops() if self.warmup_ops else self.rung_ops(self.ladder[0])


def _rng(seed: int, n: int, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, n, salt])


def _direction(rng, in_plane: bool = False):
    if in_plane:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        d = collective.Direction.in_plane(phi)
    else:
        v = rng.normal(size=3)
        d = collective.Direction(*(v / np.linalg.norm(v)))
    return d, d.as_array()


def _random_pure(rng, big_n: int) -> np.ndarray:
    c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
    return c / np.linalg.norm(c)


def _op(name, kind, n, rung, call, check) -> Op:
    full = f"{name}@N={n}"
    return Op(full, kind, n, rung, call, check, SEED_DEFECTS.get(full))


# --- qfi-scaling ---------------------------------------------------------------

def _qfi_twin_fock(n, rng, rung, core):
    d, nv = _direction(rng, in_plane=True)
    state = fock.make_fock_state(n // 2, n)

    def call(_):
        gen = collective.direction_generator(n, d)
        return qfi.qfi_spectral(state, gen), gen

    def check(ans):
        fisher, gen = ans
        err = orc.rel_err(fisher, n * n / 2.0 + n)
        require(err <= 1e-9, f"twin-Fock F={fisher!r}, expected N^2/2+N={n * n / 2.0 + n!r}")
        health = {"qfi.twin_fock_rel_err_max": err}
        if core:
            health["collective.hermiticity_resid_max"] = orc.hermiticity_resid(gen.matrix)
        return health

    return _op("twin_fock", "twin_fock", n, rung, call, check)


def _qfi_pure(kind, n, rng, rung, amplitudes):
    d, nv = _direction(rng)
    state = fock.pure_state(amplitudes)
    reference = orc.four_var(amplitudes, nv)

    def call(_):
        return qfi.qfi_spectral(state, collective.direction_generator(n, d))

    def check(fisher):
        require(orc.rel_err(fisher, reference) <= 1e-8,
                f"pure-state F={fisher!r}, expected 4 Var(J_n)={reference!r}")

    return _op(kind, kind, n, rung, call, check)


def _qfi_noon(n, rng, rung, core):
    amplitudes = np.zeros(n + 1, dtype=complex)
    amplitudes[0] = 1.0 / math.sqrt(2.0)
    amplitudes[n] = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) / math.sqrt(2.0)
    return _qfi_pure("noon", n, rng, rung, amplitudes)


def _qfi_random_pure(n, rng, rung, core):
    return _qfi_pure("random_pure", n, rng, rung, _random_pure(rng, n))


def _qfi_diagonal(n, rng, rung, core):
    """Closed form, cross-checked against qfi_spectral on the core ladder only:
    the spectral oracle is dense by design and cannot reach large N."""
    d, nv = _direction(rng)
    p = rng.random(n + 1) ** 3
    p[rng.random(n + 1) < 0.1] = 0.0
    p[n // 2] += 0.1
    p /= p.sum()
    reference = orc.diagonal_qfi(p, nv)
    state = fock.diagonal_state(p) if core else None

    def call(_):
        closed = qfi.qfi_diagonal_closed_form(p, n, d)
        if state is None:
            return closed, None
        return closed, qfi.qfi_spectral(state, collective.direction_generator(n, d))

    def check(ans):
        closed, spectral = ans
        require(orc.rel_err(closed, reference) <= 1e-9,
                f"closed form F={closed!r}, band spectral sum {reference!r}")
        if spectral is None:
            return {}
        err = orc.rel_err(closed, spectral)
        require(err <= 1e-8, f"closed form {closed!r} vs qfi_spectral {spectral!r}")
        return {"qfi.closed_vs_spectral_rel_err_max": err}

    return _op("diagonal" if core else "diagonal_closed", "diagonal", n, rung, call, check)


def _qfi_low_rank(n, rng, rung, core):
    d, nv = _direction(rng)
    weights = rng.dirichlet(np.ones(3))
    vectors = [_random_pure(rng, n) for _ in weights]
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors))
    state = fock.density_state(rho)
    four_var = orc.four_var_mixture(weights, vectors, nv)
    convex = sum(w * orc.four_var(v, nv) for w, v in zip(weights, vectors))

    def call(_):
        return qfi.variance_bound(state, collective.direction_generator(n, d))

    def check(ans):
        fisher, reported_four_var, gap = ans
        upper = min(four_var, convex) * (1.0 + 1e-8)
        require(-1e-9 * four_var <= fisher <= upper,
                f"mixed-state F={fisher!r} outside [0, min(4Var, convex bound)={upper!r}]")
        require(orc.rel_err(reported_four_var, four_var) <= 1e-8,
                f"4 Var(J_n)={reported_four_var!r}, expected {four_var!r}")
        require(abs(gap - (reported_four_var - fisher)) <= 1e-9 * four_var, f"gap {gap!r}")

    return _op("low_rank", "low_rank", n, rung, call, check)


def _qfi_classify(n, rung):
    fisher = float(n) ** 2 * (1.0 + 1e-15)

    def call(_):
        return qfi.classify(fisher, n)

    def check(report):
        require(report.classification == "heisenberg-saturating",
                f"F = N^2 (1 + 1e-15) classified {report.classification!r}")
        require(orc.rel_err(report.phase_bound, 1.0 / math.sqrt(fisher)) <= 1e-12,
                f"phase bound {report.phase_bound!r}")

    return _op("classify", "classify", n, rung, call, check)


def qfi_scaling(seed: int, workdir: Path, smoke: bool) -> Plan:
    # The top rung stops at 700 so that a pass takes about 4 s on the seed and
    # a run holds several passes; N = 2000 and up is the reach stage's.
    ladder = (4, 20) if smoke else (4, 20, 100, 400, 700)
    reach = (100,) if smoke else (2000, 10_000, 100_000)
    core_max = ladder[-1]

    def rung_ops(n):
        core = n <= core_max
        rng = _rng(seed, n)
        makers = [_qfi_twin_fock, _qfi_noon, _qfi_random_pure, _qfi_diagonal]
        if core:
            makers.append(_qfi_low_rank)
        return [make(n, rng, n, core) for make in makers] + [_qfi_classify(n, n)]

    # ROADMAP defect (d): classify's absolute tolerance at N = 10^4.
    return Plan(ladder, reach, rung_ops, lambda: [_qfi_classify(10_000, None)])


# --- frames-separability -------------------------------------------------------

def _custom_frame(rng):
    """Seeded frame with a fixed mixing angle: the seed sets only phases, which
    leave every |amplitude| in the frame basis unchanged, so no verdict flips
    from seed to seed."""
    angle = 0.6
    alpha, beta, gamma = rng.uniform(0.0, 2.0 * math.pi, 3)
    u = np.array([[math.cos(angle) * np.exp(1j * alpha), math.sin(angle) * np.exp(1j * beta)],
                  [-math.sin(angle) * np.exp(-1j * beta), math.cos(angle) * np.exp(-1j * alpha)]])
    return frames.custom_frame(u * np.exp(1j * gamma))


def _same_frame(label, frame, n, rng, rung):
    k = int(rng.integers(n // 4, 3 * n // 4 + 1))
    state = fock.make_fock_state(k, n, frame)

    def call(_):
        return separability.is_separable(state, frame)

    def check(verdict):
        require(verdict.separable,
                f"|{k},{n - k}> in its own {label} frame reported entangled "
                f"(max off-diagonal {verdict.max_offdiagonal:.3e})")

    return _op(f"same_frame_{label}", "same_frame", n, rung, call, check)


def _spatial_verdict(label, frame, n, rung):
    state = fock.make_fock_state(n // 3, n)

    def call(_):
        return separability.is_separable(state, frame)

    def check(verdict):
        require(not verdict.separable, f"spatial Fock state separable in the {label} frame")
        require(0.0 < verdict.max_offdiagonal <= 0.5 + 1e-9,
                f"max off-diagonal {verdict.max_offdiagonal!r} outside (0, 1/2]")
        w = verdict.witness_details
        require(w is not None, "entangled verdict without a witness")
        require(math.isfinite(abs(w.residual)) and abs(w.residual) > 0.0,
                f"witness residual {w.residual!r} is not finite and nonzero")

    return _op(f"spatial_verdict_{label}", "spatial_verdict", n, rung, call, check)


def _identity_transform(n, rng, rung):
    amplitudes = _random_pure(rng, n)
    state = fock.pure_state(amplitudes)

    def call(_):
        return frames.transform_state(state, frames.spatial_frame())

    def check(moved):
        require(np.array_equal(moved.frame.mixing, np.eye(2)), "target frame is not spatial")
        err = float(np.abs(moved.amplitudes - amplitudes).max())
        require(err <= 1e-12, f"identity frame change moved amplitudes by {err:.3e}")

    return _op("identity_transform", "identity_transform", n, rung, call, check)


def _frame_direction(frame, nv) -> np.ndarray:
    """n' with J_n = J_n' in the frame's modes: n'.sigma = U (n.sigma) U^dag."""
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))
    u = frame.mixing
    moved = u @ sum(c * p for c, p in zip(nv, paulis)) @ u.conj().T
    return np.array([0.5 * np.trace(p @ moved).real for p in paulis])


def _frame_invariance(frame, n, rng, rung):
    """A spatial Fock state with fixed k in a fixed frame: the seed sets only
    the direction.  From N = 60 the moved state's norm error sits near the
    1e-10 tolerance, and its rounding depends on the frame's phases."""
    d, nv = _direction(rng)
    d_frame = collective.Direction(*_frame_direction(frame, nv))
    state = fock.make_fock_state(n // 3, n)
    reference = orc.fock_qfi(n // 3, n, nv)

    def call(_):
        before = qfi.qfi_spectral(state, collective.direction_generator(n, d))
        moved = frames.transform_state(state, frame)
        return before, qfi.qfi_spectral(moved, collective.direction_generator(n, d_frame))

    def check(ans):
        before, after = ans
        require(orc.rel_err(before, reference) <= 1e-8, f"F={before!r}, Fock F={reference!r}")
        err = orc.rel_err(after, before)
        health = {"qfi.frame_invariance_rel_err_max": err}
        require(err <= 1e-8, f"QFI {before!r} became {after!r} after the frame change", health)
        return health

    return _op("frame_invariance", "frame_invariance", n, rung, call, check)


def _frame_unitary(frame, n, rung):
    def call(_):
        return frames.frame_change_unitary(n, frame)

    def check(v):
        resid = orc.unitarity_resid(v)
        health = {"frames.unitarity_resid_max": resid}
        require(resid <= 1e-10, f"V^dag V - 1 = {resid:.3e}", health)
        return health

    return _op("frame_unitary", "frame_unitary", n, rung, call, check)


def _witness_same_frame(frame, n, rung):
    """Witnesses of adjacent coherences at the top of the ladder, where the
    monomial coefficients are largest: they overflow a float from N = 99 on
    the seed (ROADMAP defect b)."""
    k = n - 2
    state = fock.make_fock_state(k, n, frame)
    # m < n, s < r, m + r = n + s
    monomials = [fock.MonomialOp(j, j + 1, n - j, n - j - 1) for j in range(k - 1, k + 2)]

    def call(_):
        return [separability.factorization_residual(state, op) for op in monomials]

    def check(residuals):
        worst = max(abs(r) for r in residuals)
        require(worst == 0.0, f"witness of a Fock state in its own frame is {worst!r}, not 0")

    return _op("witness_same_frame", "witness_same_frame", n, rung, call, check)


def frames_separability(seed: int, workdir: Path, smoke: bool) -> Plan:
    ladder = (4, 10) if smoke else (4, 10, 30, 60, 100)
    reach = (30,) if smoke else (200, 400, 1000, 2000)
    # ROADMAP defect (a) is reported for the Bogolubov frame phi = 0.4.
    reference_frame = frames.bogolubov_frame(0.4)

    def rung_ops(n):
        rng = _rng(seed, n)
        custom = _custom_frame(rng)
        bogolubov = frames.bogolubov_frame(rng.uniform(0.0, 2.0 * math.pi))
        return [
            _same_frame("bogolubov", reference_frame, n, rng, n),
            _same_frame("custom", custom, n, rng, n),
            _spatial_verdict("bogolubov", bogolubov, n, n),
            _spatial_verdict("custom", custom, n, n),
            _identity_transform(n, rng, n),
            _frame_invariance(reference_frame, n, rng, n),
            _frame_unitary(custom, n, n),
            _witness_same_frame(custom, n, n),
        ]

    return Plan(ladder, reach, rung_ops)


# --- estimate-mc ---------------------------------------------------------------

def _check_estimates(estimates, theta, trials, shots, fisher, std, qcrb, ccrb,
                     window=(0.0, math.pi / 2)):
    est = np.asarray(estimates, dtype=float)
    require(est.shape == (trials,) and np.all(np.isfinite(est)), "estimates not finite")
    require(np.all((est >= window[0]) & (est <= window[1])), "estimate outside the window")
    require(orc.rel_err(qcrb, 1.0 / math.sqrt(shots * fisher)) <= 1e-6,
            f"QCRB {qcrb!r}, expected 1/sqrt(shots F) with F={fisher!r}")
    require(ccrb >= qcrb * (1.0 - 1e-6), f"CCRB {ccrb!r} below QCRB {qcrb!r}: F_cl > F")
    tol = orc.mean_tolerance(trials, std, ccrb)
    require(abs(est.mean() - theta) <= tol,
            f"mean estimate {est.mean()!r} is {abs(est.mean() - theta):.3e} from {theta!r}")
    ratio = std / ccrb
    if trials > 1:
        lo, hi = orc.std_band(trials)
        require(lo <= ratio <= hi,
                f"empirical std / CCRB = {ratio:.3f} outside [{lo:.2f}, {hi:.2f}]")
    return {"metrology.std_over_ccrb_max": ratio}


def _estimate(n, rng, rung, trials, shots, seed):
    d, nv = _direction(rng, in_plane=True)
    theta = rng.uniform(0.35, 1.2)
    state = fock.make_fock_state(n // 2, n)
    fisher = orc.fock_qfi(n // 2, n, nv)

    def call(_):
        return metrology.monte_carlo_estimate(state, d, theta, trials, shots, seed)

    def check(run):
        return _check_estimates(run.estimates, theta, trials, shots, fisher,
                                run.empirical_std, run.qcrb, run.ccrb)

    return _op("estimate", "estimate", n, rung, call, check)


def _classical_fisher(n, rng, rung, variant=0):
    d, nv = _direction(rng)
    amplitudes = _random_pure(rng, n)
    state = fock.pure_state(amplitudes)
    theta = rng.uniform(0.1, 1.4)
    bound = orc.four_var(amplitudes, nv)

    def call(_):
        return metrology.classical_fisher(state, d, theta)

    def check(fisher_cl):
        require(0.0 <= fisher_cl <= bound * (1.0 + 1e-6) + 1e-9,
                f"F_cl={fisher_cl!r} outside [0, F={bound!r}]")

    return _op(f"classical_fisher.{variant}", "classical_fisher", n, rung, call, check)


def _rotated_spin(amplitudes, nv, theta):
    return orc.rotate_vector(orc.spin_vector(amplitudes), nv, -theta)


def _rotate(n, rng, rung, variant=0):
    d, nv = _direction(rng)
    amplitudes = _random_pure(rng, n)
    state = fock.pure_state(amplitudes)
    theta = rng.uniform(-math.pi, math.pi)
    expected = _rotated_spin(amplitudes, nv, theta)

    def call(_):
        return metrology.rotate(state, d, theta)

    def check(rotated):
        c = rotated.amplitudes
        require(abs(np.vdot(c, c).real - 1.0) <= 1e-10, "rotation changed the norm")
        err = float(np.abs(orc.spin_vector(c) - expected).max())
        require(err <= 1e-9 * max(1, n), f"mean spin vector off by {err:.3e} after rotation")

    return _op(f"rotate.{variant}", "rotate", n, rung, call, check)


def _probabilities(n, rng, rung, variant=0):
    d, nv = _direction(rng)
    amplitudes = _random_pure(rng, n)
    state = fock.pure_state(amplitudes)
    theta = rng.uniform(-math.pi, math.pi)
    expected_jz = _rotated_spin(amplitudes, nv, theta)[2]

    def call(_):
        return metrology.measurement_probabilities(state, d, theta)

    def check(p):
        p = np.asarray(p, dtype=float)
        require(p.shape == (n + 1,) and p.min() >= 0.0, "probabilities negative or misshaped")
        require(abs(p.sum() - 1.0) <= 1e-10, f"probabilities sum to {p.sum()!r}")
        mean_jz = float(p @ (np.arange(n + 1) - 0.5 * n))
        require(abs(mean_jz - expected_jz) <= 1e-9 * max(1, n),
                f"<Jz> of the outcomes {mean_jz!r}, rotated spin gives {expected_jz!r}")

    return _op(f"probabilities.{variant}", "probabilities", n, rung, call, check)


def estimate_mc(seed: int, workdir: Path, smoke: bool) -> Plan:
    ladder = (4, 20) if smoke else (4, 20, 100)
    reach = (40,) if smoke else (400, 1000, 10_000)
    # N = 4 at 200 x 10^4 is the ROADMAP reference; larger N run fewer trials.
    budget = {4: (200, 10_000), 20: (50, 2000), 100: (20, 1000)}
    if smoke:
        budget = {4: (20, 1000), 20: (5, 500)}

    def rung_ops(n):
        rng = _rng(seed, n)
        trials, shots = budget.get(n, (3, 10_000))
        ops = [_estimate(n, rng, n, trials, shots, seed)]
        # on the core ladder, three seeded inputs each for the cheap kinds:
        # enough ops per pass for the tail percentile to sit above the median
        for variant in range(3 if n <= ladder[-1] else 1):
            ops += [_classical_fisher(n, rng, n, variant), _rotate(n, rng, n, variant),
                    _probabilities(n, rng, n, variant)]
        return ops

    # the N = 1000 rung takes about 7 s on the seed: twice that is still "reached"
    return Plan(ladder, reach, rung_ops, reach_wall_s=20.0)


# --- cli-mix -------------------------------------------------------------------

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def cli_op(name, n, rung, argv, workdir: Path, check_output=None, expect_rc=0,
           command=None) -> Op:
    """One ``python -m modefisher.cli`` child process.

    Traced, the same child runs through ``launcher.py``, which installs the
    span wrappers before calling the CLI.  ``command`` replaces the program,
    for the benchmark's own tests.
    """
    program = command or [sys.executable, "-m", "modefisher.cli"]
    spans_path = workdir / "child-spans.json"

    def call(tracer):
        if tracer is None or command is not None:
            return run_child([*program, *argv], workdir, CLI_TIMEOUT_S)
        result = run_child([sys.executable, str(LAUNCHER), str(spans_path), *argv],
                           workdir, CLI_TIMEOUT_S)
        if spans_path.exists():
            tracer.merge(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return result

    def check(res):
        health = {"_peak_rss_mb": res.maxrss_mb}
        last = (res.stderr.strip().splitlines() or [""])[-1][:200]
        if res.timed_out:
            raise OracleFailure("timed out", crash=True)
        if "Traceback" in res.stderr:
            raise OracleFailure(f"traceback: {last}", crash=True)
        if res.returncode != expect_rc:
            said = " ".join((last or res.stdout[-300:]).split())[:200]
            raise OracleFailure(f"exit {res.returncode}, expected {expect_rc}: {said}",
                                crash=True)
        if check_output is not None:
            health.update(check_output(res.stdout) or {})
        return health

    return _op(name, f"cli.{argv[0]}", n, rung, call, check)


def _expect_error(stdout):
    err = json.loads(stdout)["error"]
    require(isinstance(err.get("type"), str) and isinstance(err.get("message"), str),
            f"error object {err!r} lacks type and message")


def _direction_arg(nv) -> str:
    return ",".join(repr(float(x)) for x in nv)


def _variant_name(name, variant):
    return f"{name}.{variant}" if variant else name


def _cli_qfi_fock(n, rng, rung, workdir, variant=0):
    name = _variant_name("qfi_fock", variant)
    k = int(rng.integers(1, n))
    _, nv = _direction(rng, in_plane=True)
    path = _write(workdir / f"{name}-{n}.json",
                  {"N": n, "kind": "fock", "k": k, "frame": {"kind": "spatial"}})
    reference = orc.fock_qfi(k, n, nv)

    def check(stdout):
        out = json.loads(stdout)
        for key in ("fisher_spectral", "fisher_closed_form"):
            require(orc.rel_err(out[key], reference) <= 1e-9,
                    f"{key}={out[key]!r}, Fock-state F={reference!r}")
        expected = ("heisenberg-saturating" if reference >= n * n
                    else "sub-shot-noise" if reference > n else "at-or-below-shot-noise")
        require(out["classification"] == expected, f"classified {out['classification']!r}")

    argv = ["qfi", "--state", path, f"--direction={_direction_arg(nv)}", "--method", "both"]
    return cli_op(name, n, rung, argv, workdir, check)


def _cli_separability(n, rng, rung, workdir, variant=0):
    name = _variant_name("separability", variant)
    state = _write(workdir / f"{name}-{n}.json",
                   {"N": n, "kind": "fock", "k": n // 3, "frame": {"kind": "spatial"}})
    frame = _write(workdir / f"{name}-frame-{n}.json",
                   {"kind": "bogolubov", "phi": rng.uniform(0.0, 2.0 * math.pi)})

    def check(stdout):
        out = json.loads(stdout)
        require(out["separable"] is False, "spatial Fock state separable in a Bogolubov frame")
        require(0.0 < out["max_offdiagonal"] <= 0.5 + 1e-9,
                f"max off-diagonal {out['max_offdiagonal']!r} outside (0, 1/2]")
        w = out["witness"]
        size = abs(complex(w["residual_re"], w["residual_im"]))
        require(math.isfinite(size) and size > 0.0, f"witness residual {size!r}")

    return cli_op(name, n, rung, ["separability", "--state", state, "--frame", frame,
                                   "--witnesses"], workdir, check)


def _check_rotated_z(amplitudes, theta):
    big_n = len(amplitudes) - 1
    expected = np.exp(1j * theta * (np.arange(big_n + 1) - 0.5 * big_n)) * amplitudes

    def check(stdout):
        s = json.loads(stdout)["state"]
        c = np.array(s["amplitudes_re"]) + 1j * np.array(s["amplitudes_im"])
        err = float(np.abs(c - expected).max())
        require(err <= 1e-12, f"z rotation off by {err:.3e} from exp(i theta (2k-N)/2) c_k")

    return check


def _check_rotated(amplitudes, nv, theta):
    expected = _rotated_spin(amplitudes, nv, theta)

    def check(stdout):
        s = json.loads(stdout)["state"]
        c = np.array(s["amplitudes_re"]) + 1j * np.array(s["amplitudes_im"])
        require(abs(np.vdot(c, c).real - 1.0) <= 1e-10, "rotation changed the norm")
        err = float(np.abs(orc.spin_vector(c) - expected).max())
        require(err <= 1e-9, f"mean spin vector off by {err:.3e} after rotation")

    return check


def _check_density_qfi(amplitudes, nv):
    reference = orc.four_var(amplitudes, nv)

    def check(stdout):
        out = json.loads(stdout)
        require(orc.rel_err(out["fisher_spectral"], reference) <= 1e-8,
                f"rank-1 density F={out['fisher_spectral']!r}, 4 Var(J_n)={reference!r}")

    return check


def _check_estimate(theta, trials, shots, fisher):
    def check(stdout):
        out = json.loads(stdout)
        require(orc.rel_err(out["fisher"], fisher) <= 1e-9, f"F={out['fisher']!r}")
        require(out["classical_fisher"] <= fisher * (1.0 + 1e-6), "F_cl > F")
        return _check_estimates(out["estimates"], theta, trials, shots, fisher,
                                out["empirical_std"], out["qcrb"], out["ccrb"])

    return check


def _check_sweep(values, fisher, shots):
    def check(stdout):
        rows = list(csv.DictReader(io.StringIO(stdout)))
        require(len(rows) == len(values), f"{len(rows)} sweep rows for {len(values)} values")
        for row, value in zip(rows, values):
            require(orc.rel_err(float(row["param"]), value) <= 1e-15, f"param {row['param']}")
            for key in ("F_closed", "F_spectral"):
                require(orc.rel_err(float(row[key]), fisher) <= 1e-9, f"{key}={row[key]}")
            require(float(row["F_cl"]) <= fisher * (1.0 + 1e-6), f"F_cl={row['F_cl']} > F")
            require(orc.rel_err(float(row["qcrb"]), 1.0 / math.sqrt(shots * fisher)) <= 1e-9,
                    f"qcrb={row['qcrb']}")

    return check


def _check_frames(n):
    def check(stdout):
        out = json.loads(stdout)
        v = np.array(out["v_re"]) + 1j * np.array(out["v_im"])
        require(v.shape == (n + 1, n + 1), f"V has shape {v.shape}")
        resid = orc.unitarity_resid(v)
        health = {"frames.unitarity_resid_max": resid}
        require(resid <= 1e-10, f"V^dag V - 1 = {resid:.3e}", health)
        return health

    return check


def _check_selftest(stdout):
    out = json.loads(stdout)
    require(out["failed"] == 0 and out["passed"] >= 1, f"selftest: {out['failed']} failed")


def _cli_fixed_ops(seed, workdir, smoke):
    """Ops outside the N ladder: every other subcommand, malformed inputs, defect (c)."""
    rng = _rng(seed, 0, 1)
    dim = 10 if smoke else 150
    psi = _random_pure(rng, dim)
    _, nv = _direction(rng)
    rho = np.outer(psi, psi.conj())
    density = _write(workdir / f"density-{dim}.json",  # about 1 MB of JSON at N = 150
                     {"N": dim, "kind": "density", "rho_re": rho.real.tolist(),
                      "rho_im": rho.imag.tolist(), "frame": {"kind": "spatial"}})
    argv = ["qfi", "--state", density, f"--direction={_direction_arg(nv)}", "--method", "spectral"]
    ops = [cli_op("qfi_density", dim, None, argv, workdir, _check_density_qfi(psi, nv))]

    psi10 = _random_pure(rng, 10)
    pure10 = _write(workdir / "pure-10.json", {"N": 10, "kind": "pure",
                                               "amplitudes_re": psi10.real.tolist(),
                                               "amplitudes_im": psi10.imag.tolist()})
    theta = rng.uniform(-math.pi, math.pi)
    ops.append(cli_op("rotate_z", 10, None, ["rotate", "--state", pure10, "--direction",
                                              "0,0,1", f"--theta={theta!r}"],
                      workdir, _check_rotated_z(psi10, theta)))
    _, nv = _direction(rng)
    theta = rng.uniform(-math.pi, math.pi)
    argv = ["rotate", "--state", pure10, f"--direction={_direction_arg(nv)}", f"--theta={theta!r}"]
    ops.append(cli_op("rotate_n", 10, None, argv, workdir, _check_rotated(psi10, nv, theta)))

    twin4 = _write(workdir / "twin-4.json", {"N": 4, "kind": "fock", "k": 2})
    _, nv = _direction(rng, in_plane=True)
    theta = rng.uniform(0.35, 1.2)
    ops.append(cli_op("estimate", 4, None,
                      ["estimate", "--state", twin4, f"--direction={_direction_arg(nv)}",
                       f"--theta={theta!r}", "--trials", "50", "--shots", "2000",
                       "--seed", str(seed)],
                      workdir, _check_estimate(theta, 50, 2000, 12.0)))

    twin6 = _write(workdir / "twin-6.json", {"N": 6, "kind": "fock", "k": 3})
    values = sorted(float(v) for v in rng.uniform(0.2, 1.3, 3))
    ops.append(cli_op("sweep", 6, None,
                      ["sweep", "--state", twin6, "--param", "theta", "--values",
                       ",".join(repr(v) for v in values), "--format", "csv"],
                      workdir, _check_sweep(values, 24.0, 10_000)))

    ops.append(cli_op("frames", 8, None, ["frames", "--n", "8", "--phi",
                                           repr(rng.uniform(0.0, 2.0 * math.pi))],
                      workdir, _check_frames(8)))
    ops.append(cli_op("selftest", 0, None, ["selftest"], workdir, _check_selftest))

    # malformed inputs: exit 2 with a JSON error, never a traceback
    bad_kind = _write(workdir / "bad-kind.json", {"N": 4, "kind": "bogus"})
    bad_trace = _write(workdir / "bad-trace.json", {"N": 3, "kind": "diagonal",
                                                    "p": [0.5, 0.5, 0.25, 0.25]})
    missing = str(workdir / "missing.json")
    for label, argv in (("bad_kind", ["qfi", "--state", bad_kind, "--direction", "1,0,0"]),
                        ("bad_trace", ["qfi", "--state", bad_trace, "--direction", "1,0,0"]),
                        ("missing_file", ["qfi", "--state", missing, "--direction", "1,0,0"]),
                        ("bad_direction", ["qfi", "--state", twin4, "--direction", "1,1,1"])):
        ops.append(cli_op(label, 4, None, argv, workdir, _expect_error, expect_rc=2))

    # ROADMAP defect (c): --tol must reach qfi_spectral.
    psi8 = _random_pure(rng, 8)
    off = psi8 * math.sqrt(1.0 + 1e-6)
    off_norm = _write(workdir / "off-norm-8.json", {"N": 8, "kind": "pure",
                                                    "amplitudes_re": off.real.tolist(),
                                                    "amplitudes_im": off.imag.tolist()})
    _, nv = _direction(rng)
    reference = orc.four_var(psi8, nv)

    def check_tol(stdout):
        fisher = json.loads(stdout)["fisher"]
        require(math.isfinite(fisher) and orc.rel_err(fisher, reference) <= 1e-4,
                f"F={fisher!r}, expected about {reference!r}")

    ops.append(cli_op("tol_reaches_qfi", 8, None,
                      ["qfi", "--state", off_norm, f"--direction={_direction_arg(nv)}",
                       "--tol", "1e-5"], workdir, check_tol))
    if not smoke:
        # ROADMAP defect (b): the N = 200 verdict with witnesses overflows.  It is
        # a named op, not a rung, so that it does not stop the reach stage.
        ops.append(_cli_separability(200, _rng(seed, 200), None, workdir))
    return ops


def _cli_warmup(workdir):
    """One cheap child per subcommand: warms the file cache and bytecode."""
    twin = _write(workdir / "warm-twin.json", {"N": 2, "kind": "fock", "k": 1})
    frame = _write(workdir / "warm-frame.json", {"kind": "bogolubov", "phi": 0.3})
    argvs = [["qfi", "--state", twin, "--direction", "1,0,0"],
             ["separability", "--state", twin, "--frame", frame],
             ["rotate", "--state", twin, "--direction", "0,0,1", "--theta", "0.1"],
             ["estimate", "--state", twin, "--direction", "1,0,0", "--theta", "0.5",
              "--trials", "2", "--shots", "10"],
             ["sweep", "--state", twin, "--param", "theta", "--values", "0.5"],
             ["frames", "--n", "2"],
             ["selftest"]]
    return [cli_op(f"warmup_{argv[0]}", 2, None, argv, workdir) for argv in argvs]


def cli_mix(seed: int, workdir: Path, smoke: bool) -> Plan:
    # The core ladder stops at N = 100: `qfi` of a spatial Fock state costs 4 s
    # at N = 200 on the seed, and the N = 150 density op already times the same
    # identity frame change.  The reach stage is `qfi` alone.
    ladder = (4, 20) if smoke else (4, 50, 100)
    reach = (50,) if smoke else (1000, 10_000)

    def rung_ops(n):
        rng = _rng(seed, n)
        if n not in ladder:
            return [_cli_qfi_fock(n, rng, n, workdir)]
        # four inputs of each kind on the top rung, so that top_rung_op_s is a
        # median of eight ops a pass
        ops = []
        for variant in range(4 if n == ladder[-1] else 1):
            ops += [_cli_qfi_fock(n, rng, n, workdir, variant),
                    _cli_separability(n, rng, n, workdir, variant)]
        return ops

    # qfi at N = 1000 runs for minutes on the seed; 5 s caps what that costs
    return Plan(ladder, reach, rung_ops, lambda: _cli_fixed_ops(seed, workdir, smoke),
                lambda: _cli_warmup(workdir), reach_wall_s=5.0)


WORKLOADS = {
    "qfi-scaling": qfi_scaling,
    "frames-separability": frames_separability,
    "estimate-mc": estimate_mc,
    "cli-mix": cli_mix,
}
