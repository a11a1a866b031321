"""Command-line interface: qfi, separability, rotate, estimate, sweep, frames, selftest.

Reports go to stdout as JSON (sorted keys) or CSV with a frozen column
order; all numerics are serialized at full double precision (17 significant
digits) so runs are reproducible byte for byte given the same argv and seed.
Validation errors exit with status 2 and a machine-readable error object.
The MODEFISHER_TOL environment variable overrides the default tolerance.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .collective import (Direction, Rotation, bose_hubbard, commutator_residual,
                         direction_generator, schwinger)
from .fock import DEFAULT_TOL, diagonal_state, make_fock_state, validate_state
from .frames import bogolubov_frame, frame_change_unitary, spatial_frame, transform_state
from .metrology import NonIdentifiableError, classical_fisher, monte_carlo_estimate, rotate
from .qfi import classify, qfi_diagonal_closed_form, qfi_spectral
from .separability import is_separable
from .serialize import (SCHEMA_VERSION, frame_from_json, frame_to_json, load_json,
                        state_from_json, state_to_json)


def _tolerance(args) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get("MODEFISHER_TOL")
    return float(env) if env else DEFAULT_TOL


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit_json(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _emit_csv(rows: list[dict], columns: list[str]) -> None:
    sys.stdout.write(",".join(columns) + "\n")
    for row in rows:
        sys.stdout.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def _parse_direction(text: str) -> Direction:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"direction must be 'nx,ny,nz', got {text!r}")
    return Direction(float(parts[0]), float(parts[1]), float(parts[2]))


def _load_state(path: str, tol: float):
    state = state_from_json(load_json(path))
    violations = validate_state(state, tol)
    if violations:
        raise ValueError(f"invalid state in {path}: {', '.join(violations)}")
    return state


def _closed_form_fisher(spatial, direction: Direction, tol: float) -> tuple[float, float]:
    """(closed-form F, max off-diagonal of rho); F is NaN unless rho is diagonal within tol."""
    rho = spatial.density_matrix()
    off = np.abs(rho - np.diag(np.diag(rho))).max()
    if off > tol:
        return math.nan, off
    return qfi_diagonal_closed_form(np.diag(rho).real, spatial.n_particles, direction, tol), off


def _cmd_qfi(args) -> int:
    tol = _tolerance(args)
    state = _load_state(args.state, tol)
    direction = _parse_direction(args.direction)
    spatial = transform_state(state, spatial_frame())
    generator = direction_generator(state.n_particles, direction)

    fisher_spectral = math.nan
    fisher_closed = math.nan
    if args.method in ("spectral", "both"):
        fisher_spectral = qfi_spectral(spatial, generator, tol=tol)
    if args.method in ("closed-form", "both"):
        fisher_closed, off = _closed_form_fisher(spatial, direction, tol)
        if args.method == "closed-form" and off > tol:
            raise ValueError(
                "closed-form method requires a state diagonal in the spatial "
                f"Fock basis (max off-diagonal {off:.3e})"
            )

    fisher = fisher_spectral if not math.isnan(fisher_spectral) else fisher_closed
    report_obj = classify(fisher, state.n_particles)
    row = {
        "schema_version": SCHEMA_VERSION,
        "n_particles": state.n_particles,
        "nx": direction.n_x, "ny": direction.n_y, "nz": direction.n_z,
        "method": args.method,
        "fisher": report_obj.fisher,
        "fisher_spectral": fisher_spectral,
        "fisher_closed_form": fisher_closed,
        "phase_bound": report_obj.phase_bound,
        "classification": report_obj.classification,
        "heisenberg_fraction": report_obj.heisenberg_fraction,
    }
    if args.format == "json":
        _emit_json(row)
    else:
        _emit_csv([row], ["schema_version", "n_particles", "nx", "ny", "nz", "method",
                          "fisher", "fisher_spectral", "fisher_closed_form",
                          "phase_bound", "classification", "heisenberg_fraction"])
    return 0


def _cmd_separability(args) -> int:
    tol = _tolerance(args)
    state = _load_state(args.state, tol)
    frame = frame_from_json(load_json(args.frame))
    verdict = is_separable(state, frame, tol)
    report = {
        "schema_version": SCHEMA_VERSION,
        "n_particles": state.n_particles,
        "separable": verdict.separable,
        "max_offdiagonal": verdict.max_offdiagonal,
        "frame": frame_to_json(frame),
        "tolerance": tol,
    }
    if args.witnesses and verdict.witness_details is not None:
        w = verdict.witness_details
        report["witness"] = {
            "m": w.op.m, "n": w.op.n, "r": w.op.r, "s": w.op.s,
            "residual_re": w.residual.real, "residual_im": w.residual.imag,
        }
    _emit_json(report)
    return 0


def _cmd_rotate(args) -> int:
    tol = _tolerance(args)
    state = _load_state(args.state, tol)
    direction = _parse_direction(args.direction)
    rotated = rotate(state, direction, args.theta)
    report = {"schema_version": SCHEMA_VERSION, "state": state_to_json(rotated)}
    _emit_json(report)
    return 0


def _cmd_estimate(args) -> int:
    tol = _tolerance(args)
    state = _load_state(args.state, tol)
    direction = _parse_direction(args.direction)
    run = monte_carlo_estimate(state, direction, args.theta, args.trials, args.shots, args.seed)
    row = {
        "schema_version": SCHEMA_VERSION,
        "theta_true": run.theta_true,
        "trials": run.trials,
        "shots_per_trial": run.shots_per_trial,
        "seed": run.seed,
        "mean_estimate": float(np.mean(run.estimates)),
        "empirical_std": run.empirical_std,
        "qcrb": run.qcrb,
        "ccrb": run.ccrb,
        "fisher": run.fisher,
        "classical_fisher": run.classical_fisher,
    }
    if args.format == "json":
        row["estimates"] = run.estimates.tolist()
        _emit_json(row)
    else:
        _emit_csv([row], ["schema_version", "theta_true", "trials", "shots_per_trial",
                          "seed", "mean_estimate", "empirical_std", "qcrb", "ccrb",
                          "fisher", "classical_fisher"])
    return 0


SWEEP_COLUMNS = ["param", "F_closed", "F_spectral", "F_cl", "qcrb", "ccrb", "empirical_std"]


def _cmd_sweep(args) -> int:
    tol = _tolerance(args)
    state = _load_state(args.state, tol)
    values = [float(v) for v in args.values.split(",")]
    rows = []
    for value in values:
        theta, trials, shots = args.theta, args.trials, args.shots
        if args.param == "theta":
            theta = value
            direction = _parse_direction(args.direction)
        elif args.param == "phi":
            direction = Direction.in_plane(value)
        elif args.param == "shots":
            shots = int(value)
            direction = _parse_direction(args.direction)
        elif args.param == "trials":
            trials = int(value)
            direction = _parse_direction(args.direction)
        else:
            raise ValueError(f"unknown sweep parameter {args.param!r}")

        spatial = transform_state(state, spatial_frame())
        generator = direction_generator(state.n_particles, direction)
        fisher_spectral = qfi_spectral(spatial, generator, tol=tol)
        fisher_closed, _ = _closed_form_fisher(spatial, direction, tol)
        fisher_cl = classical_fisher(state, direction, theta)
        qcrb = 1.0 / math.sqrt(shots * fisher_spectral) if fisher_spectral > 0 else math.inf
        ccrb = 1.0 / math.sqrt(shots * fisher_cl) if fisher_cl > 0 else math.inf
        if trials > 0:
            run = monte_carlo_estimate(state, direction, theta, trials, shots, args.seed)
            empirical_std = run.empirical_std
        else:
            empirical_std = math.nan
        rows.append({"param": value, "F_closed": fisher_closed,
                     "F_spectral": fisher_spectral, "F_cl": fisher_cl,
                     "qcrb": qcrb, "ccrb": ccrb, "empirical_std": empirical_std})
    if args.format == "json":
        _emit_json({"schema_version": SCHEMA_VERSION, "parameter": args.param, "rows": rows})
    else:
        _emit_csv(rows, SWEEP_COLUMNS)
    return 0


def _cmd_frames(args) -> int:
    if args.frame:
        frame = frame_from_json(load_json(args.frame))
    else:
        frame = bogolubov_frame(args.phi)
    v = frame_change_unitary(args.n, frame)
    if args.format == "json":
        _emit_json({"schema_version": SCHEMA_VERSION, "N": args.n,
                    "frame": frame_to_json(frame),
                    "v_re": v.real.tolist(), "v_im": v.imag.tolist()})
    else:
        rows = [{"row": j, "col": k, "re": v[j, k].real, "im": v[j, k].imag}
                for j in range(args.n + 1) for k in range(args.n + 1)]
        _emit_csv(rows, ["row", "col", "re", "im"])
    return 0


def _selftest_checks():
    """Condensed invariant suite; yields (name, passed) pairs."""
    rng = np.random.default_rng(7)

    def random_diagonal(big_n):
        p = rng.random(big_n + 1)
        return p / p.sum()

    yield "su2-commutators", all(commutator_residual(n) <= 1e-12 for n in (0, 1, 5, 20))

    ok = True
    for big_n in (1, 5, 20, 50):
        jx, jy, jz = (o.matrix for o in schwinger(big_n))
        casimir = jx @ jx + jy @ jy + jz @ jz
        expected = (big_n / 2) * (big_n / 2 + 1) * np.eye(big_n + 1)
        ok = ok and np.abs(casimir - expected).max() <= 1e-10
    yield "casimir", ok

    ok = True
    for big_n in (2, 5, 10):
        for _ in range(10):
            p = random_diagonal(big_n)
            n = Direction.in_plane(rng.uniform(0, 2 * math.pi))
            closed = qfi_diagonal_closed_form(p, big_n, n)
            spectral = qfi_spectral(diagonal_state(p), direction_generator(big_n, n))
            ok = ok and abs(closed - spectral) <= 1e-8 * max(1.0, closed)
    yield "closed-form-vs-spectral", ok

    ok = True
    for big_n in (2, 4, 8):
        state = make_fock_state(big_n // 2, big_n)
        n = Direction(1, 0, 0)
        f0 = qfi_spectral(state, direction_generator(big_n, n))
        frame = bogolubov_frame(0.4)
        v = frame_change_unitary(big_n, frame)
        moved = transform_state(state, frame)
        f1 = qfi_spectral(moved, v @ direction_generator(big_n, n).matrix @ v.conj().T)
        ok = ok and abs(f0 - f1) <= 1e-8 * max(1.0, f0)
    yield "frame-invariance", ok

    ok = True
    for big_n in (1, 4, 9):
        for phi in (0.0, 1.1):
            frame = bogolubov_frame(phi)
            v = frame_change_unitary(big_n, frame)
            u = Rotation(big_n, Direction.in_plane(phi)).unitary(0.7)
            u_b = v @ u @ v.conj().T
            ok = ok and np.abs(u_b - np.diag(np.diag(u_b))).max() <= 1e-10
    yield "exponential-locality", ok

    ok = True
    for big_n in (1, 3, 6):
        state = make_fock_state(big_n // 2, big_n)
        ok = ok and is_separable(state, spatial_frame()).separable
        ok = ok and not is_separable(state, bogolubov_frame(0.3)).separable
    yield "bipartition-relativity", ok

    ok = True
    for big_n in (2, 10):
        h = bose_hubbard(big_n, 1.0, 1.0, 0.0, 0.7)
        v = frame_change_unitary(big_n, bogolubov_frame(0.0))
        h_b = v @ h.matrix @ v.conj().T
        ok = ok and np.abs(h_b - np.diag(np.diag(h_b))).max() <= 1e-10
    yield "bose-hubbard-diagonal-frame", ok

    # N = 100 rather than 200 keeps the selftest's peak memory near the other checks'
    v = frame_change_unitary(100, bogolubov_frame(0.4))
    yield "frame-unitarity", np.abs(v.conj().T @ v - np.eye(101)).max() <= 1e-12


def _cmd_selftest(args) -> int:
    checks = [{"name": name, "passed": bool(passed)} for name, passed in _selftest_checks()]
    passed = sum(1 for c in checks if c["passed"])
    failed = len(checks) - passed
    _emit_json({"schema_version": SCHEMA_VERSION, "passed": passed,
                "failed": failed, "checks": checks})
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modefisher",
                                     description="Mode entanglement and quantum Fisher "
                                                 "information for two-mode bosonic sectors")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, fmt=True):
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override (also via MODEFISHER_TOL)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("qfi", help="quantum Fisher information of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--direction", required=True, help="nx,ny,nz")
    p.add_argument("--method", choices=("spectral", "closed-form", "both"), default="both")
    add_common(p)
    p.set_defaults(func=_cmd_qfi)

    p = sub.add_parser("separability", help="separability with respect to a mode frame")
    p.add_argument("--state", required=True)
    p.add_argument("--frame", required=True)
    p.add_argument("--witnesses", action="store_true")
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_separability)

    p = sub.add_parser("rotate", help="apply exp(i theta J_n) to a state")
    p.add_argument("--state", required=True)
    p.add_argument("--direction", required=True)
    p.add_argument("--theta", type=float, required=True)
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_rotate)

    p = sub.add_parser("estimate", help="Monte-Carlo maximum-likelihood phase estimation")
    p.add_argument("--state", required=True)
    p.add_argument("--direction", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("sweep", help="sweep a scalar parameter and emit bound comparisons")
    p.add_argument("--state", required=True)
    p.add_argument("--direction", default="1,0,0")
    p.add_argument("--param", choices=("theta", "phi", "shots", "trials"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--theta", type=float, default=0.3)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("frames", help="print the Fock-basis change unitary of a frame")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--frame", default=None)
    p.add_argument("--phi", type=float, default=0.0)
    add_common(p)
    p.set_defaults(func=_cmd_frames)

    p = sub.add_parser("selftest", help="run the invariant suites")
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NonIdentifiableError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit_json({"schema_version": SCHEMA_VERSION,
                    "error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
