"""Command-line interface: qfi, separability, rotate, estimate, sweep, frames, selftest.

Reports go to stdout as JSON (sorted keys) or CSV with a frozen column
order: a CSV header lists the JSON row's keys in order.  All numerics are
serialized at full double precision (17 significant digits) so runs are
reproducible byte for byte given the same argv and seed.
Validation errors exit with status 2 and a machine-readable error object.  A
reader that closes the pipe before the report ends (``| head``) ends the process
quietly with status BROKEN_PIPE_STATUS (141, as a shell reports a process killed by
SIGPIPE), and no report is written.
The MODEFISHER_TOL environment variable overrides the default tolerance.

Both process entries, the ``modefisher`` console script and ``python -m
modefisher.cli``, end through `run`.  It calls `main`, then freezes the heap with
``gc.freeze()``, so that the interpreter's last collection pass at exit does not walk
the objects numpy and modefisher made; what only that pass would free is freed with
the process.  The rest of a normal exit stays: stdout and stderr are flushed, atexit
handlers run and the exit status is `main`'s.  `run` does not end the process with
``os._exit``, which would skip those flushes and handlers as well.  `main` touches no
collector state, as tests and benchmarks call it in-process.

Each subcommand loads only the modules it uses, as ``import modefisher`` is lazy:
a handler imports its library modules after its inputs are read, so an input it
rejects loads none of them.  A state file is checked once, by the library call it
is passed to, and the error report names the file.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

import numpy as np

from .collective import Direction
from .fock import DEFAULT_TOL, check_state, check_tolerance, largest_coherence
from .serialize import (SCHEMA_VERSION, frame_from_json, frame_to_json, load_json,
                        state_from_json, state_to_json)

BROKEN_PIPE_STATUS = 141


def _tolerance(args) -> float:
    """`--tol`, else MODEFISHER_TOL, else DEFAULT_TOL; `main` resolves it for every handler."""
    if args.tol is not None:
        tol = args.tol
    else:
        env = os.environ.get("MODEFISHER_TOL")
        try:
            tol = float(env) if env else DEFAULT_TOL
        except ValueError:
            raise ValueError(f"MODEFISHER_TOL must be a number, got {env!r}") from None
    check_tolerance(tol)
    return tol


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(args, report: dict, rows=()) -> None:
    """`report` as JSON; with `--format csv`, `rows` under a header of their keys in order.

    The bytes go to stdout's binary layer until all are written.  An unbuffered stdout
    (``python -u``, PYTHONUNBUFFERED) drops what a short write to a closed pipe left over;
    written again, it raises BrokenPipeError as a buffered one does.
    """
    if getattr(args, "format", "json") == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        for i, row in enumerate(rows):
            if i == 0:
                lines.append(",".join(row))
            lines.append(",".join(_fmt(value) for value in row.values()))
        text = "".join(line + "\n" for line in lines)
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text stream, such as io.StringIO
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[out.write(data):]


def _parse_direction(text: str) -> Direction:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"direction must be 'nx,ny,nz', got {text!r}")
    return Direction(float(parts[0]), float(parts[1]), float(parts[2]))


def _closed_form_fisher(state, direction: Direction, tol: float) -> tuple[float, float]:
    """(closed-form F, max off-diagonal of rho); F is NaN unless rho is diagonal within tol."""
    from .qfi import qfi_diagonal_closed_form

    off = largest_coherence(state)[0]
    if off > tol:
        return math.nan, off
    c = state.amplitudes
    p = np.diag(state.rho).real if c is None else (c * c.conj()).real
    return qfi_diagonal_closed_form(p, state.n_particles, direction, tol), off


def _cmd_qfi(args) -> int:
    """F under J_n in the state's own frame, the frame `estimate` rotates it in."""
    state = state_from_json(load_json(args.state))
    direction = _parse_direction(args.direction)
    from .qfi import classify, qfi_state

    fisher_spectral = math.nan
    fisher_closed = math.nan
    if args.method in ("spectral", "both"):
        fisher_spectral = qfi_state(state, direction, args.tol)
    else:
        check_state(state, args.tol)  # the closed form takes populations, not the state
    if args.method in ("closed-form", "both"):
        fisher_closed, off = _closed_form_fisher(state, direction, args.tol)
        if args.method == "closed-form" and off > args.tol:
            raise ValueError(
                "closed-form method requires a state diagonal in its own "
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
    _emit(args, row, [row])
    return 0


def _cmd_separability(args) -> int:
    state = state_from_json(load_json(args.state))
    frame = frame_from_json(load_json(args.frame))
    from .separability import is_separable

    verdict = is_separable(state, frame, args.tol)
    report = {
        "schema_version": SCHEMA_VERSION,
        "n_particles": state.n_particles,
        "separable": verdict.separable,
        "max_offdiagonal": verdict.max_offdiagonal,
        "frame": frame_to_json(frame),
        "tolerance": args.tol,
    }
    if args.witnesses and verdict.witness_details is not None:
        w = verdict.witness_details
        try:
            residual = w.residual
            residual_re, residual_im = residual.real, residual.imag
        except ValueError:  # the witness coefficient exceeds double range
            residual_re = residual_im = None
        report["witness"] = {
            "m": w.op.m, "n": w.op.n, "r": w.op.r, "s": w.op.s,
            "residual_re": residual_re, "residual_im": residual_im,
            "log10_abs_residual": w.log10_abs_residual, "residual_phase": w.residual_phase,
        }
    _emit(args, report)
    return 0


def _cmd_rotate(args) -> int:
    state = state_from_json(load_json(args.state))
    direction = _parse_direction(args.direction)
    from .metrology import rotate

    rotated = rotate(state, direction, args.theta, args.tol)
    _emit(args, {"schema_version": SCHEMA_VERSION, "state": state_to_json(rotated)})
    return 0


def _cmd_estimate(args) -> int:
    state = state_from_json(load_json(args.state))
    direction = _parse_direction(args.direction)
    from .metrology import monte_carlo_estimate

    run = monte_carlo_estimate(state, direction, args.theta, args.trials, args.shots, args.seed,
                               args.tol)
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
    _emit(args, {**row, "estimates": run.estimates.tolist()}, [row])
    return 0


def _cmd_sweep(args) -> int:
    """Bounds per value, all on the state in its own frame, where the estimator rotates it.

    A value whose outcome distribution does not depend on theta (NonIdentifiableError) keeps
    its row without an estimate: empirical_std NaN, F_cl and ccrb at theta, as with no trials.
    """
    state = state_from_json(load_json(args.state))
    values = [float(v) for v in args.values.split(",")]
    if args.param in ("shots", "trials") and not all(v.is_integer() for v in values):
        raise ValueError(f"{args.param} values must be integers, got {args.values!r}")
    shot_counts = values if args.param == "shots" else [args.shots]
    trial_counts = values if args.param == "trials" else [args.trials]
    if min(shot_counts) < 1 or min(trial_counts) < 0:
        raise ValueError("sweep needs shots >= 1 and trials >= 0")
    fixed_direction = None if args.param == "phi" else _parse_direction(args.direction)
    from .metrology import NonIdentifiableError, PhaseEstimator, _cramer_rao

    def per_direction(direction):
        return (PhaseEstimator(state, direction, args.tol),
                _closed_form_fisher(state, direction, args.tol)[0])

    # the estimator (one rotation model and F) and the closed form depend on the direction
    # alone, so only a phi sweep builds them per value
    fixed = None if fixed_direction is None else per_direction(fixed_direction)
    rows = []
    for value in values:
        theta, trials, shots, direction = args.theta, args.trials, args.shots, fixed_direction
        if args.param == "theta":
            theta = value
        elif args.param == "phi":
            direction = Direction.in_plane(value)
        elif args.param == "shots":
            shots = int(value)
        else:
            trials = int(value)
        estimator, fisher_closed = fixed or per_direction(direction)
        fisher_spectral = estimator.fisher
        qcrb = _cramer_rao(shots, fisher_spectral)
        run = None
        if trials > 0:
            try:
                run = estimator.estimate(theta, trials, shots, args.seed)
            except NonIdentifiableError:  # the row keeps its bounds, as without trials
                pass
        if run is not None:
            fisher_cl, ccrb, empirical_std = run.classical_fisher, run.ccrb, run.empirical_std
        else:
            fisher_cl = estimator.classical_fisher(theta)
            ccrb = _cramer_rao(shots, fisher_cl)
            empirical_std = math.nan
        rows.append({"param": value, "F_closed": fisher_closed,
                     "F_spectral": fisher_spectral, "F_cl": fisher_cl,
                     "qcrb": qcrb, "ccrb": ccrb, "empirical_std": empirical_std})
    _emit(args, {"schema_version": SCHEMA_VERSION, "parameter": args.param, "rows": rows}, rows)
    return 0


def _cmd_frames(args) -> int:
    from .frames import bogolubov_frame, frame_change_unitary

    if args.frame:
        frame = frame_from_json(load_json(args.frame))
    else:
        frame = bogolubov_frame(args.phi)
    v = frame_change_unitary(args.n, frame)
    # a generator: the (N+1)^2 rows are built only for CSV
    rows = ({"row": j, "col": k, "re": v[j, k].real, "im": v[j, k].imag}
            for j in range(args.n + 1) for k in range(args.n + 1))
    _emit(args, {"schema_version": SCHEMA_VERSION, "N": args.n, "frame": frame_to_json(frame),
                 "v_re": v.real.tolist(), "v_im": v.imag.tolist()}, rows)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import checks as selftest_checks

    checks = [{"name": name, "passed": bool(passed)} for name, passed in selftest_checks()]
    passed = sum(1 for c in checks if c["passed"])
    failed = len(checks) - passed
    _emit(args, {"schema_version": SCHEMA_VERSION, "passed": passed,
                 "failed": failed, "checks": checks})
    return 0 if failed == 0 else 1


def _error_report(error_type: str, message: str) -> None:
    _emit(None, {"schema_version": SCHEMA_VERSION,
                 "error": {"type": error_type, "message": message}})


class _JsonErrorParser(argparse.ArgumentParser):
    """Usage errors give the JSON error object and exit 2, like validation errors.

    Subparsers are built with the parser's own class, so every subcommand inherits this.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        _error_report("UsageError", f"{self.prog}: {message}")
        sys.stdout.flush()  # a reader that left raises here, inside `main`'s try
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(prog="modefisher",
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
    args = None  # a usage error's report may meet a closed pipe before parsing ends
    try:
        args = parser.parse_args(argv)
        args.tol = _tolerance(args)
        status = args.func(args)
        sys.stdout.flush()  # a reader that left raises here rather than at exit
        return status
    except BrokenPipeError:
        # the report's reader is gone: a report cannot reach it, and the interpreter's last
        # flush of stdout goes to the null device instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE_STATUS
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        message = str(exc)
        if message.startswith("invalid state: ") and getattr(args, "state", None):
            # fock.check_state's message, from the handler's one check of --state
            message = message.replace("invalid state", f"invalid state in {args.state}", 1)
        _error_report(type(exc).__name__, message)
        return 2


def run():
    """Process entry: exit with `main`'s status, the heap frozen for the exit (see above)."""
    try:
        status = main()
    finally:
        gc.freeze()  # also before a usage error's or an uncaught exception's exit
    sys.exit(status)


if __name__ == "__main__":
    run()
