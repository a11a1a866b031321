"""Span recorder and wrappers for the traced benchmark run.

The wrappers live here, in the benchmark, not in ``src/``: each public
function of the eight modefisher modules is replaced, in the namespace of the
module that defines it and in every other modefisher namespace that imported
it, by a wrapper that records a span.  Calls between layers therefore nest
(``separability.is_separable`` -> ``frames.transform_state`` ->
``frames.frame_change_unitary``).

No layer queues work, so there is no waiting time to measure: a layer's cost
is its self time, the span duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Layer -> public functions.  The list is fixed so the traced run reports the
# same metric names on every version of the program; a function a later
# version removes reports 0 calls.
LAYER_FUNCTIONS = {
    "fock": ["make_fock_state", "pure_state", "diagonal_state", "density_state",
             "validate_state", "falling_product_sq", "coefficient_alpha",
             "coefficient_beta", "monomial_matrix", "expectation"],
    "collective": ["schwinger", "direction_generator", "commutator_residual", "bose_hubbard"],
    "frames": ["spatial_frame", "bogolubov_frame", "custom_frame", "frame_change_unitary",
               "fock_expansion_coefficients", "transform_state"],
    "separability": ["is_separable", "factorization_residual", "witness_monomials",
                     "spin_squeezing_witness"],
    "qfi": ["qfi_spectral", "qfi_diagonal_closed_form", "qfi_pure_fock", "variance_bound",
            "classify"],
    "metrology": ["rotate", "measurement_probabilities", "classical_fisher",
                  "monte_carlo_estimate"],
    "serialize": ["frame_to_json", "frame_from_json", "state_to_json", "state_from_json",
                  "observable_from_json", "load_json"],
    "cli": ["build_parser", "main"],
}


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)


def _frame_counts(fn, args, kwargs):
    mixing = _arg(fn, args, kwargs, "frame").mixing
    identity = bool(np.array_equal(np.asarray(mixing), np.eye(2)))
    return {"frames.builds": 1, "frames.identity_builds": int(identity)}


def _bytes_read(fn, args, kwargs):
    path = _arg(fn, args, kwargs, "path")
    return {"serialize.bytes_read": os.path.getsize(path) if os.path.isfile(path) else 0}


def _mc_counts(fn, args, kwargs):
    trials = int(_arg(fn, args, kwargs, "trials"))
    shots = int(_arg(fn, args, kwargs, "shots"))
    return {"metrology.trials": trials, "metrology.shots": trials * shots}


# Work counted at the layer boundary from a call's arguments.
COUNTER_HOOKS = {
    "frames.frame_change_unitary": _frame_counts,
    "serialize.load_json": _bytes_read,
    "metrology.monte_carlo_estimate": _mc_counts,
}


class Recorder:
    """Spans of one process, kept in memory: (name, start, end, parent, op)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[tuple[int, str]] = []
        self.op: str | None = None
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.children_import_s: list[float] = []

    def wrap(self, name: str, layer: str, fn):
        hook = COUNTER_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, parent_layer = self.stack[-1] if self.stack else (-1, None)
            if hook is not None:
                try:
                    self.counters.update(hook(fn, args, kwargs))
                except (TypeError, AttributeError, OSError):
                    pass  # the call itself reports bad arguments
            idx = len(self.spans)
            self.spans.append(None)
            self.stack.append((idx, layer))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except ValueError:
                raise
            except BaseException:
                if parent_layer != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)

        return wrapper

    def merge(self, dump: dict) -> None:
        """Adds the spans, errors and counters a traced child process wrote."""
        offset = len(self.spans)
        for name, start, end, parent in dump["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, self.op))
        self.errors.update(dump["errors"])
        self.counters.update(dump["counters"])
        self.children_import_s.append(dump["import_s"])

    def dump(self, import_s: float) -> dict:
        return {"spans": [s[:4] for s in self.spans],
                "errors": dict(self.errors), "counters": dict(self.counters),
                "import_s": import_s}

    def summary(self) -> dict:
        """Calls and self time per function, plus layer errors and counters."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[idx]
        return {"calls": calls, "self_s": self_s, "errors": Counter(self.errors),
                "counters": Counter(self.counters), "import_s": list(self.children_import_s)}

    def reset(self) -> None:
        self.spans, self.stack = [], []
        self.errors, self.counters = Counter(), Counter()
        self.children_import_s = []



def install(recorder: Recorder) -> list:
    """Wraps every public function; returns what :func:`uninstall` restores."""
    wrappers = {}
    for layer, names in LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"modefisher.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            if inspect.isfunction(fn):
                wrappers[id(fn)] = (fn, recorder.wrap(f"{layer}.{name}", layer, fn))
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "modefisher" and not module_name.startswith("modefisher."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    return patched


def uninstall(patched: list) -> None:
    for module, attr, value in patched:
        setattr(module, attr, value)


def extra_metric_units() -> dict:
    """Per-layer metrics beyond calls, self time and errors: name -> (unit, better)."""
    metrics = {
        "collective.hermiticity_resid_max": ("1", "lower"),
        "qfi.twin_fock_rel_err_max": ("1", "lower"),
        "qfi.closed_vs_spectral_rel_err_max": ("1", "lower"),
        "qfi.frame_invariance_rel_err_max": ("1", "lower"),
        "frames.unitarity_resid_max": ("1", "lower"),
        "frames.identity_builds": ("count", "lower"),
        "frames.useful_frac": ("1", "higher"),
        "separability.wrong_verdicts": ("count", "lower"),
        "metrology.trials": ("count", "higher"),
        "metrology.shots": ("count", "higher"),
        "metrology.std_over_ccrb_max": ("1", "lower"),
        "serialize.bytes_read": ("bytes", "lower"),
        "cli.import_s": ("s", "lower"),
    }
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.wall_s"] = ("s", "lower")
    metrics["cli.tracebacks"] = ("count", "lower")
    metrics["tracing_overhead_s"] = ("s", "lower")
    return metrics


CLI_SUBCOMMANDS = ["qfi", "separability", "rotate", "estimate", "sweep", "frames", "selftest"]


def per_layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    metrics = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            metrics[f"{layer}.{name}.calls"] = ("count", "lower")
            metrics[f"{layer}.{name}.self_s"] = ("s", "lower")
        metrics[f"{layer}.errors"] = ("count", "lower")
    metrics.update(extra_metric_units())
    return metrics
