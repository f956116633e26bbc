"""Tracing from outside the program: wrappers around each layer's public functions.

The layers are the package modules. While a :class:`Tracer` is installed,
every public function of each module is replaced, in every namespace that
imported it and in the CLI's dispatch table, by a wrapper that times it.
Solver, integration and command boundaries record full spans linked to
their parent span; everything else, including the per-step functions
(``rhs``, ``project_nonlinearity``, ``f_transformed``), only adds to a
per-name count and time, so memory stays bounded however many steps run.
Uninstalling puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("config", "ionic", "spectral", "galerkin", "periodic", "feasibility", "cli")

SPANS = {
    "cli.main",
    "cli.cmd_feasibility",
    "cli.cmd_solve_cauchy",
    "cli.cmd_solve_periodic",
    "cli.cmd_converge",
    "cli.cmd_param_region",
    "config.load_config",
    "ionic.derive_parameters",
    "spectral.build_basis",
    "galerkin.assemble_system",
    "galerkin.integrate_cauchy",
    "galerkin.l2_qi_difference",
    "periodic.picard_solve",
    "periodic.shooting_solve",
    "periodic.farkas_apply",
    "periodic.certify_ball",
    "periodic.orbit_gap",
    "feasibility.a2_bound",
    "feasibility.build_report",
}


def _project_points(tracer, args, result):
    basis, u_coeffs = args[0], args[1]
    tracer.counts["project_points"] += math.prod(u_coeffs.shape[:-1]) * basis.n_quad


def _integration(tracer, args, result):
    tracer.counts["rk4_steps"] += result.n_nodes - 1


def _shooting(tracer, args, result):
    tracer.counts["newton_steps"] += result.n_iter


def _picard(tracer, args, result):
    tracer.counts["picard_sweeps"] += result.n_iter
    tracer.counts["picard_nonconverged"] += not result.converged


def _kernel_weights(tracer, args, result):
    tracer.kernel_args.add(args)


def _a2_bound(tracer, args, result):
    tracer.counts["a2_bound_points"] += math.prod(getattr(args[0], "shape", ()))


# Extra counters read from a call's arguments and result, keyed by wrapper name.
OBSERVERS = {
    "spectral.project_nonlinearity": _project_points,
    "galerkin.integrate_cauchy": _integration,
    "periodic.shooting_solve": _shooting,
    "periodic.picard_solve": _picard,
    "periodic.kernel_weights": _kernel_weights,
    "feasibility.a2_bound": _a2_bound,
}


class Tracer:
    """Spans, per-name totals and counters of one traced op."""

    def __init__(self):
        self.spans = []  # (span id, parent span id, name, start, end)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.kernel_args = set()
        self._stack = []  # [seconds spent in wrapped children, span id or None]

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack
        is_span = name in SPANS
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = parent = None
            if is_span:
                span_id = len(tracer.spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                tracer.spans.append(None)  # reserve the id; filled on exit
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spent = end - start
                if stack:
                    stack[-1][0] += spent
                tracer.calls[name] += 1
                tracer.total_s[name] += spent
                tracer.self_s[name] += spent - frame[0]
                if is_span:
                    tracer.spans[span_id] = (span_id, parent, name, start, end)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every public function of the layer modules of ``package``."""
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [vars(m) for name, m in sys.modules.items() if name.split(".")[0] == package]
        namespaces.append(modules["cli"]._COMMANDS)
        restore = []
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    restore.append((ns, key, value))
                    ns[key] = hit[1]
        try:
            yield self
        finally:
            for ns, key, value in restore:
                ns[key] = value

    def _commands(self):
        return [k for k in self.total_s if k.startswith("cli.cmd_")]

    def _children(self, parent_name, child_name):
        """Seconds and count of ``child_name`` spans directly under ``parent_name``."""
        parents = {s[0] for s in self.spans if s[2] == parent_name}
        kids = [s[4] - s[3] for s in self.spans if s[2] == child_name and s[1] in parents]
        return sum(kids, 0.0), len(kids)

    def metrics(self, bytes_written: int) -> dict:
        """Per-layer metrics of the traced op, keyed by the names in BENCHMARK.json."""
        c, t, own, n = self.calls, self.total_s, self.self_s, self.counts
        cmd = self._commands()
        cmd_s = sum(t[k] for k in cmd)
        write_s = t["cli.main"] - t["config.load_config"] - cmd_s
        residual_s, _ = self._children("periodic.picard_solve", "galerkin.integrate_cauchy")
        _, shooting_integrations = self._children(
            "periodic.shooting_solve", "galerkin.integrate_cauchy"
        )
        return {
            "config.load_s": t["config.load_config"],
            "ionic.f_calls": c["ionic.f_transformed"],
            "ionic.f_s": t["ionic.f_transformed"],
            "spectral.project_calls": c["spectral.project_nonlinearity"],
            "spectral.project_s": t["spectral.project_nonlinearity"],
            "spectral.project_points": n["project_points"],
            "spectral.build_basis_s": t["spectral.build_basis"],
            "galerkin.integrations": c["galerkin.integrate_cauchy"],
            "galerkin.rk4_steps": n["rk4_steps"],
            "galerkin.rhs_calls": c["galerkin.rhs"],
            "galerkin.integrate_s": t["galerkin.integrate_cauchy"],
            "galerkin.rhs_self_s": own["galerkin.rhs"],
            "galerkin.step_us": 1e6 * t["galerkin.integrate_cauchy"] / max(n["rk4_steps"], 1),
            "galerkin.blowups": n["galerkin.integrate_cauchy!BlowUpError"],
            "periodic.shooting_s": t["periodic.shooting_solve"],
            "periodic.newton_steps": n["newton_steps"],
            "periodic.shooting_integrations": shooting_integrations,
            "periodic.integrations_per_newton": shooting_integrations
            / max(n["newton_steps"], 1),
            "periodic.picard_s": t["periodic.picard_solve"],
            "periodic.picard_sweeps": n["picard_sweeps"],
            "periodic.residual_check_s": residual_s,
            "periodic.kernel_weights_calls": c["periodic.kernel_weights"],
            "periodic.kernel_weights_distinct": len(self.kernel_args),
            "periodic.certify_s": t["periodic.certify_ball"],
            "periodic.orbit_gap_s": t["periodic.orbit_gap"],
            "periodic.nonconverged": n["picard_nonconverged"]
            + n["periodic.picard_solve!NonConvergenceError"]
            + n["periodic.shooting_solve!NonConvergenceError"],
            "feasibility.a2_bound_s": t["feasibility.a2_bound"],
            "feasibility.a2_bound_points": n["a2_bound_points"],
            "feasibility.window_checks": c["feasibility.feasible_window_condition_reduced"],
            "cli.cmd_s": cmd_s,
            "cli.self_s": sum(own[k] for k in cmd),
            "cli.write_s": write_s,
            "cli.bytes_written": bytes_written,
            "cli.write_MBps": bytes_written / 1e6 / write_s if write_s > 0 else 0.0,
        }

    def shares(self, m: dict) -> dict:
        """Disjoint stages of the op, from its :meth:`metrics` ``m``, as shares of ``main``."""
        t = self.total_s
        cauchy_s = sum(
            self._children(cmd, "galerkin.integrate_cauchy")[0] for cmd in self._commands()
        )
        stages = {
            "load": m["config.load_s"],
            "picard": m["periodic.picard_s"],
            "shooting": m["periodic.shooting_s"],
            "certify": m["periodic.certify_s"] + m["periodic.orbit_gap_s"],
            "cauchy": cauchy_s,
            "feasibility": m["feasibility.a2_bound_s"]
            + t["feasibility.feasible_window_condition_reduced"],
            "cli_self": m["cli.self_s"],
            "write": m["cli.write_s"],
        }
        return {k: v / t["cli.main"] for k, v in stages.items()}
