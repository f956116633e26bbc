"""Digests of every CLI output over a fixed set of cases, for byte comparisons.

Run it on two checkouts and diff the listings:

    python tools/output_digests.py --root OLD > old.txt
    python tools/output_digests.py --root NEW > new.txt
    diff old.txt new.txt

The cases are every ``configs/*.cfg`` under all five subcommands,
``solve-periodic --seed 11`` on ``feasible_periodic.cfg``, one
``random.Random(7)`` draw of each benchmark workload in ``perfbench/``
(whose files are only read), ``feasible_periodic.cfg`` with one
out-of-range solver value per method and a zero shooting step, and the
shipped configs with one key set that the run does not read or that lies
outside its range (every such case exits 2; the model's ``a``, the
rescaling's ``epsilon``, the interval length and the pulse width among
them), with a node grid that breaks one method's rule (Picard's n_t = 48,
shooting's dt = 0.0019 and 0.0625; exit 2), with a two-coefficient
``ic.u`` (exit 2), with both kappa and the projection excess (exit 2), with
u_peak under u_res or c1 = 0, which zeroes lambda_0 (exit 2), with values
inside their ranges whose products vanish (c2 = 0 or c1 = s_sup = 0 under
``feasibility``, a zero drive factor or a lambda_0 that underflows at a
raster a1 under ``param-region``, an underflowed recovery rate under
``solve-periodic``; exit 2), with an interval so short
that its eigenvalues overflow, or a recovery rate that overflows under
``solve-periodic``, ``solve-cauchy`` and ``converge`` (exit 2), with one of the window's
inputs swapped: ``window_aggregates.cfg`` with the projection excess in
place of kappa, and ``reaction_region.cfg`` with a pinned c4, positive or
negative, under ``param-region``, or with ``solver.m = 16`` on
``feasible_periodic.cfg``, where both methods run at a size past 12. The
RK4 marches get four more: ``solve-cauchy`` with ``cauchy.dt = 0.003``,
which shortens the last step, ``converge`` with equal ladder sizes
(``converge.m_list = 4,4,8,16``), and a runaway drive (amplitude 2e6 at
``cauchy.dt = 0.03125``) under ``solve-cauchy`` and ``converge``, which
exits 4 and whose report pins the blow-up magnitude. Last,
``region.a1_max = 1e300``, whose a2 ceiling overflows (exit 2),
``region.a1_max = 0.0``, an empty a1 range (exit 2), and Picard alone on
``feasible_periodic.cfg`` with ``solver.tol = 1e-16`` and
``solver.max_iter = 3``, whose coarse loop stalls (exit 3). Each
case runs ``python -m monorhythm.cli`` from ``ROOT/src`` in a fresh
interpreter. For each case the listing gives the exit code, stdout and
stderr with the case's paths and ROOT masked (so tracebacks from two
checkouts compare), the SHA-256 of each CSV, the SHA-256 of
``report.json`` without its ``timings`` block, and each solver's
``n_iter``. ``--out DIR`` keeps each case's files under ``DIR/<case>`` so
two runs can be compared field by field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("feasibility", "solve-cauchy", "solve-periodic", "converge", "param-region")
HERE = Path(__file__).resolve().parent.parent
# (solver.method, key, value) set on feasible_periodic.cfg, each outside the key's range
BAD_SOLVER_VALUES = (
    ("picard", "solver.theta", "1.5"),
    ("shooting", "solver.newton_max_iter", "-1"),
    ("both", "solver.tol", "-1e-10"),
    ("shooting", "solver.dt", "0"),
)
# a drive that blows the march up within a few blocks
_RUNAWAY = ("stimulus.amplitude = 2e6", "cauchy.dt = 0.03125")
# (config stem, command, key prefixes dropped, lines added) per edited case
EDITED_CONFIGS = (
    (
        "feasible_periodic",
        "solve-periodic",
        ("solver.method ", "solver.n_t "),
        ("solver.method = shooting", "solver.theta = 0.5"),
    ),
    ("linear_orbit", "solve-periodic", (), ("stimulus.width = 0.05",)),
    ("reaction_region", "param-region", ("region.a2_max ",), ()),
    ("refinement", "converge", ("converge.m_list ",), ("converge.m_list = -1,8",)),
    ("refinement", "converge", ("converge.m_list ",), ("converge.m_list = 8,4",)),
    ("cauchy_demo", "solve-cauchy", ("cauchy.t_end ",), ("cauchy.t_end = -1",)),
    ("cauchy_demo", "solve-cauchy", ("cauchy.dt ",), ("cauchy.dt = 0",)),
    ("cauchy_demo", "solve-cauchy", ("solver.m ",), ("solver.m = -1",)),
    (
        "window_aggregates",
        "feasibility",
        ("feasibility.kappa ",),
        ("feasibility.projection_excess = 0.41421356237309503",),
    ),
    ("reaction_region", "param-region", (), ("derived.c4_override = 1000.0",)),
    ("reaction_region", "param-region", (), ("derived.c4_override = -2.5",)),
    ("reaction_region", "param-region", ("feasibility.k1 ",), ("feasibility.k1 = -1.0",)),
    ("cauchy_demo", "solve-cauchy", ("model.a ",), ("model.a = 1.5",)),
    ("cauchy_demo", "solve-cauchy", ("geometry.length ",), ("geometry.length = -1",)),
    ("window_aggregates", "feasibility", ("rescale.epsilon ",), ("rescale.epsilon = 0",)),
    (
        "feasible_periodic",
        "solve-periodic",
        ("stimulus.kind ",),
        ("stimulus.kind = pulse", "stimulus.width = 0.5"),
    ),
    ("window_aggregates", "feasibility", (), ("feasibility.projection_excess = 1",)),
    (
        "feasible_periodic",
        "solve-periodic",
        ("solver.method ", "solver.n_t "),
        ("solver.method = picard", "solver.n_t = 48"),
    ),
    (
        "feasible_periodic",
        "solve-periodic",
        ("solver.method ", "solver.n_t ", "solver.dt "),
        ("solver.method = shooting", "solver.dt = 0.0019"),
    ),
    (
        "feasible_periodic",
        "solve-periodic",
        ("solver.method ", "solver.n_t ", "solver.dt "),
        ("solver.method = shooting", "solver.dt = 0.0625"),
    ),
    ("cauchy_demo", "solve-cauchy", (), ("ic.u = 1.0, 2.0",)),
    ("cauchy_demo", "solve-cauchy", ("model.u_peak ",), ("model.u_peak = -5",)),
    ("feasible_periodic", "solve-periodic", ("model.c1 ",), ("model.c1 = 0",)),
    ("feasible_periodic", "solve-periodic", ("solver.m ",), ("solver.m = 16",)),
    ("reaction_region", "feasibility", ("model.c2 ",), ("model.c2 = 0",)),
    (
        "reaction_region",
        "feasibility",
        ("model.c1 ", "feasibility.s_sup "),
        ("model.c1 = 0", "feasibility.s_sup = 0"),
    ),
    ("reaction_region", "param-region", ("feasibility.s_sup ",), ("feasibility.s_sup = 0",)),
    ("reaction_region", "param-region", ("feasibility.phi_norm ",), ("feasibility.phi_norm = 0",)),
    (
        "feasible_periodic",
        "solve-periodic",
        ("model.b ", "rescale.xi "),
        ("model.b = 1e-300", "rescale.xi = 1e-30"),
    ),
    ("feasible_periodic", "solve-periodic", ("geometry.length ",), ("geometry.length = 1e-200",)),
    (
        "feasible_periodic",
        "solve-periodic",
        ("model.b ", "rescale.xi "),
        ("model.b = 1e300", "rescale.xi = 1e300"),
    ),
    (
        "feasible_periodic",
        "solve-cauchy",
        ("model.b ", "rescale.xi "),
        ("cauchy.t_end = 4.0", "cauchy.dt = 0.001953125", "model.b = 1e300", "rescale.xi = 1e300"),
    ),
    (
        "refinement",
        "converge",
        ("model.b ", "rescale.xi "),
        ("model.b = 1e300", "rescale.xi = 1e300"),
    ),
    (
        "reaction_region",
        "param-region",
        ("rescale.epsilon ", "region.a1_max "),
        ("rescale.epsilon = 1e-300", "region.a1_max = 1e-30"),
    ),
    ("cauchy_demo", "solve-cauchy", ("cauchy.dt ",), ("cauchy.dt = 0.003",)),
    ("refinement", "converge", ("converge.m_list ",), ("converge.m_list = 4,4,8,16",)),
    ("cauchy_demo", "solve-cauchy", ("stimulus.amplitude ", "cauchy.dt "), _RUNAWAY),
    ("refinement", "converge", ("stimulus.amplitude ", "cauchy.dt "), _RUNAWAY),
    ("reaction_region", "param-region", ("region.a1_max ",), ("region.a1_max = 1e300",)),
    ("reaction_region", "param-region", ("region.a1_max ",), ("region.a1_max = 0.0",)),
    (
        "feasible_periodic",
        "solve-periodic",
        ("solver.method ", "solver.tol "),
        ("solver.method = picard", "solver.tol = 1e-16", "solver.max_iter = 3"),
    ),
)


def _edited(root: Path, path: Path, stem: str, dropped: tuple, added: tuple) -> Path:
    """Write ``configs/<stem>.cfg`` to ``path`` without the ``dropped`` lines, plus ``added``."""
    shipped = (root / "configs" / f"{stem}.cfg").read_text(encoding="utf-8")
    lines = [line for line in shipped.splitlines() if not line.startswith(dropped)]
    path.write_text("\n".join([*lines, *added]) + "\n", encoding="utf-8")
    return path


def _cases(root: Path, work: Path):
    """(name, argv without --out, config path) per case; draws are written under ``work``."""
    configs = sorted((root / "configs").glob("*.cfg"))
    for cfg in configs:
        for command in COMMANDS:
            yield f"{cfg.stem}/{command}", [command, "--config", str(cfg)], cfg
    cfg = root / "configs" / "feasible_periodic.cfg"
    seeded = ["solve-periodic", "--config", str(cfg), "--seed", "11"]
    yield "feasible_periodic/solve-periodic-seed-11", seeded, cfg
    sys.path.insert(0, str(root / "perfbench"))
    try:
        from workloads import WORKLOADS, render
    finally:
        sys.path.pop(0)
    for name, workload in WORKLOADS.items():
        inp = workload.draw(random.Random(7))
        cfg = work / f"{name}.cfg"
        cfg.write_text(render(inp.config), encoding="utf-8")
        argv = [workload.command, "--config", str(cfg)]
        if inp.cli_seed is not None:
            argv += ["--seed", str(inp.cli_seed)]
        yield f"perfbench/{name}", argv, cfg
    for method, key, value in BAD_SOLVER_VALUES:
        # shooting reads no solver.n_t, and setting it would exit 2 on that instead
        dropped = (f"{key} ", "solver.method ") + (("solver.n_t ",) if method == "shooting" else ())
        added = (f"solver.method = {method}", f"{key} = {value}")
        cfg = _edited(root, work / f"{method}-{key}.cfg", "feasible_periodic", dropped, added)
        argv = ["solve-periodic", "--config", str(cfg)]
        yield f"feasible_periodic/{method}-{key}={value}", argv, cfg
    for i, (stem, command, dropped, added) in enumerate(EDITED_CONFIGS):
        cfg = _edited(root, work / f"edited-{i}.cfg", stem, dropped, added)
        edit = ", ".join([*(f"-{key.strip()}" for key in dropped), *added])
        yield f"{stem}/{command} {edit}", [command, "--config", str(cfg)], cfg


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(name: str, argv: list[str], cfg: Path, out: Path, root: Path, env: dict) -> list[str]:
    out.mkdir(parents=True, exist_ok=True)
    run = subprocess.run(
        [sys.executable, "-m", "monorhythm.cli", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )

    def mask(text: str) -> list[str]:
        masked = text.replace(str(cfg), "<config>").replace(str(out), "<out>")
        return masked.replace(str(root), "<root>").splitlines()

    lines = [f"== {name}", f"exit {run.returncode}"]
    lines += [f"stdout {line}" for line in mask(run.stdout)]
    lines += [f"stderr {line}" for line in mask(run.stderr)]
    for csv in sorted(out.glob("*.csv")):
        lines.append(f"csv {csv.name} {_sha(csv.read_bytes())}")
    report_path = out / "report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report.pop("timings", None)
        lines.append(f"report {_sha(json.dumps(report, sort_keys=True).encode())}")
        payload = report.get("payload", {})
        for solver in ("picard", "shooting"):
            if isinstance(payload.get(solver), dict):
                lines.append(f"n_iter {solver} {payload[solver]['n_iter']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--root", type=Path, default=HERE, help="checkout to run (default: this one)"
    )
    parser.add_argument("--out", type=Path, default=None, help="keep each case's files here")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        keep = args.out.resolve() if args.out is not None else work / "out"
        for name, case_argv, cfg in _cases(root, work):
            print("\n".join(_digest(name, case_argv, cfg, keep / name, root, env)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
