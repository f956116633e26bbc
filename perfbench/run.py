"""Benchmark of the monorhythm CLI: one seeded workload per run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 20 --trace 0

Each op is one in-process ``monorhythm.cli.main(argv)`` call on a
configuration generated from the seed, after one untimed warm-up op on a
shrunken input. Every op's outputs are checked, and at the end the first
generated input is run again and its outputs must be byte-identical to the
first run, apart from the report's ``timings`` block.

With ``--trace 0`` the run times ops with tracing off and prints the
end-to-end metrics. While an op runs, a timer signal interrupts it every
50 ms to time a short fixed chunk of work that uses no monorhythm code, and
each op's time is also reported in units of that chunk's mean time, so
that the host's speed, which wanders from one second to the next on a
shared machine, cancels out. With ``--trace 1`` it alternates untraced
and traced ops on the same inputs and prints the per-layer metrics plus
the tracing overhead. Counts come from the first traced op, whose input is fixed by
the seed, so they repeat exactly; times are medians over traced ops.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
from layers import Tracer
from workloads import WORKLOADS, Input, render

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

MIN_OPS = 3  # timed ops per untraced run, the rerun of input 0 included
POOL = 8  # generated inputs per run; ops cycle through them
SETUP_SAMPLES = 11  # fresh interpreters per untraced run
CHUNK_ITERS = 500  # iterations of one reference chunk, about 4 ms on a 2.1 GHz Xeon
CHUNK_PERIOD = 0.05  # seconds of an op between two reference chunks
# Per-layer metrics in these units are counts: they are taken from the first
# traced op, whose input the seed fixes, so they repeat exactly.
COUNT_UNITS = ("count", "B")

# Import the CLI and parse one configuration in a fresh interpreter, the
# cost every command-line invocation pays before any work.
SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import monorhythm.cli
monorhythm.cli.load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


class SpeedSampler:
    """Times a fixed reference chunk every ``CHUNK_PERIOD`` seconds of an op.

    The chunk is small-array NumPy arithmetic and float formatting, the two
    kinds of work the ops spend their time on, and runs no monorhythm code.
    It runs from a ``SIGALRM`` handler, between two bytecodes of the op, so
    it sees the speed the host gives the op's own CPU at that moment.
    """

    def __init__(self):
        self.x = np.linspace(0.1, 1.0, 8)
        self.chunks: list[float] = []

    def chunk(self, signum=None, frame=None) -> None:
        x, y, chars = self.x, np.zeros(8), 0
        start = perf_counter()
        for _ in range(CHUNK_ITERS):
            y = 0.5 * (y + x * x) - 0.25 * np.sin(y)
            chars += len(f"{float(y @ x):.17g}")
        self.chunks.append(perf_counter() - start)

    @contextlib.contextmanager
    def armed(self):
        """Sample while the body runs; ``self.chunks`` holds this body's chunks."""
        self.chunks = []
        previous = signal.signal(signal.SIGALRM, self.chunk)
        signal.setitimer(signal.ITIMER_REAL, CHUNK_PERIOD, CHUNK_PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not self.chunks:  # an op shorter than one period
                self.chunk()


def percentile_note(samples: list[float]) -> str:
    """Highest of p50..p99 with at least ten samples beyond it, if any."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        rank = -(-p * n // 100)  # nearest-rank index, 1-based
        if n - rank >= 10:
            return f"p{p} {ordered[rank - 1]:.4f} s"
    return "no percentile has 10 samples beyond it"


class Harness:
    """The generated inputs of one run, and the ops, checks and counts on them."""

    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.work = work
        rng = random.Random(seed)
        self.inputs = [workload.draw(rng) for _ in range(POOL)]
        self.configs = []
        for i, inp in enumerate(self.inputs):
            path = work / f"input-{i}.cfg"
            path.write_text(render(inp.config), encoding="utf-8")
            self.configs.append(path)
        self.n_ops = 0
        self.failed = 0
        self.deterministic = True
        self.extras: list[dict] = []
        # set for untraced runs: every op then returns its time net of the
        # sampler's chunks, and leaves their times in sampler.chunks
        self.sampler: SpeedSampler | None = None

    def call(self, cfg: Path, out: Path, inp: Input):
        """One op: returns (seconds, exit code or None when main raised)."""
        argv = self.workload.argv(cfg, out, inp)
        # every op starts from the same heap state, so no op pays for the
        # garbage of the one before
        gc.collect()
        sampling = self.sampler.armed() if self.sampler else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                # every chunk runs between start and the end of the timing
                with sampling:
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code = None
            seconds = perf_counter() - start
        if self.sampler:
            seconds -= sum(self.sampler.chunks)
        return seconds, code

    def warm_up(self) -> None:
        inp = self.inputs[0]
        small = Input({**inp.config, **self.workload.warmup}, inp.cli_seed)
        cfg = self.work / "warmup.cfg"
        cfg.write_text(render(small.config), encoding="utf-8")
        _, code = self.call(cfg, self.work / "warmup", small)
        if code != 0:
            print(f"warm-up op exited with {code}", file=sys.stderr)
        shutil.rmtree(self.work / "warmup", ignore_errors=True)

    def op(self, index: int, out: Path, tracer: Tracer | None = None) -> float:
        """Run generated input ``index`` into ``out``; check and count it."""
        inp = self.inputs[index]
        if tracer is None:
            seconds, code = self.call(self.configs[index], out, inp)
        else:
            with tracer.installed("monorhythm"):
                seconds, code = self.call(self.configs[index], out, inp)
        self.n_ops += 1
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            try:
                more, extra = self.workload.check(out, inp)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                more, extra = [f"unreadable output: {exc!r}"], {}
            problems += more
            self.extras.append(extra)
        if problems:
            self.failed += 1
            print(f"op {self.n_ops} (input {index}) failed: {'; '.join(problems)}", file=sys.stderr)
        return seconds

    def out_dir(self, n: int) -> Path:
        return self.work / ("first" if n == 0 else f"op-{n}")

    def discard(self, out: Path) -> None:
        if out.name != "first":
            shutil.rmtree(out, ignore_errors=True)

    def rerun(self) -> float:
        """Time input 0 once more, as the last op; its outputs must not change.

        CSVs must be byte-identical to the first run's and ``report.json``
        equal apart from its ``timings`` block.
        """
        first, again = self.work / "first", self.work / "rerun"
        seconds = self.op(0, again)
        written = [sorted(p.name for p in d.iterdir()) if d.is_dir() else None for d in (first, again)]
        if written[0] is None or written[0] != written[1]:
            print(f"runs of input 0 wrote different files: {written}", file=sys.stderr)
            self.deterministic = False
            return seconds
        for name in written[0]:
            a, b = (first / name).read_bytes(), (again / name).read_bytes()
            if name == "report.json":
                a, b = json.loads(a), json.loads(b)
                a.pop("timings"), b.pop("timings")
            if a != b:
                print(f"rerun of input 0 changed {name}", file=sys.stderr)
                self.deterministic = False
        return seconds


def setup_seconds(cfg: Path) -> float:
    """One fresh interpreter's time to import the CLI and load ``cfg``."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(cfg)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def csv_bytes(out: Path) -> int:
    """Bytes of the data files an op wrote; the report's timing digits vary."""
    return sum(p.stat().st_size for p in out.glob("*.csv"))


def run_untraced(h: Harness, seconds: float):
    h.sampler = SpeedSampler()
    h.warm_up()
    times, norm, setup, cycles = [], [], [], []

    def timed(op_s: float) -> None:
        times.append(op_s)
        norm.append(op_s / statistics.mean(h.sampler.chunks))

    start = perf_counter()
    # The rerun of input 0 is the last timed op: start another op only while
    # it and the rerun are both expected to end within the run.
    while len(times) < MIN_OPS - 1 or (
        perf_counter() - start + 2 * statistics.median(cycles) <= seconds
    ):
        cycle_start = perf_counter()
        # spread the set-up samples over the run, so both metrics see the
        # same machine conditions
        if perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(setup_seconds(h.configs[0]))
        n = len(times)
        out = h.out_dir(n)
        timed(h.op(n % POOL, out))
        h.discard(out)
        cycles.append(perf_counter() - cycle_start)
    timed(h.rerun())
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(h.configs[0]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "solve_norm": (statistics.median(norm), "chunk"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"solve_s       {statistics.median(times):.4f} s   median of {len(times)} ops, "
          f"net of reference chunks; {percentile_note(times)}")
    print("  ops: " + " ".join(f"{t:.3f}" for t in times))
    print(f"solve_norm    {metrics['solve_norm'][0]:.4f} chunk   median of {len(norm)} ops, "
          f"each over the mean reference chunk timed during it")
    print("  ops: " + " ".join(f"{t:.1f}" for t in norm))
    print(f"setup_s       {metrics['setup_s'][0]:.4f} s   median of {len(setup)} fresh processes")
    print(f"peak_rss_mb   {rss_mb:.1f} MB")
    print(f"fail_frac     {h.failed / h.n_ops:.4g} ratio   {h.failed} of {h.n_ops} ops")
    gaps = [e["orbit_gap_rel"] for e in h.extras if "orbit_gap_rel" in e]
    if gaps:
        print(f"orbit_gap_rel {statistics.median(gaps):.4g} ratio   median of {len(gaps)} ops")
    return metrics


def run_traced(h: Harness, seconds: float, spans_file: Path, units: dict):
    h.warm_up()
    plain, traced, layer, shares, spans = [], [], [], [], []
    start = perf_counter()
    # start another untraced-traced pair only while it and the closing rerun
    # are expected to end within the run
    while not traced or (
        perf_counter() - start + 2 * statistics.median(plain) + statistics.median(traced) <= seconds
    ):
        n = 2 * len(traced)
        index = len(traced) % POOL
        out = h.out_dir(n)
        plain.append(h.op(index, out))
        h.discard(out)
        tracer = Tracer()
        out = h.out_dir(n + 1)
        traced.append(h.op(index, out, tracer))
        layer.append(tracer.metrics(csv_bytes(out)))
        shares.append(tracer.shares(layer[-1]))
        spans.append(tracer.spans)
        h.discard(out)

    plain.append(h.rerun())

    metrics = {}
    for name in layer[0]:
        if units[name] in COUNT_UNITS:
            metrics[name] = layer[0][name]
        else:
            metrics[name] = statistics.median(m[name] for m in layer)
    metrics["trace.solve_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    print(f"traced ops {len(traced)}; untraced solve_s {statistics.median(plain):.4f} s, "
          f"traced {metrics['trace.solve_s']:.4f} s, overhead {metrics['trace.overhead_s']:.4f} s")
    print("layer mix (share of the main span, median over traced ops):")
    for stage in shares[0]:
        print(f"  {stage:12s} {statistics.median(s[stage] for s in shares):7.1%}")
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.write_text(json.dumps({"fields": ["id", "parent", "name", "start", "end"],
                                      "ops": spans}), encoding="utf-8")
    return metrics


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_all(args) -> int:
    """Run every workload in turn, each in its own interpreter, with one seed.

    Prints each run's lines, then one JSON object whose metrics are keyed
    ``<workload>.<metric>``.
    """
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        print(done.stdout, end="")
        if done.returncode != 0:
            code = done.returncode
            total["correct"] = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "monorhythm" / "cli.py").is_file():
        print(f"no monorhythm sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import monorhythm.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "monorhythm":
        print(f"imported monorhythm from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        h = Harness(cli, workload, args.seed, work)
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            spans_file = RUNS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            units = {m["name"]: m["unit"] for m in bench_spec()["per_layer"]}
            values = run_traced(h, args.seconds, spans_file, units)
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in run_untraced(h, args.seconds).items()}
        print(f"rerun of input 0 byte-identical: {h.deterministic}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": h.failed == 0 and h.deterministic,
        "attempted": h.n_ops,
        "failed": h.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
