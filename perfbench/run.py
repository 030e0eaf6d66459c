"""decolab benchmark: end-to-end and per-layer timings of three CLI workloads.

    python3 perfbench/run.py --workload oracle-full --seed 0 --seconds 40 --trace 0

Every pass runs the workload's ``decolab`` command in this process through
``decolab.cli.main`` and is checked against the reference output stored in
``perfbench/reference``.  ``--trace 0`` prints the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``); ``--trace 1`` adds one traced
pass and prints the per-layer metrics.  Row failures go into ``attempted`` /
``failed`` and the ``row_fail_ratio`` line.  The last stdout line is the JSON
result; the exit code is 1 when an output check fails.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("oracle-full", "inequality", "ohmic-sweep")
SETUP_SAMPLES = 9
CLOSE_REL_TOL = 1e-9  # closed-form columns, relative to the column's scale
KEY_REL_TOL = 1e-12   # numeric row keys (sweep values)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Fresh-process set-up: import the CLI, parse the command line and load and
# validate the workload's config, as every invocation does before working.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import decolab.cli as cli
args = cli.build_parser().parse_args(sys.argv[2:])
cli.dimension_cap()
if args.config:
    cli.load_config(args.config)
print(repr(time.perf_counter() - start))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    reference: Path
    key: str                   # row name column
    exact: tuple[str, ...]     # columns that must equal the reference text
    close: tuple[str, ...]     # columns that must match to CLOSE_REL_TOL
    jobs_check: bool = False   # output must not depend on --jobs


def workload(name: str, seed: int) -> Workload:
    if name == "oracle-full":
        return Workload(name, ("verify", "--suite", "full"), REFERENCE_DIR / "oracle-full.csv",
                        "scenario", ("pass",), ("c2_analytic",))
    if name == "inequality":
        # the suite's rows are seed-independent by name; values are pinned at seed 0 only
        return Workload(name, ("verify", "--suite", "inequality", "--seed", str(seed)),
                        REFERENCE_DIR / "inequality-seed0.csv", "scenario", ("pass",),
                        ("c2_analytic",) if seed == 0 else ())
    if name == "ohmic-sweep":
        return Workload(name, ("sweep", "--config", str(BENCH_DIR / "configs" / "ohmic-sweep.json"),
                               "--jobs", "2"),
                        REFERENCE_DIR / "ohmic-sweep.csv", "d", ("regime", "error"),
                        ("c2", "tau2", "omega2", "normalized"), jobs_check=True)
    raise ValueError(f"unknown workload {name!r}")


@dataclass(frozen=True)
class Pass:
    wall: float
    exit_code: int | None  # None: the command raised
    stdout: str
    stderr: str

    @property
    def produced_rows(self) -> bool:
        return self.exit_code in (0, 3)  # 3: rows written, some with pass = false


def run_pass(argv) -> Pass:
    from decolab import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a crashing pass is counted as failed rows, not fatal
        code = None
        err.write(traceback.format_exc())
    return Pass(time.perf_counter() - start, code, out.getvalue(), err.getvalue())


def _read_rows(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader)


def _same_key(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return abs(a - b) <= KEY_REL_TOL * abs(b)


def _close(got: str, want: str, scale: float) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isinf(b) or math.isinf(a):
        return a == b
    return abs(a - b) <= CLOSE_REL_TOL * scale


class Checker:
    """Checks passes against the reference output and against each other."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.columns, self.ref_rows = _read_rows(wl.reference.read_text(encoding="utf-8"))
        self.scales = {c: max((abs(float(r[c])) for r in self.ref_rows
                               if math.isfinite(float(r[c]))), default=0.0) for c in wl.close}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_text: str | None = None

    @property
    def correct(self) -> bool:
        return not self.problems

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
        else:
            self.problems[-1] = "... (further problems omitted)"

    def check(self, p: Pass, label: str) -> None:
        self.attempted += len(self.ref_rows)
        if not p.produced_rows:
            # no output: every row the pass should have produced failed
            self.failed += len(self.ref_rows)
            return
        columns, rows = _read_rows(p.stdout)
        if columns != self.columns or len(rows) != len(self.ref_rows):
            self.failed += len(self.ref_rows)
            self.problem(f"{label}: columns {columns} / {len(rows)} rows, "
                         f"expected {self.columns} / {len(self.ref_rows)} rows")
            return
        wl = self.wl
        for got, want in zip(rows, self.ref_rows):
            matches = (_same_key(got[wl.key], want[wl.key])
                       and all(got[c] == want[c] for c in wl.exact)
                       and all(_close(got[c], want[c], self.scales[c]) for c in wl.close))
            if not matches:
                self.problem(f"{label}: row {got[wl.key]} differs from the reference {want[wl.key]}")
            if not matches or got.get("pass", "true") != "true" or got.get("error", ""):
                self.failed += 1
        if self.first_text is None:
            self.first_text = p.stdout
        elif p.stdout != self.first_text:
            self.problem(f"{label}: output is not byte-identical to the first pass")


def timed_passes(argv, seconds: float, checker: Checker) -> list[float]:
    """Passes while another one is expected to end within ``seconds`` (at least one)."""
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        p = run_pass(argv)
        checker.check(p, f"timed pass {len(walls) + 1}")
        walls.append(p.wall)
    return walls


def measure_setup(argv) -> float:
    """Median in-process set-up time over fresh interpreters (one untimed first)."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), *argv],
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "git_rev": _git_revision(),
    }


def _import_package() -> None:
    """Import decolab from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import decolab.cli

    if Path(decolab.cli.__file__).resolve().parent != SRC / "decolab":
        sys.exit(f"error: imported decolab from {decolab.cli.__file__}, not from {SRC}")


def traced_pass(wl: Workload, untraced_wall: float, checker: Checker, seed: int) -> dict:
    from tracer import Instrumentation, Recorder, layer_metrics

    rec = Recorder()
    inst = Instrumentation(rec).install()
    cpu = time.process_time()
    try:
        p = run_pass(wl.argv)
    finally:
        cpu = time.process_time() - cpu
        inst.uninstall()
    checker.check(p, "traced pass")
    OUT_DIR.mkdir(exist_ok=True)
    rec.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl")
    return layer_metrics(rec, p.wall, untraced_wall, cpu)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "decolab" / "cli.py").is_file():
        print(f"error: no decolab source tree at {SRC}", file=sys.stderr)
        return 2
    wl = workload(args.workload, args.seed)
    print("env " + json.dumps(environment(args), sort_keys=True), flush=True)

    _import_package()
    checker = Checker(wl)
    warm = run_pass(wl.argv)  # untimed: first-call LAPACK and import costs
    checker.check(warm, "warm-up pass")
    if warm.exit_code not in (0, 3):
        print(f"note: {wl.name} exited with {warm.exit_code}: {warm.stderr.strip()}", file=sys.stderr)
    walls = timed_passes(wl.argv, args.seconds, checker)
    wall_s = statistics.median(walls)
    # after the passes, so every run measures set-up on an equally busy machine
    setup_s = None if args.trace else measure_setup(wl.argv)
    if wl.jobs_check:
        argv1 = list(wl.argv)
        argv1[argv1.index("--jobs") + 1] = "1"
        checker.check(run_pass(argv1), "--jobs 1 pass")  # must match the --jobs 2 bytes

    if args.trace:
        metrics = traced_pass(wl, wall_s, checker, args.seed)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    ratio = checker.failed / checker.attempted
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric row_fail_ratio {ratio:.6g} ratio ({checker.failed}/{checker.attempted} rows,"
          f" {len(walls)} timed passes)")
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": checker.correct, "attempted": checker.attempted, "failed": checker.failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
