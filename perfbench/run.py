#!/usr/bin/env python3
"""cupid benchmark: one workload, measured end to end through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Run from the root of a cupid checkout. The run makes its inputs from the
seed and sets them up (timed), runs the workload's ``cupid`` command once
untimed and checks that output against an independent numpy oracle, then
for S seconds runs the command again and again, each time in a fresh process
started by launcher.py, with a run of the reference task (reference.py)
before the first command and after each one, and the set-up timed again
between commands. Every run's artifacts must be byte-identical to the
checked one; a non-zero exit, a failed oracle check or a differing byte
counts as a failed run.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json:
the command's median times over the reference task's, and medians of peak
RSS and set-up time. With --trace 1 it alternates untraced runs with runs
under the tracing entry point (tracing.py) and reports the per-layer metrics as
medians over the traced runs, plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. The full result,
with provenance and every run, is written to
.bench_work/results/<workload>-seed<N>-trace<T>.json, and the traced run's
spans beside it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

# One BLAS thread per process. The commands' two --threads already fill the
# two cores the sizes were chosen for; OpenBLAS threads on top of them would
# measure the scheduler. Set before numpy is first imported, so the set-up in
# this process and every process it starts (they inherit it) run the same way.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = tuple(workloads.SIZES["full"])

# Set-up is timed once before the first command, then once after each timed
# command, so that its samples span the same stretch of time as the
# commands' rather than a few seconds before them: at least SETUP_REPS
# times, and while the reps add up to less than SETUP_MIN_S, up to
# SETUP_MAX_REPS times.
SETUP_REPS = 5
SETUP_MIN_S = 5.0
SETUP_MAX_REPS = 15
# setup_s is given in seconds on a host where the reference task takes
# REFERENCE_S: the median set-up time over the median of the reference runs
# taken next to the set-ups, times REFERENCE_S. 0.6 s is about the reference
# task's time on the 2-vCPU host the benchmark was tuned on, at its fastest.
REFERENCE_S = 0.6
MIN_REPS = 3            # timed runs at least, even past --seconds ...
LATEST_START_S = 120    # ... but none starts this long after the benchmark began
CHILD_TIMEOUT_S = 50    # a command running longer is killed and counted failed

# Medians a --trace 0 run prints and records beside the gated metrics: the
# command's own times, and the reference task's, which they were divided by.
RAW_UNITS = {"run_s": "s", "videos_per_s": "videos/s", "cpu_s": "s", "setup_raw_s": "s",
             "reference_s": "s", "reference_cpu_s": "s"}


@dataclass
class Rep:
    """One run of the measured command."""

    traced: bool
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool = False
    problem: str = ""
    layers: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


class Launcher:
    """Client of launcher.py, which starts and measures every command."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log_path: Path) -> dict:
        """Run argv to completion: {"code", "wall_s", "cpu_s", "rss_mb"}."""
        request = {"argv": argv, "env": child_env(), "cwd": str(ROOT),
                   "log": str(log_path), "timeout_s": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def artifacts_digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode("utf-8") + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "cupid.cli", *args]


def traced_argv(spans_path: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(Path(__file__).with_name("tracing.py")),
            str(spans_path), *args]


def reference_argv() -> list[str]:
    return [sys.executable, str(Path(__file__).with_name("reference.py"))]


class Runner:
    """Runs one workload's command repeatedly and checks every run."""

    def __init__(self, workload: workloads.Workload, work: Path, began: float,
                 launcher: Launcher):
        self.workload = workload
        self.launcher = launcher
        self.work = work
        self.out = work / "out"
        self.log = work / "commands.log"
        self.began = began
        self.reps: list[Rep] = []
        self.reference: str | None = None
        self.spans: list[dict] = []
        self.references: list[dict] = []
        self.truncated = False

    def run(self, traced: bool) -> Rep:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        args = self.workload.command(self.out)
        spans_path = self.work / "spans.json"
        argv = traced_argv(spans_path, args) if traced else cli_argv(args)
        measured = self.launcher.run(argv, self.log)
        code, wall = measured["code"], measured["wall_s"]
        rep = Rep(traced, code, wall, measured["cpu_s"], measured["rss_mb"])
        if code != 0:
            rep.problem = f"exit code {code} (see {self.log.name})"
        else:
            digest = artifacts_digest(self.workload.artifacts(self.out))
            if self.reference is None:
                self.reference = digest
            if digest != self.reference:
                rep.problem = "artifacts differ from the first run's"
        if traced and code == 0:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            rep.layers = tracing.layer_metrics(spans, wall)
            self.spans.append({"wall_s": wall, "spans": spans})
        rep.ok = not rep.problem
        self.reps.append(rep)
        return rep

    def reference_run(self) -> dict:
        """One run of reference.py: {"code", "wall_s", "cpu_s", "rss_mb"}."""
        measured = self.launcher.run(reference_argv(), self.log)
        if measured["code"] != 0:
            raise RuntimeError(f"reference task exited with code {measured['code']} "
                               f"(see {self.log})")
        self.references.append(measured)
        return measured

    def checked_first_run(self) -> list[str]:
        """Untimed first run; its output is the one the oracle checks."""
        rep = self.run(traced=False)
        if not rep.ok:
            return [rep.problem]
        try:
            problems = self.workload.check(self.out)
        except Exception as exc:  # an unreadable output is a failed run, not a crash
            problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            rep.ok, rep.problem = False, "oracle: " + "; ".join(problems)
        return problems

    def keep_going(self, deadline: float, done: int, least: int) -> bool:
        """Start another run before the deadline, or until least runs are done.

        Runs owed to the minimum stop at LATEST_START_S after the benchmark
        began, so that it ends in time; that is printed when it happens.
        """
        now = time.perf_counter()
        if now < deadline:
            return True
        if done >= least:
            return False
        if now - self.began < LATEST_START_S:
            return True
        print(f"# stopped after {done} timed runs (fewer than {least}): "
              f"{LATEST_START_S} s have passed since the benchmark began")
        self.truncated = True
        return False


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def timed_setup(workload: workloads.Workload, work: Path, seed: int) -> float:
    start = time.perf_counter()
    workload.setup(work / "inputs", seed)
    return time.perf_counter() - start


def end_to_end(runner: Runner, seconds: float, seed: int, setup_times: list[float]) -> dict:
    """Timed commands, each followed by a run of the reference task, until
    `seconds` have passed (set-up reps in between included).

    The gated times are ratios of medians over the whole run: the command's
    median over the reference's median. Both medians span the same minutes,
    so a host that is slower through the run slows both. Set-up rep i is
    timed next to reference run i, and setup_s scales the set-up median by
    the median of those reference runs. The raw medians are reported beside
    them.
    """
    videos = runner.workload.videos
    deadline = time.perf_counter() + seconds
    refs = [runner.reference_run()]
    timed: list[Rep] = []
    while runner.keep_going(deadline, len(timed), MIN_REPS):
        timed.append(runner.run(traced=False))
        refs.append(runner.reference_run())
        if len(setup_times) < SETUP_REPS or (
                sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
            setup_times.append(timed_setup(runner.workload, runner.work, seed))
    good = [r for r in timed if r.ok]
    run_s = median(r.wall_s for r in good)
    cpu_s = median(r.cpu_s for r in good)
    ref_s = median(r["wall_s"] for r in refs)
    ref_cpu_s = median(r["cpu_s"] for r in refs)
    setup_raw_s = median(setup_times)
    setup_ref_s = median(r["wall_s"] for r in refs[:len(setup_times)])
    return {
        "run_rel": run_s / ref_s,
        "videos_per_ref": videos / (run_s / ref_s),
        "cpu_rel": cpu_s / ref_cpu_s,
        "peak_rss_mb": median(r.rss_mb for r in good),
        "setup_s": setup_raw_s / setup_ref_s * REFERENCE_S,
        "run_s": run_s,
        "videos_per_s": videos / run_s,
        "cpu_s": cpu_s,
        "setup_raw_s": setup_raw_s,
        "reference_s": ref_s,
        "reference_cpu_s": ref_cpu_s,
    }


def traced_setup(workload: workloads.Workload, work: Path, seed: int) -> list[dict]:
    """One set-up with spans around store.build_corpus, the store write path,
    which no measured command takes."""
    from cupid import store

    tracer = tracing.Tracer()
    original = store.build_corpus
    store.build_corpus = tracer.wrap("store.build_corpus", original, tracing.build_attrs)
    try:
        workload.setup(work, seed)
    finally:
        store.build_corpus = original
    return tracer.spans


def per_layer(runner: Runner, seconds: float, setup_spans: list[dict]) -> dict:
    deadline = time.perf_counter() + seconds
    plain: list[Rep] = []
    traced: list[Rep] = []
    while runner.keep_going(deadline, min(len(plain), len(traced)), 2):
        plain.append(runner.run(traced=False))
        traced.append(runner.run(traced=True))
    good = [r for r in traced if r.ok]
    metrics = {name: median(r.layers[name] for r in good)
               for name in (good[0].layers if good else {})}
    built = tracing.layer_metrics(setup_spans, 0.0)
    for name in ("store.build_s", "store.bytes_per_user_byte"):
        metrics[name] = built[name]
    metrics["trace.overhead"] = (median(r.wall_s for r in good)
                                 / median(r.wall_s for r in plain if r.ok) - 1.0)
    return metrics


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
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
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "cupid").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode("utf-8") + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, workload: workloads.Workload) -> dict:
    from cupid import kernels

    return {
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "corpus_sizes": workload.size,
        "inputs_sha256": workload.digest,
        "backend": kernels.backend_name(),
        "threads": workloads.THREADS,
        "thread_env": THREAD_ENV,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="corpus sizes; smoke is the benchmark's own test size")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    began = time.perf_counter()
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "cupid" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a cupid checkout (src/cupid/cli.py and "
              "BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cupid  # noqa: F401  imported once here, so no set-up repetition pays for it

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = workloads.make_workload(args.workload, args.size)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    launcher = Launcher()
    try:
        setup_times: list[float] = []
        setup_spans: list[dict] = []
        if args.trace:
            setup_spans = traced_setup(workload, work / "inputs", args.seed)
        else:
            setup_times.append(timed_setup(workload, work, args.seed))
        runner = Runner(workload, work, began, launcher)
        problems = runner.checked_first_run()
        if args.trace:
            measured = per_layer(runner, args.seconds, setup_spans)
        else:
            measured = end_to_end(runner, args.seconds, args.seed, setup_times)
    finally:
        launcher.close()
        shutil.rmtree(work / "inputs", ignore_errors=True)
        shutil.rmtree(work / "out", ignore_errors=True)

    if not any(r.ok for r in runner.reps if r.traced == bool(args.trace)):
        print("error: no run of the command succeeded; see "
              f"{(work / 'commands.log').relative_to(ROOT)}", file=sys.stderr)
        return 1
    attempted = len(runner.reps)
    failed = sum(not r.ok for r in runner.reps)
    metrics = {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
               for m in declared}
    raw = {name: {"value": float(measured[name]), "unit": unit}
           for name, unit in RAW_UNITS.items() if name in measured}
    result = {
        "provenance": provenance(args, workload),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "truncated": runner.truncated,
        "setup_times_s": setup_times,
        "oracle_problems": problems,
        "metrics": metrics,
        "raw_metrics": raw,
        "runs": [asdict(r) for r in runner.reps],
        "reference_runs": runner.references,
    }
    result_path = results / f"{tag}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        spans_path = results / f"{args.workload}-seed{args.seed}.spans.json"
        spans_path.write_text(json.dumps({"setup": setup_spans, "runs": runner.spans}) + "\n",
                              encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    prov = result["provenance"]
    print(f"# {args.workload} seed {args.seed}: backend {prov['backend']}, "
          f"threads {workloads.THREADS}, nproc {prov['nproc']}, python {prov['python']}, "
          f"numpy {prov['numpy']}, commit {prov['git_commit']}, "
          f"inputs {prov['inputs_sha256']}, sizes {json.dumps(workload.size)}")
    for problem in problems:
        print(f"# oracle: {problem}")
    for name, m in {**metrics, **raw}.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"{'error_rate':28s} {failed / attempted:14.6g} failed/attempted "
          f"({failed}/{attempted})")
    print(f"# full result: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
