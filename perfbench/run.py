"""zenopath benchmark: one seeded workload per run, every op's output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; zenopath is imported from `src/`.
With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end ones (ops_per_s, op_p50_s, op_tail_s, failed_share, setup_s,
peak_rss_mb).  With --trace 1 a fixed list of rounds is run twice, untraced
then traced, and the metrics are the per-layer ones.  Lines before the last
one record the seed, the generated inputs, the defaults probes and the host.
See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads() -> int:
    """Set BLAS threads to the cores this process may use; must run before
    numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    return cores


BLAS_THREADS = _cap_blas_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from io import StringIO  # noqa: E402

SETUP_REPEATS = 3
OVERRUN_S = 60.0       # a slow run stops mid-round this long past --seconds
PROBES = (["twostate"], ["zeno-converge"], ["pdx-verify"],
          ["pdx-verify", "--system", "line"], ["histories"], ["arrival"])
COMPUTED = ("halfline.eig_cache_bytes", "arrival.phase_entries")


def _import_zenopath() -> float:
    """Import zenopath from this checkout's src/ and return the seconds."""
    if not (SRC / "zenopath" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no zenopath sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import zenopath
    seconds = time.perf_counter() - start
    if Path(zenopath.__file__).resolve().parent != SRC / "zenopath":
        raise SystemExit(f"perfbench: zenopath imported from "
                         f"{zenopath.__file__}, not {SRC}")
    return seconds


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp)
    env.pop("ZENOPATH_OUT_DIR", None)
    env.pop("PERFBENCH_SPANS", None)
    return env


def host_record() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError):
        pass
    return {"nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def measure_setup(args, tmp: Path) -> list[float]:
    """Fresh-process setup: interpreter, import zenopath, input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=tmp, env=child_env(tmp),
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit("perfbench: setup probe failed: "
                             + proc.stderr.decode(errors="replace"))
    return times


def run_probes(workload: str, runner, tmp: Path) -> list[tuple[str, str, str]]:
    """Every command and every pdx-verify system once on pure defaults;
    (label, status, detail) with status "ok", "failed" or "wrong"."""
    from workloads import Op
    results = []
    for argv in PROBES:
        label = " ".join(argv)
        if workload == "cli-cold":
            out = runner.run(Op("cli", label, {"argv": argv}))
            results.append((label, out.status,
                            out.detail or "; ".join(out.violations)))
            continue
        import zenopath.cli as cli
        import oracles
        os.environ["ZENOPATH_OUT_DIR"] = str(tmp)
        err = StringIO()
        try:
            with redirect_stdout(StringIO()), redirect_stderr(err):
                code = cli.main(argv)
        finally:
            del os.environ["ZENOPATH_OUT_DIR"]
        if code != 0:
            results.append((label, "failed", f"exit {code}: "
                            + err.getvalue().strip()))
            continue
        path = tmp / f"{argv[0]}.csv"
        bad, _ = oracles.check_table(argv[0], path.read_text(), "csv")
        path.unlink()
        results.append((label, "wrong" if bad else "ok", "; ".join(bad)))
    return results


def tail(durations: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank); the maximum when there are fewer than eleven."""
    d = sorted(durations)
    n = len(d)
    if n < 11:
        return d[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    return d[math.ceil(pct * n / 100) - 1], pct


class Tally:
    """Attempts, failures, wrong answers and determinism across a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def add(self, op, out) -> None:
        self.attempted += 1
        if out.status != "ok":
            self.failed += 1
            if out.status == "wrong":
                self.wrong.append(f"{op.label}: {'; '.join(out.violations)}")
            else:
                self.errors.append(f"{op.label}: {out.detail}")

    def same_bytes(self, key: str, digest: str | None) -> None:
        if digest is None:
            return
        seen = self.digests.setdefault(key, digest)
        if seen != digest:
            self.wrong.append(f"output bytes differ on repeat: {key}")


def op_key(op) -> str:
    if op.kind == "cli":
        return json.dumps(op.args["argv"])
    return f"{op.label}:{id(op)}"


def timed_loop(rounds, n_rounds, runner, tally, traced=False,
               deadline=math.inf):
    """Run n_rounds whole rounds (fewer if the deadline passes)."""
    records = []
    start = time.perf_counter()
    for i in range(n_rounds):
        for op in rounds[i % len(rounds)]:
            if time.perf_counter() - start >= deadline:
                return records, time.perf_counter() - start, i
            out = runner.run(op, traced=traced)
            tally.add(op, out)
            tally.same_bytes(op_key(op), out.digest)
            records.append((op, out))
    return records, time.perf_counter() - start, n_rounds


def end_to_end(args, records, wall, tally, setup_times) -> tuple[dict, str]:
    ok = [out for _, out in records if out.status == "ok"]
    timed = sum(out.seconds for _, out in records)   # oracles excluded
    # a failed op counts as slower than any success: it waited the whole run
    durations = [out.seconds if out.status == "ok" else wall
                 for _, out in records]
    tail_value, pct = tail(durations)
    if args.workload == "cli-cold":
        peak_kb = max(out.rss_kb for _, out in records)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (len(ok) / timed, "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (tail_value, "s"),
        "failed_share": (tally.failed / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    note = (f"op_tail_s is p{pct} (nearest rank) of {len(durations)} timed "
            f"ops, {timed:.2f} s timed in {wall:.2f} s; setup_s is the median of "
            f"{len(setup_times)} fresh processes "
            f"({', '.join(f'{t:.3f}' for t in setup_times)})")
    return metrics, note


def shape_medians(records) -> str:
    by_shape: dict[str, list[float]] = {}
    for op, out in records:
        by_shape.setdefault(op.label, []).append(out.seconds)
    return ", ".join(f"{label} {statistics.median(v):.3f}"
                     for label, v in sorted(by_shape.items()))


def scipy_import_seconds(tmp: Path) -> float:
    """Cumulative scipy import time inside a fresh `import zenopath`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import zenopath"], cwd=tmp, env=child_env(tmp),
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    entries = []
    for line in proc.stderr.decode(errors="replace").splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m and m.group(4).split(".")[0] == "scipy":
            entries.append((len(m.group(3)), int(m.group(2))))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) * 1e-6


def traced_run(args, rounds, runner, tally, tracer, tmp, import_s):
    """Rounds run in untraced/traced pairs, alternating which goes first;
    per-layer metrics over the traced rounds.  Every round starts with a
    cold eigensystem cache, as a run does, so both halves of a pair do the
    same work."""
    import tracing
    from workloads import TRACE_PAIRS, clear_eig_cache

    def one_round(i, traced):
        clear_eig_cache(tracer)
        if traced:
            tracer.install()
        try:
            return timed_loop([rounds[i % len(rounds)]], 1, runner, tally,
                              traced=traced)[:2]
        finally:
            tracer.uninstall()

    traced, shares = [], []
    for i in range(TRACE_PAIRS):
        order = (False, True) if i % 2 == 0 else (True, False)
        walls = {}
        for flag in order:
            records, walls[flag] = one_round(i, flag)
            if flag:
                traced += records
        shares.append((walls[True] - walls[False]) / walls[False])
    imports = [import_s]
    if args.workload == "cli-cold":
        imports = []
        for _, out in traced:
            if out.child_trace is not None:
                tracer.merge(out.child_trace)
                imports += [s[3] - s[2] for s in out.child_trace["spans"]
                            if s[0] == "cli.import"]
    rows = sum(out.rows for _, out in traced)
    m = tracing.layer_metrics(tracer, len(traced), rows)
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    m["cli.import_scipy_s"] = scipy_import_seconds(tmp)
    m["cli.output_bytes"] = sum(out.out_bytes for _, out in traced)
    m["trace.overhead_share"] = statistics.median(shares)
    note = (f"traced {TRACE_PAIRS} round pairs, {len(traced)} traced ops; "
            f"overhead shares {', '.join(f'{x:+.3f}' for x in shares)}")
    return m, note


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_s = _import_zenopath()
    import workloads
    rounds = workloads.make_rounds(args.workload, args.seed)
    if args.setup_probe:
        return 0

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    tempfile.tempdir = str(tmp)
    try:
        return _run(args, rounds, tmp, import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def _run(args, rounds, tmp: Path, import_s: float) -> int:
    import tracing
    import workloads
    from workloads import NOMINAL_ROUND_S
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host {json.dumps(host_record(), sort_keys=True)}")
    print(f"# inputs: {workloads.summarize(rounds)}")

    tracer = tracing.Tracer() if args.trace else None
    runner = workloads.Runner(tmp, child_env(tmp), tracer)
    tally = Tally()
    setup_times = [] if args.trace else measure_setup(args, tmp)

    for label, status, detail in run_probes(args.workload, runner, tmp):
        tally.attempted += 1
        if status != "ok":
            tally.failed += 1
        if status == "wrong":
            tally.wrong.append(f"probe {label}: {detail}")
        print(f"# probe {label}: {status} {detail}".rstrip())

    if args.trace:
        metrics, note = traced_run(args, rounds, runner, tally, tracer, tmp,
                                   import_s)
        metrics = {k: (v, _unit(k)) for k, v in metrics.items()}
        print(f"# computed from array sizes, not measured: {', '.join(COMPUTED)}")
    else:
        n_rounds = math.ceil(args.seconds / NOMINAL_ROUND_S[args.workload])
        workloads.clear_eig_cache()
        records, wall, n_rounds = timed_loop(
            rounds, max(1, n_rounds), runner, tally,
            deadline=args.seconds + OVERRUN_S)
        metrics, note = end_to_end(args, records, wall, tally, setup_times)
        if args.workload != "cli-cold":
            first = records[0][0]
            again = runner.run(first)
            tally.same_bytes(op_key(first), again.digest)
        note += f"; {n_rounds} rounds"
        print("# median seconds per op shape: " + shape_medians(records))
    print(f"# {note}")
    for line in tally.errors[:20]:
        print(f"# failed: {line}")
    for line in tally.wrong[:20]:
        print(f"# WRONG: {line}")

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_row"):
        return "1/row"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
