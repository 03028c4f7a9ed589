"""Seeded workload generators and the op runners.

A workload is a list of rounds; a round holds one op of every shape and
size the workload exercises, in a fixed order, with seeded physical
parameters.  Runs execute whole rounds, so every run sees the same mix of
op shapes whatever its seed, and the same allocation pattern (peak memory
depends on the order of ops).

Op kinds:
    cli           fresh `python -m zenopath <argv>` process
    cmd           zenopath.cli.DISPATCH[command](RunConfig), rendered and
                  written like the CLI does
    zeno_sweep, pdx_assemble, decoherence, grid_zeno, beta_scan
                  public-API call groups
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

WORKLOADS = ("cli-cold", "zeno-limits", "robin-walls", "arrival-windows")
N_ROUNDS = 16          # generated per run; a longer run wraps around
# Round times measured on the reference host (2 cores, OpenBLAS, 2 threads).
# A run executes ceil(seconds / nominal) whole rounds, so it measures about
# --seconds there, and parent and child of a change run the same op list:
# their medians and tail percentiles rank the same ops.
NOMINAL_ROUND_S = {"cli-cold": 6.0, "zeno-limits": 6.2, "robin-walls": 4.8,
                   "arrival-windows": 9.5}
TRACE_PAIRS = 4      # untraced/traced round pairs in a --trace 1 run
OP_TIMEOUT_S = 120.0
CHILD = Path(__file__).resolve().parent / "cli_child.py"


@dataclass
class Op:
    kind: str
    label: str
    args: dict
    expect: str = "ok"            # "ok" or "advisory"


@dataclass
class Outcome:
    status: str                   # "ok", "failed" (error) or "wrong" (oracle)
    seconds: float
    digest: str | None = None     # sha256 of the output bytes
    detail: str = ""
    rows: int = 0                 # history rows produced
    out_bytes: int = 0
    rss_kb: int = 0               # child peak RSS (cli ops)
    child_trace: dict | None = None
    violations: list = field(default_factory=list)


# -- generators ----------------------------------------------------------

def _u(rng, lo, hi) -> float:
    return float(round(rng.uniform(lo, hi), 6))


def _herm(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / (2.0 * np.sqrt(d))


def _proj(rng, d, k):
    q, _ = np.linalg.qr(rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)))
    return q @ q.conj().T


def _density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _cli_rounds(seed: int):
    rng = np.random.default_rng([seed, 0])
    t = repr(_u(rng, 1.2, 1.9))
    x0_odd = repr(_u(rng, 4.0, 6.0))
    p0, x0, sp = (repr(_u(rng, 1.8, 2.4)), repr(_u(rng, -11.0, -9.0)),
                  repr(_u(rng, 0.18, 0.24)))
    shapes = [
        ("twostate",), ("zeno-converge",), ("pdx-verify",), ("histories",),
        ("arrival",),
        ("twostate", "--t", t, "--out", "readme-twostate.csv"),
        ("zeno-converge", "--n-list", "1,10,100,1000", "--format", "json",
         "--out", "readme-zeno.json"),
        ("pdx-verify", "--system", "line", "--ladder", "100,200,400",
         "--out", "readme-pdx-line.csv"),
        ("histories", "--parity", "odd", "--beta", "0", "--x0", x0_odd,
         "--out", "readme-histories.csv"),
        ("arrival", "--p0", p0, "--x0", x0, "--sigma-p", sp,
         "--smear-tau", "0.1", "--out", "readme-arrival.csv"),
    ]
    return [[Op("cli", " ".join(shape[:3]), {"argv": list(shape)})
             for shape in shapes] for _ in range(N_ROUNDS)]


def _right_packet(rng):
    return {"x0": _u(rng, 5.5, 7.0), "p0": _u(rng, -1.3, -0.7)}


def _zeno_round(rng):
    # two draws of every shape keep a round near the others' length
    return _zeno_shapes(rng) + _zeno_shapes(rng)


def _zeno_shapes(rng):
    ops = []
    for command in ("twostate", "zeno-converge", "pdx-verify"):
        params = {"omega": _u(rng, 0.5, 2.0), "t": _u(rng, 0.3, 2.5)}
        if command == "twostate":
            params["n_zeno"] = 20_000
        elif command == "zeno-converge":
            params["n_list"] = [1, 10, 100, 1000, 10_000, 100_000]
        else:
            params.update(system="twostate", ladder=[51, 101, 201],
                          n_zeno=20_000)
        fmt = "json" if command == "zeno-converge" else "csv"
        ops.append(Op("cmd", command, {"command": command, "params": params,
                                       "fmt": fmt}))
    for d in (2, 8, 16, 32, 64):
        ops.append(Op("zeno_sweep", f"zeno_product d={d}", {
            "H": _herm(rng, d), "Q": _proj(rng, d, max(1, d // 2)),
            "t": _u(rng, 0.5, 2.0),
            "n_list": [10, 100, 1000, 10_000, 100_000]}))
    for d in (32, 48, 64):
        ops.append(Op("pdx_assemble", f"pdx_assemble d={d}", {
            "H": _herm(rng, d), "P": _proj(rng, d, d // 2),
            "t": _u(rng, 0.5, 2.0), "n_zeno": 10_000, "n_quad": 201}))
    for d in (4, 16, 64):
        ops.append(Op("decoherence", f"decoherence_functional d={d}", {
            "H": _herm(rng, d), "Q": _proj(rng, d, d // 2),
            "rho": _density(rng, d), "t": _u(rng, 0.5, 2.0),
            "n_zeno": 10_000}))
    for n in (1024, 2048):
        ops.append(Op("grid_zeno", f"grid_zeno_product n={n}", {
            "L": 40.0, "n": n, "sigma": 1.0, "t": _u(rng, 1.5, 2.5),
            "n_list": [25, 50, 100, 200, 400], **_right_packet(rng)}))
    for beta in (0.0, "neumann"):
        for n_grid in (2048, 4096):
            ops.append(Op("cmd", f"pdx-verify line beta={beta} n={n_grid}", {
                "command": "pdx-verify", "fmt": "csv", "params": {
                    "system": "line", "beta": beta, "n_grid": n_grid,
                    "ladder": [100, 200, 400], **_right_packet(rng)}}))
    for _ in range(2):
        for beta in (0.0, "neumann"):
            for parity in ("none", "odd", "even"):
                if parity == "none":
                    packet = {"x0": _u(rng, -6.0, -4.0),
                              "p0": _u(rng, 1.5, 2.5)}
                else:
                    packet = {"x0": _u(rng, 4.5, 6.5),
                              "p0": _u(rng, -1.6, -0.8)}
                ops.append(Op("cmd", f"histories beta={beta} {parity}", {
                    "command": "histories", "fmt": "csv", "params": {
                        "beta": beta, "parity": parity, "n_grid": 4096,
                        "n_t": 24, **packet}}))
    return ops


def _robin_beta(rng, sign: float) -> float:
    return sign * _u(rng, 0.4, 1.5)


def _robin_rounds(seed: int):
    """Fresh small-grid walls every round; one large-grid wall per sign for
    the whole run.  The eigensystem cache is emptied once per run and keeps
    every entry, so the large-grid entries (33.5 MB each at n = 2048) are
    paid once and their number per run stays fixed, while each round pays
    new small-grid ones (8.4 MB at n = 1024)."""
    rng = np.random.default_rng([seed, WORKLOADS.index("robin-walls")])
    large = {sign: _robin_beta(rng, sign) for sign in (1.0, -1.0)}

    def hist(beta, n_grid, n_t):
        return Op("cmd", f"histories beta n={n_grid}", {
            "command": "histories", "fmt": "csv", "params": {
                "beta": beta, "n_grid": n_grid, "n_t": n_t,
                "x0": _u(rng, -6.0, -4.0), "p0": _u(rng, 1.5, 2.5)}})

    def line(beta, n_grid):
        return Op("cmd", f"pdx-verify line beta n={n_grid}", {
            "command": "pdx-verify", "fmt": "csv", "params": {
                "system": "line", "beta": beta, "n_grid": n_grid,
                "ladder": [100, 200], **_right_packet(rng)}})

    rounds = []
    for _ in range(N_ROUNDS):
        ops = []
        for sign in (1.0, -1.0):
            small = _robin_beta(rng, sign)
            ops += [hist(small, 2048, 4), hist(large[-sign], 4096, 3),
                    line(small, 1024), line(large[-sign], 2048),
                    Op("beta_scan", "beta_condition_scan", {
                        "betas": [small, _robin_beta(rng, -sign)],
                        "times": [1.0, 2.0], "L": 40.0, "n_grid": 2048})]
        rounds.append(ops)
    return rounds


def _arrival_round(rng):
    def fast(n_p, **extra):
        return {"n_p": n_p, "p0": _u(rng, 2.0, 2.2),
                "sigma_p": _u(rng, 0.18, 0.22), "x0": _u(rng, -11.0, -9.0),
                **extra}

    # the slow-tail packet is the documented one (p0 = 1, sigma_p = 0.2)
    slow = {"p0": 1.0, "sigma_p": 0.2, "x0": -10.0}
    specs = [
        ("fast n_p=1024", fast(1024), "ok"),
        ("fast shifted n_p=2048", fast(2048, x_arrival=_u(rng, 1.0, 3.0)), "ok"),
        ("fast smeared n_p=4096", fast(4096, smear_tau=_u(rng, 0.05, 0.15)), "ok"),
        ("fast n_p=8192", fast(8192), "ok"),
        ("fast shifted n_p=8192", fast(8192, x_arrival=_u(rng, 1.0, 3.0)), "ok"),
        ("slow n_p=1024", {"n_p": 1024, **slow}, "ok"),
        ("slow smeared n_p=1024",
         {"n_p": 1024, "smear_tau": _u(rng, 0.05, 0.15), **slow}, "ok"),
        # documented outcome: the window cannot converge (weight near p = 0)
        ("advisory n_p=512", {"n_p": 512, "p0": 0.5, "sigma_p": 0.3}, "advisory"),
    ]
    return [Op("cmd", f"arrival {label}", {"command": "arrival", "fmt": "csv",
                                           "params": params}, expect)
            for label, params, expect in specs]


def make_rounds(workload: str, seed: int) -> list[list[Op]]:
    """Every input of a run, generated from the seed alone."""
    if workload == "cli-cold":
        return _cli_rounds(seed)
    if workload == "robin-walls":
        return _robin_rounds(seed)
    build = {"zeno-limits": _zeno_round,
             "arrival-windows": _arrival_round}[workload]
    return [build(np.random.default_rng([seed, WORKLOADS.index(workload), i]))
            for i in range(N_ROUNDS)]


def summarize(rounds: list[list[Op]]) -> str:
    first = rounds[0]
    shapes = ", ".join(sorted({op.label for op in first}))
    betas = sorted({op.args["params"]["beta"] for r in rounds[:4] for op in r
                    if op.kind == "cmd" and isinstance(
                        op.args["params"].get("beta"), float)
                    and op.args["params"]["beta"] != 0.0})
    text = f"{len(rounds)} rounds x {len(first)} ops; shapes: {shapes}"
    if betas:
        text += "; finite beta (first 4 rounds): " + \
            ", ".join(f"{b:+.3f}" for b in betas)
    return text


# -- running ops ---------------------------------------------------------

class Runner:
    """Runs ops in this process or as fresh CLI processes, writing every
    output under `tmp`."""

    def __init__(self, tmp: Path, env: dict, tracer=None):
        self.tmp = tmp
        self.env = env
        self.tracer = tracer
        self._seq = 0
        import zenopath.arrival
        import zenopath.qcore
        self.advisory = zenopath.arrival.ConvergenceAdvisory
        self.domain = zenopath.qcore.DomainError

    def _span(self, name: str):
        t = self.tracer
        return t.span(name, "cli") if t is not None and t.active else nullcontext()

    def run(self, op: Op, traced: bool = False) -> Outcome:
        if op.kind == "cli":
            return self._run_cli(op, traced)
        if self.tracer is not None:
            self.tracer.active = traced
        try:
            return getattr(self, f"_run_{op.kind}")(op)
        finally:
            if self.tracer is not None:
                self.tracer.active = False

    # fresh CLI process ------------------------------------------------
    def _run_cli(self, op: Op, traced: bool) -> Outcome:
        argv = op.args["argv"]
        command = argv[0]
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
        out_name = (argv[argv.index("--out") + 1] if "--out" in argv
                    else f"{command}.{fmt}")
        out_path = self.tmp / out_name
        env = dict(self.env)
        spans_path = self.tmp / "child-spans.json"
        if traced:
            cmd = [sys.executable, str(CHILD), *argv]
            env["PERFBENCH_SPANS"] = str(spans_path)
        else:
            cmd = [sys.executable, "-m", "zenopath", *argv]
        log = self.tmp / "child.log"
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.tmp, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            code = proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome("ok", seconds, rss_kb=int(usage.ru_maxrss))
        if traced and spans_path.exists():
            outcome.child_trace = json.loads(spans_path.read_text())
            spans_path.unlink()
        if code != 0:
            message = log.read_text(errors="replace").strip().splitlines()
            outcome.detail = f"exit {code}: {message[-1] if message else ''}"
            if not (op.expect == "advisory" and code == 4):
                outcome.status = "failed"
            return outcome
        if op.expect == "advisory":
            outcome.status, outcome.detail = "failed", "no advisory raised"
            return outcome
        data = out_path.read_bytes()
        out_path.unlink()
        return self._check_table(outcome, command, data, fmt)

    def _check_table(self, outcome: Outcome, command: str, data: bytes,
                     fmt: str) -> Outcome:
        bad, rows = oracles.check_table(command, data.decode(), fmt)
        outcome.digest = hashlib.sha256(data).hexdigest()
        outcome.out_bytes = len(data)
        if command == "histories":
            outcome.rows = rows
        if bad:
            outcome.status, outcome.violations = "wrong", bad
        return outcome

    # in-process command function -------------------------------------
    def _run_cmd(self, op: Op) -> Outcome:
        import zenopath.cli as cli
        command, params, fmt = (op.args["command"], op.args["params"],
                                op.args["fmt"])
        self._seq += 1
        path = self.tmp / f"op{self._seq}.{fmt}"
        start = time.perf_counter()
        try:
            with self._span("cli.config"):
                cfg = cli.RunConfig(command=command, params=dict(params),
                                    out=str(path), fmt=fmt)
            with self._span("cli.compute"):
                table = cli.DISPATCH[command](cfg)
            with self._span("cli.render"):
                text = table.render(fmt)
            with self._span("cli.write"):
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
        except self.advisory as exc:
            seconds = time.perf_counter() - start
            if op.expect == "advisory":
                return Outcome("ok", seconds, detail="advisory raised")
            return Outcome("failed", seconds, detail=f"advisory: {exc}")
        except (self.domain, ValueError) as exc:
            return Outcome("failed", time.perf_counter() - start,
                           detail=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        path.unlink()
        outcome = Outcome("ok", seconds)
        if op.expect == "advisory":
            outcome.status, outcome.detail = "failed", "no advisory raised"
            return outcome
        self._pause()
        outcome = self._check_table(outcome, command, text.encode(), fmt)
        if command == "pdx-verify" and params.get("system") == "line":
            self._check_line_norm(outcome, params)
        return outcome

    def _pause(self):
        """Oracle work is never traced."""
        if self.tracer is not None:
            self.tracer.active = False

    def _check_line_norm(self, outcome: Outcome, params: dict) -> None:
        from zenopath import halfline
        beta = params["beta"]
        sys_ = halfline.HalfLineSystem(L=40.0, n=params["n_grid"], beta=beta)
        h = np.exp(-((sys_.x - params["x0"]) ** 2) / 4.0
                   + 1j * params["p0"] * sys_.x)
        if beta == 0.0:
            h[0] = 0.0                     # the hard wall pins the wall node
        half = halfline.WaveFunction(sys_.half_grid(), h)
        method = "eig" if isinstance(beta, float) and beta != 0.0 else "images"
        out = halfline.restricted_propagate(half, sys_, 1.5, method=method)
        bad = oracles.check_norm_conserved(
            halfline.halfline_norm(h, sys_),
            halfline.halfline_norm(out.samples, sys_), f"{method} route")
        if bad:
            outcome.status = "wrong"
            outcome.violations += bad

    # public-API call groups ------------------------------------------
    @staticmethod
    def _finish(seconds, parts, bad, rows=0) -> Outcome:
        data = b"".join(np.ascontiguousarray(p).tobytes() for p in parts)
        return Outcome("wrong" if bad else "ok", seconds,
                       digest=hashlib.sha256(data).hexdigest(), rows=rows,
                       violations=bad)

    def _run_zeno_sweep(self, op: Op) -> Outcome:
        from zenopath import qcore
        a = op.args
        start = time.perf_counter()
        mats = [qcore.zeno_product(a["H"], a["Q"],
                                   qcore.ZenoSchedule(a["t"], n)).mat
                for n in a["n_list"]]
        seconds = time.perf_counter() - start
        self._pause()
        return self._finish(seconds, mats, oracles.check_zeno_sweep(a, mats))

    def _run_pdx_assemble(self, op: Op) -> Outcome:
        from zenopath import qcore
        a = op.args
        start = time.perf_counter()
        terms = qcore.pdx_assemble(a["H"], a["P"], a["t"], n_zeno=a["n_zeno"],
                                   n_quad=a["n_quad"])
        total = terms.total.mat
        seconds = time.perf_counter() - start
        self._pause()
        return self._finish(seconds, [total],
                            oracles.check_pdx_assemble(a, total))

    def _run_decoherence(self, op: Op) -> Outcome:
        from zenopath import qcore
        a = op.args
        start = time.perf_counter()
        d = qcore.decoherence_functional(a["H"], a["Q"], a["rho"], a["t"],
                                         n_zeno=a["n_zeno"],
                                         richardson=True).d
        seconds = time.perf_counter() - start
        self._pause()
        return self._finish(seconds, [d], oracles.check_decoherence(a, d))

    def _run_grid_zeno(self, op: Op) -> Outcome:
        from zenopath import halfline
        a = op.args
        wall = halfline.HalfLineSystem(L=a["L"], n=a["n"], beta=0.0)
        g = wall.full_grid()
        raw = np.exp(-((g.x - a["x0"]) ** 2) / (4 * a["sigma"] ** 2)
                     + 1j * a["p0"] * g.x)
        raw[g.x < 0] = 0.0
        psi = halfline.WaveFunction(g, raw).normalized()
        half = halfline.WaveFunction(wall.half_grid(), psi.samples[wall.n:])
        start = time.perf_counter()
        zs = [halfline.grid_zeno_product(psi, wall, a["t"], n)
              for n in a["n_list"]]
        ref = halfline.restricted_propagate(half, wall, a["t"],
                                            method="images")
        seconds = time.perf_counter() - start
        self._pause()
        dists = [float(np.sqrt(np.sum(np.abs(z.samples[wall.n:] - ref.samples)
                                      ** 2) * wall.dx)) for z in zs]
        pinned = half.samples.copy()
        pinned[0] = 0.0                    # the hard wall pins the wall node
        bad = oracles.check_grid_zeno(
            a, [z.norm() for z in zs], dists, psi.norm(),
            (halfline.halfline_norm(pinned, wall),
             halfline.halfline_norm(ref.samples, wall)))
        return self._finish(seconds, [z.samples for z in zs] + [ref.samples],
                            bad)

    def _run_beta_scan(self, op: Op) -> Outcome:
        from zenopath import halfline, histories
        a = op.args
        grid = halfline.SpatialGrid(-a["L"], a["L"], a["n_grid"])
        start = time.perf_counter()
        rows = histories.beta_condition_scan(histories.robin_state_builder(),
                                             a["betas"], a["times"], grid=grid)
        seconds = time.perf_counter() - start
        self._pause()
        values = np.array([[r.t, r.verdict.p_same, r.verdict.p_cross,
                            r.verdict.re_d12, r.directsum_distance, r.flux0]
                           for r in rows if r.verdict is not None])
        builder = histories.robin_state_builder()
        states = {b: builder(b, grid).samples for b in a["betas"]}
        return self._finish(seconds, [values],
                            oracles.check_beta_scan(rows, states, grid.dx),
                            rows=len(rows))


def clear_eig_cache(tracer=None) -> None:
    """Empty the eigensystem cache, as a fresh process has it."""
    from zenopath import halfline
    clear = getattr(halfline.halfline_eigensystem, "cache_clear", None)
    if clear is not None:
        clear()
    if tracer is not None:
        tracer.reset_eig_cache()
