"""Command line surface: each command runs one named experiment and emits a
plot-ready table.

Commands
    twostate        propagator split and decoherence entries of the driven
                    two-level system, with residuals against closed forms
    zeno-converge   survival probability under n projective interruptions
    pdx-verify      refinement ladder for the propagator-split residual
                    (finite-dimensional quadrature or the full line)
    histories       stays/crosses consistency sweep for a packet on the line
    arrival         time-of-arrival density, flux, and moments

Configuration resolves in three layers: schema defaults, then a flat
key=value config file (`--config`, `#` comments allowed), then command line
flags.  Unknown keys are rejected.  Every output embeds its fully resolved
configuration as `# key=value` metadata lines; stripping the `# ` prefix
from the parameter lines yields a config file that reproduces the table.

Formats: CSV (comma separated, `#`-prefixed metadata, floats as %.11e) and
JSON mirroring the CSV one-to-one under {metadata, columns, rows}.  A given
configuration produces byte-identical output; `--parallel` evaluates
independent sweep points concurrently but assembles rows in input order, so
it never changes the bytes.  The `pdx-verify --system line` ladder is one
pass that shares its phase tables across rungs, so `--parallel` leaves it
whole.

Exit codes: 0 success, 2 configuration error, 3 numeric precondition
violation, 4 convergence advisory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import __version__
from .arrival import (
    ConvergenceAdvisory,
    _converged_window,
    arrival_moments,
    flux_l1_distance,
    gaussian_momentum_state,
    momentum_grid,
    smeared_density,
)
from .halfline import (
    NEUMANN,
    GaussianPacket,
    HalfLineSystem,
    SpatialGrid,
    WaveFunction,
    gaussian_packet,
    line_pdx_ladder,
)
from .histories import HistoryPair, history_row, reflection_safe_horizon
from .qcore import (
    DecoherenceMatrix,
    DomainError,
    TwoStateSystem,
    ZenoSchedule,
    _check_time,
    evolve,
    pdx_assemble,
    restricted_limit,
    zeno_limit_richardson,
    zeno_product,
)

OUT_DIR_ENV = "ZENOPATH_OUT_DIR"


class ConfigError(Exception):
    """Bad configuration: unknown key, unparseable value, unreadable file."""


@dataclass(frozen=True)
class Param:
    """One configurable knob: value kind, default, and help text."""

    kind: str
    default: object
    help: str


SCHEMAS: dict[str, dict[str, Param]] = {
    "twostate": {
        "omega": Param("float", 1.0, "Rabi frequency of the two-level drive"),
        "t": Param("float", math.pi / 2, "evolution time"),
        "n_quad": Param("int", 201, "Simpson nodes for the crossing term"),
        "n_zeno": Param("int", 100_000, "slices in the finite-n products"),
    },
    "zeno-converge": {
        "omega": Param("float", 1.0, "Rabi frequency of the two-level drive"),
        "t": Param("float", math.pi / 2, "evolution time"),
        "n_list": Param("int_list", [1, 2, 10, 100, 1000, 10_000],
                        "interruption counts, comma separated"),
    },
    "pdx-verify": {
        "system": Param("choice:twostate|line", "twostate",
                        "which propagator split to refine"),
        "ladder": Param("int_list", [51, 101, 201],
                        "quadrature node counts, comma separated "
                        "(default 51,101,201 twostate, 100,200,400 line)"),
        "omega": Param("float", 1.0, "two-level drive frequency"),
        "t": Param("float", math.pi / 2, "evolution time"),
        "n_zeno": Param("int", 100_000, "slices for finite-n products"),
        "length": Param("float", 40.0, "half-line extent (line system)"),
        "n_grid": Param("int", 2048, "half-line grid nodes (line system)"),
        "beta": Param("beta", 0.0, "wall parameter, a float or 'neumann'"),
        "x0": Param("float", 6.0, "packet centre (line system)"),
        "p0": Param("float", -1.0, "packet momentum (line system)"),
        "sigma": Param("float", 1.0, "packet width (line system)"),
    },
    "histories": {
        "length": Param("float", 40.0, "half extent of the symmetric grid"),
        "n_grid": Param("int", 2048, "grid nodes (even; x = 0 on a node)"),
        "beta": Param("beta", 0.0, "wall parameter, a float or 'neumann'"),
        "x0": Param("float", -5.0, "packet centre"),
        "p0": Param("float", 2.0, "packet momentum"),
        "sigma": Param("float", 1.0, "packet width"),
        "parity": Param("choice:none|odd|even", "none",
                        "optional (anti)symmetrisation of the packet"),
        "t_min": Param("float", 0.5, "first duration of the sweep"),
        "t_max": Param("float", 3.0, "last duration of the sweep"),
        "n_t": Param("int", 6, "sweep points"),
        "tol": Param("float", 1e-3, "relative consistency tolerance"),
    },
    "arrival": {
        "p_max": Param("float", 8.0, "momentum grid half extent"),
        "n_p": Param("int", 1024, "momentum nodes (even)"),
        "p0": Param("float", 2.0, "packet momentum"),
        "x0": Param("float", -10.0, "launch point"),
        "sigma_p": Param("float", 0.2, "momentum width"),
        "x_arrival": Param("float", 0.0, "arrival point"),
        "t_center": Param("float_or_auto", None,
                          "window centre; 'auto' estimates the flight time"),
        "half_width": Param("float", 5.0, "initial window half width"),
        "dt": Param("float", 0.02, "time sample spacing"),
        "smear_tau": Param("float", 0.0,
                           "detector resolution; 0 disables the smeared column"),
    },
}


# pdx-verify's ladder for the line system: its θ-grid needs even interval
# counts, where the two-state Simpson default (51,101,201) needs odd ones.
LINE_LADDER = [100, 200, 400]


def _parse_value(kind: str, text: str):
    text = text.strip()
    try:
        if kind == "float":
            return float(text)
        if kind == "int":
            return int(text)
        if kind == "beta":
            return NEUMANN if text == NEUMANN else float(text)
        if kind == "int_list":
            items = [int(x) for x in text.split(",") if x.strip()]
            if not items:
                raise ValueError("empty list")
            return items
        if kind == "float_or_auto":
            return None if text == "auto" else float(text)
        if kind.startswith("choice:"):
            allowed = kind.split(":", 1)[1].split("|")
            if text not in allowed:
                raise ValueError(f"must be one of {', '.join(allowed)}")
            return text
    except ValueError as exc:
        raise ConfigError(f"bad value {text!r}: {exc}") from None
    raise ConfigError(f"unknown parameter kind {kind!r}")


def _format_value(kind: str, value) -> str:
    if kind == "int_list":
        return ",".join(str(v) for v in value)
    if kind == "float_or_auto":
        return "auto" if value is None else repr(float(value))
    if kind == "beta" and isinstance(value, str):
        return value
    if kind == "float" or kind == "beta":
        return repr(float(value))
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: command, validated parameters, output."""

    command: str
    params: Mapping[str, object]
    out: str | None = None
    fmt: str = "csv"
    parallel: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.command not in SCHEMAS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        schema = SCHEMAS[self.command]
        unknown = set(self.params) - set(schema)
        if unknown:
            raise ConfigError(f"unknown keys for {self.command}: "
                              f"{', '.join(sorted(unknown))}")
        merged = {k: p.default for k, p in schema.items()}
        merged.update(self.params)
        if (self.command == "pdx-verify" and merged["system"] == "line"
                and "ladder" not in self.params):
            merged["ladder"] = list(LINE_LADDER)
        object.__setattr__(self, "params", merged)

    def metadata(self) -> dict[str, str]:
        schema = SCHEMAS[self.command]
        meta = {"version": __version__, "command": self.command}
        for key, par in schema.items():
            meta[key] = _format_value(par.kind, self.params[key])
        meta["seed"] = str(self.seed)
        return meta


@dataclass(frozen=True)
class ResultTable:
    """Columns, typed rows, and the metadata block they were produced with."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.metadata.get("version") or not self.metadata.get("command"):
            raise ValueError("metadata must carry version and command")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row width {len(row)} != "
                                 f"{len(self.columns)} columns")

    @staticmethod
    def _cell_csv(v) -> str:
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return "%.11e" % float(v)
        return str(v)

    @staticmethod
    def _cell_json(v):
        if isinstance(v, bool):
            return int(v)
        if isinstance(v, (int, np.integer)):
            return int(v)
        if isinstance(v, (float, np.floating)):
            return float(v)
        return str(v)

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            lines = [f"# {k}={v}" for k, v in self.metadata.items()]
            lines.append(",".join(self.columns))
            lines.extend(",".join(self._cell_csv(v) for v in row)
                         for row in self.rows)
            return "\n".join(lines) + "\n"
        if fmt == "json":
            doc = {
                "metadata": dict(self.metadata),
                "columns": list(self.columns),
                "rows": [[self._cell_json(v) for v in row]
                         for row in self.rows],
            }
            return json.dumps(doc, indent=2) + "\n"
        raise ConfigError(f"unknown format {fmt!r}")


def _ordered_map(fn: Callable, items, parallel: bool) -> list:
    """Evaluate fn over items, concurrently if asked, preserving order."""
    items = list(items)
    if not parallel or len(items) < 2:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(8, len(items))) as pool:
        return list(pool.map(fn, items))


def _scalar_row(name: str, value: complex, target: complex):
    v, w = complex(value), complex(target)
    return (name, v.real, v.imag, w.real, w.imag, abs(v - w))


def _entry_rows(name: str, value: np.ndarray, target: np.ndarray):
    return [_scalar_row(f"{name}{i}{j}", value[i, j], target[i, j])
            for i in range(value.shape[0]) for j in range(value.shape[1])]


def cmd_twostate(cfg: RunConfig) -> ResultTable:
    """Propagator split of the driven two-level system in long format.

    One row per scalar: the full propagator u, the boundary piece b, the
    crossing term x, the finite-n and extrapolated restricted propagators
    r/rr, the decoherence entries, and the split-identity residual, each
    against its closed form.
    """
    p = cfg.params
    sys_ = TwoStateSystem(p["omega"])
    ham = sys_.hamiltonian()
    proj_up = sys_.projector_up()
    proj_down = sys_.projector_down()
    t = p["t"]

    u = evolve(ham, t)
    pdx = pdx_assemble(ham, proj_up, t, n_zeno=p["n_zeno"],
                       n_quad=p["n_quad"])
    rich = zeno_limit_richardson(ham, proj_down, t, n=max(p["n_zeno"] // 2, 1))

    rows = []
    rows += _entry_rows("u", u.mat, sys_.unitary(t).mat)
    rows += _entry_rows("b", pdx.boundary.mat, sys_.boundary_closed(t).mat)
    rows += _entry_rows("x", pdx.crossing.mat, sys_.crossing_closed(t).mat)
    rows += _entry_rows("r", pdx.restricted.mat, proj_down.mat)
    rows += _entry_rows("rr", rich.mat, proj_down.mat)

    # decoherence entries through the generator-form restricted propagator
    u_r = restricted_limit(ham, proj_down, t)
    dm = DecoherenceMatrix.from_class_operator(u.mat.conj().T @ u_r.mat,
                                               proj_down)
    d11_c, d22_c, d12_c = sys_.decoherence_closed(t)
    rows.append(_scalar_row("d11", dm.d[0, 0], d11_c))
    rows.append(_scalar_row("d22", dm.d[1, 1], d22_c))
    rows.append(_scalar_row("d12", dm.d[0, 1], d12_c))
    rows.append(_scalar_row("p_same", dm.d11, d11_c))
    rows.append(_scalar_row("p_cross", dm.d22, d22_c))
    rows.append(_scalar_row("split_residual",
                            (pdx.total + (-1.0) * u).norm(), 0.0))

    cols = ("name", "value_re", "value_im", "closed_re", "closed_im",
            "abs_err")
    return ResultTable(columns=cols, rows=tuple(rows),
                       metadata=cfg.metadata())


def cmd_zeno_converge(cfg: RunConfig) -> ResultTable:
    """Survival of the monitored state under n interruptions, against the
    closed form cos²ⁿ(ωt/n); the scaled deviation n·(1 - survival) levels
    off at the quadratic Zeno constant."""
    p = cfg.params
    sys_ = TwoStateSystem(p["omega"])
    ham = sys_.hamiltonian()
    q = sys_.projector_down()
    t = p["t"]

    def one(n: int):
        z = zeno_product(ham, q, ZenoSchedule(t, n))
        surv = float(abs(z.mat[1, 1]) ** 2)
        closed = sys_.zeno_survival(n, t)
        dev = 1.0 - surv
        return (n, surv, closed, abs(surv - closed), dev, n * dev)

    rows = _ordered_map(one, p["n_list"], cfg.parallel)
    cols = ("n", "survival", "survival_closed", "closed_gap", "deviation",
            "deviation_scaled")
    return ResultTable(columns=cols, rows=tuple(rows),
                       metadata=cfg.metadata())


def _fit_order(points, residuals) -> float:
    if len(points) < 2:
        return float("nan")
    logs = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    slope = np.polyfit(np.log(np.asarray(points, dtype=float)), logs, 1)[0]
    return float(-slope)


def cmd_pdx_verify(cfg: RunConfig) -> ResultTable:
    """Residual of the propagator split across a quadrature refinement
    ladder; metadata carries the fitted convergence order and a monotone
    flag (a non-decreasing step is flagged in its row, not fatal).  The
    line ladder is one pass (`line_pdx_ladder`), so `--parallel` splits
    only the two-state ladder."""
    p = cfg.params
    ladder = p["ladder"]

    if p["system"] == "twostate":
        sys_ = TwoStateSystem(p["omega"])
        ham = sys_.hamiltonian()
        proj_up = sys_.projector_up()
        u = evolve(ham, p["t"])

        def resid(nq: int) -> float:
            terms = pdx_assemble(ham, proj_up, p["t"], n_zeno=p["n_zeno"],
                                 n_quad=nq, ur="limit")
            return float((terms.total + (-1.0) * u).norm())

        values = _ordered_map(resid, ladder, cfg.parallel)
    else:
        system = HalfLineSystem(L=p["length"], n=p["n_grid"], beta=p["beta"])
        g = system.full_grid()
        packet = GaussianPacket(p["x0"], p["p0"], p["sigma"])
        raw = np.exp(-((g.x - packet.x0) ** 2) / (4 * packet.sigma ** 2)
                     + 1j * packet.p0 * g.x)
        raw[g.x < 0] = 0.0
        psi = WaveFunction(g, raw).normalized()
        values = line_pdx_ladder(psi, system, p["t"], ladder)

    rows = []
    for lvl, (nq, r) in enumerate(zip(ladder, values)):
        decreased = lvl == 0 or r < values[lvl - 1]
        rows.append((lvl, nq, r, decreased))

    meta = cfg.metadata()
    meta["fitted_order"] = "%.6f" % _fit_order(ladder, values)
    meta["monotone"] = str(int(all(r[3] for r in rows)))
    cols = ("level", "points", "residual", "decreased")
    return ResultTable(columns=cols, rows=tuple(rows), metadata=meta)


def cmd_histories(cfg: RunConfig) -> ResultTable:
    """Consistency sweep of the stays/crosses pair over durations."""
    p = cfg.params
    if not (math.isfinite(p["length"]) and p["length"] > 0):
        raise ValueError(f"length must be positive and finite, got {p['length']}")
    grid = SpatialGrid(-p["length"], p["length"], p["n_grid"])
    parity = None if p["parity"] == "none" else p["parity"]
    psi = gaussian_packet(grid, p["x0"], p["p0"], p["sigma"], parity=parity)
    beta = p["beta"]
    for t in (p["t_min"], p["t_max"]):
        _check_time(t, nonnegative=True)
    t_end = max(p["t_min"], p["t_max"])
    horizon = reflection_safe_horizon(psi)
    if t_end > horizon:
        raise ValueError(f"the sweep reaches t = {t_end:g}, past the "
                         f"reflection-safe horizon {horizon:.4g} of this "
                         "packet and grid; those rows would carry FFT "
                         "wrap-around")
    t_values = np.linspace(p["t_min"], p["t_max"], p["n_t"])

    def one(t: float):
        row = history_row(psi, HistoryPair(t=float(t), beta=beta), p["tol"])
        v = row.verdict
        return (row.t, v.p_same, v.p_cross, v.re_d12, v.im_d12,
                v.consistent, float(row.r_plus), float(row.r_minus),
                row.directsum_distance, row.grid_warning)

    rows = _ordered_map(one, t_values, cfg.parallel)
    cols = ("t", "p_same", "p_cross", "re_d12", "im_d12", "consistent",
            "r_plus", "r_minus", "directsum_distance", "grid_warning")
    return ResultTable(columns=cols, rows=tuple(rows),
                       metadata=cfg.metadata())


def cmd_arrival(cfg: RunConfig) -> ResultTable:
    """Arrival density, flux, and their window summary for one packet.

    The window is the symmetric lattice t_center + dt·k, |k| ≤ K, widened
    until its captured mass converges; density and flux come from the same
    single pass over its samples."""
    p = cfg.params
    if not (math.isfinite(p["smear_tau"]) and p["smear_tau"] >= 0):
        raise ValueError("smear_tau must be finite and >= 0 (0 disables "
                         f"the smeared column), got {p['smear_tau']}")
    grid = momentum_grid(p["p_max"], p["n_p"])
    state = gaussian_momentum_state(grid, p0=p["p0"], x0=p["x0"],
                                    sigma_p=p["sigma_p"])
    dist, current = _converged_window(state, t_center=p["t_center"],
                                      half_width=p["half_width"], dt=p["dt"],
                                      x_arrival=p["x_arrival"])

    cols = ["t", "density", "right_part", "left_part", "current"]
    series = [dist.t, dist.density, dist.right_part, dist.left_part, current]
    if p["smear_tau"] > 0:
        cols.append("density_smeared")
        series.append(smeared_density(dist, p["smear_tau"]).density)
    rows = tuple(tuple(float(s[i]) for s in series)
                 for i in range(dist.t.size))

    meta = cfg.metadata()
    meta["captured_mass"] = "%.11e" % dist.captured_mass()
    meta["mean_arrival"] = "%.11e" % arrival_moments(dist, 1)
    meta["variance_arrival"] = "%.11e" % arrival_moments(dist, 2)
    meta["flux_l1"] = "%.11e" % flux_l1_distance(dist, current)
    return ResultTable(columns=tuple(cols), rows=rows, metadata=meta)


DISPATCH: dict[str, Callable[[RunConfig], ResultTable]] = {
    "twostate": cmd_twostate,
    "zeno-converge": cmd_zeno_converge,
    "pdx-verify": cmd_pdx_verify,
    "histories": cmd_histories,
    "arrival": cmd_arrival,
}


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenopath",
        description="Zeno products, propagator splits, history consistency, "
                    "and time-of-arrival densities.")
    parser.add_argument("--version", action="version",
                        version=f"zenopath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in SCHEMAS.items():
        sp = sub.add_parser(name, help=DISPATCH[name].__doc__.splitlines()[0])
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--out", help="output path (default: "
                        f"${OUT_DIR_ENV} or cwd, <command>.<format>)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--parallel", action="store_true",
                        help="evaluate independent sweep points concurrently")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the metadata block")
        for key, par in schema.items():
            sp.add_argument(f"--{key.replace('_', '-')}", dest=f"p_{key}",
                            metavar="V", help=par.help)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    schema = SCHEMAS[args.command]
    raw: dict[str, str] = {}
    if args.config:
        raw.update(read_config_file(args.config))
    for key in schema:
        flag = getattr(args, f"p_{key}", None)
        if flag is not None:
            raw[key] = flag
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys for {args.command}: "
                          f"{', '.join(sorted(unknown))}")
    params = {k: _parse_value(schema[k].kind, v) for k, v in raw.items()}
    return RunConfig(command=args.command, params=params, out=args.out,
                     fmt=args.format, parallel=args.parallel, seed=args.seed)


def default_out_path(command: str, fmt: str) -> str:
    base = os.environ.get(OUT_DIR_ENV, ".")
    return os.path.join(base, f"{command}.{fmt}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        table = DISPATCH[cfg.command](cfg)
    except ConvergenceAdvisory as exc:
        print(f"convergence advisory: {exc}", file=sys.stderr)
        return 4
    except (DomainError, ValueError) as exc:
        print(f"numeric precondition violated: {exc}", file=sys.stderr)
        return 3
    out = cfg.out or default_out_path(cfg.command, cfg.fmt)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table.render(cfg.fmt))
    print(f"wrote {out} ({len(table.rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
