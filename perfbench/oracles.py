"""Output oracles: every op's result is checked against a reference that
does not go through the code path the op exercises.

Tables are checked by stated tolerances on their values, never by bytes, so
a change that legitimately moves the last digits or the time grid still
passes while a fast wrong answer fails.  Each check returns a list of
violation strings (empty when the output is correct).
"""

from __future__ import annotations

import json
import math

import numpy as np

# Stated tolerances.  Zeno-product errors scale as C·(‖H‖t)²/n; C is 0.5
# for the two-state survival amplitude and 0.2-0.25 for random dense H, so
# the bounds below allow C = 1.
TOL_EXACT = 1e-10            # closed-form entries with no discretisation
TOL_RICHARDSON = 1e-6        # 2·Z(2n) - Z(n) against the generator form
ZENO_CONST = 1.0
TOL_PDX_TWOSTATE = 1e-6      # Simpson ladder residual, every level
TOL_LINE_SPLIT_HARD = 5e-3   # finest line-split residual, hard wall
# Walls with a nonzero wall value (neumann, finite beta): the ladder stalls
# at 3e-4 to 2.2e-2 for the packets and grids generated here
TOL_LINE_SPLIT_WALL = 5e-2
TOL_SUM_RULE = 1e-9          # p_same + p_cross + 2 Re d12 = 1 (table identity)
# Histories against the continuum walls (wall_evolve).  On the grids
# generated here (dx 0.02-0.04) the finite-beta eig route is off the
# continuum by up to 3.1e-4 in p_same, 1.1e-3 in Re d12 and 2.3e-3 in
# directsum_distance (at dx = 0.04; the error falls as dx^2); the image
# route by up to 1.1e-5 and 1.5e-4.  A C1 psi scaled by 1.01 moves p_same
# by 0.02, and a wrong wall sign moves Re d12 by 0.01-0.08.
TOL_HIST_REF = 5e-3
TOL_DIRECTSUM_REF = 1e-2
K_STEP = 0.05                # continuum walls: momentum step and cut-off
K_MAX = 8.0
TOL_SECTOR = 1e-10           # parity-matched wall: exact decoupling
TOL_NORM = 1e-10             # half-line norm conservation
MASS_MIN = 0.99              # arrival captured mass
MEAN_REL = 0.01              # arrival mean vs classical flight time
MEAN_ABS = 0.02
FLUX_L1_MAX = 0.05


def parse_table(text: str, fmt: str) -> dict:
    """{metadata, columns, rows} from CSV or JSON output; cells as floats
    where they parse, else strings."""
    if fmt == "json":
        doc = json.loads(text)
        return {"metadata": doc["metadata"], "columns": doc["columns"],
                "rows": doc["rows"]}
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            lines.append(line)

    def cell(v):
        try:
            return float(v)
        except ValueError:
            return v

    return {"metadata": meta, "columns": lines[0].split(","),
            "rows": [[cell(v) for v in ln.split(",")] for ln in lines[1:]]}


def _col(tab: dict, name: str) -> np.ndarray:
    i = tab["columns"].index(name)
    return np.array([row[i] for row in tab["rows"]], dtype=float)


def _float(meta: dict, key: str) -> float:
    return float(meta[key])


def _beta(text: str):
    return text if text == "neumann" else float(text)


# -- command tables ------------------------------------------------------

def check_twostate(tab: dict) -> list[str]:
    meta = tab["metadata"]
    w, t, n = _float(meta, "omega"), _float(meta, "t"), int(meta["n_zeno"])
    th = w * t
    c, s = math.cos(th), math.sin(th)
    closed = {
        "u00": c, "u01": -1j * s, "u10": -1j * s, "u11": c,
        "b00": c, "b01": 0, "b10": -1j * s, "b11": 0,
        "x00": 0, "x01": -1j * s, "x10": 0, "x11": c - 1,
        "r00": 0, "r01": 0, "r10": 0, "r11": 1,
        "rr00": 0, "rr01": 0, "rr10": 0, "rr11": 1,
        "d11": 1, "d22": 2 - 2 * c, "d12": c - 1,
        "p_same": 1, "p_cross": 2 - 2 * c, "split_residual": 0,
    }
    zeno_bound = ZENO_CONST * th * th / n + TOL_EXACT
    bad = []
    names = [row[0] for row in tab["rows"]]
    if sorted(names) != sorted(closed):
        bad.append(f"twostate rows {names}")
        return bad
    for row in tab["rows"]:
        name = row[0]
        value = complex(row[1], row[2])
        if name.startswith("rr"):
            tol = TOL_RICHARDSON
        elif name[0] in "xr" or name == "split_residual":
            tol = zeno_bound
        else:
            tol = TOL_EXACT
        err = abs(value - closed[name])
        if not err <= tol:
            bad.append(f"twostate {name} off closed form by {err:.2e} > {tol:.1e}")
    return bad


def check_zeno_converge(tab: dict) -> list[str]:
    meta = tab["metadata"]
    w, t = _float(meta, "omega"), _float(meta, "t")
    bad = []
    for n, surv in zip(_col(tab, "n"), _col(tab, "survival")):
        ref = math.cos(w * t / n) ** (2 * n) if n else 1.0
        tol = 1e-12 + 1e-14 * n
        if not abs(surv - ref) <= tol:
            bad.append(f"zeno-converge n={n:g} gap {abs(surv - ref):.2e} > {tol:.1e}")
    return bad


def check_pdx_verify(tab: dict) -> list[str]:
    meta = tab["metadata"]
    res = _col(tab, "residual")
    if not np.all(np.isfinite(res)):
        return ["pdx-verify residual not finite"]
    if meta["system"] == "twostate":
        worst = float(np.max(res))
        if not worst <= TOL_PDX_TWOSTATE:
            return [f"pdx-verify twostate residual {worst:.2e} > {TOL_PDX_TWOSTATE:.0e}"]
        return []
    bad = []
    beta = _beta(meta["beta"])
    tol = TOL_LINE_SPLIT_HARD if beta == 0.0 else TOL_LINE_SPLIT_WALL
    if not res[-1] <= tol:
        bad.append(f"pdx-verify line finest residual {res[-1]:.2e} > {tol:.0e}")
    if beta == 0.0 and not np.all(np.diff(res) < 0):
        bad.append("pdx-verify line hard-wall ladder not decreasing")
    return bad


# -- walls at x = 0: continuum reference --------------------------------

def wall_evolve(h: np.ndarray, dx: float, times, beta) -> list[np.ndarray]:
    """Continuum evolution of half-line samples h(j·dx) under the wall
    ψ(0) = βψ'(0) (β = 0 hard, "neumann" reflecting), one array per time.

    Expands h in the wall's eigenfunctions φ_k(x) = √(2/π)(sin kx + βk cos
    kx)/√(1+β²k²), plus the bound state √(2κ)e^{-κx}, κ = -1/β, E = -κ²/2
    when β < 0.  Both integrals are trapezoidal: over x with the half-cell
    weight at the wall node, over k ≥ 0 with a half weight at k = 0, where
    the integrand is even in k, so the k rule converges spectrally.
    """
    x = dx * np.arange(h.size)
    wx = np.full(h.size, dx)
    wx[0] = dx / 2
    k = K_STEP * np.arange(int(K_MAX / K_STEP) + 1)
    wk = np.full(k.size, K_STEP)
    wk[0] = K_STEP / 2
    kx = np.outer(x, k)
    if beta == "neumann":
        phi = np.cos(kx)
    else:
        phi = (np.sin(kx) + beta * k * np.cos(kx)) / np.sqrt(1 + (beta * k) ** 2)
    phi *= math.sqrt(2 / math.pi)
    coef = (wx * h) @ phi
    bound = None
    if beta != "neumann" and beta < 0:
        kappa = -1.0 / beta
        b = math.sqrt(2 * kappa) * np.exp(-kappa * x)
        bound = (b, np.sum(wx * b * h), kappa * kappa / 2)
    out = []
    for t in times:
        psi = phi @ (wk * coef * np.exp(-0.5j * k * k * t))
        if bound is not None:
            b, c, e = bound
            psi = psi + c * np.exp(1j * e * t) * b
        out.append(psi)
    return out


def free_evolve(s: np.ndarray, dx: float, t: float) -> np.ndarray:
    k = 2 * np.pi * np.fft.fftfreq(s.size, dx)
    return np.fft.ifft(np.fft.fft(s) * np.exp(-0.5j * k * k * t))


def history_reference(s: np.ndarray, dx: float, times, beta) -> list[dict]:
    """p_same, re_d12 and directsum_distance of the stays/crosses pair at a
    cut x = 0 (node n of the symmetric grid), from the continuum walls.

    C₁ψ = U(-t)[U_β(t)θψ ⊕ U_{-β}(t)(1-θ)ψ] with the halves reassembled as
    the program documents (node x = 0 from the right half, node x = -L
    zero); p_same = ‖C₁ψ‖², Re d12 = Re⟨ψ|C₁ψ⟩ - p_same.
    """
    n = s.size // 2
    left_beta = beta if beta == "neumann" else -beta
    right = wall_evolve(s[n:], dx, times, beta)
    left = wall_evolve(np.concatenate(([s[n]], s[1:n][::-1])), dx, times,
                       left_beta)
    refs = []
    for t, r, lft in zip(times, right, left):
        summed = np.zeros(s.size, dtype=complex)
        summed[n:] = r
        summed[1:n] = lft[1:][::-1]
        free = free_evolve(s, dx, t)
        p_same = float(np.vdot(summed, summed).real * dx)
        refs.append({"p_same": p_same,
                     "re_d12": float(np.vdot(free, summed).real * dx) - p_same,
                     "directsum_distance": float(np.max(np.abs(free - summed)))})
    return refs


def packet(meta: dict) -> tuple[np.ndarray, float]:
    """The histories state: a normalised Gaussian, (anti)symmetrised about
    x = 0 for parity odd/even, on the symmetric grid of the metadata."""
    length, n = _float(meta, "length"), int(meta["n_grid"])
    x0, p0, sigma = _float(meta, "x0"), _float(meta, "p0"), _float(meta, "sigma")
    dx = 2 * length / n
    x = -length + dx * np.arange(n)
    s = np.exp(-((x - x0) ** 2) / (4 * sigma ** 2) + 1j * p0 * (x - x0))
    if meta["parity"] != "none":
        mirrored = s[(-np.arange(n)) % n]
        s = s + mirrored if meta["parity"] == "even" else s - mirrored
    return s / math.sqrt(np.vdot(s, s).real * dx), dx


def check_against_reference(label: str, got: dict, ref: dict) -> list[str]:
    bad = []
    for key, tol in (("p_same", TOL_HIST_REF), ("re_d12", TOL_HIST_REF),
                     ("directsum_distance", TOL_DIRECTSUM_REF)):
        if key in got and not abs(got[key] - ref[key]) <= tol:
            bad.append(f"{label} {key} {got[key]:.6f} vs continuum "
                       f"{ref[key]:.6f}")
    return bad


def check_histories(tab: dict) -> list[str]:
    meta = tab["metadata"]
    beta, parity = _beta(meta["beta"]), meta["parity"]
    p_same, p_cross = _col(tab, "p_same"), _col(tab, "p_cross")
    re_d12, t = _col(tab, "re_d12"), _col(tab, "t")
    bad = []
    rule = float(np.max(np.abs(p_same + p_cross + 2 * re_d12 - 1.0)))
    if not rule <= TOL_SUM_RULE:
        bad.append(f"histories sum rule off by {rule:.2e}")
    if np.any(p_same > 1.0 + TOL_SUM_RULE) or np.any(p_cross < -TOL_SUM_RULE):
        bad.append("histories probabilities out of range")
    matched = (beta == 0.0 and parity == "odd") or \
        (beta == "neumann" and parity == "even")
    if matched:
        dist = float(np.max(_col(tab, "directsum_distance")))
        if not dist <= TOL_SECTOR:
            bad.append(f"histories matched sector directsum {dist:.2e}")
        if not float(np.max(np.abs(re_d12))) <= TOL_SECTOR:
            bad.append("histories matched sector not consistent")
    # middle and last duration against the continuum walls
    rows = sorted({t.size // 2, t.size - 1})
    s, dx = packet(meta)
    dist = _col(tab, "directsum_distance")
    for i, ref in zip(rows, history_reference(s, dx, t[rows], beta)):
        bad += check_against_reference(
            f"histories t={t[i]:g}", {"p_same": p_same[i], "re_d12": re_d12[i],
                                      "directsum_distance": dist[i]}, ref)
    return bad


def classical_mean_time(meta: dict) -> float:
    """⟨m(x_a - x₀)/p⟩ over the Gaussian momentum weight, p > 0 only, on a
    fine grid of its own (independent of the state's momentum grid)."""
    p0, sp = _float(meta, "p0"), _float(meta, "sigma_p")
    dist = _float(meta, "x_arrival") - _float(meta, "x0")
    p = np.linspace(max(p0 - 10 * sp, 1e-6), p0 + 10 * sp, 20001)
    w = np.exp(-((p - p0) ** 2) / (2 * sp * sp))
    return float(np.sum(w * dist / p) / np.sum(w))


def check_arrival(tab: dict) -> list[str]:
    meta = tab["metadata"]
    bad = []
    mass = _float(meta, "captured_mass")
    if not mass >= MASS_MIN:
        bad.append(f"arrival captured mass {mass:.5f} < {MASS_MIN}")
    ref = classical_mean_time(meta)
    mean = _float(meta, "mean_arrival")
    tol = MEAN_REL * abs(ref) + MEAN_ABS
    if not abs(mean - ref) <= tol:
        bad.append(f"arrival mean {mean:.4f} vs classical {ref:.4f}")
    flux = _float(meta, "flux_l1")
    if not flux <= FLUX_L1_MAX:
        bad.append(f"arrival flux_l1 {flux:.3e} > {FLUX_L1_MAX}")
    dens = _col(tab, "density")
    if np.min(dens) < -1e-12:
        bad.append("arrival density negative")
    return bad


TABLE_CHECKS = {
    "twostate": check_twostate,
    "zeno-converge": check_zeno_converge,
    "pdx-verify": check_pdx_verify,
    "histories": check_histories,
    "arrival": check_arrival,
}


def check_table(command: str, text: str, fmt: str) -> tuple[list[str], int]:
    """Violations and the number of table rows."""
    try:
        tab = parse_table(text, fmt)
        return TABLE_CHECKS[command](tab), len(tab["rows"])
    except (KeyError, ValueError, IndexError) as exc:
        return [f"{command} output unreadable: {exc!r}"], 0


# -- public-API ops ------------------------------------------------------

def expm_herm(h: np.ndarray, t: float) -> np.ndarray:
    e, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * e * t)) @ v.conj().T


def generator_limit(h: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    """Q exp(-i QHQ t) Q, the n → ∞ limit of the Zeno product."""
    qhq = q @ h @ q
    return q @ expm_herm(0.5 * (qhq + qhq.conj().T), t) @ q


def check_zeno_sweep(inp: dict, products: list[np.ndarray]) -> list[str]:
    h, q, t = inp["H"], inp["Q"], inp["t"]
    ref = generator_limit(h, q, t)
    scale = (np.linalg.norm(h, 2) * t) ** 2
    bad = []
    for n, z in zip(inp["n_list"], products):
        err = np.linalg.norm(z - ref, 2)
        tol = ZENO_CONST * scale / n + 1e-12 * n
        if not err <= tol:
            bad.append(f"zeno_product n={n} off limit by {err:.2e} > {tol:.1e}")
        if np.linalg.norm(z, 2) > 1.0 + 1e-9:
            bad.append(f"zeno_product n={n} not a contraction")
    return bad


def check_pdx_assemble(inp: dict, total: np.ndarray) -> list[str]:
    h, t, n = inp["H"], inp["t"], inp["n_zeno"]
    err = np.linalg.norm(total - expm_herm(h, t), 2)
    tol = ZENO_CONST * (np.linalg.norm(h, 2) * t) ** 2 / n + 1e-8
    return [] if err <= tol else [f"pdx_assemble split residual {err:.2e} > {tol:.1e}"]


def check_decoherence(inp: dict, d: np.ndarray) -> list[str]:
    h, q, rho, t = inp["H"], inp["Q"], inp["rho"], inp["t"]
    c1 = expm_herm(h, t).conj().T @ generator_limit(h, q, t)
    ops = (c1, np.eye(h.shape[0]) - c1)
    ref = np.array([[np.trace(a @ rho @ b.conj().T) for b in ops] for a in ops])
    bad = []
    err = float(np.max(np.abs(d - ref)))
    if not err <= TOL_RICHARDSON:
        bad.append(f"decoherence_functional off limit by {err:.2e}")
    if not abs(d.sum() - 1.0) <= TOL_EXACT:
        bad.append("decoherence_functional entries do not sum to Tr rho")
    return bad


def check_grid_zeno(inp: dict, norms: list[float], dists: list[float],
                    norm_in: float, norm_wall: tuple[float, float]) -> list[str]:
    bad = []
    if any(nrm > norm_in + 1e-12 for nrm in norms):
        bad.append("grid_zeno_product increased the norm")
    if not all(b < a for a, b in zip(dists, dists[1:])):
        bad.append(f"grid_zeno_product not approaching the hard wall: {dists}")
    before, after = norm_wall
    if not abs(before - after) <= TOL_NORM:
        bad.append(f"hard-wall half-line norm drift {abs(before - after):.2e}")
    return bad


def check_norm_conserved(before: float, after: float, what: str) -> list[str]:
    gap = abs(before - after)
    return [] if gap <= TOL_NORM else [f"{what} half-line norm drift {gap:.2e}"]


def check_beta_scan(rows, states: dict, dx: float) -> list[str]:
    """Scan rows against the continuum walls; `states` maps each β to the
    builder's state at t = 0."""
    bad = []
    for r in rows:
        if r.rejected or r.verdict is None:
            bad.append(f"beta scan rejected beta={r.beta} t={r.t}")
            continue
        v = r.verdict
        rule = abs(v.p_same + v.p_cross + 2 * v.re_d12 - 1.0)
        if not rule <= TOL_SUM_RULE:
            bad.append(f"beta scan sum rule off by {rule:.2e}")
        if not math.isfinite(r.flux0):
            bad.append(f"beta scan row beta={r.beta} t={r.t} flux not finite")
        ref, = history_reference(states[r.beta], dx, [r.t], r.beta)
        bad += check_against_reference(
            f"beta scan beta={r.beta} t={r.t}",
            {"p_same": v.p_same, "re_d12": v.re_d12,
             "directsum_distance": r.directsum_distance}, ref)
    return bad
