"""Output checks built on computations made apart from nmgeo.

Nothing here imports nmgeo.  The benchmark integrates the README's
third-order equation for g itself: the exact one-step propagator
expm(M h) of the first-order form (scipy), applied step by step on a
uniform grid, and a Taylor series of the same matrix inside a step.  The
green and blue boundary curves come from their closed forms: the green
curve as written in the README's model, the blue curve as the largest real
root in kappa^2 of the characteristic-cubic discriminant.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial
from scipy.linalg import expm

GREEN_BLUE_JOIN = 27.0 / 16.0
SERIES_HEADER = (
    "t,g,gp,Fz_re,Fz_im,beta_re,beta_im,beta_I_clamped,pole,sx,sy,sz,Nt,D,qfi"
)
_TAYLOR_ORDER = 14


# ---------------------------------------------------------------------------
# the independent g
# ---------------------------------------------------------------------------

class IndependentG:
    """g and its derivatives on [0, t_max], integrated on a grid of step h.

    With gamma_w finite the state is (g, g', g'') of
        g''' = -gw g'' - (gw Gw + 2 k^2)/2 g' - gw k^2 g,
        g(0) = 1, g'(0) = 0, g''(0) = -k^2;
    with gamma_w = inf it is (g, g') of the memory-less limit
        g'' = -(Gw/2) g' - k^2 g,  g(0) = 1, g'(0) = 0.
    """

    def __init__(self, gamma_w: float, kappa: float, t_max: float, h: float,
                 Gamma_w: float = 1.0):
        k2 = kappa * kappa
        if math.isinf(gamma_w):
            m = np.array([[0.0, 1.0], [-k2, -0.5 * Gamma_w]])
            y0 = np.array([1.0, 0.0])
        else:
            m = np.array([
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [-gamma_w * k2, -0.5 * (gamma_w * Gamma_w + 2.0 * k2), -gamma_w],
            ])
            y0 = np.array([1.0, 0.0, -k2])
        self.h = h
        self.n = int(round(t_max / h))
        self.t = h * np.arange(self.n + 1)
        self.y = _propagate(m, y0, h, self.n)
        terms = [np.eye(m.shape[0])]
        for j in range(1, _TAYLOR_ORDER + 1):
            terms.append(terms[-1] @ m / j)
        self._taylor = np.stack(terms)  # M^j / j!

    @property
    def g(self) -> np.ndarray:
        return self.y[:, 0]

    def at(self, t) -> np.ndarray:
        """State at arbitrary times in [0, t_max]; shape (len(t), dim)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        k = np.clip(np.floor(t / self.h).astype(int), 0, self.n)
        s = t - k * self.h
        powers = s[:, None] ** np.arange(_TAYLOR_ORDER + 1)[None, :]
        # sum_j s^j M^j/j! y_k
        step = np.einsum("nj,jab->nab", powers, self._taylor)
        return np.einsum("nab,nb->na", step, self.y[k])

    def component_at(self, t, c: int) -> np.ndarray:
        return self.at(t)[:, c]

    def zeros(self, c: int, t_lo: float = 0.0, t_hi: float | None = None) -> np.ndarray:
        """Sign changes of component c on the grid inside (t_lo, t_hi], bisected."""
        v = self.y[:, c]
        idx = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
        lo, hi = self.t[idx], self.t[idx + 1]
        flo = v[idx]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = self.component_at(mid, c) if mid.size else mid
            left = np.sign(fm) == np.sign(flo)
            lo = np.where(left, mid, lo)
            flo = np.where(left, fm, flo)
            hi = np.where(left, hi, mid)
        roots = 0.5 * (lo + hi)
        t_hi = self.t[-1] if t_hi is None else t_hi
        return roots[(roots > t_lo) & (roots <= t_hi)]


def _propagate(m: np.ndarray, y0: np.ndarray, h: float, n: int) -> np.ndarray:
    """y_k = expm(M h)^k y0 for k = 0..n, in blocks of precomputed powers."""
    p = expm(m * h)
    block = 128
    powers = np.empty((block,) + p.shape)
    powers[0] = np.eye(p.shape[0])
    for j in range(1, block):
        powers[j] = powers[j - 1] @ p
    p_block = powers[-1] @ p
    out = np.empty((n + 1, p.shape[0]))
    y = y0
    for start in range(0, n + 1, block):
        stop = min(start + block, n + 1)
        out[start:stop] = (powers[: stop - start] @ y)
        y = p_block @ y
    return out


# ---------------------------------------------------------------------------
# boundary curves
# ---------------------------------------------------------------------------

def green_curve(gamma_w: float) -> float:
    return math.sqrt(gamma_w * (9.0 - 4.0 * gamma_w)) / 6.0


def blue_curve(gamma_w: float) -> float:
    """Largest real kappa^2 root of the discriminant of the characteristic cubic."""
    k2 = Polynomial([0.0, 1.0])
    a = 2.0 * gamma_w
    b = 4.0 * k2 + 2.0 * gamma_w
    c = 8.0 * gamma_w * k2
    disc = 18.0 * a * b * c - 4.0 * a**3 * c + a**2 * b**2 - 4.0 * b**3 - 27.0 * c**2
    roots = disc.roots()
    # at the join the two largest roots merge; rounding leaves a tiny imaginary part
    real = roots[np.abs(np.imag(roots)) < 1e-6 * max(1.0, float(np.max(np.abs(roots))))]
    return math.sqrt(float(np.max(np.real(real))))


def divergence_curve(gamma_w: float) -> float:
    return green_curve(gamma_w) if gamma_w <= GREEN_BLUE_JOIN else blue_curve(gamma_w)


def _first_gp_maximum(gamma_w: float, kappa: float, t_scan: float = 60.0):
    """(t, g'(t), g''(t)) at the second sign change of g'' (first interior max of g')."""
    ig = IndependentG(gamma_w, kappa, t_scan, 0.01)
    z = ig.zeros(2)
    if z.size < 2:
        return None
    y = ig.at(z[1])[0]
    return float(z[1]), float(y[1]), float(y[2])


# ---------------------------------------------------------------------------
# phase_diagram
# ---------------------------------------------------------------------------

def critical_backflow(ig: IndependentG, t_max: float, dt: float):
    """(exact N_total, grid-resolution tolerance) from the critical points of |g|.

    N_total is the sum of the rises of |g| between consecutive critical
    points (zeros of g and of g').  A grid of step dt undershoots each peak
    or dip of |g| by at most |g''| dt^2 / 8 and each zero of g by at most
    |g'| dt / 2; the tolerance doubles their sum.
    """
    zg = ig.zeros(0, 0.0, t_max)
    zgp = ig.zeros(1, 0.0, t_max)
    pts = np.concatenate([[0.0], zg, zgp, [t_max]])
    pts.sort()
    absg = np.abs(ig.at(pts)[:, 0])
    exact = float(np.sum(np.maximum(np.diff(absg), 0.0)))
    tol = 0.0
    if zgp.size:
        tol += float(np.sum(np.abs(ig.at(zgp)[:, 2]))) * dt * dt / 8.0
    if zg.size:
        tol += float(np.sum(np.abs(ig.at(zg)[:, 1]))) * dt / 2.0
    return exact, 2.0 * tol + 1e-10


def check_sweep_cells(cells: list[dict], t_max: float, dt: float, sample: list[int]) -> list[str]:
    """Region, first-divergence and N_total checks of classified sweep cells.

    cells: dicts with gamma_w, kappa, region, t_first, n_total.  sample:
    indices of the NM_DIV cells whose first divergence time is checked.
    """
    errors = []
    samples = set(sample)
    for i, c in enumerate(cells):
        gw, k, region = c["gamma_w"], c["kappa"], c["region"]
        where = f"cell ({gw:.6g}, {k:.6g})"
        if region not in ("M", "NM_DIV", "NM_NODIV"):
            errors.append(f"{where}: region {region!r}")
            continue
        curve = divergence_curve(gw)
        if abs(k - curve) > 0.01 and (region == "NM_DIV") != (k > curve):
            errors.append(f"{where}: {region} but kappa {'above' if k > curve else 'below'} "
                          f"the divergence curve {curve:.6g}")
        if gw > GREEN_BLUE_JOIN and region == "NM_NODIV":
            errors.append(f"{where}: NM_NODIV above gamma_w = 27/16")
        if (region == "NM_DIV") != (c["t_first"] is not None):
            errors.append(f"{where}: t_first_divergence {c['t_first']} with region {region}")
        ig = IndependentG(gw, k, t_max + 1.0, dt)
        exact, tol = critical_backflow(ig, t_max, dt)
        if not (exact - tol <= c["n_total"] <= exact + 1e-9):
            errors.append(f"{where}: N_total {c['n_total']!r} outside "
                          f"[{exact - tol!r}, {exact + 1e-9!r}]")
        if i in samples and c["t_first"] is not None:
            t1 = c["t_first"]
            delta = 1e-6 * max(1.0, t1)
            before, after = ig.component_at([t1 - delta, t1 + delta], 0)
            early = ig.g[ig.t < t1 - delta]
            if not (before > 0.0 > after) or np.any(early <= 0.0):
                errors.append(f"{where}: independent g does not first change sign at "
                              f"t = {t1!r} (g = {before:.3g}, {after:.3g})")
    return errors


def check_boundaries(rows: list[dict]) -> tuple[list[str], int]:
    """Checks of the boundaries recipe; returns (errors, rows that failed).

    rows: dicts with gamma_w, green, blue, tangency (None when empty).  A
    row without a tangency value below 27/16 is done when g' already has a
    positive lobe four decades of kappa below the green curve (no Markov
    region there); otherwise it is a failed operation.
    """
    errors, failed = [], 0
    for r in rows:
        gw = r["gamma_w"]
        where = f"boundary row gamma_w = {gw:.6g}"
        want_green = green_curve(gw) if 0.0 < gw <= 2.25 else None
        want_blue = blue_curve(gw) if GREEN_BLUE_JOIN <= gw <= 3.0 else None
        for key, want in (("green", want_green), ("blue", want_blue)):
            got = r[key]
            if (got is None) != (want is None) or (
                want is not None and abs(got - want) > 1e-9 * max(1.0, want)
            ):
                errors.append(f"{where}: {key} {got!r}, independent {want!r}")
        if not (0.0 < gw < GREEN_BLUE_JOIN):
            if r["tangency"] is not None:
                errors.append(f"{where}: tangency value outside (0, 27/16)")
            continue
        k_star = r["tangency"]
        if k_star is None:
            lobe = _first_gp_maximum(gw, green_curve(gw) / 1e4)
            if lobe is None or lobe[1] <= 0.0:
                failed += 1
            continue
        if not (0.0 < k_star < green_curve(gw)):
            errors.append(f"{where}: tangency kappa {k_star!r} not below the green curve")
            continue
        top = _first_gp_maximum(gw, k_star)
        if top is None or abs(top[1]) > 1e-6 or abs(top[2]) > 1e-6:
            errors.append(f"{where}: at kappa* = {k_star!r} the independent g' peak is {top}")
    return errors, failed


# ---------------------------------------------------------------------------
# qsd_ensemble
# ---------------------------------------------------------------------------

def check_ensemble(gamma_w: float, kappa: float, theta: float, t_max: float, dt: float,
                   omega: float, n_traj: int, rho_ee, rho_eg, mean_norm: float,
                   stderr_norm: float) -> list[str]:
    """Monte-Carlo mean against rho_ee0 g^2 and rho_eg0 e^{-i w t} g (5/sqrt(N) band)."""
    errors = []
    ig = IndependentG(gamma_w, kappa, t_max, dt)
    ts, g = ig.t, ig.g
    ree0 = math.cos(theta / 2.0) ** 2
    reg0 = math.cos(theta / 2.0) * math.sin(theta / 2.0)
    rho_ee, rho_eg = np.asarray(rho_ee), np.asarray(rho_eg)
    if rho_ee.shape != ts.shape or rho_eg.shape != ts.shape:
        return [f"ensemble series has {rho_ee.shape} samples, expected {ts.shape}"]
    dev = max(
        float(np.max(np.abs(rho_ee - ree0 * g**2))),
        float(np.max(np.abs(rho_eg - reg0 * np.exp(-1j * omega * ts) * g))),
    )
    band = 5.0 / math.sqrt(n_traj)
    if not dev <= band:
        errors.append(f"ensemble deviation {dev:.4g} exceeds 5/sqrt(N) = {band:.4g}")
    if not abs(mean_norm - 1.0) <= 5.0 * stderr_norm:
        errors.append(f"mean final |psi|^2 = {mean_norm!r} not within 5 stderr "
                      f"({stderr_norm:.3g}) of 1")
    return errors


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def parse_series_csv(text: str) -> tuple[str, dict]:
    """(header line, column name -> float array with NaN for empty fields)."""
    lines = text.split("\n")
    header = lines[0]
    names = header.split(",")
    body = [ln for ln in lines[1:] if ln]
    cols = {n: np.empty(len(body)) for n in names}
    for i, ln in enumerate(body):
        for n, f in zip(names, ln.split(",")):
            cols[n][i] = float(f) if f else math.nan
    return header, cols


def check_series(recipe: dict, header: str, cols: dict, manifest: dict) -> list[str]:
    """Shape, g, Im beta, N_t, Bloch-vector, QFI and root-time checks of one output.

    recipe: subcommand, gamma_w (inf for markov-limit), kappa, theta, t_max, dt.
    """
    errors = []
    name = recipe["label"]
    if header != SERIES_HEADER:
        errors.append(f"{name}: header {header!r}")
        return errors
    n_rows = int(round(recipe["t_max"] / recipe["dt"])) + 1
    t = cols["t"]
    if t.size != n_rows:
        return [f"{name}: {t.size} rows, expected {n_rows}"]
    ig = IndependentG(recipe["gamma_w"], recipe["kappa"], recipe["t_max"], recipe["dt"])
    if not np.allclose(t, ig.t, rtol=0.0, atol=1e-9):
        errors.append(f"{name}: t column is not the uniform grid")
    g = cols["g"]
    sub = recipe["subcommand"]
    if sub != "qfi":
        err = float(np.max(np.abs(g - ig.g)))
        if not err <= 1e-8:
            errors.append(f"{name}: g column differs from the independent g by {err:.3g}")
    if sub == "phase":
        cth = math.cos(recipe["theta"])
        away = np.abs(g) > 1e-6
        phase = np.exp(1j * t)
        eta = (g * (1.0 + cth) + (1.0 - cth) * phase) / (g * (1.0 - cth) + (1.0 + cth) * phase)
        with np.errstate(divide="ignore"):
            want = 0.5 * (cth * np.log(np.abs(g)) - np.log(np.abs(eta)))
        diff = np.abs(cols["beta_im"] - want)[away]
        if not np.all(diff <= 1e-9 * (1.0 + np.abs(want[away]))):
            errors.append(f"{name}: Im beta off the closed form by {np.nanmax(diff):.3g}")
        errors += _check_root_times(name, ig, manifest.get("divergence_times"), recipe["t_max"])
    if sub == "nonmarkov":
        nt = cols["Nt"]
        if not np.all(np.diff(nt) >= 0.0) or nt[0] != 0.0:
            errors.append(f"{name}: N_t is not non-decreasing from 0")
    if sub == "dynamics":
        r2 = cols["sx"] ** 2 + cols["sy"] ** 2 + cols["sz"] ** 2
        if not np.all(r2 <= 1.0 + 1e-12):
            errors.append(f"{name}: Bloch vector longer than 1 ({np.max(r2)!r})")
    if sub == "qfi":
        if not np.all(cols["qfi"] >= 0.0):
            errors.append(f"{name}: negative QFI {np.min(cols['qfi'])!r}")
    if sub == "markov-limit":
        errors += _check_root_times(name, ig, manifest.get("root_times"), recipe["t_max"])
    return errors


def _check_root_times(name: str, ig: IndependentG, times, t_max: float) -> list[str]:
    """Listed times are exactly the sign changes of the independent g in (0, t_max]."""
    if times is None:
        return [f"{name}: manifest lists no root times"]
    want = ig.zeros(0, 0.0, t_max)
    if len(times) != want.size:
        return [f"{name}: manifest lists {len(times)} roots, independent g has {want.size}"]
    errors = []
    for t in times:
        delta = 1e-6 * max(1.0, t)
        lo, hi = ig.component_at([t - delta, min(t + delta, ig.t[-1])], 0)
        if not lo * hi < 0.0:
            errors.append(f"{name}: independent g does not change sign at t = {t!r}")
    return errors
