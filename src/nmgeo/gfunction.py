"""The auxiliary amplitude function g(t) and its representations.

At resonance g solves the linear third-order ODE

    g''' = -gamma_w g'' - (gamma_w Gamma_w + 2 kappa^2)/2 g' - gamma_w kappa^2 g,
    g(0) = 1,  g'(0) = 0,  g''(0) = -kappa^2,

whose modes are exp(x t / 2) with x running over the roots of

    x^3 + 2 gamma_w x^2 + (4 kappa^2 + 2 gamma_w Gamma_w) x + 8 kappa^2 gamma_w = 0.

One modal kernel evaluating g for every parameter point (the root sum, or a
confluent form near repeated roots and for the memory-less bath), its one
zero refiner (Newton on the kernel's own slopes), an independent high-order
ODE oracle, and the one scan that brackets the zeros of g and the critical
points of |g| all live here.
"""

from __future__ import annotations

import bisect
import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailure, NotResonant
from .model import GridSpec, ModelParams, TimeSeries, validate_params

ROOT_SUM = "root-sum"
MARKOV = "markov"

# largest |mode weight| of a cell evaluated as a root sum: the weights, and
# the sum's rounding, grow like 1/p'(x_i) near a repeated root (2.7e-10 at
# |w| = 88 by the triple root); the README grid's largest is 39.04
_ROOT_SUM_MAX_WEIGHT = 64.0
# terms of the confluent form's series; the first left out is < 1e-18 of its first
_TAYLOR_TERMS = 20
# factor on the bound of the modes a dominant mode must outweigh: a margin
# far above the kernel's rounding, at a cost of ln(1.01)/gap in time
_DOMINANCE_SLACK = 1.01
# scan points evaluated at once: their temporaries stay in the CPU cache and
# below the allocator's mmap threshold (glibc may still trim the heap top
# after a chunk, so the next can fault in fresh pages: about 1,300-2,500
# minor faults in a sweep of the 30 x 30 README sub-grid at t_max = 200)
_SCAN_CHUNK = 2**12
# most steps of a scan grid: node counts stay within int64 (a larger grid is refused)
_MAX_SCAN_STEPS = 2.0**62
# points (scanned grid nodes and phase brackets) one block of scanned cells
# holds; bounds a sweep's memory
_BLOCK_POINTS = 2**15


def cubic_coefficients(p: ModelParams) -> np.ndarray:
    """Monic coefficients [1, 2 gw, 4 k^2 + 2 gw Gw, 8 k^2 gw] of the characteristic cubic."""
    return _cubic_rows(p.kappa**2, p.gamma_w, p.Gamma_w)


def _cubic_rows(k2, gamma_w, Gamma_w) -> np.ndarray:
    """cubic_coefficients of each point of the arrays k2 = kappa**2, gamma_w, Gamma_w, one row each.

    k2 comes from Python's float power, libm's pow, as in cubic_coefficients:
    numpy's square, kappa * kappa, differs from it in the last bit at some
    points.
    """
    rows = np.empty(np.shape(k2) + (4,))
    rows[..., 0] = 1.0
    rows[..., 1] = 2.0 * gamma_w
    rows[..., 2] = 4.0 * k2 + 2.0 * gamma_w * Gamma_w
    rows[..., 3] = 8.0 * k2 * gamma_w
    return rows


def cubic_roots(p: ModelParams) -> np.ndarray:
    """Roots of the characteristic cubic, sorted by (real, imag).

    Complex roots come out as an exact conjugate pair.  Requires resonant
    parameters; kappa = 0 is allowed (roots 0 and the free-cavity pair).
    """
    _check_cubic(p)
    return _stacked_roots(cubic_coefficients(p)[None])[0]


def _check_cubic(p: ModelParams):
    validate_params(p)
    if not p.resonant():
        raise NotResonant("characteristic cubic is derived at omega == omega_c == Omega_w")


def _stacked_roots(coeffs: np.ndarray) -> np.ndarray:
    """cubic_roots of the monic cubics with the (finite) rows of coeffs, one row each.

    Each row's values are np.roots' and two np.polyval Newton steps', bit
    for bit, whatever rows are solved with it: one np.linalg.eigvals call
    per companion size takes every row's companion matrix, and the rest
    is elementwise.
    """
    roots = _companion_eigvals(coeffs[:, 1:]).astype(complex)
    # np.roots drops zero trailing coefficients (kappa = 0) from the
    # companion matrix and appends their exact roots 0
    trimmed = np.nonzero(coeffs[:, 3] == 0.0)[0]
    if trimmed.size:
        two = coeffs[trimmed, 2] != 0.0
        for s, rows in ((2, trimmed[two]), (1, trimmed[~two])):
            roots[rows] = 0.0
            roots[rows, :s] = _companion_eigvals(coeffs[rows, 1 : s + 1])
    # Newton polish: companion eigenvalues are good to ~1e-12 relative; two
    # steps push residuals to rounding so exp(x t / 2) stays accurate at large t.
    # Horner in np.polyval's order of operations (so the roots round as with
    # it), on the cubic and, together, on its derivative [0, 3, 2 c1, c2] (a
    # leading 0 leaves its values as they are); each coefficient spread over
    # its row, as the complex value np.polyval adds
    horner = np.zeros((4, 2, *roots.shape), dtype=complex)
    horner[:, 0] = coeffs.T[:, :, None]
    horner[1, 1] = 3.0
    horner[2, 1] = 2.0 * coeffs[:, 1:2]
    horner[3, 1] = coeffs[:, 2:3]
    for _ in range(2):
        v = np.zeros(horner.shape[1:], dtype=complex)
        for c in horner:
            v = v * roots + c
        ok = np.abs(v[1]) > 0
        roots = np.where(ok, roots - v[0] / np.where(ok, v[1], 1.0), roots)
    # three real roots lose their rounding's imaginary parts; a complex pair
    # next to the real root becomes the exact conjugate pair of the mean of
    # the first of them and the second's conjugate
    scale = np.fmax(np.abs(roots).max(axis=1), 1.0)
    imag = np.abs(roots.imag) > 1e-10 * scale[:, None]
    count = imag.sum(axis=1)
    out = np.where((count == 0)[:, None], roots.real, roots)
    pair = np.nonzero(count == 2)[0]
    if pair.size:
        x = roots[pair[:, None], np.argsort(imag[pair], axis=1, kind="stable")]
        mean = 0.5 * (x[:, 1] + np.conj(x[:, 2]))
        out[pair] = np.array([x[:, 0].real, mean, np.conj(mean)]).T
    # sorted by (real, imag); stable, as np.lexsort is, for equal values
    return np.sort(out, axis=1, kind="stable")


def _companion_eigvals(c: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrices of the monic polynomials with
    the coefficients c[i] after the leading 1: np.roots' matrices, one
    np.linalg.eigvals call."""
    m, s = c.shape
    companion = np.zeros((m, s, s))
    companion[:, 0] = -c
    companion.reshape(m, s * s)[:, s :: s + 1] = 1.0  # the subdiagonal
    return np.linalg.eigvals(companion)


@dataclass
class GSolution:
    """Evaluatable representation of g, g', g'': one cell of the modal kernel
    _solve_each builds.

    method is ROOT_SUM (characteristic roots and mode weights of the cubic)
    or MARKOV (gamma_w = inf, the memory-less two-mode equation).  Either is
    evaluated by _ModalCells, which keeps the root sum where its weights are
    small and switches to the confluent form near repeated roots.  roots and
    weights are read from the kernel, None for a Markov bath.
    """

    params: ModelParams
    method: str
    _cells: _ModalCells

    @property
    def roots(self) -> np.ndarray | None:
        return None if self.method == MARKOV else self._cells.roots[:, 0]

    @property
    def weights(self) -> np.ndarray | None:
        return None if self.method == MARKOV else self._cells.weights[:, 0]

    @property
    def confluent(self) -> bool:
        """True where _ModalCells takes the confluent form: a Markov bath, or a
        root sum with a weight above _ROOT_SUM_MAX_WEIGHT (or not finite)."""
        return bool(self._cells._confluent[0])

    def eval(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g, g', g'') at times t (scalar or array), as arrays shaped like t.

        Every value is computed elementwise by _ModalCells, so it does not
        depend on the times evaluated with it.  At t = inf, the limits: g' =
        g'' = 0, and g = 1 at kappa = 0 (the zero root's weight), else 0.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        at_inf = t == math.inf
        if at_inf.any():  # the kernel's 0 * inf terms would give NaN there
            g, gp, gpp = self.eval(np.where(at_inf, 0.0, t))
            g[at_inf], gp[at_inf], gpp[at_inf] = self.params.kappa == 0.0, 0.0, 0.0
            return g, gp, gpp
        g, gp, gpp = self._cells.eval(t.ravel())
        return g.reshape(t.shape), gp.reshape(t.shape), gpp.reshape(t.shape)

    def g(self, t) -> np.ndarray:
        return self.eval(t)[0]


def solve_g(p: ModelParams) -> GSolution:
    """Build the g(t) representation for resonant parameters.

    Finite gamma_w gives the characteristic roots and their mode weights
    (ROOT_SUM), gamma_w = inf the memory-less equation (MARKOV).  Weights
    that blow up at a repeated root are not used: _ModalCells evaluates
    such a cell in the confluent form.
    """
    errors, cells = _solve_each([p])
    if errors[0] is not None:
        raise errors[0]
    return GSolution(p, MARKOV if p.is_markov_limit else ROOT_SUM, cells)


def _solve_each(points: list[ModelParams]) -> tuple[list, _ModalCells]:
    """(errors, cells): each point's error, None or the exception solve_g
    raises there, and one _ModalCells of the points solved, in their order.

    The root sums' cubics are solved together by _stacked_roots and their
    weights computed together, elementwise.  A cubic with a non-finite
    coefficient is refused by np.linalg.eigvals.  The stacked arithmetic
    warns of nothing: a cell whose values overflow gets inf or NaN columns
    of its own, and the scan refuses it (_scan_blocks).
    """
    errors: list = []
    rows = []  # (kappa, kappa**2, gamma_w, Gamma_w) of each point solved
    with np.errstate(all="ignore"):
        for p in points:
            try:
                if p.is_markov_limit:
                    validate_params(p)
                    k2 = np.float64(p.kappa) ** 2  # libm's pow too, but inf past overflow
                else:
                    _check_cubic(p)  # validates p first
                    # Python's float power, as cubic_coefficients squares (it
                    # raises OverflowError where kappa**2 overflows)
                    k2 = p.kappa**2
            except Exception as exc:  # the point's result: solve_g raises it there
                errors.append(exc)
                continue
            errors.append(None)
            rows.append((p.kappa, k2, p.gamma_w, p.Gamma_w))
        kappa, k2, gw, Gw = np.array(rows, dtype=float).reshape(-1, 4).T
        coeffs = _cubic_rows(k2, gw, Gw)  # a Markov bath's row is not used
        refused = ~np.isinf(gw) & ~np.isfinite(coeffs).all(axis=1)
        if refused.any():
            try:
                _stacked_roots(coeffs[refused])
            except np.linalg.LinAlgError as exc:  # each refused cubic's error
                for c in np.flatnonzero([e is None for e in errors])[refused]:
                    errors[c] = exc
            kappa, k2, gw, Gw, coeffs = (a[~refused] for a in (kappa, k2, gw, Gw, coeffs))
        # a Markov bath's roots, and so its weights, are NaN: _ModalCells takes it confluent
        roots = np.full((kappa.size, 3), math.nan, dtype=complex)
        sums = ~np.isinf(gw)
        if sums.any():
            roots[sums] = _stacked_roots(coeffs[sums])
        shared, square = 2.0 * gw[:, None] * Gw[:, None], roots**2
        num = shared + 2.0 * roots * gw[:, None] + square
        den = 4.0 * k2[:, None] + shared + 4.0 * roots * gw[:, None] + 3.0 * square
        # g = 1 at kappa = 0: all weight on the exact root 0, none left to rounding
        weights = np.where((kappa == 0.0)[:, None] & sums[:, None], roots == 0.0, num / den)
        return errors, _ModalCells(kappa, k2, gw, Gw, roots, weights)


class _ModalCells:
    """g, g', g'' of many cells in real modal forms, evaluated at (time, cell) pairs.

    A root-sum cell whose weights are all at most _ROOT_SUM_MAX_WEIGHT holds

        g = w0 e^{r0 t} + e^{r1 t} (A cos(b t) + B sin(b t)) + w2 e^{r2 t}

    with r = x/2: the real root and the conjugate pair r1 +- i b (w2 = 0), or
    three real roots (b = 0, B = 0).  Any other cell, near a double or triple
    root or a Markov bath, holds the confluent form of _confluent_rows.  g'
    and g'' share each form's basis functions and differ only in their
    weights; each cell's ODE row gives g''' for the Newton slopes of refine.
    Every value is computed elementwise, so a cell's values do not depend on
    the cells held with it.  Every array it holds has the cell last; it is
    built from kappa, k2 = kappa**2 (Python's float power), gamma_w (inf for
    a Markov bath), Gamma_w and rows of roots and mode weights (NaN there).
    """

    def __init__(self, kappa, k2, gamma_w, Gamma_w, roots, weights):
        self.kappa, self.gamma_w, self.Gamma_w = kappa, gamma_w, Gamma_w
        self.roots, self.weights = roots.T, weights.T
        # rows: r0, r1, r2, b, then the weights of w0, A, B, w2 for g, g', g''
        self._params = np.zeros((16, kappa.size))
        self._ode = ode = _ode_rows(k2, gamma_w, Gamma_w)
        self._newton = np.zeros((13, kappa.size))
        self._confluent = ~np.all(np.abs(weights) <= _ROOT_SUM_MAX_WEIGHT, axis=1)
        self._any_confluent = bool(self._confluent.any())
        for c in np.flatnonzero(self._confluent):
            self._newton[:, c] = _confluent_rows(k2[c], gamma_w[c], Gamma_w[c], roots[c], ode[:, c])
        sep = np.flatnonzero(~self._confluent)
        half, weights = roots[sep] / 2.0, weights[sep]
        # weights of exp(x t/2) in g, g' and g'': derivative order, cell, mode x
        w = np.array([weights, weights * half, weights * half**2])
        # the modes of r0, r1 (and b): the real root and the root with Im > 0
        # of a pair, or the first two of three real roots
        pair = (half.imag > 0.0).any(axis=1)
        cell = np.arange(sep.size)
        r = np.where(pair, np.argmax(half.imag == 0.0, axis=1), 0)
        k = np.where(pair, np.argmax(half.imag > 0.0, axis=1), 1)
        hk, wk = half[cell, k], w[:, cell, k]
        p = np.zeros((16, sep.size))
        p[0], p[1], p[3] = half[cell, r].real, hk.real, np.where(pair, hk.imag, 0.0)
        p[4:7] = w[:, cell, r].real
        p[7:10] = np.where(pair, 2.0 * wk.real, wk.real)
        p[10:13] = np.where(pair, -2.0 * wk.imag, 0.0)
        p[[2, 13, 14, 15]] = np.where(pair, 0.0, [half[:, 2].real, *w[:, :, 2].real])
        self._params[:, sep] = p

    def take(self, cells: np.ndarray) -> _ModalCells:
        """The kernel of the cells with the indices cells alone."""
        sub = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                setattr(sub, name, value.take(cells, axis=-1))
        sub._any_confluent = bool(sub._confluent.any())
        return sub

    def dominance(self) -> tuple[np.ndarray, np.ndarray]:
        """(T, pair) per cell: past T one mode alone sets the signs of g, g', g''.

        A real-dominated cell, the slowest mode real (w0 with the pair
        decaying faster, w2 of three real roots), has that mode's term of
        g^(m), m = 0, 1, 2, above the bounds of the others: hypot(A_m, B_m)
        for the pair, |w0_m| + |A_m| for the two faster real modes, all
        decaying at least at the rate r1.  Past T neither g, g' nor g'' has
        a zero.  A pair-dominated cell (pair = True) holds g^(m) = e^{r1 t}
        (R_m cos(b t - theta_m) + eps_m) with eps_m = w0_m e^{-(r1 - r0) t}
        and R_m = hypot(A_m, B_m).  Past T, |eps_m| < R_m/2 and |eps_m'| <
        (sqrt(3)/2) R_m b for m = 0, 2, so each half-period of u = b t -
        theta_m holds one zero of g^(m), in its middle third: there
        |cos u| <= 1/2 and |sin u| >= sqrt(3)/2, and |cos u| > 1/2 elsewhere.
        Each bound carries _DOMINANCE_SLACK.  T is inf where no mode
        dominates: confluent cells, Markov baths, tied rates and zero or
        non-finite weights.
        """
        r0, r1, r2, b = self._params[:4]
        w = self._params[4:].reshape(4, 3, -1)  # basis (w0, A, B, w2), derivative order, cell
        amp = np.hypot(w[1], w[2])
        osc = b > 0.0
        gap = np.where(osc, r0, r2) - r1
        pair = osc & (gap < 0.0)
        with np.errstate(all="ignore"):  # zero or tiny weights give inf or NaN
            dom = np.abs(np.where(osc, w[0], w[3]))
            rest = np.where(osc, amp, np.abs(w[0]) + np.abs(w[1]))
            real = np.log(_DOMINANCE_SLACK * rest / dom).max(axis=0) / gap
            eps = 2.0 * _DOMINANCE_SLACK * np.abs(w[0, ::2]) / amp[::2]
            slope = np.log(-gap * eps / (math.sqrt(3.0) * b))
            settle = np.maximum(np.log(eps), slope).max(axis=0) / -gap
        settle = np.maximum(np.where(pair, settle, real), 0.0)
        settled = ~self._confluent & (gap != 0.0) & np.isfinite(settle)
        return np.where(settled, settle, np.inf), pair & settled

    def eval(self, t: np.ndarray, cell: np.ndarray | None = None):
        """(g, g', g'') at the times t[i] of the cells cell[i].

        A one-cell kernel, or cell None, takes the only cell at every time.
        """
        if not self._any_confluent:
            return self._eval_separated(t, None if self._confluent.size == 1 else cell)
        cell = np.zeros(t.size, dtype=np.intp) if cell is None else cell
        confluent = self._confluent[cell]
        out = np.empty((3, t.size))
        out[:, ~confluent] = self._eval_separated(t[~confluent], cell[~confluent])
        out[:, confluent] = self._eval_confluent(t[confluent], cell[confluent])
        return out[0], out[1], out[2]

    def slopes(self, t: np.ndarray, cell: np.ndarray, order: np.ndarray):
        """(g^(m), g^(m+1)) at the times t[i] of the cells cell[i], m = order[i] in 0, 1, 2,
        with g''' from each cell's ODE row."""
        y = self.eval(t, cell)
        y = np.array([*y, _third_derivative(*y, self._ode.take(cell, axis=1))])
        i = np.arange(t.size)
        return y[order, i], y[order + 1, i]

    def refine(self, lo, hi, cell, order) -> np.ndarray:
        """Zeros of g^(order[j]) of the cells cell[j] in [lo[j], hi[j]], refined together.

        Each bracket holds one sign change.  Newton on the slope from slopes
        starts at its left end.  A step that leaves the bracket, or has a
        zero or NaN slope, is replaced by the midpoint, and each new sign
        shrinks the bracket.  A bracket is done once its step or its width
        is below 1e-12, or its value is exactly 0.  cell and order may be
        scalars shared by every bracket.
        """
        t = lo = np.array(lo, dtype=float)
        hi, j, zeros = np.array(hi, dtype=float), np.arange(lo.size), lo.copy()
        cell, order = j * 0 + cell, j * 0 + order
        v, s = self.slopes(t, cell, order)
        neg, go = v < 0.0, v != 0.0
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero slope steps out
            for _ in range(200):
                new = t - v / s
                # before the bracket test: a converged step may land on a bracket end
                go &= ~(np.abs(new - t) < 1e-12)
                if not (j.size and go.all()):  # compact the state onto the live brackets
                    zeros[j] = t
                    if not go.any():
                        return zeros
                    j, new, lo, hi, neg, cell, order = (
                        a[go] for a in (j, new, lo, hi, neg, cell, order)
                    )
                t = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
                v, s = self.slopes(t, cell, order)
                low = (v < 0.0) == neg
                lo, hi = np.where(low, t, lo), np.where(low, hi, t)
                go = (v != 0.0) & (hi - lo >= 1e-12)
        zeros[j] = t
        return zeros

    def _eval_separated(self, t, cell):
        def rows(a, b):
            return self._params[a:b] if cell is None else self._params[a:b].take(cell, axis=1)

        e = np.exp(rows(0, 3) * t)
        bt = rows(3, 4)[0] * t
        basis = (e[0], e[1] * np.cos(bt), e[1] * np.sin(bt), e[2])
        out = rows(4, 7) * basis[0]
        for k in (1, 2, 3):
            out += rows(4 + 3 * k, 7 + 3 * k) * basis[k]
        return out[0], out[1], out[2]

    def _eval_confluent(self, t, cell):
        p = self._newton.take(cell, axis=1)
        alpha, sigma, r0, delta = p[:4]
        with np.errstate(all="ignore"):  # the branch np.where drops may overflow or be 0/0
            e, root, osc = np.exp(alpha * t), np.sqrt(np.abs(sigma)), sigma < 0.0
            # e^{alpha t} (C, S); cosh and sinh from e^{alpha t + x}, which cannot overflow
            x = root * t
            grow = 0.5 * np.exp(alpha * t + x)
            e_cos = np.where(osc, e * np.cos(x), grow * (1.0 + np.exp(-2.0 * x)))
            e_sin = np.where(osc, e * np.sin(x), -grow * np.expm1(-2.0 * x))
            e_sin = np.where(root > 0.0, e_sin / root, e * t)
            # D e^{-alpha t} = sum_m h_m t^{m+2}/(m+2)!, h_m the complete symmetric
            # polynomials of delta, +-sqrt(sigma): no cancellation where the spread
            # times t is below 1, as there is in the direct form
            series, term, h = 0.0, 0.5 * t * t, (1.0, 0.0, 0.0)
            for m in range(_TAYLOR_TERMS):
                series = series + h[0] * term
                term = term * t / (m + 3)
                h = (delta * h[0] + sigma * h[1] - delta * sigma * h[2], h[0], h[1])
            direct = (np.exp(r0 * t) - (e_cos + delta * e_sin)) / (delta * delta - sigma)
            third = np.where(np.hypot(delta, root) * t < 1.0, e * series, direct)
        w = p[4:].reshape(3, 3, -1)
        out = w[0] * e_cos + w[1] * e_sin + w[2] * third
        return out[0], out[1], out[2]


def _confluent_rows(k2, gamma_w, Gamma_w, roots, ode) -> list[float]:
    """alpha, sigma, r0, delta and the weights c0, c1, c2 of g, g', g'' in the confluent form

        g = c0 e^{alpha t} C + c1 e^{alpha t} S
            + c2 (e^{r0 t} - e^{alpha t} (C + delta S)) / (delta^2 - sigma)

    over the roots alpha +- sqrt(sigma) and r0 = alpha + delta (r = x/2),
    with C = cosh(sqrt(sigma) t), S = sinh(sqrt(sigma) t)/sqrt(sigma) (cos,
    sin for sigma < 0; S = t at 0): Newton's form in the exponential's
    divided differences.  r0 is the real root farthest from the other two;
    alpha and sigma are deflated from it with the cubic's coefficients, not
    taken from the ill-conditioned close roots.  By Putzer's formula the
    weights of g^(m), y_m, y_{m+1} - alpha y_m and y_{m+2} - 2 alpha y_{m+1}
    + (alpha^2 - sigma) y_m from g^(n)(0) = y_n, are finite whatever the
    gaps.  A Markov bath is the pair of g'' + Gamma_w g'/2 + kappa^2 g = 0:
    alpha = -Gamma_w/4, sigma = (Gamma_w^2 - 16 kappa^2)/16, c2 = 0.  From
    one cell's _ModalCells columns, numpy floats: inf or NaN past overflow.
    """
    markov = np.isinf(gamma_w)
    y = [1.0, 0.0, -k2]
    for _ in range(2):
        y.append(_third_derivative(*y[-3:], ode))
    if markov:
        alpha = r0 = -Gamma_w / 4.0
        sigma = (Gamma_w**2 - 16.0 * k2) / 16.0
    else:
        real = np.sort(roots[roots.imag == 0.0].real / 2.0)
        r0 = real[0] if real.size == 1 or real[1] - real[0] > real[2] - real[1] else real[2]
        # (r - r0)(r^2 - 2 alpha r + b0) matches the cubic in r^3, r^2 and r
        alpha = -(gamma_w + r0) / 2.0
        b0 = k2 + 0.5 * gamma_w * Gamma_w - 2.0 * alpha * r0
        sigma = alpha**2 - b0
    weights = np.zeros((3, 3))  # basis function, derivative order
    for m in range(3):
        weights[:2, m] = y[m], y[m + 1] - alpha * y[m]
        if not markov:
            weights[2, m] = y[m + 2] - 2.0 * alpha * y[m + 1] + b0 * y[m]
    return [alpha, sigma, r0, r0 - alpha, *weights.ravel()]


def _ode_rows(k2, gamma_w, Gamma_w) -> np.ndarray:
    """Rows (c0, c1, c2) with g''' = c0 g + c1 g' + c2 g'' at k2 = kappa**2, gamma_w
    and Gamma_w (columns, or one point's floats): the third-order equation, or
    for a Markov bath the derivative of g'' = -Gamma_w g'/2 - kappa^2 g."""
    return np.where(
        np.isinf(gamma_w),
        [0.0 * Gamma_w, -k2, -0.5 * Gamma_w],
        [-gamma_w * k2, -0.5 * (gamma_w * Gamma_w + 2.0 * k2), -gamma_w],
    )


def _third_derivative(g, gp, gpp, row):
    """g''' from (g, g', g'') by the ODE row (c0, c1, c2) of _ode_rows."""
    c0, c1, c2 = row
    return c2 * gpp + c1 * gp + c0 * g


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported when called: only the ODE oracles
    integrate, so importing nmgeo does not load scipy.integrate."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def g_ode_oracle(p: ModelParams, grid: GridSpec) -> TimeSeries:
    """g, g', g'' by adaptive integration (scipy's DOP853), independent of the root-sum."""
    validate_params(p)
    if not p.resonant():
        raise NotResonant("the third-order g equation holds at resonance only")
    ts, row = grid.times(), _ode_rows(p.kappa**2, p.gamma_w, p.Gamma_w)
    sol = solve_ivp(
        lambda t, y: [y[1], y[2], _third_derivative(*y, row)],
        (ts[0], ts[-1]),
        [1.0, 0.0, -p.kappa**2],
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
        t_eval=ts,
    )
    if not sol.success:
        raise IntegrationFailure(f"g integration failed: {sol.message}")
    return TimeSeries(grid, {"g": sol.y[0], "gp": sol.y[1], "gpp": sol.y[2]})


def g_markov_limit(Gamma_w: float, kappa: float, t) -> np.ndarray:
    """Memory-less-bath g(t): solve_g's at gamma_w = inf.

    exp(-Gw t/4) [Gw sinh(c t/4)/c + cosh(c t/4)] with c = sqrt(Gw^2-16 k^2),
    cos/sin for imaginary c and exp(-Gw t/4)(Gw t + 4)/4 at c = 0.
    """
    return solve_g(ModelParams(kappa=kappa, gamma_w=math.inf, Gamma_w=Gamma_w)).eval(t)[0]


def g_markov_limit_deriv(Gamma_w: float, kappa: float, t) -> np.ndarray:
    """d/dt of the memory-less g: -4 k^2 exp(-Gw t/4) sinh(c t/4)/c."""
    return solve_g(ModelParams(kappa=kappa, gamma_w=math.inf, Gamma_w=Gamma_w)).eval(t)[1]


def _scan_steps(cells: _ModalCells, t_max: float) -> np.ndarray:
    """Steps n = ceil(t_max / step) of each cell's scan grid np.linspace(0, t_max, n + 1).

    The step is 1/20 of the shortest time scale: 1/max(kappa, 1e-12), and
    1/gamma_w and 2 pi/max|Im x| over the roots x of a root sum, or 4/Gamma_w
    for a Markov bath, whose pair's period 8 pi/sqrt(16 kappa^2 - Gamma_w^2)
    is longer than 2 pi/kappa.  n is a float: inf for a zero step.
    """
    if not (t_max > 0.0):
        raise ValueError(f"t_max must be > 0, got {t_max}")
    im = np.max(np.abs(cells.roots.imag), axis=0, initial=0.0)  # NaN for a Markov bath
    with np.errstate(divide="ignore", over="ignore"):  # im = 0 does not oscillate
        rate = np.where(np.isinf(cells.gamma_w), 4.0 / cells.Gamma_w, 1.0 / cells.gamma_w)
        step = np.minimum(1.0 / np.maximum(cells.kappa, 1e-12), rate)
        step = np.minimum(step, np.where(im > 0.0, 2.0 * math.pi / im, np.inf)) / 20.0
        return np.ceil(t_max / step)


def find_g_roots(sol: GSolution, t_max: float) -> list[float]:
    """Times of sign changes of g in (0, t_max], refined by _ModalCells.refine.

    Tangential touches (no sign change) are not reported; an empty list is
    a valid result.  See _scan for the scan.
    """
    return _critical_points(sol._cells, t_max)[0][0].tolist()


def _total_rises(abs_g: np.ndarray, cell: np.ndarray, n_cells: int) -> np.ndarray:
    """N_total of each cell: the rises of |g| between its consecutive critical
    points, abs_g sorted by cell, then time, summed in time order as a running
    sum does (np.bincount adds one weight after another; np.add.reduceat pairs
    them and rounds differently)."""
    same = cell[1:] == cell[:-1]
    rises = np.maximum(np.diff(abs_g), 0.0)[same]
    return np.bincount(cell[1:][same], weights=rises, minlength=n_cells)


def _critical_points(cells: _ModalCells, t_max: float) -> list[tuple]:
    """(zeros of g in (0, t_max], critical points of |g|, |g| at each) per cell of
    a kernel, split from _scan_blocks's columns; raises the first cell's error."""
    out: list = []
    for ids, columns in _scan_blocks(cells, t_max):
        if isinstance(columns, Exception):
            raise columns
        zeros, zero_cell, crit, crit_cell, abs_g = columns
        cut = np.arange(1, ids.size)
        zero_cut, crit_cut = np.searchsorted(zero_cell, cut), np.searchsorted(crit_cell, cut)
        out += zip(np.split(zeros, zero_cut), np.split(crit, crit_cut), np.split(abs_g, crit_cut))
    return out


def _scan_blocks(cells: _ModalCells, t_max: float):
    """Yield (ids, columns) over a kernel: ids the indices of cells scanned
    together, columns _scan's for them, or the exception they failed with.

    A cell whose grid has more than _MAX_SCAN_STEPS steps is refused alone.
    The others get one _scan_plan and are scanned in blocks of at most
    _BLOCK_POINTS points, _scan's nodes and phase brackets (a larger cell
    alone).  An error of t_max or of the plan is every cell's left.
    """
    live = np.arange(cells.kappa.size)
    try:
        n = _scan_steps(cells, t_max)
        fits = n <= _MAX_SCAN_STEPS
        for c in np.flatnonzero(~fits):
            yield live[c : c + 1], OverflowError(f"scan grid of {n[c]:.6g} steps exceeds 2**62")
        live, n, cells = live[fits], n[fits].astype(np.intp), cells.take(live[fits])
        plan = _scan_plan(cells, n, t_max)
        end, _, count, _ = plan
        # nodes plus phase brackets per cell, capped: a larger cell is alone in its block anyway
        size = np.minimum(end.max(axis=0) + 1 + count.sum(axis=0), _BLOCK_POINTS + 1)
    except Exception as exc:  # the error of each cell left
        yield live, exc
        return
    held, a = np.cumsum(size), 0
    while a < live.size:  # a block: the cells within _BLOCK_POINTS points of a, at least one
        b = max(a + 1, int(np.searchsorted(held, held[a] - size[a] + _BLOCK_POINTS, "right")))
        try:
            columns = _scan(cells.take(np.arange(a, b)), n[a:b], t_max, [p[:, a:b] for p in plan])
        except Exception as exc:  # the error of each cell of the block
            columns = exc
        yield live[a:b], columns
        a = b


def _scan(cells: _ModalCells, n: np.ndarray, t_max: float, plan) -> tuple[np.ndarray, ...]:
    """Columns (zeros, zero_cell, crit, crit_cell, abs_g) of the cells of a kernel,
    cell c on the grid of n[c] steps: the zeros of g in (0, t_max] and the
    critical points of |g|, each sorted by cell, then time, with |g| at each.
    plan is _scan_plan's for these cells.

    Each cell scans g and g'' on the nodes of its grid np.linspace(0,
    t_max, n + 1), in chunks of _SCAN_CHUNK samples, as far as _scan_plan
    says: to the end where one mode settles the signs of both.  Past it a
    pair-dominated cell has one zero of g^(m) in the middle third of each
    half-period of its phase, bracketed from the phase (_phase_brackets) in
    the grid step a scan would bracket.  One call of
    _ModalCells.refine refines every sign change and phase bracket, each
    with its own derivative order; a sample exactly at zero between samples
    of opposite sign is a zero itself.  g' is monotone between consecutive
    zeros of g'' (with 0 and t_max as the outer ends), so a second call
    refines its zeros bracketed there, which also catches lobes of g'
    narrower than the scan step.  The critical points are {0, zeros of g,
    zeros of g', t_max}: |g| is monotone between consecutive ones.
    """
    n_cells = n.size
    ids = np.arange(n_cells)
    end, k0, count, theta = plan

    # the scanned nodes, one cell after another, sample k at (t(k), cell(k));
    # scanned in chunks whose temporaries stay in the cache
    last = end.max(axis=0)
    first = np.cumsum(last + 1) - (last + 1)

    def cell_of(k):
        return np.searchsorted(first, k, side="right") - 1

    def grid(k):
        c = cell_of(k)
        return _node(k - first[c], n[c], t_max), c

    def before_end(k, m):
        # past a cell's end[m], its phase brackets hold the zeros of g^(m)
        c = cell_of(k)
        return k[k - first[c] < end[m, c]]

    size = int(first[-1] + last[-1] + 1)
    found: list = [[], [], [], []]  # sign changes of g, zero samples of g, then of g''
    for a in range(0, size, _SCAN_CHUNK):
        width = min(_SCAN_CHUNK, size - a)
        # two samples past the chunk, so sign changes across its end are seen once
        t, c = grid(np.arange(a, min(a + width + 2, size)))
        g, _, gpp = cells.eval(t, c)
        for m, values in enumerate((g, gpp)):
            i, k = _sign_changes(values, c)
            found[2 * m].append(a + i[i < width])
            found[2 * m + 1].append(a + k[k <= width])
    ig, kg, i2, k2 = (before_end(np.concatenate(ks), m // 2) for m, ks in enumerate(found))

    # the grid steps holding a sign change of g or g'', refined together
    i = np.concatenate([ig, i2])
    owner = cell_of(i)
    p_node, p_cell, p_order = _phase_brackets(cells, n, k0, count, theta, t_max)
    j = np.concatenate([i - first[owner], p_node])
    owner = np.concatenate([owner, p_cell])
    order = np.concatenate([np.repeat([0, 2], [ig.size, i2.size]), p_order])
    t_lo, t_hi = _node(j, n[owner], t_max), _node(j + 1, n[owner], t_max)
    z = cells.refine(t_lo, t_hi, owner, order)
    of_g = order == 0
    (tg, cg), (t2, c2) = grid(kg), grid(k2)
    zg, zg_cell = _sorted_by_cell([z[of_g], tg], [owner[of_g], cg])
    z2, z2_cell = np.concatenate([z[~of_g], t2]), np.concatenate([owner[~of_g], c2])

    # g' between consecutive zeros of g'': monotone, so one sign change at most
    ends, end_cell = _sorted_by_cell(
        [np.zeros(n_cells), z2, np.full(n_cells, t_max)], [ids, z2_cell, ids]
    )
    gp_ends = cells.eval(ends, end_cell)[1]
    # g'(0) = 0 by the initial condition; a rounded root sum there would
    # bracket a spurious zero of g' next to t = 0
    gp_ends[ends == 0.0] = 0.0
    j, k1 = _sign_changes(gp_ends, end_cell)
    zp = cells.refine(ends[j], ends[j + 1], end_cell[j], 1)

    crit, crit_cell = _sorted_by_cell(
        [np.zeros(n_cells), zg, zp, ends[k1], np.full(n_cells, t_max)],
        [ids, zg_cell, end_cell[j], end_cell[k1], ids],
    )
    return zg, zg_cell, crit, crit_cell, np.abs(cells.eval(crit, crit_cell)[0])


def _scan_plan(cells: _ModalCells, n: np.ndarray, t_max: float):
    """Where _scan stops scanning each cell, and its phase brackets past that.

    Returns (end, k0, count, theta), one row per derivative order m of g
    and g'' and one column per cell: the scan's sign changes of g^(m) are
    used up to grid node end[m] (end = n scans the whole grid).  Past it,
    count[m] half-periods [k pi, (k + 1) pi] of u = b t - theta[m], k from
    k0[m] on, each hold one zero of g^(m) in their middle third
    (_ModalCells.dominance).  A real-dominated cell scans to the first node
    at or after T.  A pair-dominated one scans to a node past T + step
    outside the middle thirds, past the end of the third it would stop in:
    a zero of g^(m) up to that node is the scan's, a later one lies in a
    middle third that begins after it.
    """
    step = t_max / n
    settle, pair = cells.dominance()
    b = cells._params[3]
    w = cells._params[4:].reshape(4, 3, -1)[:, ::2]
    theta = np.arctan2(w[2], w[1])
    with np.errstate(all="ignore"):  # b = 0 off the pair-dominated cells, T = inf where unsettled
        end = np.minimum(np.ceil(settle / step), n)
        u = b * (end + 1.0) * step - theta
        third = u - math.pi * np.floor(u / math.pi)
        inside = (math.pi / 3.0 <= third) & (third <= 2.0 * math.pi / 3.0)
        beyond = np.floor((u - third + 2.0 * math.pi / 3.0 + theta) / b / step) + 1.0
        past = np.minimum(np.where(inside, beyond, end + 1.0), n)
        k0 = np.floor((b * past * step - theta - math.pi / 3.0) / math.pi) + 1.0
        count = np.ceil((b * t_max - theta - math.pi / 3.0) / math.pi) - k0
    end = np.where(pair, past, end).astype(np.intp)
    count = np.where(pair & (end < n), np.maximum(count, 0.0), 0.0).astype(np.intp)
    return end, k0, count, theta


def _phase_brackets(cells: _ModalCells, n, k0, count, theta, t_max: float):
    """(node, cell, order) of the grid steps [node, node + 1] holding the zeros
    of g^(order) in the half-periods of _scan_plan.

    In half-period k, g^(m) = e^{r1 t} (R cos u + eps) with |eps| at most
    its bound E at the half-period's start, so the zero lies where |cos u|
    <= E/R <= 1/2, around u = k pi + pi/2, and g^(m) has the sign (-1)^k
    before that window and the other after it.  The window is widened to
    the grid nodes around it and halved over its nodes on the sign of
    g^(m): the grid step found is the one a scan would bracket, so the
    refined zero is the scan's.  A node exactly at zero is the zero itself,
    as in the scan.  The last window may reach past t_max: clipped there,
    it holds a zero only where the sign at t_max differs.
    """
    counts = count.ravel()
    flat = np.repeat(np.arange(counts.size), counts)  # (order row, cell) of each bracket
    row, cell = np.divmod(flat, count.shape[1])
    k = k0.ravel()[flat] + (np.arange(flat.size) - (np.cumsum(counts) - counts)[flat])
    order, nc = 2 * row, n[cell]
    r0, r1, b = cells._params[[0, 1, 3]][:, cell]
    w = cells._params[4:].reshape(4, 3, -1)[:, order, cell]  # basis (w0, A, B), bracket
    bt = theta.ravel()[flat] + k * math.pi  # b t at the half-period's start
    # |eps| at the start or at t = 0, whichever is later: the window lies past T >= 0
    decay = np.exp((r0 - r1) * np.maximum(bt / b, 0.0))
    ratio = _DOMINANCE_SLACK * np.abs(w[0]) * decay / np.hypot(w[1], w[2])
    half = np.arcsin(np.minimum(ratio, 0.5)) + 1e-6  # and past the rounding of u
    step = t_max / nc * b  # grid step in b t
    lo = np.floor((bt + 0.5 * math.pi - half) / step)
    hi = np.minimum(np.ceil((bt + 0.5 * math.pi + half) / step), nc)
    s_lo = 1.0 - 2.0 * (k % 2.0)
    s_hi = -s_lo

    def sign(j, i):
        """Sign of g^(order) at node j of the brackets i."""
        y = cells.eval(_node(j, nc[i], t_max), cell[i])
        return np.sign(np.where(order[i] == 0, y[0], y[2]))

    cut = np.nonzero(hi == nc)[0]
    if cut.size:
        s_hi[cut] = sign(hi[cut], cut)
    keep = s_lo * s_hi < 0.0
    lo, hi, s_lo, s_hi, cell, order, nc = (
        a[keep] for a in (lo, hi, s_lo, s_hi, cell, order, nc)
    )
    live = np.nonzero(hi - lo > 1.0)[0]
    while live.size:
        mid = np.floor(0.5 * (lo[live] + hi[live]))
        s = sign(mid, live)
        right = s == s_lo[live]
        lo[live] = np.where(right, mid, lo[live])
        hi[live], s_hi[live] = np.where(right, hi[live], mid), np.where(right, s_hi[live], s)
        live = live[hi[live] - lo[live] > 1.0]
    return np.where(s_hi == 0.0, hi, lo).astype(np.intp), cell, order


def _node(j, n, t_max: float):
    """Time of node j of the grid np.linspace(0, t_max, n + 1): j t_max/n, t_max at j = n."""
    return np.where(j == n, t_max, j * (t_max / n))


def _sign_changes(values: np.ndarray, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where values, sampled in order per cell, change sign within one cell.

    Returns the indices i whose sign differs from that at i + 1, and the
    indices k of samples exactly at zero between neighbours of opposite
    sign.
    """
    sign = np.sign(values)
    same = cell[:-1] == cell[1:]
    i = np.nonzero((sign[:-1] * sign[1:] < 0.0) & same)[0]
    k = 1 + np.nonzero(
        (sign[1:-1] == 0.0) & (sign[:-2] * sign[2:] < 0.0) & same[:-1] & same[1:]
    )[0]
    return i, k


def _sorted_by_cell(times: list, cells: list) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated times and their cells, sorted by cell, then time."""
    t, c = np.concatenate(times), np.concatenate(cells)
    order = np.lexsort((t, c))
    return t[order], c[order]


def markov_root_times(delta: float, n_max: int) -> list[float]:
    """First n_max positive zeros of the memory-less g for kappa = 1/4 + delta, Gamma_w = 1.

    Merges the two families
        t = 2 sqrt(2) (n pi - atan(phi))   / sqrt(delta (2 delta + 1))
        t = 2 sqrt(2) (n pi + atan(1/phi)) / sqrt(delta (2 delta + 1)),
    phi = sqrt(2) delta / sqrt(delta (2 delta + 1)).
    """
    if not (delta > 0.0):
        raise ValueError(f"delta must be > 0, got {delta}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    s = math.sqrt(delta * (2.0 * delta + 1.0))
    phi = math.sqrt(2.0) * delta / s
    pref = 2.0 * math.sqrt(2.0) / s
    times: list[float] = []
    # each family contributes one root per period; n_max+2 covers interleaving
    for n in range(n_max + 3):
        for t in (pref * (n * math.pi - math.atan(phi)), pref * (n * math.pi + math.atan(1.0 / phi))):
            if t > 0.0:
                bisect.insort(times, t)
    return times[:n_max]
