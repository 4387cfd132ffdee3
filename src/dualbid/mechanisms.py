"""Auction mechanism models and the table that evaluates them.

A mechanism couples an auction format (first or second price, with an
optional reserve) to a model of the highest competing bid.  From those two
ingredients it derives the quantities every other part of the system is
built on: the win probability ``G(b)``, the expected cost ``H(b)``, their
derivatives ``g`` and ``h``, the first-price markup ``b + G/g``, and
realized auction outcomes.

Competing bids come in three flavours:

* ``LognormalBids(mu, sigma)`` -- heavy-tailed market, closed forms available.
* ``UniformBids(lo, hi)`` -- bounded support, closed forms available.
* ``EmpiricalBids(samples)`` -- step CDF from observed bids; the density is
  kernel-smoothed so that ``g`` and ``h`` exist.

All of that math lives in ``MechanismTable``: many mechanisms as parallel
arrays, evaluated on whole arrays of bids.  ``win_prob``, ``expected_cost``
and the other per-mechanism functions are one-row views of it, accepting a
scalar bid or a numpy array of bids and returning the matching shape.
Nothing here holds random state: outcome simulation takes the uniform draw
as an argument, and ``MechanismTable.quantile`` maps uniform draws to
competing bids (through ``ndtri``, a numpy normal quantile, on lognormal
rows).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from importlib import machinery, util
from pathlib import Path

import numpy as np

FIRST_PRICE = "first_price"
SECOND_PRICE = "second_price"

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class MechanismError(ValueError):
    """Invalid mechanism parameters or bid outside the operation's domain."""


class UnsupportedPointError(MechanismError):
    """Density requested where the bid model has an atom (degenerate sample)."""


def _as_array(b):
    arr = np.asarray(b, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


# Wichura's AS241 (PPND16; Applied Statistics 37, 1988), highest power first:
# (numerator, denominator) of the rational approximations in q = p - 1/2 for
# |q| <= 0.425 and in r = sqrt(-ln min(p, 1 - p)) for r <= 5 and beyond.
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)  # fmt: skip
_AS241_NEAR_TAIL = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
     4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.05075007164441684324e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
     2.0531916266377588219e0, 1.0),
)  # fmt: skip
_AS241_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)  # fmt: skip


def _horner(coefficients, x):
    """The polynomial at x by Horner's rule in place, each step rounded as
    np.polyval rounds it."""
    y = x * coefficients[0]
    for c in coefficients[1:-1]:
        y += c
        y *= x
    y += coefficients[-1]
    return y


def _rational(coefficients, x, scale=1.0):
    """scale * num(x) / den(x); scale multiplies the numerator before the
    division, as AS241 orders it."""
    num, den = (_horner(c, x) for c in coefficients)
    return scale * num / den


def ndtri(p):
    """Standard normal quantile, the inverse of Phi, by Wichura's AS241.

    Agrees with scipy.special.ndtri to 4e-15 relative on [1e-300, 1 - 1e-16]
    (tests/test_mechanisms.py).  -inf at 0, +inf at 1, NaN outside [0, 1].
    """
    arr, scalar = _as_array(p)
    q = arr - 0.5
    out = np.empty(arr.shape)
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = _rational(_AS241_CENTRAL, 0.180625 - qc * qc, qc)
    tail = ~central
    pt = arr[tail]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        near = r <= 5.0
        x = np.empty(r.shape)
        x[near] = _rational(_AS241_NEAR_TAIL, r[near] - 1.6)
        x[~near] = _rational(_AS241_FAR_TAIL, r[~near] - 5.0)
    out[tail] = np.where(q[tail] < 0.0, -x, x)
    out[arr == 0.0] = -np.inf
    out[arr == 1.0] = np.inf
    return _ret(out, scalar)


@dataclass(frozen=True)
class LognormalBids:
    """Highest competing bid ~ Lognormal(mu, sigma)."""

    mu: float
    sigma: float

    family = "lognormal"

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise MechanismError(f"lognormal mu must be finite, got {self.mu}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise MechanismError(f"lognormal sigma must be finite and > 0, got {self.sigma}")

    def quantile(self, u):
        arr, scalar = _as_array(u)
        return _ret(_lognormal_quantile(arr, self.mu, self.sigma), scalar)

    @property
    def support_top(self) -> float:
        return math.inf


@dataclass(frozen=True)
class UniformBids:
    """Highest competing bid ~ Uniform(lo, hi) with 0 <= lo < hi."""

    lo: float
    hi: float

    family = "uniform"

    def __post_init__(self):
        if not (0 <= self.lo < self.hi < math.inf):
            raise MechanismError(
                f"uniform bounds need 0 <= lo < hi < inf, got [{self.lo}, {self.hi}]"
            )

    def quantile(self, u):
        arr, scalar = _as_array(u)
        return _ret(_uniform_quantile(arr, self.lo, self.hi), scalar)

    @property
    def support_top(self) -> float:
        return self.hi


@dataclass(frozen=True)
class EmpiricalBids:
    """Highest competing bid drawn from an observed sample.

    The CDF is the sample step function; the density is a Gaussian kernel
    estimate (Silverman bandwidth 1.06 * s * n^(-1/5)), so that g and h
    exist.  Partial expectations integrate the
    step measure exactly so that simulated outcomes match expected cost.
    """

    samples: tuple[float, ...]
    _sorted: np.ndarray = field(init=False, repr=False, compare=False)
    _cumsum: np.ndarray = field(init=False, repr=False, compare=False)
    _bandwidth: float = field(init=False, repr=False, compare=False)

    family = "empirical"

    def __post_init__(self):
        if len(self.samples) == 0:
            raise MechanismError("empirical bid model needs at least one sample")
        arr = np.sort(np.asarray(self.samples, dtype=float))
        if not (arr[0] >= 0 and np.isfinite(arr).all()):
            raise MechanismError("empirical bid samples must be finite and >= 0")
        object.__setattr__(self, "_sorted", arr)
        object.__setattr__(self, "_cumsum", np.concatenate([[0.0], np.cumsum(arr)]))
        n = len(arr)
        sd = float(np.std(arr, ddof=1)) if n > 1 else 0.0
        object.__setattr__(self, "_bandwidth", 1.06 * sd * n ** (-0.2))

    def cdf(self, b):
        arr, scalar = _as_array(b)
        idx = np.searchsorted(self._sorted, arr, side="right")
        return _ret(idx / len(self._sorted), scalar)

    def pdf(self, b):
        if self._bandwidth <= 0:
            raise UnsupportedPointError(
                "empirical bid sample is degenerate (single atom); no density exists"
            )
        arr, scalar = _as_array(b)
        z = (arr[..., None] - self._sorted) / self._bandwidth
        out = np.exp(-0.5 * z * z).sum(axis=-1) / (len(self._sorted) * self._bandwidth * _SQRT_2PI)
        return _ret(out, scalar)

    def partial_expectation(self, b):
        arr, scalar = _as_array(b)
        idx = np.searchsorted(self._sorted, arr, side="right")
        return _ret(self._cumsum[idx] / len(self._sorted), scalar)

    def quantile(self, u):
        arr, scalar = _as_array(u)
        n = len(self._sorted)
        idx = np.clip((np.clip(arr, 0.0, 1.0) * n).astype(int), 0, n - 1)
        return _ret(self._sorted[idx], scalar)

    @property
    def support_top(self) -> float:
        return float(self._sorted[-1])


CompetitorModel = LognormalBids | UniformBids | EmpiricalBids


def competitor_from_dict(spec: dict) -> CompetitorModel:
    """Build a competing-bid model from its wire format, e.g.
    ``{"family": "lognormal", "mu": 0.0, "sigma": 1.0}``."""
    try:
        family = spec["family"]
    except (KeyError, TypeError):
        raise MechanismError("competitor spec needs a 'family' field") from None
    if family == "lognormal":
        return LognormalBids(mu=float(spec["mu"]), sigma=float(spec["sigma"]))
    if family == "uniform":
        return UniformBids(lo=float(spec["lo"]), hi=float(spec["hi"]))
    if family == "empirical":
        return EmpiricalBids(samples=tuple(float(s) for s in spec["samples"]))
    raise MechanismError(f"unknown competitor family {family!r}")


def competitor_to_dict(model: CompetitorModel) -> dict:
    if isinstance(model, LognormalBids):
        return {"family": "lognormal", "mu": model.mu, "sigma": model.sigma}
    if isinstance(model, UniformBids):
        return {"family": "uniform", "lo": model.lo, "hi": model.hi}
    return {"family": "empirical", "samples": list(model.samples)}


@dataclass(frozen=True)
class MechanismSpec:
    """Auction format plus a competing-bid model; defines G, H, g, h."""

    auction_type: str
    reserve: float
    competitor: CompetitorModel

    def __post_init__(self):
        if self.auction_type not in (FIRST_PRICE, SECOND_PRICE):
            raise MechanismError(f"unknown auction type {self.auction_type!r}")
        if not (self.reserve >= 0 and math.isfinite(self.reserve)):
            raise MechanismError(f"reserve must be finite and >= 0, got {self.reserve}")

    @property
    def is_first_price(self) -> bool:
        return self.auction_type == FIRST_PRICE

    @cached_property
    def table(self) -> MechanismTable:
        """This mechanism as a one-row table."""
        return MechanismTable.from_specs([self])


@dataclass(frozen=True)
class RealizedLandscape:
    """Resolved competition for one auction: the competing clearing bid and
    the payment a winner would owe."""

    clearing_bid: float
    cost_if_won: float


# MechanismTable family codes.  Empirical and any other competing-bid models
# are evaluated through their own cdf / pdf / partial_expectation methods.
LOGNORMAL, UNIFORM, EMPIRICAL, OTHER = range(4)


def _normal_ufuncs():
    """scipy's ndtr and log_ndtr from their extension module's file alone
    (about 2 ms and 1 MB; scipy.special's __init__ costs 21 MB and 0.1-0.25 s),
    registered in sys.modules for a later import of scipy.special to reuse.
    Where the file is missing, fails to load or lacks them: scipy.special's.
    A later import does not bind the module as scipy.special's attribute
    _special_ufuncs; binding it here would need scipy.special imported, which
    this loader exists to avoid, and scipy.special.ndtr and log_ndtr are the
    very objects returned here."""
    name = "scipy.special._special_ufuncs"
    try:
        if (module := sys.modules.get(name)) is None:
            special = Path(util.find_spec("scipy").origin).parent / "special"
            paths = (special / f"_special_ufuncs{s}" for s in machinery.EXTENSION_SUFFIXES)
            path = str(next(p for p in paths if p.is_file()))
            loader = machinery.ExtensionFileLoader(name, path)
            module = util.module_from_spec(util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)
            sys.modules[name] = module
        return module.ndtr, module.log_ndtr
    except (ImportError, OSError, AttributeError, StopIteration):
        import scipy.special as module
    return module.ndtr, module.log_ndtr


def _lognormal_curves(names, b, mu, sigma):
    """The named curves of lognormal rows, all from one log of the bids; Phi
    is scipy's ndtr, loaded alone by _normal_ufuncs at a process's first
    curve or shade (about 2 ms and 1 MB).  Each curve is 0 at a bid that is
    not > 0; bids all > 0 skip that mask, which changes no value there."""
    ndtr, _ = _normal_ufuncs()

    positive = None if b.size and b.min() > 0 else b > 0
    safe = b if positive is None else np.where(positive, b, 1.0)
    ln_b = np.log(safe)
    curves = []
    for name in names:
        if name == "cdf":
            curve = ndtr((ln_b - mu) / sigma)
        elif name == "pdf":
            z = (ln_b - mu) / sigma
            curve = np.exp(-0.5 * z * z) / (safe * sigma * _SQRT_2PI)
        else:  # partial_expectation: the integral of z dF(z) from 0 to b
            curve = np.exp(mu + 0.5 * sigma**2) * ndtr((ln_b - mu - sigma**2) / sigma)
        curves.append(curve if positive is None else np.where(positive, curve, 0.0))
    return curves


def _uniform_cdf(b, lo, hi):
    return np.clip((b - lo) / (hi - lo), 0.0, 1.0)


def _uniform_pdf(b, lo, hi):
    return np.where((b >= lo) & (b <= hi), 1.0 / (hi - lo), 0.0)


def _uniform_partial_expectation(b, lo, hi):
    x = np.clip(b, lo, hi)
    return np.where(b < lo, 0.0, (x**2 - lo**2) / (2.0 * (hi - lo)))


_UNIFORM_CURVES = {
    "cdf": _uniform_cdf,
    "pdf": _uniform_pdf,
    "partial_expectation": _uniform_partial_expectation,
}


def _uniform_curves(names, b, lo, hi):
    return [_UNIFORM_CURVES[name](b, lo, hi) for name in names]


_FAMILY_CURVES = {LOGNORMAL: _lognormal_curves, UNIFORM: _uniform_curves}


def _lognormal_quantile(u, mu, sigma):
    out = np.exp(mu + sigma * ndtri(np.clip(u, 1e-300, 1.0 - 1e-16)))
    return np.where(u <= 0.0, 0.0, out)


def _uniform_quantile(u, lo, hi):
    return lo + np.clip(u, 0.0, 1.0) * (hi - lo)


_FAMILY_QUANTILES = {LOGNORMAL: _lognormal_quantile, UNIFORM: _uniform_quantile}


class MechanismTable:
    """Many mechanisms as parallel arrays, one row each.

    Columns: ``family`` (a code above), ``p1``/``p2`` ((mu, sigma) for
    lognormal rows, (lo, hi) for uniform ones), ``reserve``, the
    ``first_price`` mask, and ``model``, the index into ``models`` of the
    competing-bid object behind an empirical or other row (-1 elsewhere).
    A ``uniform`` table (one distinct spec in from_specs, kept by take) reads
    each parameter as one scalar in its curves, as a one-row table does.

    Curves take bids whose first axis runs over the rows (any further axes
    are extra bids per row); a one-row table takes bids of any shape.
    Bids are >= 0, as the one-row views below require.
    """

    def __init__(self, family, p1, p2, reserve, first_price, support_top, model, models,
                 uniform=False):  # fmt: skip
        self.family = family
        self.p1 = p1
        self.p2 = p2
        self.reserve = reserve
        self.first_price = first_price
        self.support_top = support_top
        self.model = model
        self.models = models
        self.uniform = uniform

    @classmethod
    def from_specs(cls, specs) -> MechanismTable:
        """One row per MechanismSpec.  Rows are deduplicated by value: equal
        specs are read once, and equal competing-bid models are evaluated
        once per call, however many objects carry them."""
        index: dict[MechanismSpec, int] = {}
        rows = []
        last = last_row = None
        for spec in specs:
            if spec is not last:
                last, last_row = spec, index.setdefault(spec, len(index))
            rows.append(last_row)
        models: dict[object, int] = {}
        columns = []
        for spec in index:
            comp = spec.competitor
            if isinstance(comp, LognormalBids):
                code, p1, p2, k = LOGNORMAL, comp.mu, comp.sigma, -1
            elif isinstance(comp, UniformBids):
                code, p1, p2, k = UNIFORM, comp.lo, comp.hi, -1
            else:
                code = EMPIRICAL if isinstance(comp, EmpiricalBids) else OTHER
                p1, p2, k = math.nan, math.nan, models.setdefault(comp, len(models))
            columns.append((code, p1, p2, spec.reserve, spec.is_first_price, comp.support_top, k))
        unique = [np.array(c) for c in zip(*columns)] if columns else [np.empty(0)] * 7
        family, p1, p2, reserve, first_price, top, model = unique
        table = cls(
            family.astype(int), p1.astype(float), p2.astype(float), reserve.astype(float),
            first_price.astype(bool), top.astype(float), model.astype(int), tuple(models),
            len(index) == 1,
        )  # fmt: skip
        return table.take(np.array(rows, dtype=np.intp))

    def __len__(self) -> int:
        return len(self.family)

    def take(self, rows) -> MechanismTable:
        """The table restricted to rows (an index array, mask or slice)."""
        return MechanismTable(
            self.family[rows], self.p1[rows], self.p2[rows], self.reserve[rows],
            self.first_price[rows], self.support_top[rows], self.model[rows], self.models,
            self.uniform,
        )  # fmt: skip

    @cached_property
    def first_price_rows(self) -> tuple[np.ndarray, MechanismTable]:
        """Indices of the first-price rows and the table restricted to them."""
        rows = np.flatnonzero(self.first_price)
        return rows, self.take(rows)

    @cached_property
    def _plan(self) -> list[tuple]:
        """The evaluation plan, (family, model, rows) per group of rows that
        share their curves; rows None means every row.  Built on the first
        curve call, so a table taken only to be sliced or read never builds
        it."""
        family, model = self.family, self.model
        plan = [(code, None, np.flatnonzero(family == code)) for code in (LOGNORMAL, UNIFORM)]
        plan += [(None, m, np.flatnonzero(model == k)) for k, m in enumerate(self.models)]
        plan = [entry for entry in plan if entry[2].size]
        if len(plan) == 1:
            plan = [plan[0][:2] + (None,)]
        return plan

    def _column(self, values, b, rows=None):
        """values (one per row) shaped to broadcast against the bids b."""
        if rows is not None:
            values = values[rows]
        if len(values) == 1 or self.uniform and len(values):
            return values[0]
        return values.reshape(values.shape + (1,) * (b.ndim - 1))

    def _by_group(self, x, count, family, model):
        """count arrays shaped like x (first axis over the rows), filled one
        group of the plan at a time: family(code, x, p1, p2) gives a
        lognormal or uniform group's arrays, model(m, x) those of the rows
        of the competing-bid object m."""
        whole = self._plan and self._plan[0][2] is None
        outs = None if whole else [np.zeros(x.shape) for _ in range(count)]
        for code, m, rows in self._plan:
            sub = x if rows is None else x[rows]
            if m is not None:
                values = model(m, sub)
            else:
                p1, p2 = self._column(self.p1, sub, rows), self._column(self.p2, sub, rows)
                values = family(code, sub, p1, p2)
            if outs is None:
                return values
            for out, v in zip(outs, values):
                out[rows] = v
        return outs

    def _curves(self, names, b):
        """The named curves (cdf, pdf, partial_expectation) per row at bids
        b, in one pass over the rows: a lognormal row takes one log of its
        bid for all of them."""
        return self._by_group(
            np.asarray(b, dtype=float),
            len(names),
            lambda code, sub, p1, p2: _FAMILY_CURVES[code](names, sub, p1, p2),
            lambda m, sub: [getattr(m, name)(sub) for name in names],
        )

    def quantile(self, u):
        """Competing bid per row at the uniform draw u (the inverse of its
        CDF), one call per group of rows; a lognormal row bids 0 at u <= 0.
        Each row equals its own competing-bid model's quantile bit for bit."""
        return self._by_group(
            np.asarray(u, dtype=float),
            1,
            lambda code, sub, p1, p2: [_FAMILY_QUANTILES[code](sub, p1, p2)],
            lambda m, sub: [m.quantile(sub)],
        )[0]

    def cdf(self, b):
        """Competing-bid CDF per row."""
        return self._curves(("cdf",), b)[0]

    def pdf(self, b):
        """Competing-bid density per row."""
        return self._curves(("pdf",), b)[0]

    def partial_expectation(self, b):
        """Integral of z dF(z) from 0 to b per row."""
        return self._curves(("partial_expectation",), b)[0]

    @cached_property
    def _reserved(self) -> bool:
        """Whether any row has a reserve above 0."""
        return bool((self.reserve > 0).any())

    @cached_property
    def _at_reserve(self) -> list[np.ndarray]:
        reserve = self.reserve[:1] if self.uniform else self.reserve
        return self._curves(("cdf", "partial_expectation"), reserve)

    def _above_reserve(self, b: np.ndarray, curve):
        """curve where the bid b reaches the reserve, 0 below it: curve
        itself on a table with no reserve, as every bid read is >= 0."""
        if not self._reserved:
            return curve
        return np.where(b >= self._column(self.reserve, b), curve, 0.0)

    def win_prob(self, b):
        """G(b): probability the bid wins, zero below the reserve."""
        b = np.asarray(b, dtype=float)
        return self._above_reserve(b, self.cdf(b))

    def win_density(self, b):
        """g(b): derivative of the win probability on the support interior."""
        b = np.asarray(b, dtype=float)
        return self._above_reserve(b, self.pdf(b))

    def cost_and_win(self, b):
        """(H(b), G(b)), the expected cost and the win probability, from one
        pass over the curves (see expected_cost and win_prob)."""
        b = np.asarray(b, dtype=float)
        cdf, pe = self._curves(("cdf", "partial_expectation"), b)
        G = self._above_reserve(b, cdf)
        second = self._second_price_cost(b, pe)
        if not self.first_price.any():
            return second, G
        return np.where(self._column(self.first_price, b), b * G, second), G

    def _second_price_cost(self, b: np.ndarray, pe):
        """H(b) of second-price rows, from the partial expectation pe at b:
        pe itself on a table with no reserve, as r G(r) and PE(r) are 0 at
        r = 0 and every bid read is >= 0."""
        if not self._reserved:
            return pe
        cdf_r, pe_r = (self._column(v, b) for v in self._at_reserve)
        reserve = self._column(self.reserve, b)
        return self._above_reserve(b, reserve * cdf_r + np.maximum(pe - pe_r, 0.0))

    def expected_cost(self, b):
        """H(b): expected payment at bid b.

        First price pays the bid itself: H = b * G(b).  Second price pays the
        larger of the competing bid and the reserve, so H accumulates the
        partial expectation of the competing bid above the reserve plus the
        reserve-price mass below it.  Only the curve the rows need is
        evaluated (the cdf on first-price rows, the partial expectation on
        second-price ones, both on a table with each), and the result equals
        cost_and_win(b)[0] bit for bit.
        """
        b = np.asarray(b, dtype=float)
        if self.first_price.all():
            return b * self.win_prob(b)
        if not self.first_price.any():
            return self._second_price_cost(b, self.partial_expectation(b))
        return self.cost_and_win(b)[0]

    def cost_derivative(self, b):
        """h(b): b*g for second price, G + b*g for first price."""
        b = np.asarray(b, dtype=float)
        bg = b * self.win_density(b)
        return np.where(self._column(self.first_price, b), self.win_prob(b) + bg, bg)

    def surplus(self, adjusted, b):
        """adjusted * G(b) - H(b): the objective each bid maximizes."""
        H, G = self.cost_and_win(b)
        return adjusted * G - H

    def markup(self, b):
        """b + G(b)/g(b), the map inverted for first price bidding.

        The ratio is 0 where the bid cannot win and +inf where it wins with
        no density left, which keeps the map monotone for log-concave bid
        models.
        """
        b = np.asarray(b, dtype=float)
        G, g = (self._above_reserve(b, c) for c in self._curves(("cdf", "pdf"), b))
        return b + np.where(G <= 0.0, 0.0, np.where(g <= 0.0, np.inf, G / np.maximum(g, 1e-300)))


def resolve(table: MechanismTable, bids, clearing):
    """Realized auctions, one per row: (won, cost).

    Ties win (bid >= max(clearing, reserve)).  Second price pays
    max(clearing, reserve), first price pays the bid.  A NaN clearing bid
    never wins.
    """
    won, cost, _ = _resolve(table, np.asarray(bids, dtype=float), clearing)
    return won, cost


def _resolve(table: MechanismTable, bids: np.ndarray, clearing):
    """resolve's (won, cost) plus what each row would pay if it won."""
    price = np.maximum(clearing, table.reserve)
    won = bids >= price
    cost_if_won = np.where(table.first_price, bids, price)
    return won, np.where(won, cost_if_won, 0.0), cost_if_won


def _view(curve, mech: MechanismSpec, b):
    arr, scalar = _as_array(b)
    if np.any(arr < 0):
        raise MechanismError("bid must be >= 0")
    return _ret(curve(mech.table, arr), scalar)


def win_prob(mech: MechanismSpec, b):
    """G(b) of one mechanism (see MechanismTable.win_prob)."""
    return _view(MechanismTable.win_prob, mech, b)


def win_density(mech: MechanismSpec, b):
    """g(b) of one mechanism (see MechanismTable.win_density)."""
    return _view(MechanismTable.win_density, mech, b)


def expected_cost(mech: MechanismSpec, b):
    """H(b) of one mechanism (see MechanismTable.expected_cost)."""
    return _view(MechanismTable.expected_cost, mech, b)


def cost_derivative(mech: MechanismSpec, b):
    """h(b) of one mechanism (see MechanismTable.cost_derivative)."""
    return _view(MechanismTable.cost_derivative, mech, b)


def simulate_outcome(mech: MechanismSpec, b: float, draw: float):
    """Resolve one auction from a uniform draw in [0, 1).

    The competing clearing bid is the draw pushed through the inverse CDF,
    and the auction resolves as ``resolve`` resolves the mechanism's one-row
    table.

    Returns (won, cost, RealizedLandscape).
    """
    if b < 0:
        raise MechanismError("bid must be >= 0")
    if not (0.0 <= draw < 1.0):
        raise MechanismError(f"draw must lie in [0, 1), got {draw}")
    clearing = float(mech.competitor.quantile(draw))
    won, cost, cost_if_won = _resolve(mech.table, np.array([b], dtype=float), clearing)
    landscape = RealizedLandscape(clearing_bid=clearing, cost_if_won=float(cost_if_won[0]))
    return bool(won[0]), float(cost[0]), landscape
