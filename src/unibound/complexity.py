"""Rademacher and Gaussian averages of finite point sets.

For a finite Y in R^n,

    R(Y) = E sup_{y in Y} sum_i eps_i y_i,   eps_i uniform in {-1, +1},
    G(Y) = E sup_{y in Y} sum_i gam_i y_i,   gam_i standard normal.

Both depend on Y only through its distinct columns and how often each
appears: with s distinct columns, R is computed exactly over the
prod_j (m_j + 1) count patterns of the multiplicities m_j when their
antithetic pairs fit ``functionals.ENUM_CAP`` (with no repeated column, the
2^(n-1) sign-pattern pairs, n <= 20) and by Monte Carlo otherwise; G by
Monte Carlo with s normals per draw, or exactly on a class's support of
one or two points, where ``gaussian_from_counts`` finds the hull of the
class's support matrix once and each point's support counts rescale its
edges (G is half the perimeter over sqrt(2 pi)). Monte Carlo draws are
antithetic: each eps (or gamma) is paired with its negation, the estimate
is the mean of per-pair means, and the standard error is the sample
standard deviation of the iid pair means over sqrt(pairs). Pairing keeps
the estimator unbiased, makes every pair mean nonnegative (take the same
maximizer on both sides), and makes translation invariance hold exactly
under a shared stream.

One merge finds the distinct columns of many images at once, from one key
per column that two columns share exactly when they are equal as floats.
The keys come from one sort of a stack's columns (``image_columns``) or, on
a finite space, where the image of a point x is ``support[:, x]``, from one
sort of the class's s support columns gathered at x (``point_columns``),
which forms no image and gives the same columns bit for bit.
``gaussian_averages`` and ``rademacher_averages`` take either source's
columns and run each image in turn on its own stream; ``gaussian_mc``,
``rademacher_exact`` and ``rademacher_average`` are their one-image case, so
an image's value does not depend on the stack it comes in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .functionals import batches, check_count, check_enumeration
from .rng import as_stream, rademacher_signs, standard_normals

EXACT = "exact"
MONTE_CARLO = "monte-carlo"
RADEMACHER = "rademacher"
GAUSSIAN = "gaussian"

MIN_DRAWS = 100


def check_draws(count: int, name: str) -> None:
    """Refuse a Monte Carlo estimate from fewer than MIN_DRAWS draws, or from
    more than an array can hold."""
    if count < MIN_DRAWS:
        raise DomainError(f"{name} must be >= {MIN_DRAWS}")
    check_count(count, name)


@dataclass(frozen=True, eq=False)
class ComplexityEstimate:
    """A scalar estimate of R(Y) or G(Y).

    ``stderr`` is present only for Monte Carlo estimates and equals the
    sample standard deviation of the per-pair suprema means over
    sqrt(pairs); it is 0 when the pair means are constant (degenerate Y).
    """

    value: float
    kind: str
    method: str
    draws: int | None = None
    stderr: float | None = None

    def __post_init__(self):
        if self.method == EXACT and self.stderr is not None:
            raise DomainError("exact estimates carry no standard error")
        if self.method == MONTE_CARLO and (self.stderr is None or self.stderr < 0.0):
            raise DomainError("Monte Carlo estimates need a nonnegative standard error")


def mean_stderr(samples: np.ndarray) -> float:
    """Standard error of the mean of iid ``samples``: their sample standard
    deviation over sqrt(count)."""
    return float(samples.std(ddof=1) / math.sqrt(samples.size))


def _as_matrix(y) -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise DomainError("Y must be a non-empty set of equal-length vectors")
    return arr


def _column_keys(columns: np.ndarray) -> np.ndarray:
    """One key per column of ``columns``, a (..., K) array whose last axis
    runs down a column: the dense rank of the column's bytes once -0.0 is
    made 0.0, so two columns share a key exactly when they are equal as
    floats. One sort of the bytes puts equal columns next to each other."""
    members = columns.shape[-1]
    cols = np.empty(columns.shape)
    np.add(columns, 0.0, out=cols)    # -0.0 + 0.0 is 0.0
    cols = cols.reshape(-1, members)
    order = cols.view(f"V{8 * members}").ravel().argsort()
    # Neighbours compare as words: np.unique compares them as void scalars,
    # ten times slower at 256 members.
    words = cols.view(np.int64)[order]
    starts = np.concatenate(([True], (words[1:] != words[:-1]).any(axis=1)))
    keys = np.empty(len(order), dtype=np.intp)
    keys[order] = np.cumsum(starts) - 1
    return keys


def _merge(keys: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each row of a (rows, n) array of column keys, two columns sharing
    a key exactly when they are equal as floats: where each distinct key
    first appears, in increasing order, and how many times it appears.

    Each key is offset by its row, so columns of different rows never
    merge; one sort finds the distinct codes, and ordering them by their
    first appearance orders them by row, then by position.
    """
    rows, n = keys.shape
    codes = keys + (int(keys.max()) + 1) * np.arange(rows)[:, None]
    _, first, mult = np.unique(codes, return_index=True, return_counts=True)
    by_first = np.argsort(first)
    owner, keep = np.divmod(first[by_first], n)
    mult = mult[by_first]
    bounds = np.searchsorted(owner, np.arange(rows + 1)).tolist()
    return [(keep[a:b], mult[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def image_columns(images: np.ndarray):
    """Each image of a (count, K, n) stack as its distinct columns, in order
    of first appearance, and how many times each appears, one image at a
    time. Columns merge when they are equal as floats (0.0 and -0.0 alike),
    and one sort keys all the stack's columns."""
    count, _, n = images.shape
    merged = _merge(_column_keys(images.transpose(0, 2, 1)).reshape(count, n))
    return ((image[:, keep], mult) for image, (keep, mult) in zip(images, merged))


def point_columns(support: np.ndarray, points: np.ndarray):
    """The image ``support[:, x]`` of each row x of ``points`` (support
    indices of a finite space, ``support`` a class's (K, s) support matrix)
    as ``image_columns`` gives it, bit for bit, with no image formed: column
    k of the image is support column x_k, so only the class's s support
    columns are sorted, and each point's keys are gathered from theirs."""
    merged = _merge(_column_keys(support.T)[points])
    return ((support[:, x[keep]], mult) for x, (keep, mult) in zip(points, merged))


def merge_bytes(entries: int, n: int) -> int:
    """Bytes one row of n columns holds at once while it is merged, each of
    its columns keyed from ``entries`` values of its own (an image's K, or 0
    for a point, whose keys are gathered from its class's support columns):
    those values, their sorted copy and its neighbour comparison, and five
    integers per column for their keys, codes and sort orders. One row at a
    time then holds its distinct columns, and their averages run in slices
    of draws within BATCH_BYTES."""
    return (17 * entries + 40) * n


def _binomial_shares(c: int) -> np.ndarray:
    """C(c, k) / 2^c for k = 0..c, each at most 1.

    While 2^-c is a normal double the quotients are exact integer divisions,
    correctly rounded, so they carry the bits of C(c, k) scaled by 2^-c;
    past that C(c, k) overflows a double, and the shares come from the ratio
    recurrence outward from the middle, normalised to sum 1.
    """
    if c <= 1022:
        scale = 1 << c
        return np.array([math.comb(c, k) / scale for k in range(c + 1)])
    mid = c // 2
    k = np.arange(mid, c)
    upper = np.concatenate(([1.0], np.cumprod((c - k) / (k + 1.0))))    # C(c, mid + i) / C(c, mid)
    row = np.concatenate((upper[::-1][:mid], upper))    # C(c, k) = C(c, c - k)
    return row / row.sum()


def _count_patterns(codes: np.ndarray, mult: np.ndarray, shares: list[np.ndarray]):
    """(coefficients 2 b - m, weights prod_j C(m_j, b_j) / 2^(m_j)) of the
    count patterns b with the mixed-radix ``codes``, digit j in [0, m_j] and
    column 0 the least significant; ``shares[j]`` is column j's
    ``_binomial_shares``."""
    coeff = np.empty((codes.shape[0], mult.shape[0]))
    weight = np.ones(codes.shape[0])
    rem = codes
    for j, c in enumerate(mult.tolist()):
        quot = rem // (c + 1)
        b = rem - (c + 1) * quot
        coeff[:, j] = 2 * b - c
        weight *= shares[j][b]
        rem = quot
    return coeff, weight


def rademacher_exact(y) -> ComplexityEstimate:
    """R(Y) by enumerating count patterns; refuses when their antithetic
    pairs exceed ENUM_CAP.

    Y is first reduced to its s distinct columns, column j appearing m_j
    times (``_merged_rademacher``).
    """
    ((columns, mult),) = image_columns(_as_matrix(y)[None])
    return _merged_rademacher(columns, mult)


def _merged_rademacher(merged: np.ndarray, mult: np.ndarray) -> ComplexityEstimate:
    """Exact R(Y) of the Y whose distinct columns are ``merged``, column j
    appearing ``mult[j]`` times.

    The signs on column j's copies add up to 2 b_j - m_j, with b_j of
    them positive in C(m_j, b_j) of the 2^(m_j) ways, so R(Y) sums
    sup_y sum_j (2 b_j - m_j) y_j with weight prod_j C(m_j, b_j) / 2^(m_j)
    over the prod_j (m_j + 1) patterns b. Each pattern is enumerated with
    its complement m - b (the negated sum) as one pair, so singletons come
    out exactly zero; without repeated columns the patterns are the 2^n sign
    patterns, each of weight 2^-n, and the pairs number 2^(n-1). The
    weighted per-pair sums, at most ENUM_CAP doubles, are kept and added in
    one pairwise sum, so the value does not depend on the batch size.
    """
    size = merged.shape[1]
    patterns = math.prod(int(c) + 1 for c in mult)
    # An odd number of patterns leaves out the middle one, b = m / 2, which is
    # its own complement and sums to 0.
    half = patterns // 2
    check_enumeration(half, f"{half} count-pattern pairs of {size} distinct columns")
    shares = [_binomial_shares(c) for c in mult.tolist()]
    pair_sums = np.empty(half)
    for part in batches(half, 8 * (size + merged.shape[0])):    # coefficient and product rows
        coeff, weight = _count_patterns(np.arange(part.start, part.stop, dtype=np.int64), mult, shares)
        prod = coeff @ merged.T
        pair_sums[part] = weight * (prod.max(axis=1) - prod.min(axis=1))
    return ComplexityEstimate(float(np.sum(pair_sums)), RADEMACHER, EXACT)


def _antithetic_means(mat: np.ndarray, draws: int, rng, gaussian: bool) -> np.ndarray:
    """The draws // 2 antithetic pair means of one matrix."""
    n = mat.shape[1]
    pairs = draws // 2
    if pairs < 1:
        raise DomainError("too few draws for a single antithetic pair")
    means = np.empty(pairs)
    for part in batches(pairs, 8 * (n + mat.shape[0])):    # coefficient and product rows
        shape = (part.stop - part.start, n)
        coeff = standard_normals(rng, shape) if gaussian else rademacher_signs(rng, shape)
        prod = mat @ coeff.T    # (K, rows): the reductions run along contiguous rows
        means[part] = 0.5 * (prod.max(axis=0) - prod.min(axis=0))
    return means


def _monte_carlo(means: np.ndarray, kind: str) -> ComplexityEstimate:
    return ComplexityEstimate(float(means.mean()), kind, MONTE_CARLO, 2 * means.size, mean_stderr(means))


def rademacher_mc(y, draws: int, seed) -> ComplexityEstimate:
    """Monte Carlo R(Y); deterministic given the seed."""
    mat = _as_matrix(y)
    check_draws(draws, "draws")
    rng = as_stream(seed, "rademacher-mc")
    return _monte_carlo(_antithetic_means(mat, draws, rng, gaussian=False), RADEMACHER)


def rademacher_average(y, draws: int, seed) -> ComplexityEstimate:
    """R(Y) exactly when its count-pattern pairs fit ENUM_CAP, otherwise by
    Monte Carlo with ``draws`` draws from ``seed``."""
    try:
        return rademacher_exact(y)
    except ResourceError:
        return rademacher_mc(y, draws, seed)


def rademacher_averages(merged, image, draws: int, rngs) -> np.ndarray:
    """R of each image given as its distinct columns and how many times each
    appears (``image_columns`` or ``point_columns``), exact when its
    count-pattern pairs fit ENUM_CAP; past it, Monte Carlo with ``draws``
    signs from ``rngs[i]`` on all n columns of ``image(i)``, image i in
    coordinate order. Each value is that of ``rademacher_average(image(i),
    draws, rngs[i])``."""
    values = []
    for i, ((columns, mult), rng) in enumerate(zip(merged, rngs)):
        try:
            values.append(_merged_rademacher(columns, mult).value)
        except ResourceError:
            values.append(rademacher_mc(image(i), draws, rng).value)
    return np.array(values)


def _gaussian_means(merged, draws: int, rngs):
    """The antithetic pair means of G for each image given as its distinct
    columns and how many times each appears, image i drawing its normals
    from ``rngs[i]``, one image's at a time as they are asked for.

    The normals on column j's m_j copies add up to sqrt(m_j) times one
    normal, so each draw takes s normals against the s distinct columns
    scaled by sqrt(m_j).
    """
    check_draws(draws, "draws")
    return (
        _antithetic_means(columns * np.sqrt(mult), draws, rng, gaussian=True)
        for (columns, mult), rng in zip(merged, rngs)
    )


def gaussian_averages(merged, draws: int, rngs) -> np.ndarray:
    """Monte Carlo G of each image given as its distinct columns and how
    many times each appears (``image_columns`` or ``point_columns``), image
    i drawing its normals from the generator ``rngs[i]``; each value is that
    of ``gaussian_mc`` on the image with ``rngs[i]``."""
    return np.array([means.mean() for means in _gaussian_means(merged, draws, rngs)])


def gaussian_mc(y, draws: int, seed) -> ComplexityEstimate:
    """Monte Carlo G(Y), the one-image case of ``gaussian_averages``;
    normals come from ``rng.standard_normals``."""
    (means,) = _gaussian_means(image_columns(_as_matrix(y)[None]), draws, [as_stream(seed, "gaussian-mc")])
    return _monte_carlo(means, GAUSSIAN)


def _hull_edges(points: np.ndarray) -> np.ndarray:
    """The (edges, 2) edge vectors of the convex hull of a (K, 2) point set,
    once round it counter-clockwise (Andrew's monotone chain): a segment's
    two edges, out and back, and one edge of length 0 for a single point.
    Collinear points are dropped, so a collinear set is its segment."""
    pts = sorted(set(map(tuple, points.tolist())))

    def chain(seq):
        """One half of the hull, dropping every point that does not turn left."""
        out: list = []
        for x, y in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0:
                    break
                out.pop()
            out.append((x, y))
        return out[:-1]

    vertices = np.array(chain(pts) + chain(reversed(pts)) if len(pts) > 1 else pts)
    return np.roll(vertices, -1, axis=0) - vertices


# The largest support on which ``gaussian_from_counts`` is exact.
EXACT_GAUSSIAN_SUPPORT = 2


def gaussian_from_counts(support, counts) -> np.ndarray:
    """Exact G of the image ``support[:, x]`` of each point x whose support
    counts are a row of ``counts``, on a support of one or two points:
    ``support`` is a class's (K, s) support matrix and ``counts`` (rows, s).

    The image's distinct columns are the support columns scaled by sqrt(c_j),
    and for a finite Y, G(Y) = V_1(conv Y) / sqrt(2 pi) with V_1 the first
    intrinsic volume (Sudakov 1971; Tsirelson 1985). In the plane that is
    half the hull's perimeter. A point's image is the class's points times
    diag(sqrt(c_0), sqrt(c_1)), whose hull is the class's hull rescaled, so
    the hull is found once and each row only rescales its edges:
    G = sum_e sqrt(e_x^2 c_0 + e_y^2 c_1) / (2 sqrt(2 pi)). One member, a
    collinear class, equal support columns (the diagonal) and a count of 0
    need no case of their own. On one support point the image is one column
    of multiplicity n, and G = sqrt(n) (max - min) / sqrt(2 pi). Every sum
    is elementwise, with no BLAS product, so no value depends on BLAS
    threads or on the other rows.
    """
    support = np.asarray(support, dtype=np.float64)
    counts = np.asarray(counts)
    size = support.shape[1]
    if size > EXACT_GAUSSIAN_SUPPORT:
        raise DomainError("exact Gaussian averages need at most two support points")
    if size == 1:
        return np.sqrt(counts[:, 0]) * (support.max() - support.min()) / math.sqrt(2.0 * math.pi)
    squares = np.square(_hull_edges(support))
    lengths = np.sqrt(counts[:, :1] * squares[:, 0] + counts[:, 1:] * squares[:, 1])
    return lengths.sum(axis=1) / (2.0 * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Joint check of R(Y) <= sqrt(pi/2) G(Y) and G(Y) <= 3 ln(n) R(Y).

    Each slack must be >= -allowance, where the allowance combines four
    standard errors of both estimates; a violation beyond that is flagged.
    """

    rademacher: ComplexityEstimate
    gaussian: ComplexityEstimate
    slack_r_vs_g: float
    allowance_r_vs_g: float
    slack_g_vs_r: float
    allowance_g_vs_r: float

    @property
    def r_vs_g_ok(self) -> bool:
        return self.slack_r_vs_g >= -self.allowance_r_vs_g

    @property
    def g_vs_r_ok(self) -> bool:
        return self.slack_g_vs_r >= -self.allowance_g_vs_r

    @property
    def ok(self) -> bool:
        return self.r_vs_g_ok and self.g_vs_r_ok


def comparison_report(y, draws: int, seed) -> ComparisonReport:
    """Estimate R and G and check the comparison inequalities within slack."""
    mat = _as_matrix(y)
    n = mat.shape[1]
    if n < 2:
        raise DomainError("the logarithmic comparison needs n >= 2")
    r = rademacher_average(mat, draws, as_stream(seed, "comparison-r"))
    g = gaussian_mc(mat, draws, as_stream(seed, "comparison-g"))
    r_err = r.stderr or 0.0
    g_err = g.stderr or 0.0
    root = math.sqrt(math.pi / 2.0)
    logn = 3.0 * math.log(n)
    slack_rg = root * g.value - r.value
    allow_rg = 4.0 * (root * g_err + r_err)
    slack_gr = logn * r.value - g.value
    allow_gr = 4.0 * (logn * r_err + g_err)
    return ComparisonReport(r, g, slack_rg, allow_rg, slack_gr, allow_gr)
