"""The nonlinear statistics the deviation machinery is built around.

Each statistic is a smooth map from [0, 1]^n to the reals: the arithmetic
mean, the pairwise sample variance, general m-th order U-statistics of a
symmetric kernel, and the signed class-separation functional of consecutive
coordinate groups. Where closed forms exist the statistic also carries the
pair (L, M) of derivative constants:

    L  bounds every first partial derivative uniformly on the box,
    M  = sqrt( sum_k sup_s sum_{l != k} (d^2 Phi / ds_l ds_k)^2 ).

Under a product law, mean, variance and class separation are quadratic
forms in the image, so their expectations need only per-coordinate first
and second moments; a U-statistic is linear in its kernel terms, so its
expectation sums the kernel over support^m tuples weighted by elementary
symmetric sums of the coordinate laws (Hoeffding 1948). Variance and class
separation evaluate from sums and sums of squares (per group for class
separation), so a row costs O(n).

Mean, variance and U-statistics are symmetric in the coordinates, so on a
finite support Phi(f(x)) depends on x only through the support counts
c_j(x), the number of coordinates of x at support point j. Their count
forms evaluate Phi from those counts, at a cost set by the support size
rather than by n.

``evaluate`` accepts batches of shape (..., n). All built-ins are global
smooth functions, so finite-difference stencils may step slightly outside
the unit box.

Memory follows one policy: every batched loop in the library takes its row
slices from ``batches``, which fits each slice into ``BATCH_BYTES`` given
the bytes one row costs. A statistic states its own row cost, so calling it
on any number of rows stays within the budget.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ResourceError
from .rng import stream

# Largest enumeration the library runs: support^n points for the exact
# oracle and the swing sup, a U-statistic's C(n, m) index subsets, its
# support^m kernel tuples for the closed-form expectation and its
# C(s+m-1, m) support multisets for the count form, the antithetic
# count-pattern pairs of the exact Rademacher average (2^(n-1) sign-pattern
# pairs when no column of the image repeats).
ENUM_CAP = 1_000_000
# Largest (C(n, m), m) index table of a U-statistic's subsets, in entries
# (64 MB). Every order m <= n / 2 whose subsets pass ENUM_CAP fits, the
# largest being C(22, 11) x 11 = 7 759 752; past n / 2 the subsets stay few
# while each grows to m indices.
SUBSET_TABLE_CAP = 8 * ENUM_CAP
# The largest count numpy can size an array by: a count of points, draws or
# coordinates past it is refused, whatever the byte budget.
MAX_COUNT = int(np.iinfo(np.intp).max)
# C(n, m) >= C(n, k) >= C(2k, k) for k <= min(m, n - m), and C(2k, k) passes
# ENUM_CAP from this k on (C(24, 12)): subsets are refused by C(n, k) at the
# least of m, n - m and this k, so a huge C(n, m) is never formed.
_CENTRAL_PAST_CAP = next(k for k in itertools.count() if math.comb(2 * k, k) > ENUM_CAP)
# A kernel's symmetry is spot-checked at this many random points.
_SYMMETRY_TRIALS = 16
_SYMMETRY_TOL = 1e-12
# Bytes one batch of rows may cost, at the row cost each loop states: the
# rows it holds at once. A variance row at n = 64 costs 64 doubles, so it is
# evaluated 2^13 rows at a time.
BATCH_BYTES = 4 << 20
# Kernel order and smoothed-min sharpness when none is given.
DEFAULT_KERNEL_ORDER = 2
DEFAULT_SHARPNESS = 4.0


def batches(count: int, row_bytes: int):
    """Slices covering range(count), each of max(1, BATCH_BYTES // row_bytes) rows."""
    step = max(1, BATCH_BYTES // row_bytes)
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def check_count(count: int, name: str) -> None:
    """Refuse a count below 1, or past MAX_COUNT, which no array can hold."""
    if count < 1:
        raise DomainError(f"{name} must be positive")
    if count > MAX_COUNT:
        raise ResourceError(f"{name} exceeds the largest array count {MAX_COUNT}")


def check_enumeration(count: int, what: str) -> None:
    """Refuse an enumeration of ``count`` things, named ``what``, past ENUM_CAP."""
    if count > ENUM_CAP:
        raise ResourceError(f"{what} exceed the enumeration cap {ENUM_CAP}")


def multiset_count(k: int, size: int) -> int:
    """C(k+size-1, size-1), the multisets of k of ``size`` support indices,
    refused past ENUM_CAP. Past ``_CENTRAL_PAST_CAP`` the count is formed at
    that order, which already passes the cap, so a huge count is never formed."""
    count = math.comb(k + size - 1, min(k, size - 1, _CENTRAL_PAST_CAP))
    check_enumeration(count, f"C({k}+{size}-1, {size - 1}) support multisets")
    return count


def multiset_points(part: slice, k: int, size: int) -> np.ndarray:
    """The (rows, k) non-decreasing support indices of the multisets of k of
    ``size`` support indices whose ranks lie in ``part``, ranked in
    ``itertools.combinations_with_replacement`` order. The count is checked
    by ``multiset_count`` first; each slice is decoded on its own.

    A row keeps q, the count of multisets from its own to the last one that
    shares its decoded positions. At position p, with L = k - p places left,
    C(i+L-1, L) sequences of length L take their values among the top i
    support indices; the row's value is size - i for the least i with at
    least q of them, and q drops by the C(i+L-2, L) of them that lie
    entirely above that value.
    """
    count = multiset_count(k, size)
    q = count - np.arange(part.start, part.stop, dtype=np.int64)
    # One contiguous row per position; the result is its transposed view.
    idx = np.empty((k, q.shape[0]), dtype=np.int64)
    for p in range(k):
        places = k - p
        # Each entry is at most ``count``, so the table fits int64.
        above = np.array([math.comb(i + places - 1, places) for i in range(size + 1)])
        top = np.searchsorted(above, q)
        np.subtract(size, top, out=idx[p])
        q -= above[top - 1]
    return idx.T


def lattice_indices(part: slice, k: int, size: int) -> np.ndarray:
    """The (rows, k) support indices of the flat support^k lattice codes in
    ``part``: code c lists its k digits in base ``size``, most significant
    coordinate first. Every support^k lattice is a flat array in this order."""
    rem = np.arange(part.start, part.stop, dtype=np.int64)
    idx = np.empty((rem.shape[0], k), dtype=np.int64)
    for pos in range(k - 1, -1, -1):
        idx[:, pos] = rem % size
        rem //= size
    return idx


@dataclass(frozen=True, eq=False)
class Statistic:
    """An evaluable statistic with optional closed-form (L, M) and expectation.

    evaluate : batch map (..., n) -> (...)
    closed_form_constants : (L, M) pair or None
    product_expectation : map (support (K, s), weights (n, s)) -> (K,), or
        None. Row k of ``support`` holds member k's values on the s support
        points and row i of ``weights`` the law of coordinate i; the result
        is E Phi(f_k(X)) for X with independent coordinates.
    eval_bytes : bytes ``evaluate`` holds at once per row, its temporaries
        included; n doubles when not given. Calling the statistic evaluates
        batches of rows that fit BATCH_BYTES at this cost, and a row of
        counts is weighed against it.
    count_form : map (support (K, s), counts (rows, s)) -> (K, rows), or
        None. Row r of ``counts`` holds how many coordinates of a point take
        each support value; entry (k, r) is Phi(f_k(x)) for that point, so
        each member's values form one contiguous row. Only
        coordinate-symmetric statistics carry one.
    count_row_bytes : map s -> bytes one row of counts costs ``count_form``
        per member on s support points, in the units of ``eval_bytes``; set
        with ``count_form``. Counting pays only where it is no larger.
    """

    name: str
    n: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    closed_form_constants: tuple[float, float] | None = None
    product_expectation: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    eval_bytes: int | None = None
    count_form: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    count_row_bytes: Callable[[int], int] | None = None

    def __post_init__(self):
        if self.eval_bytes is None:
            object.__setattr__(self, "eval_bytes", 8 * self.n)

    def __call__(self, s) -> np.ndarray:
        arr = np.asarray(s, dtype=np.float64)
        if arr.shape[-1] != self.n:
            raise DomainError(f"{self.name} expects vectors of length {self.n}")
        rows = arr.reshape(-1, self.n)
        out = np.empty(rows.shape[0])
        for part in batches(rows.shape[0], self.eval_bytes):
            out[part] = self.evaluate(rows[part])
        return out.reshape(arr.shape[:-1])[()]


@dataclass(frozen=True, eq=False)
class Kernel:
    """Symmetric kernel of ``order`` variables with stated derivative bounds.

    sup_d1 bounds |d kappa / d s_1| and sup_d12 bounds the mixed second
    partial on [0, 1]^order. The bounds are supplied, not computed; the
    numeric constants estimator cross-checks them from below.
    """

    name: str
    order: int
    fn: Callable[[np.ndarray], np.ndarray]
    sup_d1: float | None = None
    sup_d12: float | None = None

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("kernel order must be >= 1")
        for bound in (self.sup_d1, self.sup_d12):
            if bound is not None and bound < 0.0:
                raise DomainError("derivative bounds must be nonnegative")

    def __call__(self, args) -> np.ndarray:
        arr = np.asarray(args, dtype=np.float64)
        if arr.shape[-1] != self.order:
            raise DomainError(f"kernel {self.name} takes {self.order} arguments")
        return self.fn(arr)


def check_kernel_symmetry(kernel: Kernel) -> None:
    """Spot-check invariance under argument permutation (tolerance 1e-12)."""
    if kernel.order == 1:
        return
    rng = stream(0, f"kernel-symmetry/{kernel.name}")
    pts = rng.random((_SYMMETRY_TRIALS, kernel.order))
    base = kernel(pts)
    for _ in range(3):
        perm = rng.permutation(kernel.order)
        permuted = kernel(pts[:, perm])
        if np.max(np.abs(permuted - base)) > _SYMMETRY_TOL:
            raise DomainError(f"kernel {kernel.name} is not permutation-symmetric")


# ---------------------------------------------------------------------------
# Built-in kernels

def squared_difference_kernel() -> Kernel:
    """kappa(s, t) = (s - t)^2 / 2. Derivative sups on the unit square: 1, 1."""
    return Kernel(
        "squared-difference", 2,
        lambda a: 0.5 * (a[..., 0] - a[..., 1]) ** 2,
        sup_d1=1.0, sup_d12=1.0,
    )


def product_kernel(order: int = DEFAULT_KERNEL_ORDER) -> Kernel:
    """kappa = product of the arguments; both derivative sups equal 1."""
    return Kernel(
        "product", int(order),
        lambda a: np.prod(a, axis=-1),
        sup_d1=1.0, sup_d12=1.0 if order >= 2 else 0.0,
    )


def smoothed_min_kernel(sharpness: float = DEFAULT_SHARPNESS) -> Kernel:
    """Soft minimum -log(exp(-b s) + exp(-b t)) / b with b = sharpness.

    First partials are sigmoids (sup 1); the mixed partial is b * sig * (1 - sig),
    so its sup on the square is sharpness / 4.
    """
    b = float(sharpness)
    if b <= 0.0:
        raise DomainError("sharpness must be positive")

    def fn(a):
        return -np.logaddexp(-b * a[..., 0], -b * a[..., 1]) / b

    return Kernel("smoothed-min", 2, fn, sup_d1=1.0, sup_d12=b / 4.0)


def constant_kernel(value: float, order: int = DEFAULT_KERNEL_ORDER) -> Kernel:
    v = float(value)
    return Kernel(
        "constant", int(order),
        lambda a: np.full(a.shape[:-1], v),
        sup_d1=0.0, sup_d12=0.0,
    )


def identity_kernel() -> Kernel:
    return Kernel("identity", 1, lambda a: a[..., 0], sup_d1=1.0, sup_d12=0.0)


# ---------------------------------------------------------------------------
# Built-in statistics

def _count_sums(tables, counts: np.ndarray) -> list[np.ndarray]:
    """For each (K, s) table, the (K, rows) sums over the support of
    table[k, j] * counts[r, j].

    Each batch of points converts its counts to floats once for all the
    tables; small integers convert exactly. Each entry adds its terms one at
    a time in support order, so it does not depend on how many rows or
    members share the call; a matrix product would, since BLAS rounds a
    one-column product differently from a wider one.
    """
    rows, size = counts.shape
    outs = [np.empty((len(table), rows)) for table in tables]
    members = max(len(table) for table in tables)
    # A point costs its counts, its sums for every member of every table, and
    # a term per member in a buffer the tables share.
    for part in batches(rows, 8 * (size + sum(len(out) for out in outs) + members)):
        cols = np.ascontiguousarray(counts[part].T, dtype=np.float64)
        terms = np.empty((members, part.stop - part.start))
        for table, out in zip(tables, outs):
            acc, term = out[:, part], terms[:len(table)]
            np.multiply(table[:, :1], cols[0], out=acc)
            for j in range(1, size):
                np.multiply(table[:, j:j + 1], cols[j], out=term)
                acc += term
    return outs


def _pair_sums(s):
    """sum_{i<j} (s_i - s_j)^2 over the last axis, as g Q - T^2 for its g
    coordinates of sum T and sum of squares Q."""
    total = s.sum(axis=-1)
    sq = (s * s).sum(axis=-1)
    return s.shape[-1] * sq - total * total


def _expected_pair_sums(mu, m2):
    """The mean of ``_pair_sums`` over independent coordinates whose means
    and second moments lie along the last axis of ``mu`` and ``m2``."""
    # E T^2 = sum m2 + (sum mu)^2 - sum mu^2 for independent coordinates.
    total = mu.sum(axis=-1)
    return (mu.shape[-1] - 1) * m2.sum(axis=-1) - total * total + (mu * mu).sum(axis=-1)


def _support_doubles(size: int) -> int:
    # A row of counts costs the mean and the variance one term per support
    # point, as a row of values costs them one per coordinate.
    return 8 * size


def mean_statistic(n: int) -> Statistic:
    """Arithmetic mean. L = 1/n, M = 0."""
    if n < 1:
        raise DomainError("mean needs n >= 1")
    n = int(n)

    def evaluate(s):
        return s.mean(axis=-1)

    def product_expectation(support, weights):
        return (support @ weights.T).mean(axis=1)

    def count_form(support, counts):
        (total,) = _count_sums([support], counts)
        return total / n

    return Statistic(
        "mean", n, evaluate, (1.0 / n, 0.0), product_expectation,
        count_form=count_form, count_row_bytes=_support_doubles,
    )


def sample_variance_statistic(n: int) -> Statistic:
    """Pairwise sample variance sum_{i<j} (s_i - s_j)^2 / (n(n-1)).

    Evaluation uses the algebraic identity n*sum(s^2) - (sum s)^2 over
    n(n-1), which is an independent route from the subset-enumerating
    U-statistic form. L = 2/n, M = 2/sqrt(n(n-1)).
    """
    if n < 2:
        raise DomainError("sample variance needs n >= 2")
    n = int(n)
    denom = float(n * (n - 1))

    def evaluate(s):
        return _pair_sums(s) / denom

    def product_expectation(support, weights):
        return _expected_pair_sums(support @ weights.T, (support * support) @ weights.T) / denom

    def count_form(support, counts):
        total, out = _count_sums([support, support * support], counts)
        # (n * sq - total^2) / denom, in place.
        out *= n
        out -= np.square(total, out=total)
        out /= denom
        return out

    constants = (2.0 / n, 2.0 / math.sqrt(n * (n - 1)))
    return Statistic(
        "variance", n, evaluate, constants, product_expectation,
        count_form=count_form, count_row_bytes=_support_doubles,
    )


def u_statistic(n: int, kernel: Kernel) -> Statistic:
    """Average of the kernel over all m-subsets in increasing-index order.

    Refuses when the subset count exceeds ENUM_CAP or its (C(n, m), m)
    index table exceeds SUBSET_TABLE_CAP; the tables that grow with n are
    built on first use. No analytic derivatives are attached; the constants
    module estimates or bounds them.
    The product-law expectation is attached; it refuses supports whose
    support^m kernel tuples exceed ENUM_CAP. So is the count form, which
    sums the kernel over the C(s+m-1, m) support multisets a, each weighted
    by prod_j C(c_j, a_j) subsets; it refuses supports whose multisets
    exceed ENUM_CAP.
    """
    n = int(n)
    m = kernel.order
    if m > n:
        raise DomainError(f"kernel order {m} exceeds n = {n}")
    check_enumeration(math.comb(n, min(m, n - m, _CENTRAL_PAST_CAP)), f"C({n},{m}) subsets")
    count = math.comb(n, m)
    if count * m > SUBSET_TABLE_CAP:
        raise ResourceError(f"C({n},{m}) x {m} = {count * m} subset indices exceed the subset "
                            f"table cap {SUBSET_TABLE_CAP}")
    check_kernel_symmetry(kernel)

    @functools.cache
    def subsets():
        return np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), m)),
                           dtype=np.intp, count=count * m).reshape(count, m)

    def evaluate(s):
        # np.take keeps each row's subset terms contiguous (s[..., subsets] does
        # not), so np.sum adds them pairwise, whatever the batch height, which
        # keeps cancellation error in check across the same-magnitude terms.
        sub = np.take(s, subsets(), axis=-1)   # (..., count, m)
        vals = kernel.fn(sub)               # (..., count)
        return np.sum(vals, axis=-1) / count

    def product_expectation(support, weights):
        size = support.shape[1]
        tuples = size**m
        check_enumeration(tuples, f"support^{m} = {tuples} kernel tuples")
        # chains[r][t], t a flat support^r code, sums prod_j weights[i_j, t_j]
        # over index chains i_1 < ... < i_r among the coordinates seen so far;
        # descending r uses each coordinate at most once per chain.
        chains = [np.ones(1)] + [np.zeros(size**r) for r in range(1, m + 1)]
        for w in weights:
            for r in range(m, 0, -1):
                chains[r] += np.multiply.outer(chains[r - 1], w).ravel()
        grid = lattice_indices(slice(0, tuples), m, size)    # (tuples, m)
        out = np.empty(support.shape[0])
        # A numpy sum, not a BLAS gemv, so the value does not depend on the
        # BLAS thread count; a row holds the gather, the kernel values and
        # their weighted terms.
        for part in batches(support.shape[0], tuples * (m + 2) * 8):
            out[part] = np.sum(kernel.fn(support[part][:, grid]) * chains[m], axis=1)
        return out / count

    # binomials()[a, c] = C(c, a): the m-subsets of a point that take a given
    # support value a times among its c coordinates there. Row a sums row
    # a - 1, C(c, a) = sum_{k<c} C(k, a-1), capped at C(n, m): a nonzero
    # weight prod_j C(c_j, a_j) never exceeds C(n, m) (Vandermonde), so a
    # capped factor only ever multiplies a zero one, and every entry is an
    # exact integer.
    @functools.cache
    def binomials():
        table = np.zeros((m + 1, n + 1))
        table[0] = 1.0
        for a in range(1, m + 1):
            np.minimum(np.cumsum(table[a - 1, :-1]), count, out=table[a, 1:])
        return table

    def multisets(size):
        return math.comb(size + m - 1, m)

    @functools.lru_cache(maxsize=1)
    def multiset_tables(size):
        """(gather, points, runs): each multiset as its m nondecreasing
        support points, and its distinct points with the lengths of their
        runs, in point order, packed into min(m, s) columns. A multiset with
        fewer distinct points pads with run length 0."""
        kinds = multisets(size)
        gather = multiset_points(slice(0, kinds), m, size)
        # At each position, the length of the run of equal points starting
        # there, 0 inside a run.
        runs = np.zeros((kinds, m), dtype=np.intp)
        length = np.zeros(kinds, dtype=np.intp)
        for p in range(m - 1, -1, -1):
            length += 1
            if p > 0:
                starts = gather[:, p] != gather[:, p - 1]
                runs[starts, p] = length[starts]
                length[starts] = 0
            else:
                runs[:, 0] = length
        # Run starts first, in position order.
        order = np.argsort(runs == 0, axis=1, kind="stable")[:, :min(m, size)]
        return gather, np.take_along_axis(gather, order, 1), np.take_along_axis(runs, order, 1)

    def count_form(support, counts):
        size = support.shape[1]
        kinds = multiset_count(m, size)
        gather, points, runs = multiset_tables(size)
        cols = counts.T
        members, rows = support.shape[0], counts.shape[0]
        out = np.zeros((members, rows))
        # A multiset costs its kernel arguments and value for every member,
        # its weight, one factor and the counts it gathers over the rows, and
        # its term and running sum for every member and row.
        for part in batches(kinds, 8 * (max(members, 1) * (m + 1 + 2 * rows) + 3 * rows)):
            kernel_values = kernel.fn(support[:, gather[part]])    # (members, multisets)
            # prod_j C(c_j, a_j), one factor per distinct point of the
            # multiset in point order; a padding column gathers C(c, 0) = 1.
            weights = binomials()[runs[part, :1], cols[points[part, 0]]]    # (multisets, rows)
            for p in range(1, runs.shape[1]):
                weights *= binomials()[runs[part, p:p + 1], cols[points[part, p]]]
            # A running sum adds each entry's terms one multiset at a time in
            # multiset order, so an entry does not depend on the batches or on
            # how many members and rows share the call (a matrix product's
            # rounding does).
            terms = kernel_values[:, :, None] * weights    # (members, multisets, rows)
            terms[:, 0] += out
            out = np.cumsum(terms, axis=1)[:, -1]
        return out / count

    # A row of values holds its subset gather, the kernel's values and their
    # temporaries, at most three C(n, m) arrays at once for the built-in
    # kernels (smoothed-min: -b s, -b t and their logaddexp); a row of counts
    # holds as much per support multiset.
    return Statistic(
        f"u-statistic[{kernel.name},m={m}]", n, evaluate,
        product_expectation=product_expectation, eval_bytes=count * (m + 3) * 8,
        count_form=count_form, count_row_bytes=lambda size: multisets(size) * (m + 3) * 8,
    )


def class_separation_statistic(group_sizes) -> Statistic:
    """Signed pairwise functional sum_{i<j} r_ij (s_i - s_j)^2 / (n(n-1)).

    The n = sum(group_sizes) coordinates fall into consecutive groups of the
    given sizes; r_ij is +1 for a pair within one group and -1 across
    groups. With one group this is exactly the sample variance. The signed
    sum is twice the within-group pair sums less the sum over all pairs,

        Phi = [2 sum_a (g_a Q_a - T_a^2) - (n Q - T^2)] / (n(n-1)),

    with T_a, Q_a the sum and the sum of squares of group a's g_a
    coordinates and T, Q the totals. Its product-law expectation takes the
    variance's moment identity of each group and of the whole. Same
    constants as the variance: L = 2/n, M = 2/sqrt(n(n-1)).
    """
    sizes = [int(g) for g in group_sizes]
    if not sizes:
        raise DomainError("group sizes must be a non-empty list")
    if min(sizes) < 1:
        raise DomainError("group sizes must be positive")
    n = sum(sizes)
    if n < 2:
        raise DomainError("class separation needs n >= 2")
    groups = [slice(end - g, end) for end, g in zip(itertools.accumulate(sizes), sizes)]
    denom = float(n * (n - 1))

    def signed(pair_sums, *arrays):
        within = sum(pair_sums(*(a[..., group] for a in arrays)) for group in groups)
        return (2.0 * within - pair_sums(*arrays)) / denom

    def evaluate(s):
        return signed(_pair_sums, s)

    def product_expectation(support, weights):
        return signed(_expected_pair_sums, support @ weights.T, (support * support) @ weights.T)

    constants = (2.0 / n, 2.0 / math.sqrt(n * (n - 1)))
    return Statistic("class-separation", n, evaluate, constants, product_expectation)
