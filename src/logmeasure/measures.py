"""Gaussian measures and their logarithmic derivatives.

The logarithmic derivative along a vector k follows the subtraction
convention for the shift family S(t)(x) = x - t k, which for a Gaussian with
precision P and mean m gives

    beta(k, x) = -(x - m)^T P k = grad log p(x) . k.

Differentiating along a vector field h adds the divergence of h:

    beta_h(x) = beta(h(x), x) + trace h'(x),

and the integration-by-parts identity E[phi' . h] + E[phi * beta_h] = 0 is the
primary consistency check (ibp_residual).

Precision is the primary parameterization; covariance is derived on demand.

Every integral in the package runs on one engine: batches of at most
_BATCH_ROWS points, Monte Carlo draws laid out by _mc_batches or
Gauss-Hermite tensor-rule nodes with their weights (_gh_batches), and one
fold of the column summaries a row function gives on each batch
(_integrate_columns); sample() fills its output from the same Monte Carlo
batches.  Monte Carlo work is split across `workers` deterministic RNG
streams derived from SeedSequence(seed).spawn(workers), and batch i of a
stream draws from that stream's PCG64 generator jumped i times, so results
are bitwise reproducible for a fixed (seed, workers) pair.

Both rules run on two threads: a pool of two threads builds each batch's
points (a Monte Carlo draw mapped onto the measure, or the Gauss-Hermite
nodes and weights of its index range), evaluates the row function on them
and reduces the block to its column sums (and, unweighted, its means and
M2 terms), with numpy's OpenBLAS held to one thread for the call.  A
batch's temporaries stay a few MB even at dim 64, and only a few batches
are in flight at once.  Every batch has its own generator, so any two
batches draw at once, of one stream or of two.  When the call ends, the
calling thread folds the batch summaries once, in slot order (stream-major
for Monte Carlo), so every value and standard error is bitwise independent
of the threads.  A call of one batch, or one where the OpenBLAS thread setter
cannot be found, runs on the calling thread.  Row functions (and the phi,
h, eta, f0 and family callbacks they call) must therefore be safe to call
from two threads at once.  sample() stays sequential and stream-major.

The first Monte Carlo or Gauss-Hermite call of a process on glibc sets
glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB, and has
every thread allocate from one arena (_keep_batch_heap), process-wide: a
batch's arrays then come from a heap whose freed top is kept, so the next
batch reuses its pages instead of faulting them in again.  The cost is that
up to 64 MiB of freed memory stays mapped and that the process's other
threads share that arena too.  Nothing is set off glibc, or where the
environment already sets one of glibc's malloc tunables
(MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_, MALLOC_TOP_PAD_,
MALLOC_MMAP_MAX_, MALLOC_ARENA_MAX or a glibc.malloc. entry of
GLIBC_TUNABLES).  No value depends on it.
"""

from __future__ import annotations

import contextvars
import ctypes
import glob
import numbers
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from .fields import TestFunction, VectorField
from .lattice import TimeLattice, cm_gram

_LOG_2PI = float(np.log(2.0 * np.pi))
_MAX_GH_DIM = 6
_CHUNK_ROWS = 131072  # the element cap of a chunk of Jacobians in flows' log-det route
_BATCH_ROWS = 8192  # the rows of every integration batch


class QuadratureKind(str, Enum):
    MONTE_CARLO = "monte_carlo"
    GAUSS_HERMITE = "gauss_hermite"


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: MC sample count or Gauss-Hermite nodes per axis.

    For kind = gauss_hermite, ``n_samples`` is the node count per dimension
    (exact for polynomials of degree <= 2 * n_samples - 1); the tensor rule is
    guarded to dim <= 6.  n_samples and workers must be positive integers and
    seed a non-negative one: anything else raises TypeError or ValueError,
    naming the field, when the spec is built.
    """

    kind: QuadratureKind
    n_samples: int
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kind", QuadratureKind(self.kind))
        for name, least in (("n_samples", 1), ("seed", 0), ("workers", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be {'positive' if least else 'non-negative'}, got {value}")


@dataclass(frozen=True)
class Estimate:
    """A real number with its standard error (None for deterministic rules)."""

    value: float
    std_error: Optional[float] = None


@dataclass(frozen=True)
class FieldLogDerivative:
    """beta_h(x) split into its frozen-vector part and the divergence part."""

    vector_term: float
    trace_term: float
    total: float


@dataclass(frozen=True)
class GaussianMeasure:
    """Gaussian measure on R^dim given by mean and SPD precision matrix."""

    dim: int
    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        prec = np.array(self.precision, dtype=float)
        if mean.shape != (self.dim,):
            raise ValueError(f"mean must have shape ({self.dim},), got {mean.shape}")
        if prec.shape != (self.dim, self.dim):
            raise ValueError("precision must be a square matrix matching dim")
        scale = max(1.0, float(np.abs(prec).max()))
        if not np.allclose(prec, prec.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("precision matrix is not symmetric")
        prec = 0.5 * (prec + prec.T)
        try:
            chol = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError as exc:
            raise ValueError("precision matrix is not positive definite") from exc
        # x = mean + L^{-T} z, taken row-wise as z @ L^{-1}, maps N(0, I) onto the measure;
        # for the identity precision L^{-1} is I, bytewise what the triangular solve returns
        identity = np.array_equal(prec, np.eye(self.dim))
        if identity:
            chol_inv = np.eye(self.dim)
        else:
            from scipy.linalg import solve_triangular

            chol_inv = solve_triangular(chol, np.eye(self.dim), lower=True)
        for arr in (mean, prec, chol, chol_inv):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", prec)
        object.__setattr__(self, "_chol_lower", chol)
        object.__setattr__(self, "_chol_inv", chol_inv)
        object.__setattr__(self, "_standard", identity and not mean.any())

    @property
    def chol_lower(self) -> np.ndarray:
        """Lower-triangular L with precision = L L^T."""
        return self._chol_lower

    @property
    def log_norm_const(self) -> float:
        """log of the normalization Z = (2 pi)^{d/2} det(P)^{-1/2}."""
        half_logdet = float(np.sum(np.log(np.diag(self._chol_lower))))
        return 0.5 * self.dim * _LOG_2PI - half_logdet

    def covariance(self) -> np.ndarray:
        return self._chol_inv.T @ self._chol_inv

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density, vectorized over rows of x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        delta = x - self.mean
        quad = np.einsum("ij,ij->i", delta @ self.precision, delta)
        out = -0.5 * quad - self.log_norm_const
        return out if out.size > 1 else float(out[0])


def standard_normal(dim: int) -> GaussianMeasure:
    return GaussianMeasure(dim, np.zeros(dim), np.eye(dim))


def wiener_measure(
    lattice: TimeLattice, kinetic_matrix: np.ndarray | None = None
) -> GaussianMeasure:
    """Discretized Wiener measure: mean zero, precision = Cameron-Martin Gram.

    With a kinetic weighting B the energy of the sampled measure is exactly
    sum_j 0.5 (dpsi_j/dt)^T B (dpsi_j/dt) dt.
    """
    gram = cm_gram(lattice, kinetic_matrix)
    return GaussianMeasure(lattice.dim, np.zeros(lattice.dim), gram.matrix)


# ---------------------------------------------------------------------------
# sampling and quadrature engines


def _worker_rngs(seed: int, workers: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(workers)]


def _worker_shares(n: int, workers: int) -> list[int]:
    base, rem = divmod(n, workers)
    return [base + (1 if w < rem else 0) for w in range(workers)]


def _transform(m: GaussianMeasure, z: np.ndarray) -> np.ndarray:
    """Map standard normal rows z onto m; z itself is returned for N(0, I).

    x = mean + L^{-T} z has covariance (L L^T)^{-1} = P^{-1}.
    """
    if m._standard:
        return z
    x = z @ m._chol_inv
    if m.mean.any():
        x += m.mean
    return x


@lru_cache(maxsize=32)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(order)


# a batch's thunk builds its points and their weights (None for Monte Carlo)
_Batch = Callable[[], tuple[np.ndarray, Optional[np.ndarray]]]
# a batch's rows, column sums, and column means and M2 terms (None when weighted)
_Summary = tuple[int, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]


def _draw(m: GaussianMeasure, rng: np.random.Generator, rows: int) -> tuple[np.ndarray, None]:
    """Draw a batch from its own generator and map it onto m."""
    # the standard draws are a temporary: row_fn runs on the mapped points alone
    return _transform(m, rng.standard_normal((rows, m.dim))), None


def _mc_batches(m: GaussianMeasure, q: QuadratureSpec) -> list[_Batch]:
    """Every Monte Carlo batch in slot order: each worker stream cut into the fewest
    near-equal batches of at most _BATCH_ROWS rows (each row counts 1/n), stream-major.

    Batch i of a stream draws from the stream's generator jumped i times (batch 0
    from the generator itself).  One PCG64 jump advances the state as if about
    0.618 * 2**128 outputs had been drawn, so the sub-streams of a stream's
    batches start far apart in its 2**128 period, and no batch's draw can reach
    another's: each batch depends on no other.  The jumped generators are built
    here, on the calling thread, before any batch draws, since reading a
    generator's state while a thread draws from it is a race.
    """
    batches = []
    for rng, share in zip(_worker_rngs(q.seed, q.workers), _worker_shares(q.n_samples, q.workers)):
        count = -(-share // _BATCH_ROWS)
        for i in range(count):
            batch_rng = np.random.Generator(rng.bit_generator.jumped(i)) if i else rng
            batches.append(partial(_draw, m, batch_rng, share // count + (i < share % count)))
    return batches


def sample(m: GaussianMeasure, n: int, seed: int, workers: int = 1) -> np.ndarray:
    """Draw n iid samples; deterministic for fixed (seed, workers).

    The rows are _mc_batches' batches in slot order: batch i of a stream is
    drawn from the stream's generator jumped i times, so a stream of more than
    _BATCH_ROWS rows is not one sequential draw of its generator.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    out = np.empty((n, m.dim))
    pos = 0
    for draw in _mc_batches(m, QuadratureSpec(QuadratureKind.MONTE_CARLO, n, seed, workers)):
        x, _ = draw()
        out[pos : pos + len(x)] = x
        pos += len(x)
    return out


@lru_cache(maxsize=1)
def _openblas_threads() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The getter and setter of numpy's bundled OpenBLAS thread count, or None where they are missing."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


# glibc's mallopt settings, in the order they are made: (parameter, value)
_MALLOPTS = (
    (-3, 32 << 20),  # M_MMAP_THRESHOLD, bytes: the most glibc accepts on 64-bit
    (-1, 64 << 20),  # M_TRIM_THRESHOLD, bytes: over twice the largest batch working set
    (-8, 1),  # M_ARENA_MAX: every thread allocates from the main arena
)
_MALLOC_TUNABLES = (
    "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_", "MALLOC_ARENA_MAX"
)


@lru_cache(maxsize=1)
def _keep_batch_heap() -> bool:
    """Keep freed batch memory mapped, so each batch reuses the pages of the batch before it:
    True where glibc's malloc took _MALLOPTS (once per process), else False.

    A batch allocates and frees a few MiB of numpy temporaries.  The largest
    single array is a dim-64 batch of points, 8192 * 64 * 8 bytes = 4 MiB (8
    MiB as complex positions in real time), and the traced peak of a
    benchmark pass, two batches in flight, is 24 MiB above its start on
    cauchy_paths (15 on mc_ibp, 16 on shipped_configs, 4 on exact_oracles).
    By default glibc trims a heap's freed top beyond twice its dynamic mmap
    threshold, so the next batch faults the same pages in again: 10^4-10^5
    minor faults per pass of mc_ibp or cauchy_paths, about 100 with these
    settings.  An mmap threshold of 32 MiB puts every batch array on a heap,
    and a trim threshold of 64 MiB, over twice a pass's batch working set,
    keeps the heap's freed top for the next batch.  The two go together: any
    explicit mallopt freezes the dynamic threshold, and either one alone
    faults more than the default.  Kept heaps cost memory per arena, and
    each call starts two new pool threads, which now and then start before
    the last call's threads have handed their arenas back, so glibc makes
    them new ones: with the thresholds alone an mc_ibp process kept 2 to 3
    thread arenas of up to 10 MiB each, and its peak RSS read 86 to 103
    MiB.  One arena for every thread kept it at 82 to 86 MiB.  Up to 64 MiB
    of freed memory stays mapped.  Nothing is set without glibc's mallopt
    or where the environment already tunes glibc's malloc.
    """
    if any(name in os.environ for name in _MALLOC_TUNABLES) or "glibc.malloc." in os.environ.get(
        "GLIBC_TUNABLES", ""
    ):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # in order, up to the first refusal: without the mmap threshold the others would do harm
    return all(mallopt(param, value) for param, value in _MALLOPTS)


def _mc_threads() -> int:
    """Threads that evaluate batches, Monte Carlo or Gauss-Hermite: two where OpenBLAS can be
    held to one thread."""
    return 1 if _openblas_threads() is None else 2


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold OpenBLAS to one thread, so the two evaluation threads do not contend with its own."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _gh_points(
    m: GaussianMeasure, nodes: np.ndarray, w: np.ndarray, first: int, last: int
) -> tuple[np.ndarray, np.ndarray]:
    """Points on m and weights of the tensor rule's flat indices first..last - 1 in C order.

    nodes and w are the 1-D rule's standard-normal nodes and its weights; an
    index's digits in base len(w), most significant first, pick the node and
    the weight of each axis.
    """
    n, index, digits = len(w), np.arange(first, last), []
    for _ in range(m.dim):
        # divmod by n, with the remainder from the quotient: numpy's // is far faster than its %
        high = index // n
        digits.append(index - high * n)
        index = high
    digits.reverse()
    z = np.empty((last - first, m.dim))
    weights = w[digits[0]]
    for axis, digit in enumerate(digits):
        z[:, axis] = nodes[digit]
        if axis:
            weights = weights * w[digit]
    return _transform(m, z), weights / np.pi ** (m.dim / 2.0)


def _gh_batches(m: GaussianMeasure, q: QuadratureSpec) -> Iterator[_Batch]:
    """Every batch of the Gauss-Hermite tensor rule: consecutive index ranges of at most
    _BATCH_ROWS nodes in C order, with weights that sum to 1 over the whole rule.  Each
    batch builds its own nodes and weights, so only a few batches of the order**dim nodes
    are ever held."""
    if m.dim > _MAX_GH_DIM:
        raise ValueError(
            f"gauss_hermite quadrature is guarded to dim <= {_MAX_GH_DIM}, got dim {m.dim}"
        )
    xi, w = _hermite_rule(q.n_samples)
    nodes, n_nodes = np.sqrt(2.0) * xi, len(xi) ** m.dim
    for first in range(0, n_nodes, _BATCH_ROWS):
        yield partial(_gh_points, m, nodes, w, first, min(first + _BATCH_ROWS, n_nodes))


def _eval_rows(row_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, n_cols: int) -> np.ndarray:
    """row_fn's (rows, n_cols) block on x; a row with a non-finite value raises ValueError."""
    cols = np.asarray(row_fn(x), dtype=float).reshape(len(x), n_cols)
    bad = np.count_nonzero(~np.isfinite(cols).all(axis=1))
    if bad:
        raise ValueError(f"{bad} of {len(cols)} rows in a batch have a non-finite value")
    return cols


def _summarize(cols: np.ndarray, weights: Optional[np.ndarray]) -> _Summary:
    """(rows, column sums, column means, column M2 terms) of an unweighted batch;
    (rows, weighted column sums, None, None) of a weighted one."""
    c = len(cols)
    # one contiguous row per column: numpy sums each pairwise, whatever the column count
    cols = np.ascontiguousarray(cols.T)
    if weights is not None:
        return c, (cols * weights).sum(axis=1), None, None
    col_sums = cols.sum(axis=1)
    c_mean = col_sums / c
    return c, col_sums, c_mean, ((cols - c_mean[:, None]) ** 2).sum(axis=1)


def _merge(summaries: list[_Summary], n_cols: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Column sums, rows and M2 of the summaries, folded in their order: (count, mean, M2)
    by the Chan-Golub-LeVeque update; weighted summaries add their sums alone."""
    sums, total, mean, m2 = np.zeros(n_cols), 0, np.zeros(n_cols), np.zeros(n_cols)
    for c, col_sums, c_mean, c_m2 in summaries:
        sums += col_sums
        if c_mean is None:
            continue
        delta = c_mean - mean
        merged = total + c
        mean += delta * (c / merged)
        m2 += c_m2 + delta * delta * (total * c / merged)
        total = merged
    return sums, total, m2


def _run_batches(
    batches: Iterable[_Batch], row_fn: Callable[[np.ndarray], np.ndarray], n_cols: int
) -> list[_Summary]:
    """The summary of each batch's (rows, n_cols) block, in the batches' (slot) order.

    In a pool thread each batch builds its points, evaluates row_fn on them and
    summarizes the block.  At most one batch more than the pool has threads is
    submitted ahead of the result the calling thread waits on; once a batch
    fails, no batch builds its points or calls row_fn again, and the batches
    still queued are cancelled.  A lone batch, or a pool of one thread, runs on
    the calling thread.
    """
    _keep_batch_heap()
    batches = list(batches)

    def evaluate(x: np.ndarray, weights: Optional[np.ndarray]) -> _Summary:
        return _summarize(_eval_rows(row_fn, x, n_cols), weights)

    with _one_blas_thread():
        threads = _mc_threads()
        if len(batches) < 2 or threads == 1:
            return [evaluate(*points()) for points in batches]
        failed = threading.Event()

        def run(points: _Batch) -> Optional[_Summary]:
            if failed.is_set():  # None: the call raises at the failed batch's result
                return None
            try:
                return evaluate(*points())
            except BaseException:
                failed.set()
                raise

        summaries = []
        pool = ThreadPoolExecutor(threads, thread_name_prefix="logmeasure-batches")
        try:
            # submitted lazily, each batch in the caller's context, so np.errstate and the like carry over
            futures = (pool.submit(contextvars.copy_context().run, run, points) for points in batches)
            pending = deque(islice(futures, threads + 1))
            while pending:
                summaries.append(pending.popleft().result())
                pending.extend(islice(futures, 1))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    return summaries


def _integrate_columns(
    m: GaussianMeasure, q: QuadratureSpec, row_fn: Callable[[np.ndarray], np.ndarray], n_cols: int
) -> list[Estimate]:
    """Integrate each column of row_fn against m, one batch at a time.

    row_fn maps a batch (c, dim) to (c, n_cols).  A Monte Carlo value is the
    plain column sum over n; its standard error comes from per-batch
    (count, mean, M2) merged by the Chan-Golub-LeVeque update, which keeps
    its digits when the column's mean dwarfs its spread.  Gauss-Hermite
    values are weighted sums and carry std_error None.  Both rules evaluate
    their batches of at most _BATCH_ROWS rows on two threads (_run_batches)
    and fold the summaries once, in slot order (_merge).  A batch with a
    non-finite row raises ValueError rather than returning a NaN estimate,
    and so does a Monte Carlo spec of fewer than 2 samples, whose standard
    error is undefined.
    """
    if q.kind is QuadratureKind.GAUSS_HERMITE:
        sums, _, _ = _merge(_run_batches(_gh_batches(m, q), row_fn, n_cols), n_cols)
        return [Estimate(float(v)) for v in sums]
    if q.n_samples < 2:
        raise ValueError("a Monte Carlo estimate needs at least 2 samples for its standard error")
    sums, total, m2 = _merge(_run_batches(_mc_batches(m, q), row_fn, n_cols), n_cols)
    ses = np.sqrt(m2 / total / (total - 1))
    return [Estimate(float(v), float(se)) for v, se in zip(sums / total, ses)]


def expectation(
    m: GaussianMeasure,
    f: Union[TestFunction, Callable[[np.ndarray], np.ndarray]],
    q: QuadratureSpec,
) -> Estimate:
    """Integrate a scalar observable against the measure.

    Gauss-Hermite is exact for polynomials of degree <= 2 * order - 1; Monte
    Carlo attaches a standard error.
    """
    fn = f.evaluator if isinstance(f, TestFunction) else f
    return _integrate_columns(m, q, lambda x: np.asarray(fn(x)).reshape(-1, 1), 1)[0]


# ---------------------------------------------------------------------------
# logarithmic derivatives


def log_derivative_along_vector(m: GaussianMeasure, k: np.ndarray, x: np.ndarray) -> float:
    """beta(k, x) = -(x - mean)^T P k under the shift convention S(t)x = x - t k."""
    k = np.asarray(k, dtype=float).reshape(m.dim)
    x = np.asarray(x, dtype=float).reshape(m.dim)
    return float(-(x - m.mean) @ (m.precision @ k))


def _vector_log_derivative_batch(m: GaussianMeasure, kk: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Row-wise beta(k_i, x_i) for stacked vectors and points."""
    if m._standard:
        return -np.einsum("ij,ij->i", xx, kk)
    delta = xx - m.mean if m.mean.any() else xx
    return -np.einsum("ij,ij->i", delta @ m.precision, kk)


def _check_field_dim(m: GaussianMeasure, h: VectorField) -> None:
    if h.dim != m.dim:
        raise ValueError(f"field dimension {h.dim} does not match measure dimension {m.dim}")


def log_derivative_along_field(
    m: GaussianMeasure, h: VectorField, x: np.ndarray
) -> FieldLogDerivative:
    """beta_h(x) = beta(h(x), x) + trace h'(x), with the summands kept apart.

    The difference between the field derivative and the derivative along the
    frozen vector k = h(x) is exactly the trace term.
    """
    _check_field_dim(m, h)
    x = np.asarray(x, dtype=float).reshape(m.dim)
    vector_term = log_derivative_along_vector(m, h.eval_at(x), x)
    trace_term = h.divergence_at(x)
    return FieldLogDerivative(vector_term, trace_term, vector_term + trace_term)


def _field_log_derivative_rows(
    m: GaussianMeasure, h: VectorField, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise h(x), beta(h(x), x) and div h(x) on a batch; h is evaluated once."""
    hx = np.asarray(h.eval(x), dtype=float)
    return hx, _vector_log_derivative_batch(m, hx, x), h.divergence_batch(x)


def _ibp_integrand(
    m: GaussianMeasure, phi: TestFunction, h: VectorField, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise phi' . h, phi, beta(h(x), x) and div h on a batch."""
    # phi.gradient runs before h: holding hx, beta and div through it raised the MC peak RSS
    grad = np.asarray(phi.gradient(x), dtype=float)
    hx, beta, div = _field_log_derivative_rows(m, h, x)
    grad_dot_h = np.einsum("ij,ij->i", grad, hx)
    return grad_dot_h, np.asarray(phi.evaluator(x), dtype=float), beta, div


def ibp_residual(
    m: GaussianMeasure, phi: TestFunction, h: VectorField, q: QuadratureSpec
) -> Estimate:
    """Integration-by-parts residual E[phi' . h] + E[phi * beta_h]; zero in exact arithmetic.

    Monte Carlo evaluates the residual as a single per-sample column so the
    returned standard error is the standard error of the residual itself.
    """
    _check_field_dim(m, h)

    def rows(x: np.ndarray) -> np.ndarray:
        grad_dot_h, phi_x, beta, div = _ibp_integrand(m, phi, h, x)
        return (grad_dot_h + phi_x * (beta + div)).reshape(-1, 1)

    return _integrate_columns(m, q, rows, 1)[0]


def ibp_terms(
    m: GaussianMeasure, phi: TestFunction, h: VectorField, q: QuadratureSpec
) -> tuple[Estimate, Estimate, Estimate]:
    """The three summands E[phi' . h], E[phi beta(h(x), x)] and E[phi div h] in one pass.

    They sum to ibp_residual up to rounding; the last is the trace term that
    the frozen-vector derivative misses.
    """
    _check_field_dim(m, h)

    def rows(x: np.ndarray) -> np.ndarray:
        grad_dot_h, phi_x, beta, div = _ibp_integrand(m, phi, h, x)
        return np.stack([grad_dot_h, phi_x * beta, phi_x * div], axis=1)

    return tuple(_integrate_columns(m, q, rows, 3))
