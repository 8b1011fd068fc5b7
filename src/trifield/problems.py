"""Built-in manufactured solutions with hand-derived sources.

Each problem bundles the exact solution, its gradient, the matching
source f = -laplacian(u) and the Dirichlet trace g_D. The sources for
the two verification examples were derived symbolically offline; the
finite-difference tests guard the transcription, and the textbook
formulas of example 2 are kept in its tests as the reference for the
factored forms below. All callables are vectorised over numpy
coordinate arrays.

Quadrature calls the fields at every degree-6 point of every level
(1.57M points at n = 256), so a field's cost is paid per point. To keep
it low, a field computes each subexpression once (x*y, x*x, exp, sin,
cos) and writes integer powers as products: `x**2` is a square, but
`x**3` and `x**4` take numpy's general power, several times the cost of
a multiply. It combines its temporaries in place (`u += v`) and writes
a gradient's two components into one `np.empty((2, *shape))` through
`out=g[0, ...]` (a view also when the points are scalars) instead of
stacking them. Example 2 takes sin(xy) and cos(xy) from one tan(xy/2)
(`_sin_cos`), a third of their cost where numpy vectorises tan. A field
returns a new array and never writes into x or y; the library never
writes into a field's result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

Field = Callable[[np.ndarray, np.ndarray], np.ndarray]


class ExampleId(enum.Enum):
    EXAMPLE1 = "example1"
    EXAMPLE2 = "example2"
    LINEAR_PATCH = "linear_patch"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ProblemData:
    """Source, Dirichlet data and (optionally) the manufactured solution.

    A problem is only its fields; reports name a study's problem by the
    config's `ExampleId`. Every field must be pointwise: called with
    float coordinates x and y of one shape (Python floats, 0-d or n-d
    float arrays), it returns float64 values of that shape
    (exact_grad_u: (2, *shape), the two components), each depending
    only on its own point. Quadrature evaluates the fields block by
    block of triangles (see `femcore.quadrature_blocks`), so a field
    that mixed points would change with the block size.

    A field returns a new array that shares no memory with x or y, and
    leaves x and y unchanged. The library only reads what a field
    returns, so a field may return a read-only array. See the module
    docstring for how to keep a field's per-point cost low.
    """

    f: Field
    g_dirichlet: Field
    exact_u: Field | None = None
    exact_grad_u: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def example1() -> ProblemData:
    """u = x y (1-x) (1-y), vanishing on the whole boundary."""

    def exact_u(x, y):
        return x * y * (1.0 - x) * (1.0 - y)

    def exact_grad_u(x, y):
        g = np.empty((2, *np.broadcast_shapes(np.shape(x), np.shape(y))))
        gx, gy = g[0, ...], g[1, ...]  # views, also for scalar points
        np.multiply(y * (1.0 - y), 1.0 - 2.0 * x, out=gx)
        np.multiply(x * (1.0 - x), 1.0 - 2.0 * y, out=gy)
        return g

    def f(x, y):
        return 2.0 * x * (1.0 - x) + 2.0 * y * (1.0 - y)

    def g_dirichlet(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ProblemData(f, g_dirichlet, exact_u, exact_grad_u)


def _sin_cos(a):
    """sin(a) and cos(a) through t = tan(a/2): sin = 2t / (1 + t^2) and
    cos = 2 / (1 + t^2) - 1.

    numpy evaluates float64 sin and cos point by point, but vectorises
    tan on AVX-512 hosts, where this takes 6.8 ns a point against
    23.5 ns for sin and cos. sin keeps a relative error of a few ulp;
    cos an absolute one of a few ulp, relative where |cos| is not small.
    """
    t = np.tan(0.5 * a)
    h = 2.0 / (1.0 + t * t)
    t *= h
    h -= 1.0
    return t, h


def example2() -> ProblemData:
    """u = exp(x^2 + y^2) + y^2 cos(xy) + x^2 sin(xy), inhomogeneous boundary."""

    def exact_u(x, y):
        xx, yy, xy = x * x, y * y, x * y
        u = np.exp(xx + yy)
        s, c = _sin_cos(xy)
        yy *= c
        xx *= s
        u += yy
        u += xx
        return u

    def exact_grad_u(x, y):
        # u_x = 2x (e + s) + y w and u_y = 2y (e + c) + x w, with
        # e = exp(x^2 + y^2), s, c = sin(xy), cos(xy) and w = x^2 c - y^2 s
        xx, yy, xy = x * x, y * y, x * y
        e = np.exp(xx + yy)
        s, c = _sin_cos(xy)
        xx *= c
        yy *= s
        w = xx
        w -= yy
        s += e
        c += e
        g = np.empty((2, *np.shape(xy)))
        gx, gy = g[0, ...], g[1, ...]  # views, also for scalar points
        np.multiply(x, s, out=gx)
        np.multiply(y, c, out=gy)
        gx *= 2.0
        gy *= 2.0
        gx += y * w
        w *= x
        gy += w
        return g

    def f(x, y):
        # -(4 (1 + r^2) e + (a + b - y^4) c + (a - b - x^4) s) with
        # r^2 = x^2 + y^2, a = 2 - x^2 y^2 and b = 4xy
        xx, yy, xy = x * x, y * y, x * y
        f = xx + yy
        e = np.exp(f)
        s, c = _sin_cos(xy)
        f += 1.0
        f *= -4.0
        f *= e
        p = xy * xy
        p -= 2.0           # -a
        xy *= 4.0          # b
        yy *= yy
        yy += p
        yy -= xy
        yy *= c
        xx *= xx
        xx += p
        xx += xy
        xx *= s
        f += yy
        f += xx
        return f

    return ProblemData(f, lambda x, y: exact_u(x, y), exact_u, exact_grad_u)


def linear_patch(a: float = 1.0, b: float = 2.0, c: float = 3.0) -> ProblemData:
    """u = a + b x + c y; harmonic, so f = 0 and only the trace drives the solve."""

    def exact_u(x, y):
        return a + b * x + c * y

    def exact_grad_u(x, y):
        g = np.empty((2, *np.broadcast_shapes(np.shape(x), np.shape(y))))
        g[0], g[1] = b, c
        return g

    def f(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ProblemData(f, lambda x, y: exact_u(x, y), exact_u, exact_grad_u)


def by_id(example: ExampleId) -> ProblemData:
    if example is ExampleId.EXAMPLE1:
        return example1()
    if example is ExampleId.EXAMPLE2:
        return example2()
    if example is ExampleId.LINEAR_PATCH:
        return linear_patch()
    raise ValueError("custom problems are constructed programmatically")
