"""Built-in manufactured solutions with hand-derived sources.

Each problem bundles the exact solution, its gradient, the matching
source f = -laplacian(u) and the Dirichlet trace g_D. The sources for
the two verification examples were derived symbolically offline; the
finite-difference tests guard the transcription. All callables are
vectorised over numpy coordinate arrays.
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
    coordinate arrays x and y of one shape, it returns values of that
    shape (exact_grad_u: stacked as (2, *shape)), each depending only on
    its own point. Quadrature evaluates the fields block by block of
    triangles (see `femcore.quadrature_blocks`), so a field that mixed
    points would change with the block size.
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
        return np.stack(
            [y * (1.0 - y) * (1.0 - 2.0 * x), x * (1.0 - x) * (1.0 - 2.0 * y)]
        )

    def f(x, y):
        return 2.0 * x * (1.0 - x) + 2.0 * y * (1.0 - y)

    def g_dirichlet(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ProblemData(f, g_dirichlet, exact_u, exact_grad_u)


def example2() -> ProblemData:
    """u = exp(x^2 + y^2) + y^2 cos(xy) + x^2 sin(xy), inhomogeneous boundary."""

    def exact_u(x, y):
        return np.exp(x**2 + y**2) + y**2 * np.cos(x * y) + x**2 * np.sin(x * y)

    def exact_grad_u(x, y):
        e = np.exp(x**2 + y**2)
        s, c = np.sin(x * y), np.cos(x * y)
        ux = 2.0 * x * e - y**3 * s + 2.0 * x * s + x**2 * y * c
        uy = 2.0 * y * e + 2.0 * y * c - x * y**2 * s + x**3 * c
        return np.stack([ux, uy])

    def f(x, y):
        e = np.exp(x**2 + y**2)
        s, c = np.sin(x * y), np.cos(x * y)
        return -(
            (4.0 + 4.0 * x**2 + 4.0 * y**2) * e
            + (2.0 + 4.0 * x * y - y**4 - x**2 * y**2) * c
            + (2.0 - 4.0 * x * y - x**4 - x**2 * y**2) * s
        )

    return ProblemData(f, lambda x, y: exact_u(x, y), exact_u, exact_grad_u)


def linear_patch(a: float = 1.0, b: float = 2.0, c: float = 3.0) -> ProblemData:
    """u = a + b x + c y; harmonic, so f = 0 and only the trace drives the solve."""

    def exact_u(x, y):
        return a + b * x + c * y

    def exact_grad_u(x, y):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        return np.stack([np.full(shape, float(b)), np.full(shape, float(c))])

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
