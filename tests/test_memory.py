"""Peak memory of assembly, condensation and the full-saddle oracle,
relative to what they return or must hold.

tracemalloc counts every numpy and scipy buffer. Assembly sums onto the
mesh's P1 pattern without COO triplets, and condensation holds one
full-size temporary beside K. The bounds sit 26% and 11% above the
ratios measured at n=64 (assemble 3.17, condense 2.96; at n=256 2.62 and
2.90). Building the blocks from COO triplets and summing K term by term
read 7.89 and 3.72 at n=64. The oracle holds its dense 5N x 5N matrix
and the LU factor of it: 2.02 times the matrix at n=16, against 3.72
with dense copies of every block and an |a| temporary for the pivot check.
"""

import tracemalloc

from trifield.assembly import assemble
from trifield.condense import condense, solve_full_saddle
from trifield.mesh import build_structured_unit_square
from trifield.problems import example2

N_LEVEL = 64
ASSEMBLE_PEAK_RATIO = 4.0
CONDENSE_PEAK_RATIO = 3.3
ORACLE_LEVEL = 16
ORACLE_PEAK_RATIO = 2.2


def _csr_bytes(mat):
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def _traced_peak(fn):
    """fn's result and the peak traced bytes it allocated."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_assembly_and_condensation_peaks_stay_near_their_outputs():
    data = example2()
    assemble(build_structured_unit_square(2), data)  # quadrature rules cached
    mesh = build_structured_unit_square(N_LEVEL)

    # the geometry and pattern of the fresh mesh are built inside assemble
    blocks, peak = _traced_peak(lambda: assemble(mesh, data))
    kept = sum(_csr_bytes(getattr(blocks, name)) for name in "SMABC")
    kept += sum(getattr(blocks, name).nbytes
                for name in ("D", "f1_source", "f1_penalty", "f2"))
    assert peak / kept <= ASSEMBLE_PEAK_RATIO, peak / kept

    system, peak = _traced_peak(lambda: condense(blocks, 0.5, 10.0))
    assert peak / _csr_bytes(system.K) <= CONDENSE_PEAK_RATIO, peak / _csr_bytes(system.K)


def test_full_saddle_peak_is_the_dense_matrix_and_its_factor():
    blocks = assemble(build_structured_unit_square(ORACLE_LEVEL), example2())
    dense_bytes = 8 * (5 * blocks.n_primal) ** 2

    _, peak = _traced_peak(lambda: solve_full_saddle(blocks, 0.5, 10.0))
    assert peak / dense_bytes <= ORACLE_PEAK_RATIO, peak / dense_bytes
