"""Peak memory of assembly, condensation, the multigrid set-up, a study
and the full-saddle oracle, relative to what they return or must hold.

tracemalloc counts every numpy and scipy buffer. Assembly sums onto the
mesh's P1 pattern without COO triplets, and condensation drops each
intermediate before the next product, so its peak is the H product. The
bounds sit 26% and 11% above the ratios measured at n=64 (assemble 3.17,
condense 2.62; at n=256 2.62 and 2.57). Building the blocks from COO
triplets, summing K term by term, and keeping every intermediate of
condense to the end read 7.89, 3.72 and 2.96 at n=64. The multigrid
set-up, prolongations included, reads 0.91 times K's bytes at n=64
(0.85 at n=256) while it keeps every K_l P_l; a copy of K for its l1
row sums and 64-bit transfers read 1.54. A study holds one
level at a time, so its peak is that of its finest level alone: 1.006
times at levels 32, 64, 128 of example 2, against 1.19 when every
level's mesh, blocks and K were kept to the end. The oracle's dense
5N x 5N matrix is made in Fortran order and factorised in place: 1.14
times the matrix at n=16, against 2.02 when LU copied it and 3.72 with
dense copies of every block and an |a| temporary for the pivot check.
"""

import pickle
import tracemalloc

from trifield.assembly import assemble
from trifield.cli import StudyConfig, multigrid_hierarchy, run_study
from trifield.condense import condense, solve_full_saddle
from trifield.linsolve import multigrid_preconditioner
from trifield.mesh import build_structured_unit_square, prolongation
from trifield.problems import ExampleId, example2

N_LEVEL = 64
ASSEMBLE_PEAK_RATIO = 4.0
CONDENSE_PEAK_RATIO = 2.9
MULTIGRID_PEAK_RATIO = 1.1
STUDY_LEVELS = (32, 64, 128)
STUDY_PEAK_RATIO = 1.05
STUDY_RESULT_BYTES = 10_000
ORACLE_LEVEL = 16
ORACLE_PEAK_RATIO = 1.3


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


def test_multigrid_set_up_peak_stays_below_the_operator():
    k = condense(assemble(build_structured_unit_square(N_LEVEL), example2()), 0.5, 10.0).K

    def set_up():
        prolongations = [prolongation(m) for m in multigrid_hierarchy(N_LEVEL)[1:]]
        return multigrid_preconditioner(k, prolongations)

    _, peak = _traced_peak(set_up)
    assert peak / _csr_bytes(k) <= MULTIGRID_PEAK_RATIO, peak / _csr_bytes(k)


def test_a_study_holds_one_level_at_a_time():
    config = StudyConfig(example=ExampleId.EXAMPLE2, levels=STUDY_LEVELS)
    run_study(StudyConfig(example=ExampleId.EXAMPLE2, levels=(2,)))  # rules cached

    result, peak = _traced_peak(lambda: run_study(config))
    finest = StudyConfig(example=ExampleId.EXAMPLE2, levels=STUDY_LEVELS[-1:])
    _, finest_peak = _traced_peak(lambda: run_study(finest))
    assert peak / finest_peak <= STUDY_PEAK_RATIO, peak / finest_peak
    # the result keeps the table and one solver record per level
    assert len(pickle.dumps(result)) < STUDY_RESULT_BYTES


def test_full_saddle_peak_is_the_dense_matrix_and_its_factor():
    blocks = assemble(build_structured_unit_square(ORACLE_LEVEL), example2())
    dense_bytes = 8 * (5 * blocks.n_primal) ** 2

    _, peak = _traced_peak(lambda: solve_full_saddle(blocks, 0.5, 10.0))
    assert peak / dense_bytes <= ORACLE_PEAK_RATIO, peak / dense_bytes
