"""Peak memory of assembly, condensation, a study and the full-saddle
oracle, relative to what they return or must hold.

tracemalloc counts every numpy and scipy buffer. Assembly sums onto the
mesh's P1 pattern without COO triplets, and condensation drops each
intermediate before the next product, so its peak is the H product. The
bounds sit 26% and 11% above the ratios measured at n=64 (assemble 3.17,
condense 2.62; at n=256 2.62 and 2.57). Building the blocks from COO
triplets, summing K term by term, and keeping every intermediate of
condense to the end read 7.89, 3.72 and 2.96 at n=64. A study holds one
level at a time, so its peak is that of its finest level alone: 1.006
times at levels 32, 64, 128 of example 2, against 1.19 when every
level's mesh, blocks and K were kept to the end. The oracle holds its
dense 5N x 5N matrix and the LU factor of it: 2.02 times the matrix at
n=16, against 3.72 with dense copies of every block and an |a| temporary
for the pivot check.
"""

import pickle
import tracemalloc

from trifield.assembly import assemble
from trifield.cli import StudyConfig, run_study
from trifield.condense import condense, solve_full_saddle
from trifield.mesh import build_structured_unit_square
from trifield.problems import ExampleId, example2

N_LEVEL = 64
ASSEMBLE_PEAK_RATIO = 4.0
CONDENSE_PEAK_RATIO = 2.9
STUDY_LEVELS = (32, 64, 128)
STUDY_PEAK_RATIO = 1.05
STUDY_RESULT_BYTES = 10_000
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
