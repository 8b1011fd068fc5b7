"""Peak memory of assembly, condensation, the multigrid set-up, a study
and the full-saddle oracle, relative to what they return or must hold.

tracemalloc counts every numpy and scipy buffer. Assembly sums onto the
mesh's P1 pattern without COO triplets, and condensation drops each
intermediate before the next product, so its peak is the H product. The
bounds sit 36% and 13% above the ratios measured at n=64 (assemble 2.95,
condense 2.58; at n=256 2.40 and 2.54). A canonical copy of the scalar
mass before it is stacked into M read 3.02 (2.47 at n=256). Building the
blocks from COO triplets, summing K term by term, and keeping every
intermediate of condense to the end read 7.89, 3.72 and 2.96 at n=64.
The multigrid set-up, prolongations included, reads 0.94 times K's
bytes at n=64 (0.85 at n=256) while it keeps one record per level, K_l
P_l included;
a copy of K for its l1 row sums and 64-bit transfers read 1.54. A study
holds one level at a time, so its peak is that of its finest level
alone: 1.006 times at levels 32, 64, 128 of example 2, against 1.19 when
every level's mesh, blocks and K were kept to the end. The oracle factorises
its 5N x 5N matrix in LAPACK band storage, (2 kl + ku + 1) x 5N doubles,
and never makes it dense: built from the blocks' CSR arrays with 32-bit
indices, its peak is 1.25 times the band at n=16 (1.07 at n=64), or 0.24
times the dense matrix, whose in-place dense LU peaked at 1.14 times
that matrix. Built through `scipy.sparse.block_array`, it read 1.28
(1.08).

Each test runs alone as in the full suite: a fixture first runs the
traced paths at a tiny level, so that neither the quadrature rules nor
`scipy.linalg`, which the oracle loads on first use, are counted in a
peak.
"""

import pickle
import tracemalloc

import pytest

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
ORACLE_PEAK_RATIO = 0.35  # of the dense 5N x 5N matrix
ORACLE_BAND_PEAK_RATIO = 1.45  # of the LU's band storage


def _csr_bytes(mat):
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


@pytest.fixture(autouse=True, scope="module")
def _warm():
    """Cache the quadrature rules and load what the traced paths import."""
    blocks = assemble(build_structured_unit_square(4), example2())
    multigrid_preconditioner(condense(blocks, 0.5, 10.0).K, [prolongation(2)])
    solve_full_saddle(blocks, 0.5, 10.0)


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


def test_full_saddle_peak_is_the_band_storage_of_its_lu():
    blocks = assemble(build_structured_unit_square(ORACLE_LEVEL), example2())
    size = 5 * blocks.n_primal
    dense_bytes = 8 * size**2
    # numbered vertex by vertex, an unknown couples to the farthest unknown
    # of its diagonal neighbour, n + 2 vertices on: kl = ku = 5 (n + 2) + 4
    kl = ku = 5 * (ORACLE_LEVEL + 2) + 4
    band_bytes = 8 * (2 * kl + ku + 1) * size

    _, peak = _traced_peak(lambda: solve_full_saddle(blocks, 0.5, 10.0))
    assert peak / dense_bytes <= ORACLE_PEAK_RATIO, peak / dense_bytes
    assert peak / band_bytes <= ORACLE_BAND_PEAK_RATIO, peak / band_bytes
