"""The report writer: every cell of the CSV, Markdown and JSON tables
reads back as the value it prints, over errors that include zero, NaN,
infinities and the extremes of the float range."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifield.analysis import ErrorTable
from trifield.cli import OracleCheckResult

ERRORS = ("err_u_l2", "err_u_h1h", "err_sigma_l2")
RATES = ("rate_u_l2", "rate_u_h1h", "rate_sigma_l2")

EDGE_ERRORS = (0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300)
ERROR = st.sampled_from(EDGE_ERRORS) | st.floats(1e-8, 1.0) | st.floats(-1e3, 1e3)


@st.composite
def tables(draw):
    size = draw(st.integers(1, 4))
    levels = tuple(2 ** k for k in range(1, size + 1))
    errors = [tuple(draw(st.lists(ERROR, min_size=size, max_size=size))) for _ in ERRORS]
    return ErrorTable(levels, tuple(2 * n * n for n in levels), *errors)


def _assert_reads_back(cell, value, rel=0.0, abs=0.0):
    """`cell` prints `value` within the tolerance of its printed digits,
    or spells the same non-finite value."""
    if math.isnan(value):
        assert cell == "nan"
    elif math.isinf(value):
        assert float(cell) == value
    else:
        assert math.isclose(float(cell), value, rel_tol=rel, abs_tol=abs), (cell, value)


def _assert_row(cells, table, k, error_rel):
    """One CSV or Markdown row: elements, then each error and its rate."""
    assert int(cells[0]) == table.elements[k]
    for j, (err, rate) in enumerate(zip(ERRORS, RATES)):
        _assert_reads_back(cells[1 + 2 * j], getattr(table, err)[k], rel=error_rel)
        rate_value = getattr(table, rate)[k]
        rate_cell = cells[2 + 2 * j]
        # a rate cell is blank exactly where the rate is NaN
        assert (rate_cell == "") == math.isnan(rate_value)
        if rate_cell:
            _assert_reads_back(rate_cell, rate_value, abs=1e-4)  # printed .4f


def _markdown_cells(line):
    assert line.startswith("| ") and line.endswith(" |")
    return [cell.strip() for cell in line.split("|")[1:-1]]


# ratios of extreme errors overflow, underflow or divide inf by inf in
# the rate's log2, and numpy warns about each
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(table=tables())
def test_every_cell_reads_back_as_its_value(table):
    csv_lines = table.to_csv().splitlines()
    assert csv_lines[0] == "elem,eL2,rateL2,e1h,rate1h,eSig,rateSig"
    assert len(csv_lines) == 1 + len(table.levels)
    for k, line in enumerate(csv_lines[1:]):
        _assert_row(line.split(","), table, k, error_rel=1e-6)  # printed .6e

    md_lines = table.to_markdown().splitlines()
    assert md_lines[:2] == [
        "| elem | err u L2 | rate | err u 1,h | rate | err sigma L2 | rate |",
        "|-----:|---------:|-----:|----------:|-----:|-------------:|-----:|",
    ]
    assert len(md_lines) == 2 + len(table.levels)
    for k, line in enumerate(md_lines[2:]):
        _assert_row(_markdown_cells(line), table, k, error_rel=1e-4)  # printed .4e

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    records = json.loads(table.to_json(), parse_constant=refuse)["levels"]
    assert len(records) == len(table.levels)
    for k, record in enumerate(records):
        assert set(record) == {"level", "elements", *ERRORS, *RATES}
        assert (record["level"], record["elements"]) == (table.levels[k], table.elements[k])
        for name in (*ERRORS, *RATES):
            value = getattr(table, name)[k]
            assert record[name] == (value if math.isfinite(value) else None), name


def test_the_oracle_table_prints_every_discrepancy():
    check = OracleCheckResult((2, 4, 8), (0.0, math.nan, 1e-300),
                              (math.inf, 1e300, 3.2e-15), (1e-14, -math.inf, 5e-10))
    lines = check.render().splitlines()
    assert lines[:2] == ["| n | max rel du | max rel dsigma | max rel dphi |",
                         "|--:|-----------:|---------------:|-------------:|"]
    assert len(lines) == 2 + 3 + 1
    for k, line in enumerate(lines[2:5]):
        cells = _markdown_cells(line)
        assert int(cells[0]) == check.levels[k]
        for cell, column in zip(cells[1:], (check.discrepancy_u, check.discrepancy_sigma,
                                            check.discrepancy_phi), strict=True):
            _assert_reads_back(cell, column[k], rel=1e-3)  # printed .3e
    assert lines[-1] == "oracle check: FAIL (tolerance 1.0e-09)"
