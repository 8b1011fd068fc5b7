"""A property test of the whole command line: whatever the flags, `main`
returns an exit code and says why on one line, and never raises.

Each flag is drawn from its valid values, from edge values (0, 1, nan,
inf, 1e-300, 1e300, negative numbers, non-numeric text) and from paths
(missing, a file, a directory, /dev/full). Levels are drawn from 1..8 or
from tokens that validation refuses, so that no level is large enough
to take noticeable time or memory.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from trifield.cli import main

EDGE_NUMBERS = ("0", "1", "nan", "inf", "-inf", "1e-300", "1e300", "-1", "-1e300",
                "abc", "")
REFUSED_LEVELS = ("0", "-1", "-8", "1.5", "nan", "inf", "1e300", "abc", "", "1_6", "٢", "+4")
PATHS = ("missing", "file", "directory", "/dev/full")


def numbers(*valid):
    return st.sampled_from(valid) | st.sampled_from(EDGE_NUMBERS) | st.floats().map(repr)


DOUBLING = st.sampled_from(("1", "2", "4", "8", "1,2", "2,4", "4,8", "1,2,4", "2,4,8",
                            "1,2,4,8"))
LEVELS = DOUBLING | st.lists(st.integers(1, 8).map(str) | st.sampled_from(REFUSED_LEVELS),
                             min_size=1, max_size=4).map(",".join)

# --levels is always given: the default levels reach 64
FLAGS = st.fixed_dictionaries({"levels": LEVELS}, optional={
    "example": st.sampled_from(("1", "2", "patch", "3", "")),
    "r": numbers("0.1", "0.5", "0.9"),
    "alpha": numbers("3", "10", "100"),
    "cg-tol": numbers("1e-12", "1e-8", "0.5"),
    "format": st.sampled_from(("md", "csv", "json", "xml")),
    "out": st.sampled_from(PATHS),
    "oracle": st.booleans(),
    "export-matrices": st.sampled_from(PATHS),
    "export-mesh": st.sampled_from(PATHS),
})

# valid flags only, so that studies that run to the end are drawn often too
VALID_FLAGS = st.fixed_dictionaries({"levels": DOUBLING}, optional={
    "example": st.sampled_from(("1", "2", "patch")),
    "r": st.floats(0.01, 0.99).map(repr),
    "alpha": st.floats(1.0, 1e3).map(repr),
    "cg-tol": st.floats(1e-12, 0.1).map(repr),
    "format": st.sampled_from(("md", "csv", "json")),
    "out": st.sampled_from(("missing", "file")),
    "export-matrices": st.sampled_from(("missing", "directory")),
    "export-mesh": st.sampled_from(("missing", "directory")),
})


def _refuse(constant):
    raise ValueError(f"the report holds the non-standard JSON constant {constant}")


def _path(kind, tmp, flag):
    """The path of one kind under tmp; "missing" is made by the run, once per flag."""
    if kind == "/dev/full":
        return Path(kind)
    return tmp / kind / flag if kind == "missing" else tmp / kind


def _argv(flags, tmp):
    argv = []
    for flag, value in flags.items():
        if flag == "oracle":
            argv += ["--oracle"] if value else []
        elif flag in ("out", "export-matrices", "export-mesh"):
            argv.append(f"--{flag}={_path(value, tmp, flag)}")
        else:
            argv.append(f"--{flag}={value}")
    return argv


@settings(max_examples=100, deadline=None)
@given(flags=FLAGS | VALID_FLAGS)
@example(flags={"example": "2", "alpha": "1e300", "levels": "1,2", "oracle": True})
@example(flags={"levels": "2", "r": "abc"})
@example(flags={"levels": "2,4", "format": "json"})
@example(flags={"levels": "2,4", "format": "json", "out": "missing"})
@example(flags={"levels": "2", "out": "/dev/full"})
@example(flags={"levels": "2", "export-mesh": "file"})
def test_main_exits_with_a_code_and_one_error_line(flags):
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "file").write_text("x")
        (tmp / "directory").mkdir()
        argv = _argv(flags, tmp)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # not an Exception, so hypothesis would not shrink it
                raise AssertionError(f"main exited with {exc.code!r}") from exc
        assert code in (0, 2, 3, 4), (argv, code)
        if any(tok in REFUSED_LEVELS for tok in flags["levels"].split(",")):
            assert code == 2, argv
        lines = stderr.getvalue().splitlines()
        if code != 0:
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
            return
        assert lines == [], argv
        if flags.get("format") == "json":
            out = flags.get("out")
            text = stdout.getvalue() if out is None else _path(out, tmp, "out").read_text()
            json.loads(text, parse_constant=_refuse)
