"""Check that the working tree prints what a given revision prints.

Usage: python tools/same_outputs.py REV

Checks out REV in a temporary git worktree and runs the same fixed list
of `python -m trifield` commands on REV's tree and on the working tree,
each with PYTHONPATH=<tree>/src and one BLAS thread. A command's `{out}`
is a fresh temporary directory per run, and the files it writes there
are compared by name and bytes. Prints one line per command, `same` or
`DIFFERS`, and exits 1 if any command's stdout bytes, exit code or
written files differ. The worktree is always removed again. It needs
git history, so it is not part of the test suite; it uses the standard
library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = (
    "--example 1",
    "--example 1 --format csv",
    "--example 1 --format json",
    "--example 1 --levels 64,128 --format json",
    "--example 1 --levels 96 --format json",
    "--example 2 --levels 16,32,64,128,256",
    "--example 2 --levels 16,32,64,128,256 --format csv",
    "--example 2 --levels 16,32,64,128,256 --format json",
    "--example 1 --levels 4,8,16 --oracle",
    "--example 2 --levels 4,8,16,32,64 --oracle",
    "--example 2 --levels 4,8,16 --alpha 1e12 --oracle",  # exits 4, table still printed
    "--example patch --levels 2,4 --format json",
    # MatrixMarket files hold every stored entry, so equal bytes are equal bits
    "--example 2 --levels 4,8,16,32,64 --export-matrices {out} --export-mesh {out}",
)


def run(tree: Path, args: str) -> tuple[int, bytes, dict[str, bytes]]:
    """Exit code, stdout and written files of `python -m trifield ARGS` on a
    tree's sources, with `{out}` in ARGS a fresh temporary directory."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run([sys.executable, "-m", "trifield", *args.format(out=out).split()],
                              cwd=tree, env=env, stdout=subprocess.PIPE)
        files = {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}
    return proc.returncode, proc.stdout, files


def compare(base: Path, rev: str) -> int:
    """Run every command on the tree base (REV's) and on this one; print a
    line per command and a summary, and return the number that differ."""
    differ = 0
    for args in COMMANDS:
        (code_base, out_base, files_base), (code, out, files) = run(base, args), run(ROOT, args)
        same = (code_base, out_base, files_base) == (code, out, files)
        differ += not same
        written = f", {len(files_base)} / {len(files)} files" if files_base or files else ""
        print(f"{'same' if same else 'DIFFERS':8}{args}  (exit {code_base} / {code}, "
              f"stdout {len(out_base)} / {len(out)} bytes{written})", flush=True)
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands print the same as {rev}")
    return differ


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        add = ["git", "worktree", "add", "--quiet", "--detach", str(base), rev]
        if subprocess.run(add, cwd=ROOT).returncode != 0:
            return 2  # git has said why
        try:
            differ = compare(base, rev)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
