"""Record the reference error norms that the benchmark's correctness gate uses.

    python3 perfbench/record_references.py   # from the root of a checkout

Writes perfbench/references.json: err_u_l2, err_u_h1h and err_sigma_l2 of
every conv-ex2-256 level and of every sweep-ex1-32 candidate point. Run it
only when a change is meant to alter these numbers, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.prepare(run.checkout_src(Path.cwd()))  # the benchmark's BLAS threads and sources

import trifield  # noqa: E402
import workloads as w  # noqa: E402


def errors(example, levels, r=0.5, alpha=10.0) -> dict:
    config = trifield.StudyConfig(example=example, levels=levels, r=r, alpha=alpha)
    outcome = w.Call("study", config).run(None)
    return {str(n): e for n, e in zip(outcome["levels"], outcome["errors"])}


def main() -> None:
    studies = {w.study_key(trifield.ExampleId.EXAMPLE2, 0.5, 10.0):
               errors(trifield.ExampleId.EXAMPLE2, w.CONV_LEVELS)}
    for r in w.SWEEP_R:
        for alpha in w.SWEEP_ALPHA:
            studies[w.study_key(trifield.ExampleId.EXAMPLE1, r, alpha)] = errors(
                trifield.ExampleId.EXAMPLE1, w.SWEEP_LEVELS, r, alpha)
    w.REFERENCES_PATH.write_text(json.dumps({"studies": studies}, indent=1) + "\n")
    print(f"wrote {len(studies)} studies to {w.REFERENCES_PATH}")


if __name__ == "__main__":
    main()
