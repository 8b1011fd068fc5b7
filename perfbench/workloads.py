"""Benchmark workloads: inputs drawn from the seed, one closed-loop pass over
trifield's public entry points, and the correctness checks on the outputs.

The program receives nothing but `StudyConfig` values (and, for studies,
the `ProblemData` of the built-in example), so the seed only chooses which
sweep points run and in which order.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import trifield
from trifield import ExampleId, StudyConfig

#: why each workload is in the benchmark
WORKLOADS = {
    "conv-ex2-256": "headline rate study to n=256; Jacobi-CG iterations grow as ~3n, "
                    "so linsolve does most of the work",
    "sweep-ex1-32": "20 (r, alpha) studies at n<=32; mesh, assembly, condense, errors "
                    "and per-call overhead dominate, CG is ~10%",
    "oracle-ex12-16": "dense 5N x 5N full-saddle LU through BLAS against the condensed "
                      "path; the only workload on the dense route",
}

CONV_LEVELS = (16, 32, 64, 128, 256)
SWEEP_LEVELS = (8, 16, 32)
ORACLE_LEVELS = (4, 8, 16)
ORACLE_EXAMPLES = (ExampleId.EXAMPLE1, ExampleId.EXAMPLE2)

#: sizes small enough for the benchmark's own smoke test
TINY_CONV_LEVELS = (16, 32)
TINY_SWEEP_LEVELS = (8, 16)
TINY_ORACLE_LEVELS = (4, 8)
TINY_SWEEP_POINTS = 3

#: candidate grid inside the coercive region; every point converges in
#: 91-147 total CG iterations over SWEEP_LEVELS
SWEEP_R = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SWEEP_ALPHA = (3.0, 5.0, 10.0, 20.0, 50.0, 100.0)
SWEEP_POINTS = 20

#: relative tolerance of the error-norm comparison against the references
REFERENCE_RTOL = 1e-6

#: the oracle must agree with the condensed path to this relative tolerance
ORACLE_TOLERANCE = 1e-9

#: finest-pair rate windows for example 2 (the paper's targets, as the
#: acceptance suite states them)
RATE_WINDOWS = {
    "u_l2": (2.07 - 0.15, 2.07 + 0.15),
    "u_h1h": (1.01 - 0.10, 1.01 + 0.10),
    "sigma_l2": (1.35, 1.75),
}

REFERENCES_PATH = Path(__file__).with_name("references.json")


def study_key(example: ExampleId, r: float, alpha: float) -> str:
    return f"{example.value} r={r!r} alpha={alpha!r}"


def load_references() -> dict:
    """{study key: {level as str: [err_u_l2, err_u_h1h, err_sigma_l2]}}."""
    return json.loads(REFERENCES_PATH.read_text())["studies"]


def sweep_points(seed: int, count: int = SWEEP_POINTS) -> list[tuple[float, float]]:
    """The (r, alpha) points of one sweep pass, in run order."""
    grid = [(r, alpha) for r in SWEEP_R for alpha in SWEEP_ALPHA]
    return random.Random(seed).sample(grid, count)


@dataclass(frozen=True)
class Call:
    """One call into a public entry point: `run_study` or `run_oracle_check`."""

    kind: str  # "study" or "oracle"
    config: StudyConfig
    data: trifield.ProblemData | None = None  # passed to run_study(config, data=...)
    check_rates: bool = False

    @property
    def entry(self) -> str:
        return "run_study" if self.kind == "study" else "run_oracle_check"

    def num_checks(self) -> int:
        if self.kind == "oracle":
            return len(self.config.levels)
        # three error norms and convergence per level, plus the rates
        return 4 * len(self.config.levels) + (len(RATE_WINDOWS) if self.check_rates else 0)

    def run(self, data: trifield.ProblemData | None) -> dict:
        """Make the call (studies get `data`) and keep only what the checks need."""
        if self.kind == "oracle":
            check = trifield.run_oracle_check(self.config)
            return {
                "levels": list(check.levels),
                "worst": [max(u, s, p) for u, s, p in zip(
                    check.discrepancy_u, check.discrepancy_sigma, check.discrepancy_phi)],
            }
        result = trifield.run_study(self.config, data=data)
        table = result.table
        return {
            "levels": list(table.levels),
            "errors": [list(e) for e in zip(table.err_u_l2, table.err_u_h1h,
                                            table.err_sigma_l2)],
            "rates": {"u_l2": table.rate_u_l2[-1], "u_h1h": table.rate_u_h1h[-1],
                      "sigma_l2": table.rate_sigma_l2[-1]},
            "converged": [sol.report.converged for sol in result.solutions],
        }

    def check(self, outcome: dict, references: dict) -> list[str]:
        """Failed checks of one outcome, as messages; `num_checks()` were made."""
        cfg = self.config
        if self.kind == "oracle":
            misses = [f"oracle {cfg.example.value} n={n}: discrepancy {w:.3e} "
                      f"> {ORACLE_TOLERANCE:.0e}"
                      for n, w in zip(outcome["levels"], outcome["worst"])
                      if not w <= ORACLE_TOLERANCE]
            missing = len(cfg.levels) - len(outcome["levels"])
            return misses + [f"oracle {cfg.example.value}: {missing} levels missing"] * missing
        key = study_key(cfg.example, cfg.r, cfg.alpha)
        ref = references.get(key, {})
        misses = []
        for n in cfg.levels:
            if n not in outcome["levels"]:
                misses += [f"{key} n={n}: level missing"] * 4
                continue
            k = outcome["levels"].index(n)
            want = ref.get(str(n))
            for name, got, exp in zip(("err_u_l2", "err_u_h1h", "err_sigma_l2"),
                                      outcome["errors"][k], want or (None,) * 3):
                if exp is None or not abs(got - exp) <= REFERENCE_RTOL * abs(exp):
                    misses.append(f"{key} n={n} {name}: got {got!r}, reference {exp!r}")
            if not outcome["converged"][k]:
                misses.append(f"{key} n={n}: CG did not converge")
        if self.check_rates:
            for name, (lo, hi) in RATE_WINDOWS.items():
                rate = outcome["rates"][name]
                if not (math.isfinite(rate) and lo <= rate <= hi):
                    misses.append(f"{key} finest rate {name} = {rate} outside [{lo}, {hi}]")
        return misses


def build_calls(workload: str, seed: int, tiny: bool = False) -> list[Call]:
    """The calls of one pass of `workload`; `tiny` shrinks every size."""
    if workload == "conv-ex2-256":
        levels = TINY_CONV_LEVELS if tiny else CONV_LEVELS
        return [Call("study", StudyConfig(example=ExampleId.EXAMPLE2, levels=levels),
                     data=trifield.example2(), check_rates=True)]
    if workload == "sweep-ex1-32":
        levels = TINY_SWEEP_LEVELS if tiny else SWEEP_LEVELS
        count = TINY_SWEEP_POINTS if tiny else SWEEP_POINTS
        return [Call("study", StudyConfig(example=ExampleId.EXAMPLE1, levels=levels,
                                          r=r, alpha=alpha), data=trifield.example1())
                for r, alpha in sweep_points(seed, count)]
    if workload == "oracle-ex12-16":
        levels = TINY_ORACLE_LEVELS if tiny else ORACLE_LEVELS
        return [Call("oracle", StudyConfig(example=example, levels=levels))
                for example in ORACLE_EXAMPLES]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
