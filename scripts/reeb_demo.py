#!/usr/bin/env python3
"""Reeb-vector solves on the horospherical builtins, with Newton traces."""

from kstab.fixtures import builtin_spherical_input
from kstab.soliton import ReebProblem, solve_reeb


def main():
    for name in ("toric-p1", "toric-bl1p2"):
        si, _ = builtin_spherical_input(name)
        sol = solve_reeb(ReebProblem.from_spherical(si))
        print(f"{name}: xi = {list(sol.xi)}  value = {sol.functional_value:.10f}"
              f"  |grad| = {sol.gradient_norm:.2e}  iters = {sol.iterations}")
        for i, (value, gnorm, step) in enumerate(sol.trace):
            print(f"   it {i:2d}: value {value:.12f}  |grad| {gnorm:.3e}  "
                  f"step {step:.3f}")


if __name__ == "__main__":
    main()
