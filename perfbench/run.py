"""kstab benchmark: one workload, one seed, one client in a closed loop.

    python3 perfbench/run.py --workload exact-invariants --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; kstab is imported from its ``src``
directory and nothing is installed.  Set-up imports kstab, generates the
seeded documents and parses each once; it is timed three times (here and
in two fresh processes) and ``setup_s`` is the median.  The loop then runs
whole rounds of the workload's op list (inputs in a seeded order per
round) while another round still fits in ``--seconds``.  Every answer is
checked (see ``oracle.py``); an op fails if it raises, is rejected by the
oracle, reports a quadrature or Reeb solve that did not converge, or runs
over the per-op budget, and a failed op enters the percentiles at the
budget.

With ``--trace 1`` the run instead times, after a warm-up round, one round
untraced and one round traced, each on freshly parsed inputs, and reports
per-layer self times and counts for the traced set-up and round (see
``trace.py``).

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Above it, a report gives every end-to-end
metric with its unit and sample count, and lists each failed op with its
cause.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import oracle, trace, workloads  # noqa: E402

# An op running longer than this fails.  Every op of the timed workloads
# takes under 3 s at the seed commit; `walls` holds the ops known to take
# longer or not to finish.
BUDGET_S = 30.0
SETUP_REPEATS = 3
# `calibrate` time on the reference core that scaled times refer to; about
# its time on an idle core of a shared 2-core x86-64 machine
CAL_REF_S = 0.002

END_TO_END = [("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_s", "s"),
              ("op_p90_s", "s"), ("failed_frac", "ratio"), ("peak_rss_mb", "MB")]
# failed_frac is 0 on every timed workload at the seed commit, so it is
# printed in the report but is not one of the bounded metrics of the result
RESULT_END_TO_END = ("setup_s", "ops_per_s", "op_p50_s", "op_p90_s", "peak_rss_mb")

# per-layer metric -> (unit, key of trace.layer_metrics)
PER_LAYER = {
    "schema.validate_s": ("s", "schema.validate_s"),
    "schema.validate_calls": ("count", "schema.validate_calls"),
    "schema.parse_s": ("s", "schema.parse_s"),
    "rootsys.dh_density_s": ("s", "rootsys.dh_density_s"),
    "spherical.input_build_s": ("s", "spherical.input_build_s"),
    "spherical.candidates_s": ("s", "spherical.candidates_s"),
    "spherical.candidate_rays": ("count", "spherical.candidates.items"),
    "geom.double_description_calls": ("count", "geom.double_description_calls"),
    "geom.double_description_s": ("s", "geom.double_description_s"),
    "geom.double_description_rays": ("count", "geom.double_description.items"),
    "geom.triangulate_calls": ("count", "geom.triangulate_calls"),
    "geom.triangulate_s": ("s", "geom.triangulate_s"),
    "geom.simplices": ("count", "geom.triangulate.items"),
    "geom.triangulate_reuse": ("ratio", "geom.triangulate_reuse"),
    "quad.integrate_poly_calls": ("count", "quad.integrate_poly_calls"),
    "quad.integrate_poly_s": ("s", "quad.integrate_poly_s"),
    "quad.compose_affine_calls": ("count", "quad.compose_affine_calls"),
    "quad.compose_affine_s": ("s", "quad.compose_affine_s"),
    "quad.composed_terms": ("count", "quad.compose_affine.items"),
    "quad.integrate_numeric_calls": ("count", "quad.integrate_numeric_calls"),
    "quad.integrate_numeric_s": ("s", "quad.integrate_numeric_s"),
    "quad.subdivisions": ("count", "quad.integrate_numeric.items"),
    "quad.nonconverged": ("count", "quad.integrate_numeric.nonconverged"),
    "quad.dh_moments_s": ("s", "quad.dh_moments_s"),
    "invariants.S_p_calls": ("count", "invariants.S_p_calls"),
    "invariants.S_p_s": ("s", "invariants.S_p_s"),
    "invariants.delta_p_s": ("s", "invariants.delta_p_s"),
    "invariants.alpha_s": ("s", "invariants.alpha_s"),
    "invariants.barycenter_g_s": ("s", "invariants.barycenter_g_s"),
    "invariants.ding_check_s": ("s", "invariants.ding_check_s"),
    "invariants.beta_g_s": ("s", "invariants.beta_g_s"),
    "invariants.delta_g_s": ("s", "invariants.delta_g_s"),
    "soliton.solve_reeb_s": ("s", "soliton.solve_reeb_s"),
    "soliton.reeb_functional_calls": ("count", "soliton.reeb_functional_calls"),
    "soliton.newton_iterations": ("count", "soliton.solve_reeb.items"),
    "soliton.rejected_steps": ("count", "soliton.rejected_steps"),
    "cli.import_s": ("s", None),
    "cli.main_s": ("s", "cli.main_s"),
    "trace.overhead_frac": ("ratio", None),
}


class BudgetExceeded(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise BudgetExceeded()


class Bench:
    """One workload's parsed inputs and ops, built by `setup`."""

    def __init__(self, name: str, seed: int, workdir: str, in_process_cli: bool):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.in_process_cli = in_process_cli
        self.references: dict = {}
        self.cli_outputs: dict = {}
        self.runner = workloads.CliRunner(workdir, str(SRC))
        self.items: list[workloads.Item] = []

    def load(self):
        """Generate the documents (written to files for the CLI) and parse
        each once, replacing any inputs parsed before."""
        make = {"exact-invariants": workloads.exact_items,
                "numeric-integrals": workloads.numeric_items,
                "cli-roundtrip": workloads.cli_items,
                "walls": workloads.walls_items}[self.name]
        self.items = make(self.seed)
        if self.name == "cli-roundtrip":
            for it in self.items:
                with open(os.path.join(self.workdir, it.name + ".json"), "w",
                          encoding="utf-8") as fh:
                    fh.write(json.dumps(it.doc, indent=2) + "\n")
        workloads.parse_items(self.items)

    def blocks(self) -> list[workloads.Block]:
        if self.name == "exact-invariants":
            return [workloads.exact_block(it) for it in self.items]
        if self.name == "numeric-integrals":
            return [workloads.numeric_block(it, self.references) for it in self.items]
        if self.name == "walls":
            return workloads.walls_blocks(self.items, self.references)
        by_item: dict[str, workloads.Block] = {}
        for it, argv in workloads.cli_commands(self.items, self.seed, self.workdir):
            key = it.name if it is not None else "builtin:" + argv[1]
            blk = by_item.setdefault(key, workloads.Block(it))
            label = " ".join((argv[:1] + argv[3:]) if it else argv)  # without --input
            blk.ops.append(workloads.Op(label,
                                        self._cli_run(argv), self._cli_check(it, argv)))
        return list(by_item.values())

    def _cli_run(self, argv):
        if not self.in_process_cli:
            return lambda: self.runner.run(argv)

        def in_process():
            from kstab import cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")

        return in_process

    def _cli_check(self, item, argv):
        key = tuple(argv)

        def check(result, _answers):
            code, stdout, stderr = result
            oracle.require(code == 0, f"exit {code}: {stderr.decode(errors='replace').strip()}")
            first = self.cli_outputs.setdefault(key, stdout)
            oracle.require(stdout == first, "stdout differs from an earlier run of the same command")
            if key not in self.references:
                self.references[key] = workloads.cli_reference(item, argv)
            workloads.check_cli(argv, stdout, self.references[key])

        return check


def calibrate() -> float:
    """Wall time of a fixed pure-Python Fraction workload (about 2 ms)."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    return perf_counter() - t0


class SpeedMeter:
    """The speed of this core, from `calibrate` runs around each timed
    interval.  On a shared machine the same op runs up to 1.6 times slower
    for seconds at a time; scaling each interval by the calibration time
    around it reports it in seconds of a core on which the calibration
    takes `CAL_REF_S`."""

    def __init__(self):
        self.last = calibrate()
        self.factors: list[float] = []

    def scale(self) -> float:
        """Factor for the interval since the previous call (or creation)."""
        before, self.last = self.last, calibrate()
        factor = CAL_REF_S / ((before + self.last) / 2)
        self.factors.append(factor)
        return factor


def setup(name: str, seed: int, workdir: str, in_process_cli: bool = False) -> tuple[Bench, float]:
    """Import kstab, generate the documents and parse each once; returns the
    speed-scaled set-up time."""
    meter = SpeedMeter()
    t0 = perf_counter()
    import kstab  # noqa: F401  (timed: import is part of set-up)

    bench = Bench(name, seed, workdir, in_process_cli)
    bench.load()
    elapsed = perf_counter() - t0
    return bench, elapsed * meter.scale()


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Record:
    """One op: speed-scaled ``seconds`` (the budget if it failed) and the
    raw ``wall`` time."""

    __slots__ = ("label", "seconds", "wall", "ok", "cause", "kind")

    def __init__(self, label: str, wall: float):
        self.label, self.seconds, self.wall = label, wall, wall
        self.ok, self.cause, self.kind = True, None, None

    def fail(self, kind: str, cause: str):
        self.ok, self.kind, self.cause = False, kind, cause
        self.seconds = BUDGET_S


def run_op(op, watch, meter) -> tuple[object, Record]:
    """Run one op under the budget; the check runs afterwards, untimed."""
    watch.nonconverged = 0
    result = None
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    t0 = perf_counter()
    try:
        result = op.run()
        rec = Record(op.label, perf_counter() - t0)
    except BudgetExceeded:
        rec = Record(op.label, BUDGET_S)
        rec.fail("budget", f"over the {BUDGET_S:g} s budget")
    except Exception as e:  # any error an op raises is its failure
        rec = Record(op.label, perf_counter() - t0)
        rec.fail("error", f"{type(e).__name__}: {e}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    factor = meter.scale()
    if rec.ok:
        rec.seconds = rec.wall * factor
    if rec.ok and watch.nonconverged:
        rec.fail("nonconverged", f"{watch.nonconverged} integrate_numeric call(s) did not converge")
    return result, rec


def run_rounds(blocks, seconds: float, seed: int, watch, meter, tracer=None,
               rounds: int | None = None, whole_rounds: bool = True,
               shuffle: bool = True) -> list[Record]:
    """Closed loop over rounds of ``blocks``, in a seeded order per round
    when ``shuffle``.  Stops after ``rounds`` rounds if given; otherwise
    starts another whole round only while it still fits in ``seconds``, or
    (``whole_rounds`` false) stops at the first op boundary after
    ``seconds``."""
    rng = random.Random(seed * 7919 + 17)
    records: list[Record] = []
    start = perf_counter()
    done = 0
    while True:
        round_start = perf_counter()
        order = list(blocks)
        if shuffle:
            rng.shuffle(order)
        for blk in order:
            answers: dict = {}
            name = blk.item.name if blk.item is not None else "-"
            for op in blk.ops:
                if not whole_rounds and records and perf_counter() - start >= seconds:
                    return records
                if tracer is not None:
                    tracer.op = len(records)
                    tracer.enabled = True
                result, rec = run_op(op, watch, meter)
                if tracer is not None:
                    tracer.enabled = False
                rec.label = f"{name} {op.label}"
                if rec.ok:
                    try:
                        op.check(result, answers)
                    except oracle.NotConverged as e:
                        rec.fail("nonconverged", str(e))
                    except oracle.OracleError as e:
                        rec.fail("oracle", f"oracle: {e}")
                records.append(rec)
        done += 1
        last = perf_counter() - round_start
        if rounds is not None:
            if done >= rounds:
                break
        elif whole_rounds and perf_counter() - start + last > seconds:
            break
    return records


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timing(records, attr: str = "seconds") -> tuple[float, float, float]:
    """ops/s, p50 and p90 of the records' ``seconds`` (or ``wall``)."""
    samples = sorted(getattr(r, attr) if r.ok else BUDGET_S for r in records)
    ok = sum(1 for r in records if r.ok)
    return ok / sum(samples), percentile(samples, 50), percentile(samples, 90)


def end_to_end(records, setup_times, peak_rss_mb) -> dict:
    ops_per_s, p50, p90 = timing(records)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_s,
        "op_p50_s": p50,
        "op_p90_s": p90,
        "failed_frac": sum(1 for r in records if not r.ok) / len(records),
        "peak_rss_mb": peak_rss_mb,
    }


def report(args, records, metrics, setup_times, units, speed_factors=()):
    n = len(records)
    failed = [r for r in records if not r.ok]
    p90 = metrics.get("op_p90_s")
    lines = [f"workload {args.workload}, seed {args.seed}: {n} ops, {len(failed)} failed"]
    counts = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "ops_per_s": f"{n - len(failed)} successful ops",
        "op_p50_s": f"{n} samples",
        "op_p90_s": f"{n} samples, {sum(1 for r in records if p90 is not None and r.seconds > p90)} beyond",
        "failed_frac": f"{len(failed)} of {n} ops",
        "peak_rss_mb": "largest child process" if args.workload == "cli-roundtrip" else "this process",
    }
    for name, value in metrics.items():
        lines.append(f"  {name:32s} {value:14.6g} {units[name]:6s}  ({counts.get(name, 'traced round')})")
    if speed_factors:
        ops_per_s, p50, p90 = timing(records, "wall")
        lines.append(f"  unscaled wall clock: {ops_per_s:.6g} ops/s, p50 {p50:.6g} s, p90 {p90:.6g} s; "
                     f"median speed factor {statistics.median(speed_factors):.4g}")
    for r in failed:
        lines.append(f"  FAILED {r.label}: {r.cause}")
    print("\n".join(lines))


def cli_import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import kstab.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=env, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"import kstab.cli failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def traced_run(args, bench, watch) -> tuple[list[Record], dict]:
    """A warm-up round, so that one-time costs such as cubature rules and
    oracle references fall outside both timings; then one untraced round
    and one traced set-up and round, each on freshly parsed inputs and in
    the same order.  Per-layer metrics are those of the traced part."""
    import kstab.cli  # noqa: F401  (so that cli.main can be wrapped)

    meter = SpeedMeter()
    run_rounds(bench.blocks(), args.seconds, args.seed, watch, meter, rounds=1)
    bench.load()
    plain = run_rounds(bench.blocks(), args.seconds, args.seed, watch, meter, rounds=1)
    tracer = trace.Tracer()
    tracer.install()
    try:
        bench.load()
        tracer.enabled = False
        records = run_rounds(bench.blocks(), args.seconds, args.seed, watch, meter,
                             tracer=tracer, rounds=1)
    finally:
        tracer.uninstall()
    layers = trace.layer_metrics(tracer.spans)
    metrics = {}
    for name, (_unit, key) in PER_LAYER.items():
        metrics[name] = layers.get(key, 0) if key is not None else 0.0
    metrics["cli.import_s"] = cli_import_seconds() if args.workload == "cli-roundtrip" else 0.0
    metrics["trace.overhead_frac"] = (sum(r.seconds for r in records)
                                      / sum(r.seconds for r in plain) - 1.0)
    tracer.dump(str(WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return records, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-invariants", "numeric-integrals", "cli-roundtrip", "walls"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "kstab" / "__init__.py").is_file():
        print(f"perfbench: no kstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        bench, setup_time = setup(args.workload, args.seed, str(workdir),
                                  in_process_cli=bool(args.trace))
        import kstab

        if not Path(kstab.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: kstab imported from {kstab.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_time}))
            return 0
        watch = trace.ConvergenceWatch()
        watch.install()
        if args.trace:
            records, metrics = traced_run(args, bench, watch)
            units = {k: u for k, (u, _) in PER_LAYER.items()}
        else:
            setup_times = [setup_time] + [setup_in_fresh_process(args)
                                          for _ in range(SETUP_REPEATS - 1)]
            # whole rounds keep the op mix fixed where op costs differ by
            # orders of magnitude; a kstab process per op costs about the
            # same whatever the command; walls runs its list once, in order
            meter = SpeedMeter()
            walls = args.workload == "walls"
            records = run_rounds(
                bench.blocks(), args.seconds, args.seed, watch, meter,
                rounds=1 if walls else None, shuffle=not walls,
                whole_rounds=args.workload in ("exact-invariants", "numeric-integrals"))
            if args.workload == "cli-roundtrip":
                peak_kb = bench.runner.peak_rss_kb
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = end_to_end(records, setup_times, peak_kb / 1024.0)
            units = dict(END_TO_END)
            report(args, records, metrics, setup_times, units, meter.factors)
            metrics = {k: metrics[k] for k in RESULT_END_TO_END}
        watch.uninstall()
        if args.trace:
            report(args, records, metrics, [], units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in records if not r.ok)
    wrong = any(r.kind in ("oracle", "error") for r in records)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
