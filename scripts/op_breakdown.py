#!/usr/bin/env python3
"""Per op kind of a benchmark workload: how many ops ran, their share of
all ops, their share of warm op time, the median and p90 of a warm op,
and the time of the first, cold round and its share of all op time, so
that one can see which ops set each percentile of a timed run and what
the cold round costs.

    python3 scripts/op_breakdown.py numeric-integrals 2 36

Arguments: the workload, the seed and the seconds to run.  The workload
is `perfbench/run.py`'s own, imported unchanged: its set-up, op lists,
per-op budget, oracle checks and speed scaling (times are in seconds of
the reference core, as in the benchmark's report).  The loop runs whole
rounds while another fits in the given seconds (`cli-roundtrip` stops at
the first op after them), as a timed run does.  The first round finds
every input cold; the warm ops are those of the later rounds, or all ops
if only one round ran.  An op's kind is its label without the input's
name and without a trailing ray, such as ``beta_g`` or ``delta2.5``.
"""

from __future__ import annotations

import re
import signal
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run, trace  # noqa: E402


def kind(label: str) -> str:
    """The op kind of a record's label, "<input> <op>[(ray)]"."""
    return re.sub(r"\(.*\)$", "", label.split(" ", 1)[1])


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    workload, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._on_alarm)
    with tempfile.TemporaryDirectory() as workdir:
        bench, _setup_s = run.setup(workload, seed, workdir)
        blocks = bench.blocks()
        watch = trace.ConvergenceWatch()
        watch.install()
        records = run.run_rounds(blocks, seconds, seed, watch, run.SpeedMeter(),
                                 whole_rounds=workload != "cli-roundtrip")
        watch.uninstall()
    per_round = sum(len(b.ops) for b in blocks)
    warm = records[per_round:] or records
    counts: dict[str, int] = {}
    times: dict[str, list[float]] = {}
    cold: dict[str, float] = {}
    for r in records:
        counts[kind(r.label)] = counts.get(kind(r.label), 0) + 1
    for r in records[:per_round]:
        cold[kind(r.label)] = cold.get(kind(r.label), 0.0) + r.seconds
    for r in warm:
        times.setdefault(kind(r.label), []).append(r.seconds)
    warm_total = sum(r.seconds for r in warm)
    total = sum(r.seconds for r in records)
    rounds = len(records) / per_round
    print(f"workload {workload}, seed {seed}: {len(records)} ops in {rounds:.3g} rounds, "
          f"{len(warm)} warm ops, {sum(not r.ok for r in records)} failed; cold round "
          f"{1e3 * sum(cold.values()):.1f} ms, {100 * sum(cold.values()) / total:.1f}% of op time")
    print(f"{'kind':24s} {'count':>7s} {'ops %':>7s} {'warm time %':>12s} "
          f"{'median us':>10s} {'p90 us':>10s} {'cold ms':>9s} {'cold %':>7s}")
    for k in sorted(counts, key=lambda k: -sum(times.get(k, ()))):
        samples = sorted(times.get(k, ()))
        median = run.percentile(samples, 50) * 1e6 if samples else float("nan")
        p90 = run.percentile(samples, 90) * 1e6 if samples else float("nan")
        print(f"{k:24s} {counts[k]:7d} {100 * counts[k] / len(records):7.1f} "
              f"{100 * sum(samples) / warm_total:12.1f} {median:10.1f} {p90:10.1f} "
              f"{1e3 * cold.get(k, 0.0):9.2f} {100 * cold.get(k, 0.0) / total:7.1f}")
    for r in records:
        if not r.ok:
            print(f"failed: {r.label}: {r.cause}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
