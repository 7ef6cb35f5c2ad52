"""Run one workload in this process: set-up, rounds, checks.

run.py starts this in a fresh process after writing the inputs, so peak
RSS covers only reformkit's work on them. Usage:

    python3 perfbench/measure.py --workload NAME --data DIR --work DIR \\
        --seed N --seconds S --trace 0|1 --size full|small --result FILE

Untraced (``--trace 0``): run whole rounds at the workload's worker count,
each after a fresh set-up, until their timed operations add up to
``--seconds``. Traced (``--trace 1``): one untraced round at that worker
count after a warm-up round, one at 1 worker, then traced 1-worker rounds
for ``--seconds``.
Either way every output is then checked, and the result (the end-to-end or
the per-layer metrics) is written to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
from workloads import SIZES, WORKLOADS, ref_scale, reference_loop  # noqa: E402

SETUP_REPS = 5
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_ref_s": "ref_s"}


def _setup(wl) -> tuple[float, float]:
    """Drop the loaded inputs and load them again: (wall, ref) seconds."""
    wl.release()
    gc.collect()
    before = reference_loop()
    t0 = time.perf_counter()
    wl.setup()
    wall = time.perf_counter() - t0
    return wall, wall * ref_scale(before, reference_loop())


def _rounds(wl, workers: int, seconds: float, setups: list, **kw) -> list:
    """Whole rounds until their timed operations add up to ``seconds``.

    The inputs are set up again before every round, and then until there are
    SETUP_REPS set-ups, so their median spans the whole run and not one
    moment of the host's speed.
    """
    done, measured = [], 0.0
    while not done or measured < seconds:
        setups.append(_setup(wl))
        done.append(wl.round(workers, **kw))
        measured += done[-1].total
    while len(setups) < SETUP_REPS:
        setups.append(_setup(wl))
    return done


def _say(wl, text: str) -> None:
    print(f"[{wl.name}] {text}", flush=True)


def timed(wl, seconds: float) -> tuple[list, dict]:
    setups: list = []
    rounds = _rounds(wl, wl.workers, seconds, setups)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": rss_kb / 1024,
        "round_ref_s": statistics.median(r.ref_total for r in rounds),
    }
    _say(wl, f"{len(rounds)} rounds of {rounds[0].attempted} operations, {wl.workers} worker(s)")
    _say(wl, "round wall seconds: " + " ".join(f"{r.total:.3f}" for r in rounds))
    _say(wl, "round ref seconds:  " + " ".join(f"{r.ref_total:.3f}" for r in rounds))
    _say(wl, "setup wall seconds: " + " ".join(f"{wall:.4f}" for wall, _ in setups))
    _say(wl, "setup ref seconds:  " + " ".join(f"{ref:.4f}" for _, ref in setups))
    for name, value in metrics.items():
        _say(wl, f"{name:<24} {value:12.4f} {END_TO_END[name]}")
    _say(wl, f"{'round_s (wall)':<24} {statistics.median(r.total for r in rounds):12.4f} s")
    for op, metric, unit in wl.ops:
        done = [r for r in rounds if op in r.seconds]
        if done:
            wall = statistics.median(r.items[op] / r.seconds[op] for r in done)
            ref = statistics.median(r.items[op] / r.ref_seconds[op] for r in done)
            _say(wl, f"{metric:<24} {wall:12.1f} {unit}   {ref:12.1f} {unit.replace('/s', '/ref_s')}")
    return rounds, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced(wl, seconds: float) -> tuple[list, dict]:
    _setup(wl)
    # the first round also pays one-off costs (imports, the first pool)
    rounds = [wl.round(wl.workers), wl.round(wl.workers)]
    untraced_w = rounds[-1].ref_total
    if wl.workers != 1:
        rounds.append(wl.round(1))
    untraced_1w = rounds[-1].ref_total
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_rounds = _rounds(wl, 1, seconds, [], quiet=tracer.paused)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(
        tracer, wl.examples_built() * len(traced_rounds), wl.stats_examples()
    )
    metrics["builder.sample.bytes_per_draw"] = spans.sample_bytes_per_draw(tracer)
    metrics.update(wl.layer_counts())
    tracer.write(ROOT / ".perfbench" / f"trace-{wl.name}.tsv.gz")

    # ratios in ref seconds, so that a change in the host's speed between
    # the rounds does not show as overhead or speed-up
    traced_1w = statistics.median(r.ref_total for r in traced_rounds)
    _say(wl, f"{len(traced_rounds)} traced rounds, {len(tracer.names)} spans")
    _say(wl, f"round_ref_s untraced, {wl.workers} worker(s): {untraced_w:.4f} ref_s")
    if wl.workers != 1:
        _say(wl, f"round_ref_s untraced, 1 worker: {untraced_1w:.4f} ref_s "
                 f"({wl.workers}-worker / 1-worker throughput {untraced_1w / untraced_w:.3f})")
    _say(wl, f"round_ref_s traced, 1 worker: {traced_1w:.4f} ref_s "
             f"(tracing overhead {100 * (traced_1w / untraced_1w - 1):+.1f}%)")
    for name, unit in spans.UNITS.items():
        _say(wl, f"{name:<40} {metrics[name]:14.4f} {unit}")
    return rounds + traced_rounds, {name: {"value": metrics[name], "unit": unit} for name, unit in spans.UNITS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=sorted(SIZES), required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload](args.data, args.work, SIZES[args.size][args.workload], args.seed)
    try:
        rounds, metrics = (traced if args.trace else timed)(wl, args.seconds)
    finally:
        wl.close()

    errors: list[str] = []
    for i, r in enumerate(rounds[1:], 2):
        if r.fingerprint != rounds[0].fingerprint:
            errors.append(f"round {i} gave other outputs than round 1 on the same inputs")
    wl.check(errors)
    for note in rounds[0].notes:
        _say(wl, note)
    for error in errors[:20]:
        print(f"[{wl.name}] CHECK FAILED: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    args.result.write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
