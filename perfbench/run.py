"""reformkit benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload tib2eng_scaffold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                       # all three, one after another
    python3 perfbench/run.py --size small --seconds 1   # reduced inputs, seconds per workload

For each workload this writes the inputs generated from ``--seed`` under
``.perfbench/`` in the checkout, runs the workload in a fresh process
(perfbench/measure.py) against reformkit from ``src/``, and deletes the
inputs again. With one ``--workload`` the last line of standard output is
the result as one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One run must end within 180 s; the workload process gets what is left.
RUN_LIMIT_S = 170.0

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _generate(name: str, data: Path, seed: int, size: dict) -> None:
    import gen
    from workloads import PROBE_PAIRS, PROBE_SEED

    if name == "tib2eng_scaffold":
        gen.gen_tib2eng(data, seed, size["pairs"])
        gen.gen_tib2eng(data / "probe", PROBE_SEED, PROBE_PAIRS)
    elif name == "flores_parallel":
        gen.gen_multiparallel(data / "corpus", seed, size["langs"], size["records"])
    else:
        gen.gen_eval(data, seed, size["langs"], size["sentences"], size["directions"])


def run_one(name: str, seed: int, seconds: float, trace: int, size_name: str) -> dict:
    from workloads import SIZES

    started = time.monotonic()
    work = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        _generate(name, work / "data", seed, SIZES[size_name][name])
        result_path = work / "result.json"
        cmd = [
            sys.executable, str(HERE / "measure.py"), "--workload", name, "--data", str(work / "data"),
            "--work", str(work / "out"), "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size_name, "--result", str(result_path),
        ]
        (work / "out").mkdir(parents=True)
        proc = subprocess.Popen(cmd, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise SystemExit(f"error: {name} did not finish within {RUN_LIMIT_S:.0f} s")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0 or not result_path.exists():
            raise SystemExit(f"error: {name} exited with code {code} and no result")
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import SIZES, WORKLOADS

    p = argparse.ArgumentParser(description="reformkit benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args.seed, args.seconds, args.trace, args.size) for name in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"{name}: {json.dumps(result)}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "reformkit" / "__init__.py").is_file():
        print(f"error: reformkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main())
