"""The meshmind benchmark.

Run every workload, untraced and traced, each in a fresh process, and print
the end-to-end and per-layer tables:

    python3 perfbench/run.py [--seed N] [--seconds S]

Run one workload in this process:

    python3 perfbench/run.py --workload grid_steady --seed 0 --seconds 40 --trace 0

The last line of standard output is then one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Host timings are
scaled to a reference host speed (see `measure.HostClock`). The line before
it, prefixed `artifact`, holds the instance seeds, run counts, the outcome
digest of each instance, the outcomes that are not bounded metrics and the
unscaled timings.

The program is imported from `src/` next to this directory; without it the
benchmark exits with status 2 and prints no result. Emitted traces go to a
temporary directory in the checkout that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SECONDS = 40  # run_seconds in BENCHMARK.json


def import_program() -> None:
    """Put the checkout's own `src/` first on the path and check it is used."""
    if not (SRC / "meshmind" / "__init__.py").is_file():
        print(f"perfbench: no meshmind package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import meshmind

    if Path(meshmind.__file__).resolve().parent != SRC / "meshmind":
        print(f"perfbench: imported meshmind from {meshmind.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import measure

    tmp_root = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = measure.measure(workload, seed, seconds, trace, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print("artifact " + json.dumps(result.pop("artifact"), sort_keys=True))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("artifact "):
        sys.exit(f"perfbench: {workload} --trace {trace} exited {proc.returncode} "
                 "without a result")
    return json.loads(lines[-1]), json.loads(lines[-2][len("artifact "):])


def _table(title: str, rows: list[tuple[str, str, list]], names: list[str]) -> None:
    import measure

    width = max(len(f"{m} ({u})") for m, u, _ in rows)
    print(f"\n{title}")
    print(f"{'metric (unit)':<{width}}  " + "  ".join(f"{n:>18}" for n in names))
    for metric, unit, values in rows:
        cells = "  ".join(f"{'-' if v is None else format(v, '.6g'):>18}" for v in values)
        note = "  computed from table sizes" if metric in measure.COMPUTED else ""
        print(f"{f'{metric} ({unit})':<{width}}  {cells}{note}")


def run_all(seed: int, seconds: float) -> int:
    import measure
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    results = {n: {t: _child(n, seed, seconds, t) for t in (0, 1)} for n in names}

    def value(name, trace, metric):
        entry = results[name][trace][0]["metrics"].get(metric)
        return None if entry is None else entry["value"]

    rows = [(m, u, [value(n, 0, m) for n in names])
            for m, u in measure.END_TO_END_UNITS.items()]
    rows += [(m, u, [results[n][0][1]["outcomes"].get(m) for n in names])
             for m, u in measure.OUTCOME_UNITS.items()]
    rows += [(m, u, [results[n][0][1]["host"].get(m) for n in names])
             for m, u in measure.HOST_UNITS.items()]
    _table(f"end-to-end (seed {seed}, {seconds} s per workload, tracing off)", rows, names)
    _table("per layer (traced run of the first instance)",
           [(m, u, [value(n, 1, m) for n in names])
            for m, u in measure.per_layer_units().items()], names)

    print("\noutcome digests (first instance, untraced vs traced)")
    ok = True
    for n in names:
        untraced, traced = results[n][0][1], results[n][1][1]
        s = str(traced["instances"][0])
        a, b = untraced["outcome_digests"].get(s), traced["outcome_digests"].get(s)
        match = a is not None and a == b
        ok = ok and match and all(results[n][t][0]["correct"] for t in (0, 1))
        print(f"  {n} seed {s}: {a} {'==' if match else '!='} {b}")
        for t in (0, 1):
            r = results[n][t][0]
            print(f"    trace {t}: attempted {r['attempted']}, failed {r['failed']}")
        if traced.get("absent_targets"):
            print(f"    not traced (absent): {', '.join(traced['absent_targets'])}")
    print("\nall outputs correct" if ok else "\nSOME OUTPUTS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
