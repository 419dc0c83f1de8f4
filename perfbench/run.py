"""Benchmark entry point.

    python3 perfbench/run.py --workload online-svm --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Builds the program and the benchmark from
source (see build.py), runs one workload in one JVM, and passes its output
through. It then prints, as the last line, the result object built from
the run's record and BENCHMARK.json: the end-to-end metrics with
`--trace 0`, the per-layer ones with `--trace 1`. `--update-expected`
records the run's outcome fingerprint in perfbench/expected.tsv.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def java_command(root, classes, main_class, args):
    tmp = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return (["java", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}", "-Xmx2g",
             "-cp", os.pathsep.join([classes, build.scala_library(root)]), main_class] + args)


def result(record, spec, trace):
    """The result object: the metrics BENCHMARK.json lists for this mode,
    in its order and units. A per-layer metric the workload did not measure
    belongs to a layer its timed section does not exercise, and reads 0."""
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = record["metrics"].get(m["name"])
        if got is None:
            if not trace:
                raise ValueError(f"end-to-end metric {m['name']} was not measured")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    if record["attempted"] < 1:
        raise ValueError("no operation was attempted")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--update-expected", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        classes = build.build(root)
    except (OSError, ValueError, build.BuildError) as e:
        fail(str(e))

    cmd = java_command(root, classes, "perfbench.Main",
                       ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", args.trace, "--expected", os.path.join("perfbench", "expected.tsv")]
                       + (["--update-expected"] if args.update_expected else []))
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped", 3)
    records = [l for l in done.stdout.splitlines() if l.startswith("record: ")]
    if done.returncode != 0 or len(records) != 1:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}", 3)
    try:
        line = json.dumps(result(json.loads(records[0][len("record: "):]), spec, args.trace == "1"))
    except (ValueError, KeyError) as e:
        sys.stdout.write(done.stdout)
        fail(f"result does not match BENCHMARK.json: {e}", 4)
    sys.stdout.write(done.stdout + line + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
