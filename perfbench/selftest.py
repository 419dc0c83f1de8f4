"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, in order: the benchmark's own machinery (perfbench.SelfTest: failure
accounting, the expected-fingerprint gate, the optimum behind `regret`, the
per-process invariants); that layers.json documents every workload and
per-layer metric of BENCHMARK.json; that every workload prints every named
metric with its unit, traced and untraced; and that a run whose expected
fingerprint was tampered with reports itself incorrect. Takes a few minutes.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402
import run  # noqa: E402


def check(ok, what):
    print(("ok: " if ok else "FAILED: ") + what, flush=True)
    return ok


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def record(stdout):
    line = next(l for l in stdout.splitlines() if l.startswith("record: "))
    return json.loads(line[len("record: "):])


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(root, "perfbench", "layers.json")) as f:
        docs = json.load(f)
    classes = build.build(root)
    results = []

    unit = subprocess.run(run.java_command(root, classes, "perfbench.SelfTest", []), cwd=root)
    results.append(check(unit.returncode == 0, "perfbench.SelfTest passes"))

    names = [w["name"] for w in spec["workloads"]]
    results.append(check(sorted(docs["workloads"]) == sorted(names), "layers.json documents every workload"))
    results.append(check(sorted(docs["per_layer"]) == sorted(m["name"] for m in spec["per_layer"]),
                         "layers.json documents every per-layer metric"))

    measured = set()
    for name in names:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", trace]
            done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
            ok = done.returncode == 0
            if ok:
                result = last_json(done.stdout)
                listed = spec["per_layer" if trace == "1" else "end_to_end"]
                ok = (result["correct"] and list(result["metrics"]) == [m["name"] for m in listed]
                      and all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
                      and (trace == "1" or all(v["value"] > 0 for v in result["metrics"].values())))
                measured |= set(record(done.stdout)["metrics"])
            results.append(check(ok, f"{name} --trace {trace} prints every named metric with its unit"))

    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    results.append(check(not missing, f"every per-layer metric is measured on some workload {missing or ''}"))

    tampered = os.path.join(root, ".bench_build", "tmp", "expected-tampered.tsv")
    cmd = run.java_command(root, classes, "perfbench.Main",
                           ["--workload", "pretrain", "--seed", "1", "--seconds", "1", "--expected", tampered])
    with open(tampered, "w") as f:
        f.write("pretrain\t1\t000000000000000000000000\n")
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    results.append(check(done.returncode == 0 and record(done.stdout)["correct"] is False,
                         "a tampered expected fingerprint makes the run report correct: false"))

    print(f"selftest: {results.count(False)} of {len(results)} checks failed")
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
