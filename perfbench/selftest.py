#!/usr/bin/env python3
"""Fast self-test of the benchmark (about two minutes on 4 cores).

    python3 perfbench/selftest.py

Runs every workload briefly, traced and untraced, and checks that the last
line of stdout has the schema BENCHMARK.json promises. Then shows that the
output checks bite: a perturbed reference must make a figures run exit
non-zero, and refused requests must raise the service's failed_frac.
Writes only under .bench_build/.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")


def run(*args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    proc = subprocess.run(command + ["--seconds", "1"] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"FAIL {args}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_schema(result, expected, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    assert isinstance(result["failed"], int), what
    names = {m["name"]: m["unit"] for m in expected}
    assert set(result["metrics"]) == set(names), (what, set(result["metrics"]) ^ set(names))
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, (what, name)
        assert isinstance(m["value"], (int, float)), (what, name)
        assert m["unit"] == names[name], (what, name, m["unit"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            code, info, result = run("--workload", workload, "--trace", str(trace))
            check_schema(result, bench["per_layer"] if trace else bench["end_to_end"], what)
            assert code == 0 and result["correct"] and result["failed"] == 0, what
            assert info["failed_frac"] == 0 and set(info["host"]) == {
                "nproc", "compiler", "build_type", "commit", "workers"}, what
            if trace:
                assert "trace_overhead_s" in info, what
            else:
                assert all(m["value"] > 0 for m in result["metrics"].values()), what
            print(f"ok   {what}: {result['attempted']} ops checked")

    with open(os.path.join(HERE, "reference", "figures.json")) as f:
        reference = json.load(f)
    name = "fig4/geomean/MPK"
    reference["metrics"][name] *= 1.000001
    perturbed = os.path.join(SCRATCH, "figures-perturbed.json")
    with open(perturbed, "w") as f:
        json.dump(reference, f)
    code, info, result = run("--workload", "figures", "--reference", perturbed)
    assert code != 0 and not result["correct"] and info["failed_frac"] > 0, "perturbed reference"
    print(f"ok   perturbed {name}: exit {code}, failed_frac {info['failed_frac']:.3f}")

    code, info, result = run("--workload", "service", "--inject-fail", "3")
    assert code != 0 and not result["correct"] and info["failed_frac"] > 0, "refused requests"
    print(f"ok   3 refused requests per pass: exit {code}, failed_frac {info['failed_frac']:.3f}")
    print("selftest passed")


if __name__ == "__main__":
    main()
