#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark, at a tiny size.

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload in BENCHMARK.json it runs
an untraced and a traced tiny run and asserts that each metric the contract
names is printed, both as a "metric <name> = <value> <unit>" line and in
the final JSON line, with the unit BENCHMARK.json gives. It then proves the
output check can fail: a sweep run against a deliberately corrupted winners
reference must exit non-zero and report "correct": false. Takes about a
minute after the benchmark is built.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".bench_build", "smoke")


def run(args):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--seconds", "1", "--tiny"] + args
    result = subprocess.run(command, cwd=ROOT, capture_output=True,
                            text=True, timeout=600)
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output from %s:\n%s" % (args, result.stderr))
    return result.returncode, lines, json.loads(lines[-1])


def check_metrics(args, expected):
    code, lines, result = run(args)
    assert code == 0, "%s exited %d:\n%s" % (args, code, "\n".join(lines))
    assert result["correct"] is True, args
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    printed = {}
    for line in lines:
        match = re.match(r"metric (\S+) = (\S+) (\S+)$", line)
        if match:
            printed[match.group(1)] = match.group(3)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected), (
        args, sorted(result["metrics"]))
    for metric in expected:
        name = metric["name"]
        assert result["metrics"][name]["unit"] == metric["unit"], name
        assert printed.get(name) == metric["unit"], (args, name)
    print("ok   %s: %d metrics" % (" ".join(args), len(expected)))


def check_corrupted_reference():
    os.makedirs(SCRATCH, exist_ok=True)
    good = os.path.join(SCRATCH, "winners.txt")
    bad = os.path.join(SCRATCH, "winners-corrupted.txt")
    base = ["--workload", "sweep_classical", "--seed", "5", "--trace", "0"]
    code, _, _ = run(base + ["--winners-out", good])
    assert code == 0, "writing the tiny reference failed"
    code, _, result = run(base + ["--reference", good])
    assert code == 0 and result["correct"] is True, "clean reference failed"
    with open(good) as source:
        text = source.read()
    # Flip the last digit of the first accuracy (or unit count) recorded.
    match = re.search(r"(val_acc=|units=)[0-9.e+-]*([0-9])", text)
    assert match, text
    digit = match.group(2)
    corrupted = (text[:match.end(2) - 1] + str((int(digit) + 1) % 10) +
                 text[match.end(2):])
    with open(bad, "w") as sink:
        sink.write(corrupted)
    code, _, result = run(base + ["--reference", bad])
    assert code != 0, "a corrupted reference must fail the run"
    assert result["correct"] is False and result["failed"] > 0, result
    print("ok   corrupted reference: exit %d, correct=false" % code)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        contract = json.load(source)
    for workload in contract["workloads"]:
        name = workload["name"]
        check_metrics(["--workload", name, "--seed", "3", "--trace", "0"],
                      contract["end_to_end"])
        check_metrics(["--workload", name, "--seed", "3", "--trace", "1"],
                      contract["per_layer"])
    check_corrupted_reference()
    print("smoke test passed")


if __name__ == "__main__":
    main()
