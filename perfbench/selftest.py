#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds like run.py, then checks that:
  - every workload, timed and traced, exits 0 and prints exactly the
    metrics BENCHMARK.json names, each with its unit, plus fail_share;
  - a deliberately corrupted served output (serve_hop) and a corrupted hop
    tensor (featurize) are each counted as a failed operation, so
    fail_share > 0 and the command fails.
Exits 0 when every check passes.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["train", "serve_hop", "serve_aig", "featurize"]


def result(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None, lines


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    binary = run.build()
    failures = []

    def check(label, ok):
        print("%-52s %s" % (label, "ok" if ok else "FAIL"))
        if not ok:
            failures.append(label)

    base = ["--seed", "7", "--seconds", "1", "--tiny"]
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run.run(binary, ["--workload", w, "--trace",
                                         str(trace)] + base)
            res, lines = result(out)
            label = "%s --trace %d" % (w, trace)
            check(label + ": exit 0, correct", code == 0 and res is not None
                  and res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1)
            got = {k: v["unit"] for k, v in (res or {}).get("metrics",
                                                            {}).items()}
            check(label + ": metrics and units", got == expected[trace])
            printed = all(any(l.split()[:1] == [name] and l.split()[2:3] == [unit]
                              for l in lines)
                          for name, unit in expected[trace].items())
            check(label + ": each metric printed with unit", printed)
            check(label + ": fail_share printed",
                  any(l.split()[:1] == ["fail_share"] for l in lines))

    for w, corrupt in (("serve_hop", "served"), ("featurize", "hop")):
        code, out = run.run(binary, ["--workload", w, "--trace", "0",
                                     "--corrupt", corrupt] + base)
        res, _ = result(out)
        check("%s --corrupt %s: counted as failed" % (w, corrupt),
              code != 0 and res is not None and res["failed"] >= 1
              and not res["correct"])

    print("selftest: %s" % ("FAILED: " + ", ".join(failures)
                            if failures else "all checks passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
