"""Smoke test of the benchmark itself; it never asserts a timing.

Runs the tiny variant of every workload (run.py --tiny) in both modes and
asserts the result schema, the metric names and units of BENCHMARK.json, a
clean output check and the trace's predicted zeros. It feeds the output
check corrupted CSVs, and runs the benchmark in a directory that holds only
BENCHMARK.json and bench/, where it must fail without printing a result.

    python3 bench/smoke.py
"""

import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def metrics_of(workload: str, trace: int, seed: int = check.REFERENCE_SEED) -> dict:
    done = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric == {"value": metric["value"], "unit": spec["unit"]}, metric
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        assert metric["value"] > 0 or trace, spec["name"]
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_predicted_zeros(workload: str, m: dict):
    hcm = workload != "awgn-ofdm"
    dispersive = workload == "dispersive-mmse"
    assert (m["hadamard.fwht.calls"] > 0) == hcm, workload
    for name, value in m.items():
        if name.startswith("modem_hcm."):
            expect = hcm and (dispersive or name != "modem_hcm.interleave.self_s")
        elif name.startswith("modem_ofdm."):
            expect = not hcm
        elif name.startswith("equalization."):
            expect = dispersive
        else:
            continue
        assert (value > 0) == expect, (workload, name, value)
    for name in ("channel.propagate.calls", "harness.chunks", "harness.symbols",
                 "harness.run_point.self_s", "cli.overhead_s", "trace.wall_s"):
        assert m[name] > 0, (workload, name)
    layers = sum(v for k, v in m.items() if k.startswith("layer.")) + m["cli.overhead_s"]
    assert math.isclose(layers, m["trace.accounted_frac"] * m["trace.wall_s"], rel_tol=1e-9)
    assert 0.95 < m["trace.accounted_frac"] <= 1.0, m["trace.accounted_frac"]


def _mutate(text: str, column: str, fn) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[2][col] = fn(rows[2][col])
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def check_the_check():
    with open(BENCH / "reference" / "tiny" / "awgn-hcm.hcm.simulate.csv", newline="") as fh:
        ref = fh.read()
    bps = check.bits_per_symbol("hcm", 128, 2)

    def verdict(text):
        return check.check_csv("simulate", text, ref, bits_per_sym=bps)

    same = verdict(ref)
    assert same.identical and same.failed == 0 and same.rows == 4
    assert verdict("").failed == 4
    for column, fn in (("symbols", lambda v: str(int(v) + 1)),
                       ("analytical_ber", lambda v: repr(float(v) * (1 + 1e-6))),
                       ("ber", lambda v: repr(float(v) * 1.01)),
                       ("ci95", lambda v: "nan")):
        bad = verdict(_mutate(ref, column, fn))
        assert bad.failed == 1 and not bad.identical, (column, bad)
    far = _mutate(_mutate(ref, "bit_errors", lambda v: str(int(v) // 2)), "ber",
                  lambda v: repr(float(v) / 2))
    assert verdict(far).failed >= 1
    reformatted = verdict(_mutate(ref, "avg_power_w", lambda v: f"{float(v):.12e}"))
    assert reformatted.failed == 0 and not reformatted.identical


def check_fails_without_package():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench(bare, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and '"metrics"' not in done.stdout, done


def main() -> int:
    check_the_check()
    check_fails_without_package()
    for workload in WORKLOADS:
        metrics_of(workload, 0)
        check_predicted_zeros(workload, metrics_of(workload, 1))
        print(f"ok {workload}")
    metrics_of(WORKLOADS[0], 0, seed=2)
    print("ok other seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
