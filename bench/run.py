"""hcmlink benchmark: fixed-work workloads timed through the CLI entry points.

Run from the repository root:

    python3 bench/run.py --workload awgn-hcm --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40
    python3 bench/run.py --workload all --update-reference

One run of a workload calls ``hcmlink.cli.main`` in this process. A warm-up
``analyze`` is followed by rounds until ``--seconds`` are spent (at least
MIN_ROUNDS). A round runs ``analyze`` on every config of the workload, then
``simulate``, then ``snr``; the cheap commands repeat until MIN_SAMPLE_S is
spent, so each timing has enough samples. Every CSV is checked against the
committed reference (check.py). With ``--trace 0`` the last line of stdout
holds the end-to-end metrics, as medians over the samples; with
``--trace 1`` rounds alternate untraced and traced, and it holds the
per-layer metrics of the traced rounds (spans.py). ``all`` runs every
workload in both modes, each in its own process, and prints one table.
The metric names and units come from BENCHMARK.json. README.md says what
each metric means and which layer moves it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import uuid
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import check
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference"
OUT = BENCH / "out"

MIN_ROUNDS = 3
MIN_SAMPLE_S = 0.25
PROBE_NOMINAL_S = 0.013
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Workload -> (configs under configs/, arguments of its snr command). Why each
# workload exists is in its configs' comments and in BENCHMARK.json.
WORKLOADS = {
    "awgn-hcm": (("awgn-hcm.hcm", "awgn-hcm.dcr-hcm"),
                 ("--schemes", "hcm,dcr-hcm", "--n", "128")),
    "awgn-ofdm": (("awgn-ofdm.aco-ofdm", "awgn-ofdm.dco-ofdm"),
                  ("--schemes", "aco-ofdm,dco-ofdm", "--m-list", "4,16", "--n", "128")),
    "dispersive-mmse": (("dispersive-mmse.dcr-hcm",),
                        ("--schemes", "dcr-hcm", "--n", "128")),
}
# Overrides of the smoke test's tiny variant (--tiny); its references are in reference/tiny.
TINY = {"max_symbols": "256", "interleaver_budget": "100", "calib_symbols": "4096"}


@dataclass(frozen=True)
class Config:
    stem: str
    path: Path
    bits_per_symbol: int
    seeded: bool  # analytic columns depend on master_seed


def read_config(stem: str) -> Config:
    path = CONFIGS / f"{stem}.conf"
    keys = {}
    for line in path.read_text().splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        if value:
            keys[key.strip()] = value.strip()
    return Config(
        stem=stem,
        path=path,
        bits_per_symbol=check.bits_per_symbol(keys["scheme"], int(keys["n"]), int(keys["m"])),
        seeded=keys["scheme"] == "dcr-hcm" or keys.get("interleaver") == "search",
    )


class Runner:
    """Runs and checks the commands of one workload at one seed."""

    def __init__(self, cli, workload: str, seed: int, tiny: bool):
        stems, self.snr_args = WORKLOADS[workload]
        self.cli = cli
        self.workload = workload
        self.configs = [read_config(s) for s in stems]
        self.sets = [f"master_seed={seed}"] + [f"{k}={v}" for k, v in TINY.items() if tiny]
        self.refdir = REFERENCE / "tiny" if tiny else REFERENCE
        self.other_seed = seed != check.REFERENCE_SEED
        self.analyzed = {}
        self.attempted = self.failed = self.csvs = self.identical = 0
        self.problems = []

    def argv(self, command: str, config: Config) -> list:
        argv = [command, str(config.path)]
        for item in self.sets:
            argv += ["--set", item]
        return argv

    def call(self, argv: list, tracer=None) -> tuple:
        """Run one CLI command; returns (stdout, wall seconds)."""
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tracer.call(spans.ROOT, main, argv) if tracer else main(argv)
            except SystemExit as exc:
                code = exc.code
        seconds = perf_counter() - start
        if code != 0:
            self.problems.append(f"{' '.join(argv[:2])}: exit {code}: {err.getvalue().strip()}")
            return "", seconds
        return out.getvalue(), seconds

    def verify(self, kind: str, name: str, text: str, config: Config | None = None):
        with open(self.refdir / f"{name}.{kind}.csv", newline="") as fh:
            reference = fh.read()
        seeded = config is not None and config.seeded and self.other_seed
        verdict = check.check_csv(
            kind, text, reference,
            bits_per_sym=config.bits_per_symbol if config else 0,
            seeded=seeded,
            paired_analyze=self.analyzed.get(name) if seeded and kind == "simulate" else None,
        )
        self.attempted += verdict.rows
        self.failed += verdict.failed
        self.csvs += 1
        self.identical += verdict.identical
        self.problems += [f"{name}: {p}" for p in verdict.problems]

    def analyze(self, tracer=None) -> float:
        total = 0.0
        for config in self.configs:
            text, seconds = self.call(self.argv("analyze", config), tracer)
            self.analyzed[config.stem] = text
            self.verify("analyze", config.stem, text, config)
            total += seconds
        return total

    def simulate(self, tracer=None) -> float:
        total = 0.0
        for config in self.configs:
            text, seconds = self.call(self.argv("simulate", config), tracer)
            self.verify("simulate", config.stem, text, config)
            total += seconds
        return total

    def snr(self, tracer=None) -> float:
        text, seconds = self.call(["snr", *self.snr_args], tracer)
        self.verify("snr", self.workload, text)
        return seconds

    def payload_bits(self) -> int:
        """Bits one simulate pass carries: the work is fixed, so read it from the references."""
        bits = 0
        for config in self.configs:
            header, *rows = (self.refdir / f"{config.stem}.simulate.csv").read_text().split()
            col = header.split(",").index("symbols")
            bits += sum(int(r.split(",")[col]) for r in rows) * config.bits_per_symbol
        return bits


class HostProbe:
    """Scales pass times by the host's current speed, measured with a fixed probe.

    The host is shared. For seconds at a time other tenants slow this
    process by up to 1.6x, CPU time included, so neither the median nor the
    minimum of raw pass times repeats between runs. The probe is fixed numpy
    work that does not use hcmlink: butterflies, an FFT and normal draws on a
    256 x 128 block. Every sample is bracketed by probes and scaled by
    PROBE_NOMINAL_S / (their mean): the seconds it would take on this host
    when the probe takes PROBE_NOMINAL_S. Both sides of a comparison run the
    same probe, so a change to hcmlink moves the scaled times as much as the
    raw ones. Raw times are kept too.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.rng = np.random.default_rng(0)
        self.block = self.rng.standard_normal((256, 128))
        self.last = self.time()

    def time(self) -> float:
        np = self.np
        start = perf_counter()
        for _ in range(10):
            a = self.block.copy()
            h = 1
            while h < a.shape[-1]:
                pairs = a.reshape(a.shape[0], -1, 2, h)
                top = pairs[:, :, 0] + pairs[:, :, 1]
                pairs[:, :, 1] = pairs[:, :, 0] - pairs[:, :, 1]
                pairs[:, :, 0] = top
                h *= 2
            np.fft.rfft(a, axis=-1)
            self.rng.standard_normal(a.shape)
        return perf_counter() - start

    def sample(self, fn, min_s: float = 0.0) -> tuple:
        """Call fn until min_s is spent; returns (raw, scaled) seconds per call."""
        before = self.last
        calls, raw = 0, 0.0
        while calls == 0 or raw < min_s:
            raw += fn()
            calls += 1
        self.last = self.time()
        raw /= calls
        return raw, raw * PROBE_NOMINAL_S / (0.5 * (before + self.last))


def timed_rounds(seconds: float, body, min_rounds: int) -> int:
    start = perf_counter()
    rounds = 0
    while True:
        t0 = perf_counter()
        body()
        rounds += 1
        last = perf_counter() - t0
        if rounds >= min_rounds and perf_counter() - start + last > seconds:
            return rounds


def medians(samples: list) -> tuple:
    """Medians of the raw and the scaled seconds of (raw, scaled) samples."""
    return tuple(statistics.median(s[i] for s in samples) for i in (0, 1))


def measure(runner: Runner, seconds: float) -> dict:
    probe = HostProbe()
    setup, sim, snr = [], [], []
    bits = runner.payload_bits() / 1e6

    def body():
        setup.append(probe.sample(runner.analyze, MIN_SAMPLE_S))
        sim.append(probe.sample(runner.simulate))
        snr.append(probe.sample(runner.snr, MIN_SAMPLE_S))

    runner.analyze()  # warm-up: imports, caches
    rounds = timed_rounds(seconds, body, MIN_ROUNDS)
    raw = {"sim_mbps": bits / medians(sim)[0], "setup_s": medians(setup)[0],
           "snr_s": medians(snr)[0]}
    metrics = {"sim_mbps": bits / medians(sim)[1], "setup_s": medians(setup)[1],
               "snr_s": medians(snr)[1]}
    return {"rounds": rounds, "raw": raw, "metrics": metrics,
            "samples": {"setup_s": setup, "sim_s": sim, "snr_s": snr}}


def measure_traced(runner: Runner, seconds: float, tracer: spans.Tracer) -> dict:
    probe = HostProbe()
    plain_sim, traced_sim, per_pass = [], [], []

    def body():
        runner.analyze()
        plain_sim.append(probe.sample(runner.simulate))
        runner.snr()
        first = len(tracer.spans)
        with tracer.installed():
            wall = runner.analyze(tracer)
            traced_sim.append(probe.sample(lambda: runner.simulate(tracer)))
            wall += traced_sim[-1][0] + runner.snr(tracer)
        per_pass.append(spans.layer_metrics(tracer.spans[first:], wall))

    runner.analyze()  # warm-up: imports, caches
    rounds = timed_rounds(seconds, body, MIN_ROUNDS - 1)
    # Report one whole pass, the one with the median traced wall time, so that
    # its self times add up to its wall time.
    metrics = sorted(per_pass, key=lambda m: m["trace.wall_s"])[(len(per_pass) - 1) // 2]
    metrics["trace.overhead_frac"] = 1.0 - medians(plain_sim)[1] / medians(traced_sim)[1]
    return {"rounds": rounds, "metrics": metrics,
            "samples": {"plain_sim_s": plain_sim, "traced_sim_s": traced_sim}}


def _git_object(kind: bytes, data: bytes) -> str:
    return hashlib.sha1(kind + b" %d\0" % len(data) + data).hexdigest()


def git_tree_id(path: Path) -> str:
    """The id git gives this directory's tree (`git rev-parse HEAD:src` on a clean checkout)."""
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.name.endswith((".pyc", ".egg-info")):
            continue
        if child.is_dir():
            mode, oid, key = b"40000", git_tree_id(child), child.name + "/"
        else:
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            oid, key = _git_object(b"blob", child.read_bytes()), child.name
        entries.append((key, mode + b" " + child.name.encode() + b"\0" + bytes.fromhex(oid)))
    return _git_object(b"tree", b"".join(e for _, e in sorted(entries)))


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _host():
    """CPU model and cache sizes, read from the kernel's description of the host."""
    host = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "platform": platform.platform(), "cpu_model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                host["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            host["caches"][f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    except OSError:
        pass
    return host


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "src_tree": git_tree_id(SRC),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        **_host(),
    }


def load_metric_specs(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_one(args) -> int:
    from hcmlink import cli

    runner = Runner(cli, args.workload, args.seed, args.tiny)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_id = f"{name}-{uuid.uuid4().hex[:8]}"
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer = spans.Tracer(run_id)
        result = measure_traced(runner, args.seconds, tracer)
        tracer.dump(OUT / f"spans-{name}.json")
    else:
        result = measure(runner, args.seconds)
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    specs = load_metric_specs(args.trace)
    metrics = {s["name"]: {"value": result["metrics"][s["name"]], "unit": s["unit"]}
               for s in specs}
    fail_frac = runner.failed / runner.attempted
    record = {
        "run_id": run_id, "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny, "rounds": result["rounds"],
        "attempted": runner.attempted, "failed": runner.failed, "fail_frac": fail_frac,
        "csvs": runner.csvs, "identical_csvs": runner.identical,
        "problems": runner.problems[:20], "metrics": metrics, "raw": result.get("raw"),
        "samples": result["samples"], "environment": environment(),
    }
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result['rounds']}")
    for metric, m in metrics.items():
        print(f"  {metric:50s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_frac':50s} {fail_frac:14.6g} ratio  ({runner.failed} of {runner.attempted})")
    print(f"  identical CSVs: {runner.identical} of {runner.csvs}")
    for problem in runner.problems[:5]:
        print(f"  FAILED {problem}")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process; one table and a summary file."""
    results, env, code = {}, None, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                code = 1
                continue
            results[f"{workload}/trace{trace}"] = json.loads(lines[-1])
            for line in lines[:-1]:
                if line.startswith("environment "):
                    env = json.loads(line.split(" ", 1)[1])
                else:
                    print(line)
    summary = {"seed": args.seed, "seconds": args.seconds, "environment": env,
               "results": results}
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{args.seed}.json").write_text(json.dumps(summary, indent=1))
    return code


def update_reference(args) -> int:
    """Re-make the reference CSVs at REFERENCE_SEED, for the full and the tiny variants."""
    from hcmlink import cli

    names = WORKLOADS if args.workload == "all" else [args.workload]
    for tiny in (False, True):
        for workload in names:
            runner = Runner(cli, workload, check.REFERENCE_SEED, tiny)
            runner.refdir.mkdir(parents=True, exist_ok=True)
            outputs = [(f"{workload}.snr.csv", runner.call(["snr", *runner.snr_args])[0])]
            for config in runner.configs:
                for command in ("analyze", "simulate"):
                    text = runner.call(runner.argv(command, config))[0]
                    outputs.append((f"{config.stem}.{command}.csv", text))
            if runner.problems:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            for name, text in outputs:
                with open(runner.refdir / name, "w", newline="") as fh:
                    fh.write(text)
                print(f"wrote {(runner.refdir / name).relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=check.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny variant of each config, for the smoke test")
    parser.add_argument("--update-reference", action="store_true",
                        help=f"re-make the reference CSVs at seed {check.REFERENCE_SEED}")
    args = parser.parse_args(argv)
    if not (SRC / "hcmlink" / "__init__.py").is_file():
        print(f"error: no hcmlink package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # One BLAS thread, like the CLI's default of one worker thread; set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    if args.update_reference:
        return update_reference(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
