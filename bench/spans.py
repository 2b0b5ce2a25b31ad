"""Outside-in tracing for the hcmlink benchmark.

The tracer replaces, for the length of a traced pass, every public function
of the package's modules with a wrapper that records a span. It patches each
module attribute that is bound to the function, because callers look names
up in their own module at call time: ``harness`` calls the names it imported
with ``from .x import y``, ``modem_hcm``, ``equalization`` and ``analysis``
call their own imports of ``fwht`` and ``encode_levels``, and the CLI calls
``harness.sweep`` and ``analysis.achievable_snr`` through the module. No
file of the package changes. Private helpers are not wrapped, so their time
is self time of the public function that called them; the work done inline
in ``harness._run_chunk`` (bit generation, error counting, the MMSE apply
step) is therefore self time of ``harness.run_point``.

A span records its name (``<module>.<function>``), start, end, parent span
and a few work counts. Spans stay in memory until ``dump`` writes them.
"""

import contextlib
import functools
import importlib
import inspect
import json
import math
from time import perf_counter

PACKAGE = "hcmlink"
MODULES = ("analysis", "channel", "equalization", "hadamard", "harness", "modem_hcm",
           "modem_ofdm")
LAYERS = MODULES + ("cli",)
ROOT = "cli.main"


def _fwht_work(args, kwargs, result):
    a = args[0]
    axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
    n = a.shape[axis]
    vectors = a.size // n
    return {"vectors": vectors, "butterflies": vectors * (n // 2) * int(math.log2(n))}


def _chunk_symbols() -> int:
    return importlib.import_module(f"{PACKAGE}.harness").CHUNK_SYMBOLS


# Work counts taken from a call's arguments or result, by span name.
WORK = {
    "hadamard.fwht": _fwht_work,
    "channel.propagate": lambda args, kwargs, result: {"samples": args[0].size},
    "equalization.interleaver_search": lambda args, kwargs, result: {
        "steps": kwargs.get("budget", args[2] if len(args) > 2 else 0)},
    "harness.run_point": lambda args, kwargs, result: {
        "symbols": result.symbols_run,
        "chunks": -(-result.symbols_run // _chunk_symbols())},
}


class Tracer:
    """Collects spans; one Tracer per benchmark run, all spans share its run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, parent, name, start, end, work]
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        sid = len(self.spans)
        span = [sid, self._stack[-1] if self._stack else None, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(sid)
        span[3] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = perf_counter()
            self._stack.pop()
        if name in WORK:
            span[5] = WORK[name](args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the package's public functions; restore on exit."""
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        owners = {f"{PACKAGE}.{m}" for m in MODULES}
        wrappers, patched = {}, []
        try:
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ not in owners):
                        continue
                    if id(obj) not in wrappers:
                        name = f"{obj.__module__.split('.')[-1]}.{obj.__name__}"
                        wrappers[id(obj)] = self._wrap(name, obj)
                    setattr(mod, attr, wrappers[id(obj)])
                    patched.append((mod, attr, obj))
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def dump(self, path):
        """Write every span of the run as JSON."""
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["id", "parent", "name", "start", "end", "work"],
                       "spans": self.spans}, fh)


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass; spans must all be descendants of ROOT spans."""
    child_time = {}
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    calls, self_s, busy_s, work = {}, {}, {}, {}
    in_search = set()
    objective_evals = 0
    for sid, parent, name, start, end, counts in spans:
        calls[name] = calls.get(name, 0) + 1
        busy_s[name] = busy_s.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        for key, value in (counts or {}).items():
            work[f"{name}.{key}"] = work.get(f"{name}.{key}", 0) + value
        if name == "equalization.interleaver_search" or parent in in_search:
            in_search.add(sid)
            if name == "equalization.interference_matrix":
                objective_evals += 1

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    fwht_self = total(self_s, "hadamard.fwht")
    butterflies = work.get("hadamard.fwht.butterflies", 0)
    propagate_busy = total(busy_s, "channel.propagate")
    samples = work.get("channel.propagate.samples", 0)
    search_busy = total(busy_s, "equalization.interleaver_search")
    steps = work.get("equalization.interleaver_search.steps", 0)
    out = {
        "hadamard.fwht.calls": total(calls, "hadamard.fwht"),
        "hadamard.fwht.vectors": work.get("hadamard.fwht.vectors", 0),
        "hadamard.fwht.self_s": fwht_self,
        "hadamard.fwht.ns_per_butterfly": 1e9 * fwht_self / butterflies if butterflies else 0.0,
    }
    for fn in ("levels_from_bits", "encode_levels", "frame_chips", "decode_samples",
               "slice_levels"):
        out[f"modem_hcm.{fn}.self_s"] = total(self_s, f"modem_hcm.{fn}")
    out["modem_hcm.interleave.self_s"] = total(self_s, "modem_hcm.interleave",
                                               "modem_hcm.deinterleave")
    out["modem_ofdm.qam_symbols.self_s"] = total(self_s, "modem_ofdm.qam_symbols")
    out["modem_ofdm.time_samples.self_s"] = total(self_s, "modem_ofdm.aco_time_samples",
                                                  "modem_ofdm.dco_time_samples")
    out["modem_ofdm.extract.self_s"] = total(self_s, "modem_ofdm.aco_extract",
                                             "modem_ofdm.dco_extract")
    out["modem_ofdm.qam_bits.self_s"] = total(self_s, "modem_ofdm.qam_bits")
    out.update({
        "channel.propagate.calls": total(calls, "channel.propagate"),
        "channel.propagate.samples": samples,
        "channel.propagate.busy_s": propagate_busy,
        "channel.propagate.ns_per_sample": 1e9 * propagate_busy / samples if samples else 0.0,
        "equalization.interleaver_search.busy_s": search_busy,
        "equalization.interleaver_search.objective_evals": objective_evals,
        "equalization.interleaver_search.ms_per_step": 1e3 * search_busy / steps if steps else 0.0,
        "equalization.mmse_weights.calls": total(calls, "equalization.mmse_weights"),
        "equalization.mmse_weights.self_s": total(self_s, "equalization.mmse_weights"),
        "analysis.hcm_amplitude_pmf.calls": total(calls, "analysis.hcm_amplitude_pmf"),
        "analysis.hcm_amplitude_pmf.busy_s": total(busy_s, "analysis.hcm_amplitude_pmf"),
        "analysis.dcr_amplitude_pmf.busy_s": total(busy_s, "analysis.dcr_amplitude_pmf"),
        "analysis.achievable_snr.busy_s": total(busy_s, "analysis.achievable_snr"),
        "harness.run_point.self_s": total(self_s, "harness.run_point"),
        "harness.chunks": work.get("harness.run_point.chunks", 0),
        "harness.symbols": work.get("harness.run_point.symbols", 0),
        "cli.overhead_s": total(self_s, ROOT),
    })
    for layer in MODULES:
        out[f"layer.{layer}.self_s"] = sum(v for n, v in self_s.items() if n.split(".")[0] == layer)
    out["trace.wall_s"] = wall_s
    out["trace.accounted_frac"] = sum(self_s.values()) / wall_s
    return out
