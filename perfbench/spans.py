"""Spans around the public functions of cyclodist, recorded from outside.

A Tracer wraps each function listed in TARGETS and rebinds the wrapper in
every ``cyclodist.*`` module namespace that holds the original object, so
calls made through ``from .x import f`` bindings are seen as well.  Spans
stay in memory and are written as JSON lines when the run ends; nothing
under ``src/`` is changed.

``aggregate`` turns the span records of one run (the worker's and those of
its CLI children) into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = (
    "arith",
    "ramanujan",
    "cyclotomic",
    "densities_natural",
    "densities_prime",
    "empirics",
    "tables",
    "cli",
)

# module -> public functions wrapped in the traced run
TARGETS = {
    "arith": ("sieve_pack", "read_sieve_cache"),
    "ramanujan": ("ramanujan_sum", "natural_density_of_ramanujan"),
    "cyclotomic": ("cyclo_coeff", "coeff_profile", "value_set", "cyclo_poly"),
    "densities_natural": (
        "mean_coeff",
        "mean_coeff_partition",
        "coeff_density",
        "moller_conjecture_scan",
    ),
    "densities_prime": ("artin_constant", "coeff_prime_density", "ramanujan_prime_density"),
    "empirics": ("scan_primes", "count_cyclo_values", "count_ramanujan_values"),
    "tables": ("build_table", "compare_to_golden"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


class Tracer:
    """In-memory span recorder for one process of one run.

    Span ids are ``<prefix>.<n>``; the prefix keeps ids unique across the
    worker and its CLI children, which share the run id."""

    def __init__(self, run_id: str, prefix: str = "w", root_parent=None):
        self.run_id = run_id
        self.prefix = prefix
        self.root_parent = root_parent
        self.records = []
        self._stack = []
        self._next = 0
        self._seen_coeffs = set()
        self._paused = False

    # -- spans ---------------------------------------------------------------

    def current(self) -> str:
        """Id of the innermost open span ("" outside any span)."""
        return self._stack[-1] if self._stack else (self.root_parent or "")

    def _open(self):
        self._next += 1
        sid = f"{self.prefix}.{self._next}"
        parent = self._stack[-1] if self._stack else self.root_parent
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, attrs):
        end = time.perf_counter_ns()
        self._stack.pop()
        rec = {"run": self.run_id, "span": sid, "parent": parent, "name": name,
               "start": start, "end": end}
        if attrs:
            rec["attrs"] = attrs
        self.records.append(rec)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself (set-up, an op)."""
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        except BaseException:
            attrs["error"] = 1
            raise
        finally:
            self._close(sid, parent, name, start, attrs)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name: str, fn):
        describe = _DESCRIBERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, start, {"error": 1})
                raise
            self._close(sid, parent, name, start, None)
            if describe:
                # counters are taken after the span's end; their cost is
                # recorded as "tare" and kept out of the parent's self time
                rec = self.records[-1]
                attrs = describe(self, args, kwargs, result)
                if attrs:
                    rec["attrs"] = attrs
                rec["tare"] = time.perf_counter_ns() - rec["end"]
            return result

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever cyclodist imported it."""
        for mod_name in TARGETS:
            importlib.import_module(f"cyclodist.{mod_name}")
        modules = [m for n, m in sys.modules.items()
                   if n == "cyclodist" or n.startswith("cyclodist.")]
        for mod_name, fn_names in TARGETS.items():
            home = importlib.import_module(f"cyclodist.{mod_name}")
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "a") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")
        self.records = []


# -- per-call counters -----------------------------------------------------------


def _describe_sieve(tracer, args, kwargs, pack):
    nbytes = sum(a.nbytes for a in (pack.smallest_prime_factor, pack.mobius, pack.primes))
    return {"limit": pack.limit, "bytes": nbytes}


def _describe_cache(tracer, args, kwargs, result):
    return {"hit": int(result is not None)}


def _describe_coeff(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 0, "n")
    key = (getattr(n, "value", n), _arg(args, kwargs, 1, "k"))
    if key in tracer._seen_coeffs:
        return {"repeat": 1}
    tracer._seen_coeffs.add(key)
    return None


def _describe_profile(tracer, args, kwargs, profile):
    return {"entries": len(profile.entries)}


def _describe_partition_mean(tracer, args, kwargs, result):
    from cyclodist.cyclotomic import partition_count

    return {"partitions": partition_count(_arg(args, kwargs, 0, "k"))}


def _describe_scan(tracer, args, kwargs, report):
    return {"stat": _arg(args, kwargs, 0, "statistic"), "primes": report.total}


def _describe_count(tracer, args, kwargs, result):
    return {"integers": _arg(args, kwargs, 1, "limit")}


def _describe_table(tracer, args, kwargs, artifact):
    return {"bytes": len(artifact.to_json().encode())}


def _describe_main(tracer, args, kwargs, code):
    return {"error": 1} if code else None


_DESCRIBERS = {
    "arith.sieve_pack": _describe_sieve,
    "arith.read_sieve_cache": _describe_cache,
    "cyclotomic.cyclo_coeff": _describe_coeff,
    "cyclotomic.coeff_profile": _describe_profile,
    "densities_natural.mean_coeff_partition": _describe_partition_mean,
    "empirics.scan_primes": _describe_scan,
    "empirics.count_cyclo_values": _describe_count,
    "empirics.count_ramanujan_values": _describe_count,
    "tables.build_table": _describe_table,
    "cli.main": _describe_main,
}

SCAN_STATS = ("mu_pminus1", "c_pminus1", "a_pminus1", "s_k_mod_p")

# per-layer metric name -> unit, in BENCHMARK.json order
LAYER_METRICS = {
    "arith.sieve_pack.s": "s",
    "arith.sieve_pack.calls": "count",
    "arith.sieve_pack.calls_max_process": "count",
    "arith.sieve_limit_max": "count",
    "arith.sieve_bytes": "bytes",
    "arith.read_sieve_cache.s": "s",
    "arith.cache_reads": "count",
    "arith.cache_hits": "count",
    "densities_prime.artin_constant.s": "s",
    "densities_prime.artin_constant.calls": "count",
    "densities_prime.coeff_prime_density.s": "s",
    "densities_prime.ramanujan_prime_density.s": "s",
    "empirics.scan_primes.s": "s",
    **{f"empirics.scan_primes.{stat}.s": "s" for stat in SCAN_STATS},
    "empirics.primes_scanned": "count",
    "empirics.ns_per_prime": "ns",
    "empirics.primes_per_s": "1/s",
    "empirics.count_cyclo_values.s": "s",
    "empirics.count_ramanujan_values.s": "s",
    "empirics.integers_scanned": "count",
    "cyclotomic.cyclo_coeff.s": "s",
    "cyclotomic.cyclo_coeff.calls": "count",
    "cyclotomic.cyclo_coeff.repeat_ratio": "ratio",
    "cyclotomic.coeff_profile.s": "s",
    "cyclotomic.coeff_profile.calls": "count",
    "cyclotomic.profile_entries": "count",
    "cyclotomic.value_set.s": "s",
    "cyclotomic.cyclo_poly.s": "s",
    "densities_natural.mean_coeff.s": "s",
    "densities_natural.mean_coeff_partition.s": "s",
    "densities_natural.partitions": "count",
    "densities_natural.coeff_density.s": "s",
    "densities_natural.moller_conjecture_scan.s": "s",
    "ramanujan.ramanujan_sum.s": "s",
    "ramanujan.ramanujan_sum.calls": "count",
    "ramanujan.natural_density_of_ramanujan.s": "s",
    "tables.build_table.s": "s",
    "tables.build_table.calls": "count",
    "tables.compare_to_golden.s": "s",
    "tables.artifact_bytes": "bytes",
    "cli.startup_s": "s",
    "cli.main.s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def load_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def aggregate(spans) -> dict:
    """Per-layer metric values (without trace.overhead_s) from span records.

    A timing ``X.s`` is the self time of the spans named X: each span's
    duration minus the durations (and describer tares) of its direct child
    spans."""
    by_id = {s["span"]: s for s in spans}
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] in by_id:
            child_ns[s["parent"]] += s["end"] - s["start"] + s.get("tare", 0)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(int)  # summed attrs, keyed "name:attr"
    errors = defaultdict(int)
    per_process_sieves = defaultdict(int)
    startups = []
    for s in spans:
        name = s["name"]
        attrs = s.get("attrs", {})
        dur = s["end"] - s["start"]
        own = (dur - child_ns[s["span"]]) / 1e9
        self_s[name] += own
        incl_s[name] += dur / 1e9
        calls[name] += 1
        if name == "empirics.scan_primes" and "stat" in attrs:
            self_s[f"{name}.{attrs['stat']}"] += own
        for key, val in attrs.items():
            if isinstance(val, (int, float)) and key != "error":
                total[f"{name}:{key}"] += val
        layer = name.split(".", 1)[0]
        if attrs.get("error") and layer in LAYERS:
            errors[layer] += 1
        if name == "arith.sieve_pack":
            per_process_sieves[s["span"].split(".", 1)[0]] += 1
        if name == "cli.main":
            parent = by_id.get(s["parent"])
            if parent is not None:
                startups.append((s["start"] - parent["start"]) / 1e9)
    primes = total["empirics.scan_primes:primes"]
    limits = [s["attrs"]["limit"] for s in spans
              if s["name"] == "arith.sieve_pack" and "attrs" in s]
    coeff_calls = calls["cyclotomic.cyclo_coeff"]
    out = {
        "arith.sieve_pack.s": self_s["arith.sieve_pack"],
        "arith.sieve_pack.calls": calls["arith.sieve_pack"],
        "arith.sieve_pack.calls_max_process": max(per_process_sieves.values(), default=0),
        "arith.sieve_limit_max": max(limits, default=0),
        "arith.sieve_bytes": total["arith.sieve_pack:bytes"],
        "arith.read_sieve_cache.s": self_s["arith.read_sieve_cache"],
        "arith.cache_reads": calls["arith.read_sieve_cache"],
        "arith.cache_hits": total["arith.read_sieve_cache:hit"],
        "densities_prime.artin_constant.s": self_s["densities_prime.artin_constant"],
        "densities_prime.artin_constant.calls": calls["densities_prime.artin_constant"],
        "densities_prime.coeff_prime_density.s": self_s["densities_prime.coeff_prime_density"],
        "densities_prime.ramanujan_prime_density.s":
            self_s["densities_prime.ramanujan_prime_density"],
        "empirics.scan_primes.s": self_s["empirics.scan_primes"],
        **{f"empirics.scan_primes.{stat}.s": self_s[f"empirics.scan_primes.{stat}"]
           for stat in SCAN_STATS},
        "empirics.primes_scanned": primes,
        "empirics.ns_per_prime": self_s["empirics.scan_primes"] / primes * 1e9 if primes else 0.0,
        "empirics.primes_per_s": primes / incl_s["empirics.scan_primes"] if primes else 0.0,
        "empirics.count_cyclo_values.s": self_s["empirics.count_cyclo_values"],
        "empirics.count_ramanujan_values.s": self_s["empirics.count_ramanujan_values"],
        "empirics.integers_scanned": total["empirics.count_cyclo_values:integers"]
        + total["empirics.count_ramanujan_values:integers"],
        "cyclotomic.cyclo_coeff.s": self_s["cyclotomic.cyclo_coeff"],
        "cyclotomic.cyclo_coeff.calls": coeff_calls,
        "cyclotomic.cyclo_coeff.repeat_ratio":
            total["cyclotomic.cyclo_coeff:repeat"] / coeff_calls if coeff_calls else 0.0,
        "cyclotomic.coeff_profile.s": self_s["cyclotomic.coeff_profile"],
        "cyclotomic.coeff_profile.calls": calls["cyclotomic.coeff_profile"],
        "cyclotomic.profile_entries": total["cyclotomic.coeff_profile:entries"],
        "cyclotomic.value_set.s": self_s["cyclotomic.value_set"],
        "cyclotomic.cyclo_poly.s": self_s["cyclotomic.cyclo_poly"],
        "densities_natural.mean_coeff.s": self_s["densities_natural.mean_coeff"],
        "densities_natural.mean_coeff_partition.s":
            self_s["densities_natural.mean_coeff_partition"],
        "densities_natural.partitions": total["densities_natural.mean_coeff_partition:partitions"],
        "densities_natural.coeff_density.s": self_s["densities_natural.coeff_density"],
        "densities_natural.moller_conjecture_scan.s":
            self_s["densities_natural.moller_conjecture_scan"],
        "ramanujan.ramanujan_sum.s": self_s["ramanujan.ramanujan_sum"],
        "ramanujan.ramanujan_sum.calls": calls["ramanujan.ramanujan_sum"],
        "ramanujan.natural_density_of_ramanujan.s":
            self_s["ramanujan.natural_density_of_ramanujan"],
        "tables.build_table.s": self_s["tables.build_table"],
        "tables.build_table.calls": calls["tables.build_table"],
        "tables.compare_to_golden.s": self_s["tables.compare_to_golden"],
        "tables.artifact_bytes": total["tables.build_table:bytes"],
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "cli.main.s": self_s["cli.main"],
        **{f"{layer}.errors": errors[layer] for layer in LAYERS},
        "trace.spans": len(spans),
    }
    return out
