"""Span recorder that wraps `lharg`'s public functions from outside.

Every public function defined in a `lharg` module is replaced, at every
module namespace that binds it (`mgf_q` is bound in `lharg.mgf`,
`lharg.pricing`, `lharg.cli` and the package itself), by a wrapper that
records one span: name, start, end, parent span and command id.  Spans
stay in memory until the run ends.  `scipy.optimize.minimize` is wrapped
as well, under the `estimate` layer, to read `OptimizeResult.nfev`.

The package is left untouched outside `Recorder.installed()`.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Functions the per-layer metrics read.  A name a later refactor removes
# is reported in `Recorder.missing`, and the metrics that need it read 0.
EXPECTED = (
    "mgf.mgf_p", "mgf.mgf_q", "mgf.log_mgf", "mgf.raw_cumulants",
    "pricing.price_chain", "pricing.cos_price", "pricing.implied_vol",
    "pricing.model_atm_iv",
    "estimate.mle_fit",
    "simulate.simulate_paths", "simulate.simulate_y_snapshots",
    "simulate.mc_mgf_from_samples",
    "io.load_rv_series", "io.load_returns", "io.load_option_chain",
    "io.load_params",
    "options.filter_options",
    "model.state_from_series", "model.stationary_state",
    "model.expand_weights",
)

MGF_CALLS = ("mgf.mgf_p", "mgf.mgf_q", "mgf.log_mgf")
IO_LOADS = ("io.load_rv_series", "io.load_returns", "io.load_option_chain",
            "io.load_params", "io.load_config")
STATE_CALLS = ("model.state_from_series", "model.stationary_state")


def _bound(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _zpoint_days(a, result):
    return int(np.size(a["z"])) * int(a["horizon"])


def _price_rows(a, result):
    return (len(result), sum(1 for row in result if row.error is not None))


def _paths_info(a, result):
    days = a["n_paths"] * (a.get("burn_in", 0) + a["horizon"])
    nbytes = result.rv_paths.nbytes + result.y_paths.nbytes
    return (days, result.clamp_count, nbytes)


def _snapshots_info(a, result):
    out, clamps = result
    days = a["n_paths"] * (a.get("burn_in", 0)
                           + max(int(m) for m in a["maturities"]))
    return (days, clamps, out.nbytes)


def _filter_info(a, result):
    return (len(result.chain), result.n_input)


def _nfev(a, result):
    return (a.get("method"), int(result.nfev))


# per-function extractors of a span's work count, from (arguments, result)
HOOKS = {
    "mgf.mgf_p": _zpoint_days,
    "mgf.mgf_q": _zpoint_days,
    "mgf.log_mgf": _zpoint_days,
    "pricing.price_chain": _price_rows,
    "simulate.simulate_paths": _paths_info,
    "simulate.simulate_y_snapshots": _snapshots_info,
    "options.filter_options": _filter_info,
    "estimate.minimize": _nfev,
    "io.load_rv_series": lambda a, r: len(r),
    "io.load_returns": lambda a, r: len(r),
    "io.load_option_chain": lambda a, r: len(r),
}


class Recorder:
    """In-memory spans of one traced pass: [name, start, end, parent, cmd, info]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.command = -1
        self.commands: list = []       # (command id, name, span index)
        self.missing: list = []
        self._saved: list = []

    # -- installation -------------------------------------------------------
    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.command, None]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[5] = hook(_bound(sig, args, kwargs), result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        import scipy.optimize

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lharg" or n.startswith("lharg."))]
        wrappers = {}
        seen = set()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or not obj.__module__.startswith("lharg."):
                    continue
                name = obj.__module__.split(".", 1)[1] + "." + obj.__name__
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name)
                seen.add(name)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        minimize = scipy.optimize.minimize
        self._saved.append((scipy.optimize, "minimize", minimize))
        scipy.optimize.minimize = self._wrap(minimize, "estimate.minimize")
        self.missing = [n for n in EXPECTED if n not in seen]

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def command_span(self, command: str):
        """Span of one CLI command; every span inside shares its id."""
        self.command = len(self.commands)
        sid = len(self.spans)
        span = ["cli." + command, time.perf_counter(), 0.0, None,
                self.command, None]
        self.spans.append(span)
        self.commands.append((self.command, command, sid))
        self.stack.append(sid)
        try:
            yield
        finally:
            self.stack.pop()
            span[2] = time.perf_counter()

    # -- analysis -----------------------------------------------------------
    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, cmd, info in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, *_rest) in enumerate(self.spans)]

    def check_additivity(self, tol: float = 1e-6) -> list:
        """Commands whose layer self times do not sum to their wall time.

        Also flags spans that end before they start or outside their parent.
        """
        bad = []
        selfs = self.self_times()
        per_cmd = defaultdict(float)
        for i, (name, start, end, parent, cmd, info) in enumerate(self.spans):
            per_cmd[cmd] += selfs[i]
            if end < start:
                bad.append(f"{name}: negative duration")
            if parent is not None:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    bad.append(f"{name}: outside its parent {p[0]}")
        for cmd, command, sid in self.commands:
            wall = self.spans[sid][2] - self.spans[sid][1]
            if abs(per_cmd[cmd] - wall) > tol * max(1.0, wall):
                bad.append(f"{command}: layer self times {per_cmd[cmd]:.9f} s "
                           f"!= wall {wall:.9f} s")
        return bad

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, cmd, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": cmd,
                                     "info": info}) + "\n")


COMMANDS = ("estimate", "calibrate", "price", "evaluate", "simulate",
            "mgf-check")


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metrics of one traced pass, all but trace.overhead_frac.

    Names are those of BENCHMARK.json's per_layer list.
    """
    selfs = rec.self_times()
    calls = defaultdict(int)
    incl = defaultdict(float)
    own = defaultdict(float)
    infos = defaultdict(list)
    for i, (name, start, end, parent, cmd, info) in enumerate(rec.spans):
        calls[name] += 1
        incl[name] += end - start
        own[name] += selfs[i]
        if info is not None:
            infos[name].append(info)

    def total(names, table):
        return sum(table[n] for n in names)

    in_chain = 0
    for name, start, end, parent, cmd, info in rec.spans:
        if name not in MGF_CALLS:
            continue
        while parent is not None:
            if rec.spans[parent][0] == "pricing.price_chain":
                in_chain += 1
                break
            parent = rec.spans[parent][3]

    m = {}
    zpd = sum(sum(infos[n]) for n in MGF_CALLS)
    m["mgf.calls"] = total(MGF_CALLS, calls)
    m["mgf.zpoint_days"] = zpd
    m["mgf.self_s"] = total(MGF_CALLS, own)
    m["mgf.ns_per_zpoint_day"] = _ratio(m["mgf.self_s"], zpd, 1e9)
    m["mgf.cumulant_calls"] = calls["mgf.raw_cumulants"]
    m["mgf.cumulant_ms_per_call"] = _ratio(incl["mgf.raw_cumulants"],
                                           calls["mgf.raw_cumulants"], 1e3)

    rows = infos["pricing.price_chain"]
    quotes = sum(n for n, _ in rows)
    m["pricing.quotes"] = quotes
    m["pricing.quotes_failed"] = sum(f for _, f in rows)
    m["pricing.recursions_per_quote"] = _ratio(in_chain, quotes)
    m["pricing.cos_calls"] = calls["pricing.cos_price"]
    m["pricing.cos_self_ms_per_quote"] = _ratio(own["pricing.cos_price"],
                                                calls["pricing.cos_price"], 1e3)
    m["pricing.iv_calls"] = calls["pricing.implied_vol"]
    m["pricing.iv_ms_per_call"] = _ratio(incl["pricing.implied_vol"],
                                         calls["pricing.implied_vol"], 1e3)
    m["pricing.atm_iv_calls"] = calls["pricing.model_atm_iv"]

    nfev = defaultdict(int)
    for method, n in infos["estimate.minimize"]:
        nfev[str(method).lower()] += n
    m["estimate.nfev_nelder_mead"] = nfev["nelder-mead"]
    m["estimate.nfev_lbfgsb"] = nfev["l-bfgs-b"]
    m["estimate.minimize_s"] = incl["estimate.minimize"]
    m["estimate.ms_per_objective_eval"] = _ratio(
        incl["estimate.minimize"], sum(nfev.values()), 1e3)
    m["estimate.fit_other_s"] = incl["estimate.mle_fit"] \
        - incl["estimate.minimize"] if calls["estimate.mle_fit"] else 0.0

    paths = infos["simulate.simulate_paths"]
    snaps = infos["simulate.simulate_y_snapshots"]
    path_days = sum(d for d, _, _ in paths)
    snap_days = sum(d for d, _, _ in snaps)
    m["simulate.path_days"] = path_days + snap_days
    m["simulate.paths_ns_per_path_day"] = _ratio(
        own["simulate.simulate_paths"], path_days, 1e9)
    m["simulate.snapshots_ns_per_path_day"] = _ratio(
        own["simulate.simulate_y_snapshots"], snap_days, 1e9)
    m["simulate.clamps"] = sum(c for _, c, _ in paths + snaps)
    m["simulate.mc_mgf_s"] = incl["simulate.mc_mgf_from_samples"] \
        + incl["simulate.mc_mgf"]
    m["simulate.bytes_out_computed"] = sum(b for _, _, b in paths + snaps)

    m["io.load_s"] = total(IO_LOADS, incl)
    m["io.rows_read"] = sum(sum(infos[n]) for n in IO_LOADS)
    kept = infos["options.filter_options"]
    m["options.filter_s"] = incl["options.filter_options"]
    m["options.kept_ratio"] = _ratio(sum(k for k, _ in kept),
                                     sum(n for _, n in kept))
    m["model.state_calls"] = total(STATE_CALLS, calls)
    m["model.state_s"] = total(STATE_CALLS, incl)
    m["model.expand_weights_calls"] = calls["model.expand_weights"]

    # a command's cli self time: its span and every cli-layer span inside
    # it (main, the argument parser), minus the other layers' spans
    cli_self = defaultdict(float)
    for i, (name, start, end, parent, cmd, info) in enumerate(rec.spans):
        if name.startswith("cli."):
            cli_self[cmd] += selfs[i]
    for c in COMMANDS:
        m[f"cli.{c}.self_s"] = m[f"cli.{c}.wall_s"] = 0.0
    for cmd, command, sid in rec.commands:
        m[f"cli.{command}.self_s"] += cli_self[cmd]
        m[f"cli.{command}.wall_s"] += rec.spans[sid][2] - rec.spans[sid][1]
    return m
