"""Span tracing around the zubov modules, applied from outside the package.

``Tracer.install`` swaps chosen module-level functions (and one method)
for wrappers that record a span per call: name, start, end and the span
that was open when the call began.  Spans stay in memory; ``layer_metrics``
turns them into the per-layer figures the benchmark prints.  Nothing
under ``src/`` knows about this module, and ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import time
from collections import defaultdict

from zubov import cli, dynamics, expr, interval, net, ode, verify

# (owner, attribute, span name); every call into these is recorded.  The
# list covers what the CLI calls directly, so that a CLI span's self time
# is the CLI's own work (config, CSV and JSON handling).
_TARGETS = [
    (cli, "run", "cli.run"),
    (cli, "_cmd_gen_data", "cli.gen-data"),
    (cli, "_cmd_train", "cli.train"),
    (cli, "_cmd_verify_local", "cli.verify-local"),
    (cli, "_cmd_verify_roa", "cli.verify-roa"),
    (ode, "gen_dataset", "ode.gen_dataset"),
    (ode, "_rk_step", "ode.rk_step"),
    (ode, "save_samples", "ode.save_samples"),
    (ode, "load_samples", "ode.load_samples"),
    (net, "assemble_dataset", "net.assemble_dataset"),
    (net, "init_mlp", "net.init_mlp"),
    (net, "train", "net.train"),
    (net, "_loss_batch", "net.loss_batch"),
    (net, "forward_batch", "net.forward_batch"),
    (net, "input_grad_batch", "net.input_grad_batch"),
    (net, "save_mlp", "net.save_mlp"),
    (net, "load_mlp", "net.load_mlp"),
    (expr.VectorField, "eval_many", "expr.eval_many"),
    (dynamics, "builtin", "dynamics.builtin"),
    (dynamics, "linearize", "dynamics.linearize"),
    (dynamics, "solve_lyapunov", "dynamics.solve_lyapunov"),
    (interval, "bnb_verify", "interval.bnb_verify"),
    (interval, "net_interval_many", "interval.net_interval_many"),
    (interval, "hc4_contract", "interval.hc4_contract"),
    (interval, "expr_interval_many", "interval.expr_interval_many"),
    *[(interval, k, f"interval.{k}") for k in (
        "kadd", "ksub", "kneg", "kmul", "kscale", "kdiv", "kpow", "ktanh",
        "kexp", "kln", "ksqrt", "kaffine", "kmatmul_interval")],
    (verify, "verify_local", "verify.verify_local"),
    (verify, "find_max_local_c", "verify.find_max_local_c"),
    (verify, "verify_roa", "verify.verify_roa"),
    (verify, "find_max_level", "verify.find_max_level"),
    (verify, "volume_fraction", "verify.volume_fraction"),
    (verify, "report_to_json", "verify.report_to_json"),
]

# recursive functions: only the outermost call is a span, so its self
# time is the dispatch cost of the whole expression walk
_OUTERMOST_ONLY = {"interval.expr_interval_many"}


def _note(name, args, kwargs, result, error):
    """What a span records besides its times, by span name."""
    if name == "ode.rk_step":
        return args[1].shape[0]
    if name == "ode.gen_dataset":
        return len(result)
    if name == "net.loss_batch":
        return bool(kwargs.get("want_grad"))   # True on training steps
    if name == "interval.bnb_verify":
        if isinstance(error, interval.BudgetExhausted):
            return ("budget", error.processed)
        if result is not None:
            return (type(result).__name__.lower(), result.boxes_processed)
    return None


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index, note]
        self._open = []     # indices of the spans now open, innermost last
        self._depth = defaultdict(int)
        self._saved = []

    def _wrap(self, fn, name):
        spans, open_, depth = self.spans, self._open, self._depth
        clock = time.perf_counter
        outermost = name in _OUTERMOST_ONLY

        def traced(*args, **kwargs):
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            span = [name, clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                span[2] = clock()
                open_.pop()
                depth[name] -= 1
                span[4] = _note(name, args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name in _TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def totals(self):
        """Per span name: [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child[i]
        return out

    def notes(self, name):
        return [s[4] for s in self.spans if s[0] == name]


KERNELS = ("net_interval_many", "kmatmul_interval", "kaffine", "ktanh", "kmul",
           "kpow", "hc4_contract", "expr_interval_many")
SUBCOMMANDS = ("gen-data", "train", "verify-local", "verify-roa")
OUTCOMES = ("certified", "unknown", "falsified")


def _per_call(total, calls, scale):
    return scale * total / calls if calls else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """The per-layer figures of one round, by metric name.

    Counts and seconds are totals over the traced rounds divided by
    ``rounds``; rates, ratios and per-call times are taken over all of them.
    """
    tot = tracer.totals()
    m = {}

    def calls(name):
        return tot[name][0]

    def secs(name):
        return tot[name][1]

    # ode
    m["ode.gen_dataset.s"] = secs("ode.gen_dataset")
    trajectories = sum(tracer.notes("ode.gen_dataset"))
    m["ode.trajectories_per_s"] = trajectories / secs("ode.gen_dataset") if trajectories else 0.0
    row_steps = sum(tracer.notes("ode.rk_step"))
    m["ode.rk_step.calls"] = calls("ode.rk_step")
    m["ode.rk_step.row_steps"] = row_steps
    m["ode.rk_step.ns_per_row_step"] = 1e9 * secs("ode.rk_step") / row_steps if row_steps else 0.0
    m["ode.save_samples.s"] = secs("ode.save_samples")
    m["ode.load_samples.s"] = secs("ode.load_samples")

    # net
    m["net.train.s"] = secs("net.train")
    steps = sum(1 for want_grad in tracer.notes("net.loss_batch") if want_grad)
    m["net.adam_steps"] = steps
    loss_step_s = sum(s[2] - s[1] for s in tracer.spans
                      if s[0] == "net.loss_batch" and s[4])
    m["net.loss_batch.us_per_step"] = _per_call(loss_step_s, steps, 1e6)
    for fn in ("forward_batch", "input_grad_batch"):
        name = f"net.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_per_call"] = _per_call(secs(name), calls(name), 1e6)

    # expr, dynamics
    m["expr.eval_many.calls"] = calls("expr.eval_many")
    m["expr.eval_many.us_per_call"] = _per_call(secs("expr.eval_many"),
                                                calls("expr.eval_many"), 1e6)
    m["dynamics.linearize.calls"] = calls("dynamics.linearize")
    m["dynamics.linearize.s"] = secs("dynamics.linearize")

    # interval
    bnb = tracer.notes("interval.bnb_verify")
    boxes = sum(n[1] for n in bnb if n)
    m["interval.bnb_verify.calls"] = calls("interval.bnb_verify")
    m["interval.bnb_verify.boxes"] = boxes
    m["interval.bnb_verify.s"] = secs("interval.bnb_verify")
    m["interval.bnb_verify.self_s"] = tot["interval.bnb_verify"][2]
    m["interval.boxes_per_s"] = boxes / secs("interval.bnb_verify") if boxes else 0.0
    for k in KERNELS:
        name = f"interval.{k}"
        n, total, self_s = tot[name]
        m[f"{name}.calls"] = n
        m[f"{name}.us_per_call"] = _per_call(total, n, 1e6)
        m[f"{name}.self_us_per_call"] = _per_call(self_s, n, 1e6)

    # verify
    for kind in (*OUTCOMES, "budget"):
        m[f"verify.bnb_calls.{kind}"] = sum(1 for n in bnb if n and n[0] == kind)
    for kind in OUTCOMES:
        m[f"verify.boxes.{kind}"] = sum(n[1] for n in bnb if n and n[0] == kind)
    m["verify.useful_box_ratio"] = m["verify.boxes.certified"] / boxes if boxes else 0.0
    for fn in ("find_max_local_c", "verify_roa"):
        m[f"verify.{fn}.calls"] = calls(f"verify.{fn}")
        m[f"verify.{fn}.s"] = secs(f"verify.{fn}")
    m["verify.find_max_level.s"] = secs("verify.find_max_level")
    m["verify.volume_fraction.s"] = secs("verify.volume_fraction")

    # cli
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = secs(f"cli.{sub}")
    m["cli.self_s"] = tot["cli.run"][2] + sum(tot[f"cli.{sub}"][2] for sub in SUBCOMMANDS)
    return {k: v / rounds if _is_total(k) else v for k, v in m.items()}


def _is_total(name):
    return "_per_" not in name and not name.endswith("ratio")


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("us_per_call", "us_per_step")):
        return "us"
    if name.endswith("ns_per_row_step"):
        return "ns"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"
