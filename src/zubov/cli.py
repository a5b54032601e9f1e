"""Command-line pipeline: data generation, training, verification, reports.

Subcommands
    gen-data      simulate value data on a grid, write a CSV dataset
    train         fit the candidate network on a dataset, write net JSON
    verify-local  certify a quadratic local region of attraction
    verify-roa    certify a network sublevel set (fixed levels or search)
    report        aggregate artifacts of a run directory into one row
    grid          tabulate W_N on a lattice for external plotting

Every JSON artifact embeds the fully resolved configuration and seed so
a run can be reproduced from its outputs alone.  Exit codes: 0 success,
1 configuration error, 2 runtime failure, 3 a verification condition
was falsified, 4 verification was inconclusive (unknown / budget).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import interval as iv
from . import net as nn
from . import ode
from . import verify as vf

__all__ = ["main", "run", "ConfigError", "load_config", "resolve_config"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_FALSIFIED = 3
EXIT_UNKNOWN = 4


class ConfigError(ValueError):
    pass


_DEFAULT_CONFIG = {
    "system": "reversed_vdp",
    "grid": [300, 300],
    "integrator": {"rtol": 1e-6, "atol": 1e-8, "h_max": 0.1, "t_max": 500.0,
                   "stop_radius": 1e-3, "value_cap": 200.0},
    "train": {"alpha": 0.1, "psi_form": "tanh", "batch": 32, "lr": 1e-3,
              "max_epochs": 200, "loss_threshold": 1e-5,
              "lambda_r": 1.0, "lambda_b": 1.0, "lambda_d": 1.0,
              "hidden": [10, 10], "pair_fraction": 0.01,
              "use_local_band": True},
    "verify": {"r": 0.9999, "epsilon": 1e-4, "delta": 1e-3, "budget": 5_000_000},
    "seed": 0,
    "out_dir": ".",
}

_SYSTEM_KEYS = {"name", "dim", "components", "domain", "notes"}


def _check_keys(d: dict, allowed, where: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) in {where}: {sorted(unknown)}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    return doc


def _is_number(v) -> bool:
    """A finite int or float: json reads NaN and Infinity, which no key takes."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def resolve_config(overrides: dict) -> dict:
    """Merge defaults <- file <- explicit values, validating strictly."""
    cfg = json.loads(json.dumps(_DEFAULT_CONFIG))  # deep copy
    _check_keys(overrides, list(_DEFAULT_CONFIG), "config")
    for key, val in overrides.items():
        if key in ("integrator", "train", "verify"):
            if not isinstance(val, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            _check_keys(val, list(cfg[key]), key)
            cfg[key].update(val)
        else:
            cfg[key] = val
    if isinstance(cfg["system"], dict):
        _check_keys(cfg["system"], _SYSTEM_KEYS, "system")
    elif not isinstance(cfg["system"], str):
        raise ConfigError("system must be a builtin name or an inline definition")
    for section in ("integrator", "train", "verify"):
        for key, default in _DEFAULT_CONFIG[section].items():
            if _is_number(default) and not _is_number(cfg[section][key]):
                raise ConfigError(f"{section}.{key} must be a number, got {cfg[section][key]!r}")
    tr = cfg["train"]
    _counts(cfg["grid"], "grid", 2)
    _counts(tr["hidden"], "train.hidden", 1)
    for field, lo in (("batch", 1), ("max_epochs", 0)):
        if not isinstance(tr[field], int) or tr[field] < lo:
            raise ConfigError(f"train.{field} must be an integer >= {lo}")
    if tr["psi_form"] not in ("exp", "tanh"):
        raise ConfigError("train.psi_form must be 'exp' or 'tanh'")
    if not (isinstance(cfg["seed"], int) and cfg["seed"] >= 0):
        raise ConfigError("seed must be a non-negative integer")
    vr = cfg["verify"]
    if vr["delta"] <= 0 or vr["budget"] < 1 or vr["epsilon"] <= 0:
        raise ConfigError("verify.delta/epsilon must be positive, budget >= 1")
    return cfg


def _system_from_config(cfg: dict) -> dyn.SystemDef:
    spec = cfg["system"]
    if isinstance(spec, str):
        return dyn.builtin(spec)
    try:
        return dyn.make_system(spec["name"], int(spec["dim"]), spec["components"],
                               spec["domain"], notes=spec.get("notes", ""))
    except KeyError as e:
        raise ConfigError(f"inline system needs the key {e}") from None
    except (IndexError, TypeError, ValueError, RecursionError) as e:   # ParseError is a ValueError
        raise ConfigError(f"inline system: {e}") from None


def _train_config(cfg: dict, local: "vf.LocalCertificate | None") -> nn.TrainConfig:
    # every train key but these is a TrainConfig field; local is None with the band off
    skip = ("hidden", "pair_fraction", "use_local_band")
    kwargs = {k: v for k, v in cfg["train"].items() if k not in skip}
    kwargs["seed"] = cfg["seed"]
    if local is not None and local.certified:
        kwargs.update(local_P=local.P, c_local=local.c)
    return nn.TrainConfig(**kwargs)


def _counts(values, what: str, least: int) -> list:
    """Whole numbers >= ``least`` from a list or "300x300" text; bools, NaN, fractions fail."""
    if not isinstance(values, (list, tuple)):
        values = [p for p in str(values).replace(",", "x").split("x") if p]
    if not all(v.strip().isdecimal() if isinstance(v, str) else _is_number(v) and v == int(v)
               for v in values):
        raise ConfigError(f"{what} must be whole numbers, got {values!r}")
    counts = [int(v) for v in values]
    if any(c < least for c in counts):
        raise ConfigError(f"{what} must be at least {least}, got {values!r}")
    return counts


def _parse_grid(text, dim: int):
    counts = _counts(text, "grid", 2)
    if len(counts) == 1:
        counts = counts * dim
    if len(counts) != dim:
        raise ConfigError(f"grid needs {dim} axis counts, got {counts}")
    return counts


def _write_json(path, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _outcome_exit(outcome: iv.VerifyOutcome) -> int:
    if isinstance(outcome, iv.Certified):
        return EXIT_OK
    if isinstance(outcome, iv.Falsified):
        return EXIT_FALSIFIED
    return EXIT_UNKNOWN


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    cfg = _gather_config(args)
    sysdef = _system_from_config(cfg)
    if args.grid:
        cfg["grid"] = _parse_grid(args.grid, sysdef.dim)
    counts = _parse_grid(cfg["grid"], sysdef.dim)
    beta = ode.BetaKind(kind=cfg["train"]["psi_form"], alpha=cfg["train"]["alpha"])
    stats = ode.IntegratorStats()
    t0 = time.perf_counter()
    samples = ode.gen_dataset(sysdef, counts, ode.IntegratorConfig(**cfg["integrator"]), beta,
                              stats=stats)
    seconds = time.perf_counter() - t0
    out = Path(args.out or Path(cfg["out_dir"]) / "dataset.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    ode.save_samples(out, samples, sysdef.dim)
    n_conv = int(np.count_nonzero(samples.converged))
    _write_json(str(out) + ".meta.json", {
        "kind": "dataset",
        "config": cfg,
        "seed": cfg["seed"],
        "rows": len(samples),
        "converged": n_conv,
        "gen_seconds": seconds,
        "integrator": {"accepted_steps": stats.accepted,
                       "rejected_steps": stats.rejected,
                       "status": stats.status,
                       "workers": stats.workers},
    })
    print(f"wrote {len(samples)} samples ({n_conv} converged) to {out} "
          f"in {seconds:.1f}s")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _gather_config(args)
    sysdef = _system_from_config(cfg)
    samples = ode.load_samples(args.data)
    local = None
    if cfg["train"]["use_local_band"]:
        local = _default_local_certificate(cfg, sysdef)
    tc = _train_config(cfg, local)
    data = nn.assemble_dataset(samples, tc, pair_fraction=cfg["train"]["pair_fraction"],
                               rng=np.random.default_rng(cfg["seed"]))
    hidden = _counts(cfg["train"]["hidden"], "train.hidden", 1)
    net0 = nn.init_mlp([sysdef.dim, *hidden, 1], cfg["seed"])
    net, record = nn.train(net0, data, sysdef, tc)
    out_dir = Path(args.out_dir or cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    nn.save_mlp(net, out_dir / "net.json", alpha=tc.alpha, psi_form=tc.psi_form,
                extra={"config": cfg, "seed": cfg["seed"],
                       "system": sysdef.name, "params": nn.param_count(net)})
    with open(out_dir / "train_record.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["epoch", "total", "residual", "boundary", "data"])
        for i, row in enumerate(record.epochs):
            w.writerow([i + 1, *[repr(v) for v in row]])
        w.writerow([])
        w.writerow(["stop_reason", record.stop_reason])
        w.writerow(["wall_time_s", repr(record.wall_time_s)])
    print(f"trained {record.epochs_run} epochs ({record.stop_reason}), "
          f"final loss {record.final_loss:.3g}, wrote {out_dir / 'net.json'}")
    return EXIT_OK


def _default_local_certificate(cfg: dict, sysdef: dyn.SystemDef):
    """Local certificate with Q = I at the largest c that `find_max_local_c` proves."""
    sol = dyn.solve_lyapunov(sysdef.linearization.A, np.eye(sysdef.dim))
    if not sol.pos_def:
        return None
    vr = cfg["verify"]
    try:
        return vf.find_max_local_c(sysdef, sol.P, np.eye(sysdef.dim), vr["r"],
                                   delta=vr["delta"], budget=vr["budget"])
    except vf.NoCertifiableC:
        return None


def _cmd_verify_local(args) -> int:
    cfg = _gather_config(args)
    sysdef = _system_from_config(cfg)
    Q = np.eye(sysdef.dim)
    sol = dyn.solve_lyapunov(sysdef.linearization.A, Q)
    if not sol.pos_def:
        print("linearization is not verifiably stable (P not positive definite)",
              file=sys.stderr)
        return EXIT_RUNTIME
    vr = cfg["verify"]
    if args.c is not None:
        cert = vf.verify_local(sysdef, sol.P, Q, vr["r"], args.c,
                               delta=vr["delta"], budget=vr["budget"])
    else:
        cert = vf.find_max_local_c(sysdef, sol.P, Q, vr["r"],
                                   delta=vr["delta"], budget=vr["budget"])
    out_dir = Path(args.out_dir or cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = json.loads(vf.report_to_json(cert))
    doc["config"] = cfg
    doc["seed"] = cfg["seed"]
    _write_json(out_dir / "local_cert.json", doc)
    print(f"local region x'Px <= {cert.c:g}: {doc['outcome']['status']} "
          f"({cert.seconds:.1f}s, {doc['outcome']['boxes']} boxes)")
    return _outcome_exit(cert.outcome)


def _cmd_verify_roa(args) -> int:
    if (args.c1 is None) != (args.c2 is None):
        raise ConfigError("give both --c1 and --c2, or neither to search for them")
    cfg = _gather_config(args)
    sysdef = _system_from_config(cfg)
    net, alpha, psi_form = nn.load_mlp(args.net)
    if net.dim != sysdef.dim:
        raise ConfigError("network input size does not match the system dimension")
    local = _default_local_certificate(cfg, sysdef)
    if local is None or not local.certified:
        print("no certifiable local region; cannot anchor the enlargement",
              file=sys.stderr)
        return EXIT_RUNTIME
    vr = cfg["verify"]
    t0 = time.perf_counter()
    if args.c1 is not None and args.c2 is not None:
        cert = vf.verify_roa(net, sysdef, local, args.c1, args.c2,
                             epsilon=vr["epsilon"], delta=vr["delta"],
                             budget=vr["budget"])
    else:
        try:
            _, _, cert = vf.find_max_level(net, sysdef, local,
                                           epsilon=vr["epsilon"], delta=vr["delta"],
                                           budget=vr["budget"])
        except vf.NoCertifiableLevel as e:
            print(f"level search failed: {e}", file=sys.stderr)
            return EXIT_UNKNOWN
    seconds = time.perf_counter() - t0
    doc = json.loads(vf.report_to_json(cert))
    doc["config"] = cfg
    doc["seed"] = cfg["seed"]
    doc["seconds"] = seconds
    doc["net"] = str(args.net)
    if args.data:
        try:
            doc["volume_percent"] = vf.volume_fraction(
                net, cert.c2, ode.load_samples(args.data))
        except vf.EmptyReference:
            doc["volume_percent"] = None
    out_dir = Path(args.out_dir or cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "roa_cert.json", doc)
    vol = doc.get("volume_percent")
    print(f"sublevel W <= {cert.c2:g}: {'certified' if cert.certified else 'NOT certified'}"
          + (f", volume {vol:.2f}%" if vol is not None else "")
          + f" ({seconds:.1f}s)")
    if cert.certified:
        return EXIT_OK
    outcomes = [cert.decrease.outcome, cert.inclusion.outcome] \
        + [b.outcome for b in cert.boundary]
    if any(isinstance(o, iv.Falsified) for o in outcomes):
        return EXIT_FALSIFIED
    return EXIT_UNKNOWN


def _cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    net_path = run_dir / "net.json"
    if not net_path.exists():
        raise ConfigError(f"no net.json under {run_dir}")
    net, alpha, psi_form = nn.load_mlp(net_path)

    def read(name):
        return json.loads((run_dir / name).read_text()) if (run_dir / name).exists() else {}

    data, roa, net_meta = read("dataset.csv.meta.json"), read("roa_cert.json"), \
        read("net.json").get("meta", {})
    hidden = list(net.layer_sizes[1:-1])
    row = {
        "layers": len(hidden),
        "width": hidden[0] if hidden else 0,
        "params": nn.param_count(net),
        "alpha": alpha,
        "psi_form": psi_form,
        "data_gen_seconds": data.get("gen_seconds"),
        "train_seconds": None,
        "epochs": None,
        "final_loss": None,
        "verify_seconds": roa.get("seconds"),
        "verified_level": roa["c2"] if roa.get("certified") else None,
        "volume_percent": roa.get("volume_percent"),
        "integrator": data.get("integrator"),
    }
    record = run_dir / "train_record.csv"
    if record.exists():
        with open(record, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
        body = [r for r in rows[1:] if r[0].isdigit()]
        if body:
            row["epochs"], row["final_loss"] = int(body[-1][0]), float(body[-1][1])
        row["train_seconds"] = next((float(r[1]) for r in rows if r[0] == "wall_time_s"), None)
    _write_json(run_dir / "report.json", {"kind": "report", "row": row,
                                          "config": net_meta.get("config"),
                                          "seed": net_meta.get("seed")})
    cells = [str(row[k]) for k in ("layers", "width", "params", "data_gen_seconds",
                                   "train_seconds", "epochs", "final_loss",
                                   "verify_seconds", "verified_level", "volume_percent")]
    print("\t".join(cells))
    counts = row["integrator"]
    if counts:
        print(f"integrator: {counts['accepted_steps']} accepted and {counts['rejected_steps']} "
              "rejected steps; " + ", ".join(f"{n} {k}" for k, n in counts["status"].items())
              + (f"; workers: {counts['workers']}" if "workers" in counts else ""))
    return EXIT_OK


def _cmd_grid(args) -> int:
    cfg = _gather_config(args)
    sysdef = _system_from_config(cfg)
    net, _, _ = nn.load_mlp(args.net)
    if net.dim != sysdef.dim:
        raise ConfigError("network input size does not match the system dimension")
    counts = _parse_grid(args.grid or cfg["grid"], sysdef.dim)
    pts = ode.grid_points(sysdef.domain, counts)
    w = net.value_batch(pts)
    out = Path(args.out or Path(cfg["out_dir"]) / "wgrid.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    ode.write_csv(out, [f"x{i + 1}" for i in range(sysdef.dim)] + ["W"], [*pts.T, w])
    _write_json(str(out) + ".meta.json", {"kind": "wgrid", "config": cfg,
                                          "seed": cfg["seed"], "net": str(args.net)})
    print(f"wrote {pts.shape[0]} lattice values to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _gather_config(args) -> dict:
    overrides = load_config(args.config) if getattr(args, "config", None) else {}
    if getattr(args, "system", None):
        overrides["system"] = args.system
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    flag_ver = {key: getattr(args, key) for key in ("r", "epsilon", "delta", "budget")
                if getattr(args, key, None) is not None}
    if flag_ver:
        file_ver = overrides.get("verify", {})
        if not isinstance(file_ver, dict):
            raise ConfigError("config section 'verify' must be an object")
        overrides["verify"] = {**file_ver, **flag_ver}
    return resolve_config(overrides)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zubov",
                                description="Learn and certify regions of attraction "
                                            "for nonlinear ODE systems.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_verify=False):
        sp.add_argument("--config", help="JSON run configuration")
        sp.add_argument("--system", help="builtin system name")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out-dir", help="artifact directory")
        if with_verify:
            sp.add_argument("--r", type=float)
            sp.add_argument("--epsilon", type=float)
            sp.add_argument("--delta", type=float)
            sp.add_argument("--budget", type=int)

    sp = sub.add_parser("gen-data", help="simulate value data over a grid")
    common(sp)
    sp.add_argument("--grid", help="per-axis counts, e.g. 300x300")
    sp.add_argument("--out", help="output CSV path")
    sp.set_defaults(func=_cmd_gen_data)

    sp = sub.add_parser("train", help="train the candidate network")
    common(sp, with_verify=True)
    sp.add_argument("--data", required=True, help="dataset CSV from gen-data")
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("verify-local", help="certify a quadratic local region")
    common(sp, with_verify=True)
    sp.add_argument("--c", type=float, help="level to certify (default: search)")
    sp.set_defaults(func=_cmd_verify_local)

    sp = sub.add_parser("verify-roa", help="certify a network sublevel set")
    common(sp, with_verify=True)
    sp.add_argument("--net", required=True, help="network JSON from train")
    sp.add_argument("--c1", type=float)
    sp.add_argument("--c2", type=float)
    sp.add_argument("--data", help="reference dataset CSV for the volume metric")
    sp.set_defaults(func=_cmd_verify_roa)

    sp = sub.add_parser("report", help="aggregate run artifacts into one row")
    sp.add_argument("run_dir", help="directory with net.json and certificates")
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("grid", help="tabulate W_N on a lattice")
    common(sp)
    sp.add_argument("--net", required=True)
    sp.add_argument("--grid", help="per-axis counts, e.g. 200x200")
    sp.add_argument("--out", help="output CSV path")
    sp.set_defaults(func=_cmd_grid)
    return p


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, dyn.UnknownSystem) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except iv.BudgetExhausted as e:
        print(f"verification budget exhausted: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (vf.RNotBelowLambdaMin, vf.NoCertifiableC, vf.NoCertifiableLevel,
            nn.DivergedLoss, OSError, ValueError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
