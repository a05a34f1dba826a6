"""Experiment runner and reproduction harness.

Configuration files are flat key = value text organized in [sections];
every key must belong to the documented grammar (unknown keys are
rejected, exit code 2).  Each run writes CSV tables with a fixed column
order and 17 significant digits, plus a JSON summary carrying versions,
seeds, tolerances and per-assertion outcomes.  Reruns with the same config
and seed produce identical CSV bytes; the timestamp lives only in the
summary.

Exit codes: 0 success, 1 assertion failure (the failing criterion is
named), 2 configuration error, 3 a solve stopped short of convergence, at
``max_iter`` or any other status (the CSV is still written, and its
``status`` column names the rows).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import math
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from . import acceptance
from . import calderon as cal
from . import certify, quadratic, solvers
from ._blas import blas_threads, map_rows
from .errors import ConfigError
from .hilbert import build_grid_1d, build_grid_2d
from .internal import (
    alpha_study,
    assemble_internal_operator,
    build_internal_problem,
    find_condition_interval,
    prepare_rows,
    recover_row,
    sufficient_condition,
)
from .pde1d import constant_potential, step_potential

log = logging.getLogger("liftrec")

EXIT_MAX_ITER = 3          # any row short of convergence, max_iter or not

KNOWN_KEYS = {
    "experiment": {"kind", "task"},
    "grid": {"n", "nx", "ny"},
    "potential": {"type", "base", "q0", "jump_lo", "jump_hi", "value", "coeffs",
                  "g_functional"},
    "boundary": {"f_a", "f_b", "n_modes", "m_basis"},
    "noise": {"delta", "deltas", "c"},
    "phaselift": {"n", "m"},
    "solver": {f.name for f in fields(solvers.SolverOptions)},
    "sweep": {"q0_values", "n_list"},
}


@dataclass
class ExperimentConfig:
    """Validated view of a configuration file; see KNOWN_KEYS for the grammar."""

    sections: dict = dc_field(default_factory=dict)

    def get(self, section, key, default=None, cast=str):
        raw = self.sections.get(section, {}).get(key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot parse {section}.{key} = {raw!r}") from exc

    def get_list(self, section, key, default=()):
        """A comma-separated list of floats."""
        raw = self.sections.get(section, {}).get(key)
        if raw is None or raw.strip() == "":
            return list(default)
        try:
            return [float(tok.strip()) for tok in raw.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"cannot parse list {section}.{key} = {raw!r}") from exc


def parse_config(text):
    """Parse and validate the flat sectioned key = value format."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        sections[current][key] = value
    return ExperimentConfig(sections=sections)


def load_config(path):
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# table emission


def _format_value(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def emit_table(rows, schema, path):
    """Write rows as CSV with a fixed column order and 17 significant digits.

    ``schema`` is a list of (name, type) pairs; every row must supply every
    column.  Round-tripping through :func:`read_table` reproduces the data.
    """
    names = [name for name, _ in schema]
    for row in rows:
        missing = set(names) - set(row)
        if missing:
            raise ValueError(f"row is missing columns {sorted(missing)}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in rows:
            writer.writerow([_format_value(row[name]) for name in names])


def read_table(path, schema):
    """Inverse of :func:`emit_table` for the same schema."""
    casts = dict(schema)
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for record in reader:
            row = {}
            for name, cast in schema:
                raw = record[name]
                if cast is bool:
                    row[name] = raw == "1"
                else:
                    row[name] = cast(raw)
            out.append(row)
    return out


def _exit_code(rows, table):
    """0, or ``EXIT_MAX_ITER`` with one warning per status short of
    ``converged`` that some row stopped at."""
    stopped = Counter(row["status"] for row in rows
                      if row["status"] != solvers.STATUS_CONVERGED)
    for status, count in stopped.items():
        log.warning("%s: %d of %d rows stopped at %s", table, count, len(rows), status)
    return EXIT_MAX_ITER if stopped else 0


def _write_json(out_dir, name, payload):
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
        fh.write("\n")


def _write_summary(out_dir, payload):
    _write_json(out_dir, "summary.json", {
        **payload,
        "versions": {
            "liftrec": __import__("liftrec").__version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })


def _finish(out_dir, name, rows, schema, summary):
    """Write ``<name>.csv`` and ``summary.json``; the exit code comes from
    the ``status`` column when the schema has one, and is 0 otherwise."""
    emit_table(rows, schema, os.path.join(out_dir, f"{name}.csv"))
    _write_summary(out_dir, summary)
    return _exit_code(rows, f"{name}.csv") if ("status", str) in schema else 0


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# experiment pieces


def _require(ok, message):
    """Raise :class:`ConfigError` with ``message`` unless ``ok``: the range
    checks of values that the grid, basis and study constructors reject."""
    if not ok:
        raise ConfigError(message)


def _grid_nodes(config, default):
    """``[grid] n``, the 1-D node count, at least 4: the second difference
    of the H2 structure reads four nodes at each end."""
    n = config.get("grid", "n", default, int)
    _require(n >= 4, f"grid.n = {n}: the 1-D grid needs at least 4 nodes")
    return n


def _solver_options(config):
    """``[solver]``: each field of :class:`~liftrec.solvers.SolverOptions`,
    read with that field's default and type; ``max_iter`` at least 1, each
    tolerance positive and finite."""
    values = {f.name: config.get("solver", f.name, f.default, type(f.default))
              for f in fields(solvers.SolverOptions)}
    try:
        return solvers.SolverOptions(**values)
    except ValueError as exc:
        raise ConfigError(f"solver.{exc}") from exc


def _step_shape(config):
    """Base level and jump interval of the configured step potential, each
    finite."""
    shape = {"base": config.get("potential", "base", 1.0, float),
             "lo": config.get("potential", "jump_lo", 0.4, float),
             "hi": config.get("potential", "jump_hi", 0.6, float)}
    _require(all(map(math.isfinite, shape.values())),
             f"potential base, jump_lo, jump_hi = {list(shape.values())}: must be finite")
    return shape


def _potential_for(config, grid, q0=None):
    """The configured 1-D potential, which must be positive; a given ``q0``
    (the key of ``internal recover|sweep`` rows) replaces the jump size and
    requires a step."""
    kind = config.get("potential", "type", "step")
    if kind == "step":
        if q0 is None:
            q0 = config.get("potential", "q0", 0.5, float)
        _require(math.isfinite(q0), f"potential q0 = {q0}: the jump must be finite")
        q = step_potential(grid, q0=q0, **_step_shape(config))
    elif q0 is not None:
        raise ConfigError(f"rows keyed by q0 need potential type 'step', not {kind!r}")
    elif kind == "constant":
        value = config.get("potential", "value", 1.0, float)
        _require(math.isfinite(value), f"potential.value = {value}: must be finite")
        q = constant_potential(grid, value)
    else:
        raise ConfigError(f"unsupported 1-D potential type {kind!r}")
    _require(q.inf > 0, f"the {kind} potential has minimum {q.inf}: it must be positive")
    return q


def _boundary_data(config):
    """``[boundary] f_a`` and ``f_b``, the 1-D Dirichlet data; each positive
    and finite."""
    f_a, f_b = (config.get("boundary", key, 1.0, float) for key in ("f_a", "f_b"))
    _require(0 < f_a < math.inf and 0 < f_b < math.inf,
             f"boundary f_a = {f_a}, f_b = {f_b}: the data must be positive and finite")
    return f_a, f_b


INTERNAL_SCHEMA = [
    ("q0", float), ("lhs", float), ("pass", bool), ("w_norm", float),
    ("err_L2", float), ("delta", float), ("lambda", float), ("iters", int),
    ("status", str),
]
ALPHA_SCHEMA = [("alpha", float), ("exact", float), ("bound", float)]
FORWARD_SCHEMA = [("datum", int), ("flux_norm", float), ("state_min", float),
                  ("state_max", float)]
CALDERON_CERTIFY_SCHEMA = [("N", int), ("sigma_min", float), ("max_w_norm", float),
                           ("max_tangent_residual", float), ("ndsc_pass", bool)]
CALDERON_RECOVER_SCHEMA = [("delta", float), ("lambda", float), ("rel_err_W", float),
                           ("iters", int), ("feas_residual", float), ("status", str)]
BASELINE_SCHEMA = [("iteration", int), ("misfit", float)]
PHASELIFT_SCHEMA = [("n", int), ("m", int), ("delta", float), ("lambda", float),
                    ("err", float), ("rank_ratio", float), ("iters", int),
                    ("status", str)]


def _internal_instances(config, q0_values):
    """``build_internal_problem``'s arguments for each of ``q0_values``
    (``None``: the configured potential), every value checked before the
    first forward solve."""
    grid = build_grid_1d(_grid_nodes(config, 41), 0.0, 1.0)
    f_a, f_b = _boundary_data(config)
    return [(grid, _potential_for(config, grid, q0), f_a, f_b) for q0 in q0_values]


def _noise(config):
    """``[noise] deltas``, or else the single ``[noise] delta``, each finite
    and nonnegative, and ``c``, the positive finite factor of ``lambda = c *
    delta``: every level's weight must pass :func:`certify.noise_weight`."""
    deltas = config.get_list("noise", "deltas") or [config.get("noise", "delta", 0.0, float)]
    _require(all(math.isfinite(d) and d >= 0 for d in deltas),
             f"noise deltas = {deltas}: each must be finite and nonnegative")
    c = config.get("noise", "c", 1.0, float)
    _require(0 < c < math.inf,
             f"noise.c = {c}: the weight factor must be positive and finite")
    try:
        for delta in deltas:
            certify.noise_weight(c, delta)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc
    return deltas, c


def _internal_rows(config, q0_values, deltas, seed, c, opts, jobs):
    """One row per (q0, delta), seeded ``seed + k`` in that order.

    The :class:`~liftrec.internal.RowState`, exact lift included, is built
    once per distinct q0; both stages run through :func:`map_rows`, so every
    ``jobs`` gives the same bytes.  Each row stays its own task, which keeps
    the pool balanced.  A row is :func:`~liftrec.internal.recover_row`'s
    under the configured q0 that keys its state.
    """
    distinct = list(dict.fromkeys(q0_values))
    states = dict(zip(distinct, map_rows(
        lambda args: prepare_rows(build_internal_problem(*args), opts),
        _internal_instances(config, distinct), jobs)))
    tasks = [(q0, delta, seed + k) for k, (q0, delta) in enumerate(
        (a, b) for a in q0_values for b in deltas
    )]
    return map_rows(lambda t: {"q0": t[0], **recover_row(states[t[0]], *t[1:], c, opts)[0]},
                    tasks, jobs)


def run_internal(config, out_dir, seed, jobs, task):
    opts = _solver_options(config)
    if task == "certify":
        problem = build_internal_problem(*_internal_instances(config, [None])[0])
        op = assemble_internal_operator(problem)
        cert = certify.precertificate(op, [problem.model])
        lhs_n, lhs_u, cond_pass = sufficient_condition(problem)
        study = alpha_study(problem)
        _write_json(out_dir, "certificate.json", {
            "w_norm": cert.w_norms.tolist(),
            "sigma_min": cert.sigma_min,
            "tangent_residuals": cert.tangent_residuals.tolist(),
            "ndsc_pass": cert.ndsc_pass,
            "condition_lhs": lhs_n,
            "condition_lhs_unnormalized": lhs_u,
            "condition_pass": cond_pass,
            "alpha_star": study["alpha_star"],
            "exact_at_star": study["exact_at_star"],
        })
        return _finish(out_dir, "alpha_study", study["rows"], ALPHA_SCHEMA,
                       {"kind": "internal", "task": task, "seed": seed,
                        "assertions": {"ndsc_pass": cert.ndsc_pass}})

    if task == "recover":
        q0_values = [config.get("potential", "q0", 0.5, float)]
    elif task == "sweep":
        q0_values = config.get_list("sweep", "q0_values", default=(-0.3, 0.3, 0.5))
    else:
        raise ConfigError(f"unknown internal task {task!r}")
    deltas, c = _noise(config)
    rows = _internal_rows(config, q0_values, deltas, seed, c, opts, jobs)
    return _finish(out_dir, task, rows, INTERNAL_SCHEMA,
                   {"kind": "internal", "task": task, "seed": seed, "rows": len(rows)})


def run_calderon(config, out_dir, seed, task):
    nx, ny = (config.get("grid", key, 17, int) for key in ("nx", "ny"))
    if nx != ny:
        raise ConfigError(f"the grid is square: nx = {nx} and ny = {ny} differ")
    _require(nx >= 3, f"grid.nx = {nx}: the grid needs at least 3 nodes per axis")
    grid = build_grid_2d(nx)
    m = config.get("boundary", "m_basis", 4, int)
    _require(m >= 1 and math.isqrt(m) ** 2 == m,
             f"boundary.m_basis = {m}: the bump basis needs a positive perfect square")
    n_modes = config.get("boundary", "n_modes", 4, int)
    _require(n_modes >= 1, f"boundary.n_modes = {n_modes}: need at least one boundary mode")
    if task == "certify":
        n_list = config.get_list("sweep", "n_list", default=(2, 3, 4))
        _require(n_list and all(float(v).is_integer() and v >= 1 for v in n_list),
                 f"sweep.n_list = {n_list}: need integer data-family sizes of at least 1")
        n_list = [int(v) for v in n_list]
        # the study reads every N off one problem, the first N data of
        # which are those of an N-datum build
        n_modes = max([n_modes, *n_list])
    _require(n_modes <= 4 * (nx - 1),
             f"{n_modes} boundary modes (boundary.n_modes, sweep.n_list): the "
             f"boundary loop of 4(nx - 1) = {4 * (nx - 1)} nodes holds no more")
    coeffs = config.get_list("potential", "coeffs", default=())
    _require(not coeffs or (len(coeffs) == m and all(map(math.isfinite, coeffs))),
             f"potential.coeffs = {coeffs}: need boundary.m_basis = {m} finite values")
    q_coeffs = np.asarray(coeffs) if coeffs else None
    g_kind = config.get("potential", "g_functional", "integral")
    if g_kind == "integral":
        g_weights = None
    elif g_kind == "subdomain":
        # integration restricted to the central quarter of the square
        mask = (np.abs(grid.xs - 0.5) <= 0.25) & (np.abs(grid.ys - 0.5) <= 0.25)
        g_weights = grid.area_weights * mask
    else:
        raise ConfigError(f"unknown g_functional {g_kind!r}")
    try:
        problem = cal.build_calderon_problem(grid, m=m, n_modes=n_modes,
                                             q_coeffs=q_coeffs, g_weights=g_weights)
    except ValueError as exc:
        # the basis size, the boundary Gram or the scale functional
        raise ConfigError(str(exc)) from exc
    summary = {"kind": "calderon", "task": task, "seed": seed}

    if task == "forward":
        rows = [{
            "datum": i,
            "flux_norm": float(np.linalg.norm(
                np.sqrt(grid.boundary_weights) * problem.flux_u[i])),
            "state_min": float(problem.u_stack[i].min()),
            "state_max": float(problem.u_stack[i].max()),
        } for i in range(problem.n_data)]
        return _finish(out_dir, task, rows, FORWARD_SCHEMA, summary)

    if task == "certify":
        system = cal.assemble_calderon_system(problem)
        rows, _ = cal.precertificate_study(problem, system, n_list)
        summary["boundary_restriction_constant"] = cal.boundary_restriction_constant(system)
        return _finish(out_dir, task, rows, CALDERON_CERTIFY_SCHEMA, summary)

    if task == "recover":
        (deltas, c), opts = _noise(config), _solver_options(config)
        rows = [row for row, _ in cal.recover_rows(
            problem, cal.assemble_calderon_system(problem), deltas, seed, c, opts)]
        # the first status short of convergence, if any row has one
        summary["assertions"] = {"converged": next(
            (r["status"] for r in rows if r["status"] != solvers.STATUS_CONVERGED),
            solvers.STATUS_CONVERGED)}
        return _finish(out_dir, task, rows, CALDERON_RECOVER_SCHEMA, summary)

    if task == "baseline":
        rng = np.random.default_rng(seed)
        q_init = problem.q_coeffs + 0.1 * rng.standard_normal(problem.q_coeffs.size)
        history = cal.gauss_newton_baseline(problem, q_init)
        rows = [{"iteration": i, "misfit": mf}
                for i, mf in enumerate(history["misfits"])]
        return _finish(out_dir, task, rows, BASELINE_SCHEMA, summary)
    raise ConfigError(f"unknown calderon task {task!r}")


def run_phaselift(config, out_dir, seed):
    n = config.get("phaselift", "n", 5, int)
    m = config.get("phaselift", "m", 20, int)
    _require(n >= 1 and m >= 1,
             f"phaselift n = {n}, m = {m}: need at least one unknown and one measurement")
    (deltas, c), opts = _noise(config), _solver_options(config)
    inst = quadratic.make_phase_retrieval(n, m, seed)
    rows = quadratic.recover_rows(inst, deltas, seed, c, opts)
    return _finish(out_dir, "phaselift", rows, PHASELIFT_SCHEMA,
                   {"kind": "phaselift", "seed": seed, "rows": len(rows)})


def run_certify(config, out_dir, seed):
    """Top-level certificate report for the internal geometry."""
    code = run_internal(config, out_dir, seed, 1, "certify")
    f_a, f_b = _boundary_data(config)
    t0 = time.time()
    lower, upper = find_condition_interval(
        n=_grid_nodes(config, 401), **_step_shape(config), f_a=f_a, f_b=f_b)
    _write_json(out_dir, "interval.json", {"q0_lower": lower, "q0_upper": upper,
                                           "seconds": time.time() - t0})
    return code


def run_selftest(out_dir, seed):
    results = acceptance.run_all()
    _write_summary(out_dir, {
        "kind": "selftest", "seed": seed,
        "assertions": {f"criterion_{r.index}": ("pass" if r.passed else "fail")
                       for r in results},
        "details": {f"criterion_{r.index}": r.details for r in results},
    })
    failing = [r for r in results if not r.passed]
    if failing:
        print(f"FAILED: criterion {failing[0].index} ({failing[0].name})",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point


def _at_least(low):
    """An argparse type: an integer of at least ``low``."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return integer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liftrec",
        description="Coefficient recovery by convex lifting: experiment runner.",
    )
    parser.add_argument("--config", default=None, help="configuration file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=_at_least(0), default=0, help="base random seed")
    parser.add_argument("--jobs", type=_at_least(1), default=1, help="worker count for sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("internal", help="internal-measurement experiments")
    p_int.add_argument("task", choices=["certify", "recover", "sweep"])
    p_cal = sub.add_parser("calderon", help="boundary-measurement experiments")
    p_cal.add_argument("task", choices=["forward", "recover", "certify", "baseline"])
    sub.add_parser("phaselift", help="quadratic/phase-retrieval baseline")
    sub.add_parser("certify", help="certificate report for the internal geometry")
    sub.add_parser("selftest", help="run the acceptance suite")
    return parser


# built once per process: in-process callers such as liftbench call main many times
_PARSER = build_parser()

# commands that keep the process's BLAS thread count: the dense operator
# products of `calderon recover` run faster on two threads, and selftest caps
# its own small calls.  Every other command runs on one BLAS thread, where its
# small dense calls are faster and do not stall (see liftrec._blas).
_MULTI_THREADED = {("calderon", "recover"), ("selftest", None)}


def _log_level():
    """The level named by ``LIFTREC_LOG`` (any case), WARNING when unset."""
    name = os.environ.get("LIFTREC_LOG", "WARNING")
    level = getattr(logging, name.upper(), None)
    if not isinstance(level, int):
        raise ConfigError(f"LIFTREC_LOG = {name!r} is not a logging level")
    return level


def main(argv=None):
    args = _PARSER.parse_args(argv)
    out_dir = args.out or "."
    multi = (args.command, getattr(args, "task", None)) in _MULTI_THREADED
    with contextlib.nullcontext() if multi else blas_threads(1):
        try:
            logging.basicConfig(level=_log_level())
            config = load_config(args.config)
            try:
                os.makedirs(out_dir, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory {out_dir}: "
                                  f"{exc.strerror}") from exc
            if args.command == "internal":
                return run_internal(config, out_dir, args.seed, args.jobs, args.task)
            if args.command == "calderon":
                return run_calderon(config, out_dir, args.seed, args.task)
            if args.command == "phaselift":
                return run_phaselift(config, out_dir, args.seed)
            if args.command == "certify":
                return run_certify(config, out_dir, args.seed)
            return run_selftest(out_dir, args.seed)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
