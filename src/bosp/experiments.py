"""Named, config-driven experiments with machine-readable reports.

One registry holds every experiment.  Its entry declares the config keys the
experiment reads, each with its default, the ``run`` that turns a config and
a seeded generator into records, the ``verdict`` that returns the structural
failures and the gate rows of config and records, for one judge to decide,
and the ``summarize`` that derives the summary from the records.  An
:class:`ExperimentConfig` holds ``name``, ``seed`` and exactly its entry's
keys: any other key is a :class:`ConfigError`, so a report's config echo
lists only what the run used, and the command line offers only the flags of
keys the experiment reads.

The config rules are data.  ``_RULES`` maps each key name to one rule, a
test and the text that is both its error message and its ``--help`` line;
a key the table does not name need only be finite.  It is the union of the
rule tables of ``spectral``, ``evolve``, ``lingroup`` and ``ensembles``,
whose functions check their own parameters by the same rules, and the
rules of the keys only experiments have.  An entry lists its cross-key
``checks``, named functions of the values that return the text of a broken
rule, and its ``solvers``, which builds the :class:`SolverConfig` of every
solve the run makes, so the solver's own rules apply before anything runs
and the run reads those objects.  The rules apply in that order, and the
first broken one is the :class:`ConfigError`.

Each experiment is a pure function of (config, seed): it draws its ensemble
from a seeded generator, produces one record per sample, and derives its
pass/fail verdict and its summary *from the records alone*, as the records
file holds them (a non-finite value is ``None``), so ``summary.json`` is a
function of ``records.jsonl`` and the config.  Reports serialize
deterministically: the wall time is kept on the in-memory object only, never
written, so identical (config, seed) runs produce byte-identical files.
Records are sorted by their key ``(lam, sample_index, scale, run)`` first,
so the reduction is order-independent and samples could safely be evaluated
concurrently; the summary's ``stats`` skip those identifying fields.

Experiments
-----------
``simulate``          run one initial condition, report invariant drifts
``conservation``      reference-run drift of I, M and F with the
                      sign-separation control, and the order at which the
                      M and E drifts of a fixed profile fall as e_dt halves
``gauge-residual``    instantaneous gauge-equation residual over an
                      ensemble, plus the resolution-doubling decay check
``strichartz-scan``   max free-propagator L^4 ratio across circle sizes
``flowmap``           Lipschitz ratio of the flow on fixed-mean data
``scaling``           dilation/solve commutation discrepancy
``convergence``       measured time-stepping order on two fixtures
``estimate-monitor``  boundedness of the gauge-variable X^1 ratio
``bernstein``         high-pass sup-norm ratio across circle sizes
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
import operator
import re
import time as _time
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

import numpy as np

from . import ensembles, evolve, lingroup, spectral
from .errors import BlowUpError, ConfigError
from .ensembles import _fields_from_normals, random_fields
from .evolve import SolverConfig, _solve, convergence_order, solve, solve_batch
from .gauge import _frames, gauge_residual_batch
from .invariants import dilate, drift_report, invariant, xnorm, xnorm_series
from .lingroup import strichartz_norms
from .spectral import (_FINITE, _POSITIVE, PeriodicGrid, SpectralField, _Rule,
                       _check_gauge_variant, _check_values, _finite, _full_spectrum, _integer,
                       _lp_norms, _parseval_norms, _symbol, analyze_values_padded, norm,
                       synthesize)

__all__ = [
    "EXPERIMENT_NAMES",
    "ExperimentConfig",
    "ExperimentReport",
    "config_from_mapping",
    "load_config_file",
    "run_experiment",
    "recompute_passed",
    "save_report",
]

_SOLVER_KEYS = frozenset(f.name for f in dataclasses.fields(SolverConfig))


class ExperimentConfig:
    """Immutable parameters of one experiment, read as attributes.

    Holds ``name``, ``seed`` and exactly the keys its registry entry
    declares, each defaulting to the entry's value.  A string value is
    parsed into the type of the key's default; a key the experiment does
    not read, or a value that breaks a rule, is a :class:`ConfigError`.
    ``solvers`` maps a label to each :class:`SolverConfig` the run uses,
    built here, so every solver rule is checked before anything runs.
    """

    def __init__(self, name: str, **overrides):
        if name not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {name!r}")
        entry = _EXPERIMENTS[name]
        values = _defaults(name)
        for key, value in overrides.items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r} for experiment {name!r}")
            try:
                values[key] = _coerce(value, values[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
        try:  # the key rules first, so a cross-key check reads only values that passed
            _check_values(_RULES, **values)
            broken = next(filter(None, (check(values) for check in entry.checks)), "")
            solvers = {} if broken else entry.solvers(values)
        except ValueError as exc:
            broken = str(exc)
        if broken:
            raise ConfigError(broken)
        self.__dict__.update(name=name, **values, solvers=solvers)

    def __setattr__(self, key, value):
        raise AttributeError("ExperimentConfig is immutable")

    def __eq__(self, other):
        return isinstance(other, ExperimentConfig) and vars(self) == vars(other)

    def __repr__(self):
        keys = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if k != "solvers")
        return f"ExperimentConfig({keys})"

    def as_dict(self) -> dict:
        return {key: list(val) if isinstance(val, tuple) else val
                for key, val in vars(self).items() if key != "solvers"}


# ---------------------------------------------------------------------------
# config rules: one per key name, then each experiment's cross-key checks
# ---------------------------------------------------------------------------


def _distinct(least: int, item: _Rule) -> _Rule:
    """A list of at least ``least`` distinct values, each passing ``item``."""
    return _Rule(lambda v: (isinstance(v, tuple) and len(v) >= least
                            and all(map(item.test, v)) and len(set(v)) == len(v)),
                 f"a list of {least} or more distinct values, each {item.text}")


# the rules of the library's parameters, then those of keys only experiments have
_RULES = {
    **spectral._RULES, **evolve._RULES, **lingroup._RULES, **ensembles._RULES,
    "seed": _integer(0),
    **dict.fromkeys(("n_samples", "shrink_samples"), _integer(1)),
    "n_modes": _integer(0),             # the cross-key checks bound it by the band
    # one dilation solves on a larger circle; dilation 1 repeats the direct solve
    "dilation": _Rule(lambda v: _finite(v) and v > 1, "finite and above 1"),
    "e_ks": _distinct(1, _integer(1)),
    # the verdicts compare per-lambda maxima across circle sizes
    "lambdas": _distinct(2, _POSITIVE),
    # flowmap's gaps are perturbation and perturbation / shrink_factor; every
    # verdict threshold but strichartz-scan's slope_max, which may be negative
    **dict.fromkeys("e_dt e_t_final perturbation shrink_factor im_tol f_tol e_tol "
                    "separation_min residual_tol shrink_min variation_max ratio_bound "
                    "insensitivity_max scaling_tol order_min order_max monitor_bound "
                    "stability_max".split(), _POSITIVE),
}


def _defaults(name: str) -> dict:
    """The keys of a ``name`` config, seed first, each with its default."""
    return dict(seed=0, **_EXPERIMENTS[name].keys)


def _key_help(name: str) -> dict:
    """Each key of a ``name`` config with its ``--help`` line: its rule and its default,
    spelled as in a config file."""
    return {key: f"{_RULES.get(key, _FINITE).text} (default: "
                 f"{','.join(map(str, val)) if isinstance(val, tuple) else val})"
            for key, val in _defaults(name).items()}


def _modes_drawn(v) -> str:
    return "" if v["n_modes"] >= 1 else f"n_modes must be at least 1, got {v['n_modes']}"


def _modes_fit(v) -> str:
    """random_fields caps a draw at n/2 - 1 modes: a larger n_modes would run
    capped while the config echo claims more."""
    cap = v["n"] // 2 - 1
    return ("" if v["n_modes"] <= cap else
            f"n_modes must be at most n/2 - 1 = {cap} at n = {v['n']}, got {v['n_modes']}")


def _doubling_grid(v) -> str:
    """gauge-residual evaluates its fields again on a grid of n/2 points."""
    return ("" if v["n"] % 4 == 0 and v["n"] >= 16 else
            f"n must be a multiple of 4 and at least 16 for the doubling check at n/2, "
            f"got n = {v['n']}")


def _shrinks_drawn(v) -> str:
    """The doubling check re-evaluates the first shrink_samples fields drawn."""
    return ("" if v["shrink_samples"] <= v["n_samples"] else
            f"shrink_samples must be at most n_samples = {v['n_samples']}, "
            f"got {v['shrink_samples']}")


def _gauge_degree(v) -> None:
    """bo has k = 1: spectral's gauge-variant rule, which raises in its own words."""
    _check_gauge_variant(v["variant"], v["k"])


def _renormalized_mean(v) -> str:
    """The renormalized equation takes zero-mean data."""
    return ("" if v["equation"] != "renormalized_gbo" or v["gamma"] == 0 else
            f"gamma must be 0 for the renormalized_gbo equation, got {v['gamma']!r}")


def _order_band(v) -> str:
    return ("" if v["order_min"] < v["order_max"] else
            f"order_min must be below order_max, got {v['order_min']!r} >= {v['order_max']!r}")


def _top_mode(n_modes: int, lam: float, n: int) -> int:
    """The top mode bernstein draws on the lam circle, min(int(n_modes * lam), n/2 - 1),
    capped before the int so that an ``n_modes * lam`` beyond float range is the cap."""
    return int(min(n_modes * lam, n // 2 - 1))


def _modes_per_circle(v) -> str:
    """bernstein draws modes m <= min(int(n_modes * lam), n/2 - 1) on the lam
    circle, of frequency m / lam; its high pass q > 1 needs the top one above lam."""
    drawn = {lam: _top_mode(v["n_modes"], lam, v["n"]) for lam in v["lambdas"]}
    return next((f"lambdas entry {lam!r} draws modes up to min(int(n_modes * lam), n/2 - 1)"
                 f" = {top} at n_modes = {v['n_modes']}, n = {v['n']}; the high pass q > 1 "
                 f"needs one above lam = {lam!r}"
                 for lam, top in drawn.items() if not top / lam > 1.0), "")


# ---------------------------------------------------------------------------
# solver settings: each experiment's solves, built at config time
# ---------------------------------------------------------------------------


def _solver(values: dict, label: str = "", keys: dict | None = None, **overrides) -> SolverConfig:
    """The config's solver keys, then ``overrides``; the step count checked too.
    A broken rule names the config ``keys`` an override came from, and the solve."""
    try:
        solver = SolverConfig(**{key: values[key] for key in _SOLVER_KEYS & values.keys()
                                 if key not in overrides}, **overrides)
        solver.n_steps()
    except ValueError as exc:
        if not keys:
            raise
        text = re.sub(rf"\b(?:{'|'.join(keys)})\b", lambda m: keys[m.group()], str(exc))
        raise ValueError(f"{label} solve: {text}") from exc
    return solver


# conservation's order study steps each degree at e_dt / 2^j for j < _ORDER_LEVELS
_ORDER_LEVELS = 3
# a level's drift below this many ulp per step is round-off: the finest
# levels of e_dt = 5e-5 (4e4 steps) drift 4.3e-12, half an ulp per step
_ROUND_OFF_ULPS = 4


def _energy_level(k: int, j: int) -> str:
    """The label of the order study's solve at degree k and step e_dt / 2^j."""
    return f"energy_k{k}" + (f" dt/{2 ** j}" if j else "")


def _conservation_solvers(v) -> dict:
    """The reference solve, then per degree of e_ks one solve per order-study level,
    each sampled at the coarsest level's times."""
    def energy(k, j, stride):
        return _solver(v, _energy_level(k, j),
                       {"dt": f"e_dt/{2 ** j}" if j else "e_dt", "t_final": "e_t_final"},
                       equation="gbo", k=k, dt=v["e_dt"] / 2 ** j, t_final=v["e_t_final"],
                       sample_stride=stride * 2 ** j)

    # every degree steps alike, so the first one's step count sets the stride
    stride = _dividing_stride(energy(v["e_ks"][0], 0, 1).n_steps(), 25)
    return {"reference": _solver(v, equation="gbo"),
            **{_energy_level(k, j): energy(k, j, stride)
               for k in v["e_ks"] for j in range(_ORDER_LEVELS)}}


def _scaling_solvers(v) -> dict:
    """The direct solve and the solve on the dilated circle, over dilation^2 the time."""
    equation = "bo2" if v["variant"] == "bo" else "gbo"
    ends = dict(equation=equation, sample_stride=_solver(v, equation=equation).n_steps())
    lam2 = v["dilation"] * v["dilation"]
    return {"direct": _solver(v, **ends),
            "dilated": _solver(v, "dilated", {"dt": "dilation^2 * dt",
                                              "t_final": "dilation^2 * t_final"},
                               **ends, dt=lam2 * v["dt"], t_final=lam2 * v["t_final"])}


def _convergence_solvers(v) -> dict:
    return {fixture: _solver(v, equation="gbo", k=k, sample_stride=1)
            for fixture, k in (("gbo1_cos", 1), ("gbo3_mix", 3))}


def _coerce(value, default):
    """Parse a string value into the type of the key's default."""
    if isinstance(value, list):
        return tuple(value)
    if not isinstance(value, str):
        return value
    if isinstance(default, tuple):
        return tuple(type(default[0])(part) for part in value.replace(",", " ").split())
    return type(default)(value.strip())


def config_from_mapping(name: str, mapping: dict) -> ExperimentConfig:
    """Build a config from per-key overrides; keys the experiment does not read are errors."""
    return ExperimentConfig(name, **{key: val for key, val in mapping.items() if key != "name"})


def load_config_file(path, name: str) -> dict:
    """Read the [name] section of a flat key=value config file."""
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not parser.has_section(name):
        return {}
    return dict(parser.items(name))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    """One experiment run: config echo, per-sample records, verdict.

    ``wall_time_s`` is measured but deliberately excluded from both
    serializations so repeated runs are byte-identical; ``artifacts`` holds
    in-memory side products (e.g. the simulate trajectory) for callers that
    want to persist them separately.
    """

    name: str
    config: dict
    records: list
    summary: dict
    passed: bool
    failures: list
    wall_time_s: float = 0.0
    artifacts: dict = dc_field(default_factory=dict)

    def summary_dict(self) -> dict:
        return {
            "name": self.name,
            "config": self.config,
            "summary": self.summary,
            "passed": self.passed,
            "failures": list(self.failures),
            "n_records": len(self.records),
        }

    def summary_json(self) -> str:
        return json.dumps(_plain(self.summary_dict()), sort_keys=True, indent=2) + "\n"

    def records_jsonl(self) -> str:
        # the records are plain already (_build_report)
        lines = [json.dumps(rec, sort_keys=True, separators=(",", ":"), allow_nan=False)
                 for rec in self.records]
        return "\n".join(lines) + ("\n" if lines else "")


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization.

    Non-finite floats become null so the emitted files stay strict JSON.
    """
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _hash_field(f: SpectralField) -> str:
    return hashlib.sha256(np.ascontiguousarray(f.coeffs).tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# experiment bodies: each returns (records, artifacts)
# ---------------------------------------------------------------------------


def _dividing_stride(steps: int, target_snapshots: int) -> int:
    """Largest stride <= steps/target that divides the step count.

    Divisors pair up as (c, steps // c) with c <= sqrt(steps), so a walk up
    to sqrt(steps) meets every one.
    """
    want = max(1, steps // target_snapshots)
    return max(d for c in range(1, math.isqrt(steps) + 1) if steps % c == 0
               for d in (c, steps // c) if d <= want)


def _cosine_data(cfg: ExperimentConfig, grid: PeriodicGrid) -> SpectralField:
    u = cfg.amplitude * SpectralField.from_function(grid, np.cos)
    if cfg.gamma:
        c = u.coeffs.copy()
        c[0] = cfg.gamma
        u = SpectralField(grid, c)
    return u


def _run_simulate(cfg: ExperimentConfig, rng):
    grid = PeriodicGrid(cfg.lam, cfg.n)
    u0 = _cosine_data(cfg, grid)
    rec = {"sample_index": 0, "inputs_hash": _hash_field(u0)}
    artifacts = {}
    try:
        traj = solve(u0, cfg.solvers["run"])
        rep = drift_report(traj)
        rec.update({f"drift_{k}": v for k, v in rep.drifts.items()})
        rec["blew_up"] = False
        rec["final_h1"] = norm(traj[-1], "hs", s=1.0)
        artifacts["trajectory"] = traj
    except BlowUpError as exc:
        _blow_up_record(rec, exc)
    return [rec], artifacts


def _blow_up_record(rec: dict, exc: BlowUpError) -> dict:
    rec.update({"blew_up": True, "last_good_time": exc.last_good_time})
    return rec


def _drift_orders(rec: dict, steps: int) -> np.ndarray:
    """The observed orders of an order-study record: log2 of each ratio of
    successive M and E drifts, leaving out each pair whose finer drift is
    round-off, which is resolved; ``steps`` is the coarsest level's step
    count.  A drift that is not finite gives a NaN order."""
    drifts = np.array([rec["drifts_M"], rec["drifts_E"]], dtype=float)  # a None is NaN
    floor = _ROUND_OFF_ULPS * np.finfo(float).eps * steps * 2.0 ** np.arange(drifts.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log2(drifts[:, :-1] / drifts[:, 1:])
    return orders[~(drifts[:, 1:] < floor[1:])]


def _run_conservation(cfg: ExperimentConfig, rng):
    """The reference run of the cosine data and an order study per degree of e_ks.

    Both step as one stack on the alias-free grid of the largest degree,
    where the reference's k = 1 flux is exact too.  The alias-free Galerkin
    truncation conserves M and E exactly, so the study's drifts are the time
    stepper's error and fall at its order.  Its profile is one fixed draw
    that reads no seed, scaled to the L^2 norm of amplitude * cos x, with
    mean gamma.  A pair of levels whose finer drift is round-off is resolved
    and gives no order; a study with no other pair is exact, as
    convergence's is, and its order is not gated."""
    grid = PeriodicGrid(cfg.lam, cfg.n)
    u0 = _cosine_data(cfg, grid)
    l2 = norm(cfg.amplitude * SpectralField.from_function(grid, np.cos), "lp", p=2)
    (profile,) = random_fields(grid, np.random.default_rng(0), 1, n_modes=20, decay=0.9,
                               amplitude=l2, normalize="l2", mean=cfg.gamma)
    rec = {"run": "reference", "sample_index": 0, "inputs_hash": _hash_field(u0)}
    studies = [{"run": _energy_level(k, 0), "sample_index": idx,
                "inputs_hash": _hash_field(profile)} for idx, k in enumerate(cfg.e_ks, start=1)]
    records = [rec] + studies
    # the reference and every level of every degree step as one stack
    solvers = [cfg.solvers["reference"]] + [cfg.solvers[_energy_level(k, j)]
                                            for k in cfg.e_ks for j in range(_ORDER_LEVELS)]
    traj, *results = _solve([u0] + [profile] * (len(solvers) - 1), solvers)
    if isinstance(traj, BlowUpError):
        _blow_up_record(rec, traj)
    else:
        rep = drift_report(traj)
        rec.update({"drift_I": rep.drifts["I"], "drift_M": rep.drifts["M"],
                    "drift_E": rep.drifts["E_gbo"], "drift_F": rep.drifts["F_bo"]})
        wrong_f = invariant(traj, "F_bo", sign=-1.0)
        wrong_e = invariant(traj, "E_gbo", k=1, sign=-1.0)
        if wrong_f[0] == 0.0 or wrong_e[0] == 0.0:
            # zero data: the relative opposite-sign drifts are 0/0
            rec["degenerate"] = True
        else:
            rec["drift_F_opposite"] = float(
                np.max(np.abs(wrong_f - wrong_f[0])) / abs(wrong_f[0]))
            rec["drift_E_opposite"] = float(
                np.max(np.abs(wrong_e - wrong_e[0])) / abs(wrong_e[0]))
            f_series = rep.values["F_bo"]
            rec["time_vs_f_drift"] = [
                [float(t), float(abs(v - f_series[0]) / abs(f_series[0]))]
                for t, v in zip(rep.times, f_series)
            ]
    if not profile.coeffs.any():
        for rec in studies:
            rec["degenerate"] = True  # zero data: every relative drift is 0/0
        return records, {}
    for i, rec in enumerate(studies):
        levels = results[i * _ORDER_LEVELS: (i + 1) * _ORDER_LEVELS]
        blown = [r for r in levels if isinstance(r, BlowUpError)]
        if blown:
            _blow_up_record(rec, blown[0])
            continue
        reps = [drift_report(traj) for traj in levels]
        rec.update({"dts": [cfg.e_dt / 2 ** j for j in range(_ORDER_LEVELS)],
                    "drifts_M": [r.drifts["M"] for r in reps],
                    "drifts_E": [r.drifts["E_gbo"] for r in reps]})
        orders = _drift_orders(rec, cfg.solvers[rec["run"]].n_steps())
        rec.update({"order": orders.min() if orders.size else math.nan,
                    "exact": not orders.size})
    return records, {}


def _run_gauge_residual(cfg: ExperimentConfig, rng):
    grid = PeriodicGrid(cfg.lam, cfg.n)
    fields = random_fields(grid, rng, cfg.n_samples, n_modes=cfg.n_modes or None,
                           decay=cfg.decay, amplitude=cfg.amplitude, normalize="h2")
    half_grid = PeriodicGrid(cfg.lam, grid.n // 2)
    halves = [analyze_values_padded(synthesize(v), half_grid)
              for v in fields[: cfg.shrink_samples]]
    results = gauge_residual_batch(fields, cfg.variant, cfg.k)
    results_half = gauge_residual_batch(halves, cfg.variant, cfg.k)
    records = []
    for i, (v, res) in enumerate(zip(fields, results)):
        rec = {"sample_index": i, "inputs_hash": _hash_field(v), "kind": "residual",
               "residual_l2": res.l2, "residual_h1": res.h1}
        if i < len(results_half):
            rec["kind"] = "residual+shrink"
            rec["residual_l2_half"] = results_half[i].l2
        records.append(rec)
    return records, {}


def _per_lambda(cfg: ExperimentConfig, draw) -> tuple:
    """The records {lam, sample_index, inputs_hash, ratio} of each lam of
    ``cfg.lambdas`` in turn, ``draw(grid)`` giving the fields it drew on that
    lam's grid and their ratios."""
    return [{"lam": float(lam), "sample_index": i, "inputs_hash": _hash_field(f), "ratio": r}
            for lam in cfg.lambdas
            for i, (f, r) in enumerate(zip(*draw(PeriodicGrid(lam, cfg.n))))], {}


def _run_strichartz(cfg: ExperimentConfig, rng):
    def draw(grid):
        phis = random_fields(grid, rng, cfg.n_samples, n_modes=cfg.n_modes, decay=cfg.decay,
                             amplitude=1.0, normalize="l2")
        return phis, strichartz_norms(phis, cfg.horizon)
    return _per_lambda(cfg, draw)


def _run_flowmap(cfg: ExperimentConfig, rng):
    grid = PeriodicGrid(cfg.lam, cfg.n)
    scales = [cfg.perturbation, cfg.perturbation / cfg.shrink_factor]
    # one draw for every (phi1, direction) pair, in the order of drawing
    # phi1 and then its direction sample by sample
    normals = rng.standard_normal((cfg.n_samples, 2, 2, cfg.n_modes))
    draws = list(zip(
        _fields_from_normals(grid, normals[:, 0], cfg.decay, cfg.amplitude, "h1", cfg.gamma,
                             False),
        _fields_from_normals(grid, normals[:, 1], cfg.decay, 1.0, "h1", 0.0, False)))
    # one batch: every phi1, then the phi2 = phi1 + scale * direction of
    # each pair with a nonzero gap
    pairs = []
    for i, (phi1, direction) in enumerate(draws):
        for scale in scales:
            delta = scale * direction
            pairs.append((i, scale, phi1 + delta, norm(delta, "hs", s=1.0)))
    runs = solve_batch([phi1 for phi1, _ in draws]
                       + [phi2 for _, _, phi2, gap in pairs if gap != 0.0], cfg.solvers["run"])
    traj1s, traj2s = runs[: len(draws)], iter(runs[len(draws):])
    records = []
    for i, scale, phi2, gap in pairs:
        phi1, traj1 = draws[i][0], traj1s[i]
        traj2 = next(traj2s) if gap != 0.0 else None
        rec = {"sample_index": i, "scale": float(scale), "inputs_hash": _hash_field(phi1),
               "degenerate": bool(gap == 0.0), "blew_up": False}
        if isinstance(traj1, BlowUpError):
            records.append(_blow_up_record(dict(rec, degenerate=False), traj1))
        elif isinstance(traj2, BlowUpError):
            records.append(_blow_up_record(rec, traj2))
        elif traj2 is None:
            records.append(rec)
        else:
            dists = _parseval_norms(_full_spectrum(traj1.half_coeffs - traj2.half_coeffs,
                                                   grid.n), grid, 1.0)
            rec.update({
                "mean1": float(phi1.coeffs[0].real),
                "mean2": float(phi2.coeffs[0].real),
                "gap_h1": gap,
                "ratio": float(np.max(dists) / gap),
            })
            records.append(rec)
    return records, {}


def _run_scaling(cfg: ExperimentConfig, rng):
    grid = PeriodicGrid(cfg.lam, cfg.n)
    u0 = 0.1 * SpectralField.from_function(grid, np.cos)
    rec = {"sample_index": 0, "variant": cfg.variant, "k": cfg.k,
           "inputs_hash": _hash_field(u0)}
    try:
        direct = solve(u0, cfg.solvers["direct"])[-1]
        dilated_then = solve(dilate(u0, cfg.dilation, cfg.variant, k=cfg.k),
                             cfg.solvers["dilated"])[-1]
    except BlowUpError as exc:
        return [_blow_up_record(rec, exc)], {}
    then_dilated = dilate(direct, cfg.dilation, cfg.variant, k=cfg.k)
    rec["h1_discrepancy"] = norm(then_dilated - dilated_then, "hs", s=1.0)
    return [rec], {}


def _run_convergence(cfg: ExperimentConfig, rng):
    grid = PeriodicGrid(cfg.lam, cfg.n)
    fixtures = {
        "gbo1_cos": 0.1 * SpectralField.from_function(grid, np.cos),
        "gbo3_mix": SpectralField.from_function(
            grid, lambda x: 0.05 * (np.cos(x) + np.sin(2 * x))),
    }
    records = []
    for idx, (label, u0) in enumerate(fixtures.items()):
        rec = {"sample_index": idx, "fixture": label, "inputs_hash": _hash_field(u0)}
        try:
            res = convergence_order(u0, cfg.solvers[label], cfg.n_levels)
        except BlowUpError as exc:
            records.append(_blow_up_record(rec, exc))
            continue
        rec.update({"order": res.order, "exact": res.exact,
                    "errors": list(res.errors), "dts": list(res.dts)})
        records.append(rec)
    return records, {}


def _run_estimate_monitor(cfg: ExperimentConfig, rng):
    grid = PeriodicGrid(cfg.lam, cfg.n)
    v0s = random_fields(grid, rng, cfg.n_samples, n_modes=cfg.n_modes, decay=cfg.decay,
                        amplitude=cfg.amplitude, normalize="h1")
    runs = solve_batch(v0s, cfg.solvers["run"])
    records = []
    for i, (v0, vtraj) in enumerate(zip(v0s, runs)):
        rec = {"sample_index": i, "inputs_hash": _hash_field(v0)}
        if isinstance(vtraj, BlowUpError):
            records.append(_blow_up_record(rec, vtraj))
            continue
        (ws,) = _frames(vtraj, "gbo", cfg.k, lambda fr: (fr.w,))
        w_x1 = xnorm_series(vtraj.times, ws, grid, 1)
        v_x1 = xnorm(vtraj, 1)
        w0_h1 = float(_parseval_norms(ws[0], grid, 1.0))
        denom = w0_h1 + cfg.t_final ** 0.25 * (
            v_x1 ** (cfg.k + 1) + v_x1 ** (2 * cfg.k + 1) + v_x1 ** (3 * cfg.k + 1)
        )
        rec.update({"w_x1": w_x1, "v_x1": v_x1, "w0_h1": w0_h1})
        if denom == 0.0:
            # zero data: w, v and the bound all vanish, so the ratio is 0/0
            rec["degenerate"] = True
        else:
            rec["ratio"] = float(w_x1 / denom)
        records.append(rec)
    return records, {}


def _run_bernstein(cfg: ExperimentConfig, rng):
    def draw(grid):
        # n_modes counts modes per unit circle size; on the larger circles
        # the scaled count is capped at the band limit by design, so the
        # high-pass ratio is then measured on a full-band draw
        n_modes = _top_mode(cfg.n_modes, grid.lam, grid.n)
        gs = random_fields(grid, rng, cfg.n_samples, n_modes=n_modes, decay=cfg.decay,
                           amplitude=1.0, normalize="h1", physical_decay=True)
        rows = np.array([g.coeffs for g in gs])
        # sup norms of the one-sided high pass P_{q > 1} (complex) and of d_x (real)
        nums = _lp_norms(np.where(grid.freqs > 1.0, rows, 0.0), grid, np.inf)
        dens = _lp_norms(_symbol(grid, "d_dx") * rows, grid, np.inf)
        return gs, [float(num / den) for num, den in zip(nums, dens)]
    return _per_lambda(cfg, draw)


# ---------------------------------------------------------------------------
# verdicts (pure functions of config + records) and summaries (of records)
# ---------------------------------------------------------------------------


def _floats(records, key: str) -> np.ndarray:
    """The ``key`` values of the records that hold it; a ``None`` becomes NaN."""
    return np.array([r[key] for r in records if key in r], dtype=float)


def _max_by(records, group: str, key: str) -> list:
    """Sorted ``(group value, max of key)`` pairs over the records; a NaN wins its group."""
    return [(value, float(np.max(_floats([r for r in records if r[group] == value], key))))
            for value in sorted({r[group] for r in records})]


def _blown(records) -> list:
    fails = []
    for r in records:
        if r.get("blew_up"):
            label = r["run"] if "run" in r else f"sample {r['sample_index']}"
            fails.append(f"{label} blew up at t = {r['last_good_time']}")
    return fails


class _Gate(NamedTuple):
    """One checked value: it passes when finite and ``value <sense> bound``.

    ``bound`` is a config key, or the (low, high) keys of a band for sense
    "in"; without one only finiteness is checked.  ``text`` formats the
    failure from ``name``, ``value`` and the bound's value.
    """

    name: str
    value: float | None
    sense: str = ""
    bound: str | tuple = ""
    text: str = ""


_SENSES = {"<": operator.lt, "<=": operator.le, ">=": operator.ge,
           "in": lambda value, band: band[0] <= value <= band[1]}


def _judge(fails: list, gates: list, cfg: ExperimentConfig) -> list:
    """The structural ``fails``, then a message per failing gate.

    The one finiteness check, so a verdict never passes on NaN: a value that
    is not finite, or ``None`` as a plain record holds one, fails as
    ``non-finite <name>``, once per name.  A finite value fails its bound.
    """
    fails = list(fails)
    for gate in gates:
        value = math.nan if gate.value is None else float(gate.value)
        if not math.isfinite(value):
            if f"non-finite {gate.name}" not in fails:
                fails.append(f"non-finite {gate.name}")
        elif gate.sense:
            bound = (tuple(getattr(cfg, key) for key in gate.bound) if gate.sense == "in"
                     else getattr(cfg, gate.bound))
            if not _SENSES[gate.sense](value, bound):
                fails.append(gate.text.format(name=gate.name, value=value, bound=bound))
    return fails


def _pass_simulate(cfg, records):
    gates = [_Gate("invariant drift", v) for r in records
             for key, v in r.items() if key.startswith("drift_")]
    gates += [_Gate("final H1", r["final_h1"]) for r in records if "final_h1" in r]
    return _blown(records), gates


def _pass_conservation(cfg, records):
    fails, gates = _blown(records), []
    for r in records:
        if r.get("blew_up"):
            continue
        if r.get("degenerate"):
            fails.append(f"{r['run']}: zero initial data, relative drifts undefined")
        elif r["run"] == "reference":
            gates += [_Gate(f"{key} drift", r[f"drift_{key}"], "<", tol,
                            "{name} {value:.3e} >= {bound:.0e}")
                      for key, tol in (("I", "im_tol"), ("M", "im_tol"), ("F", "f_tol"))]
            gates.append(_Gate("opposite-sign F drift", r["drift_F_opposite"], ">=",
                               "separation_min",
                               "{name} {value:.3e} < separation floor {bound:.0e}"))
        else:  # the orders are read from the level drifts, not from the record's copy
            orders = _drift_orders(r, cfg.solvers[r["run"]].n_steps())
            if orders.size:  # else every finer drift is round-off, the study exact
                gates.append(_Gate(f"{r['run']}: drift order", orders.min(), ">=", "order_min",
                                   "{name} {value:.2f} < {bound}"))
            gates.append(_Gate(f"{r['run']}: finest E drift", r["drifts_E"][-1], "<", "e_tol",
                               "{name} {value:.3e} >= {bound:.0e}"))
    return fails, gates


def _pass_gauge_residual(cfg, records):
    fails = []
    residuals = _floats(records, "residual_l2")
    halves = [r for r in records if "residual_l2_half" in r]
    coarse = _floats(halves, "residual_l2_half")
    if not np.any(residuals) and not np.any(coarse):
        fails.append("every residual is exactly 0: the data are zero and test nothing")
    gates = [_Gate("residual", np.max(residuals), "<=", "residual_tol",
                   "max residual {value:.3e} > {bound:.0e}")]
    gates += [_Gate("H1 residual", r["residual_h1"]) for r in records if "residual_h1" in r]
    # A coarse grid already within tolerance leaves nothing for doubling to
    # shrink; a NaN coarse maximum keeps the gate, and the judge fails it.
    if coarse.size and not np.max(coarse) <= cfg.residual_tol:
        ratio = np.max(coarse) / np.maximum(np.max(_floats(halves, "residual_l2")), 1e-300)
        gates.append(_Gate("residual", ratio, ">=", "shrink_min",
                           "doubling n only shrank the residual {value:.1f}x (< {bound:.0f}x)"))
    return fails, gates


def _pass_strichartz(cfg, records):
    lams, maxes = np.array(_max_by(records, "lam", "ratio")).T
    slope = np.polyfit(np.log(lams), np.log(maxes), 1)[0]
    return [], [_Gate("ratio", maxes.max() / maxes.min(), "<", "variation_max",
                      "max ratio varies {value:.2f}x across lambda (>= {bound}x)"),
                _Gate("ratio", slope, "<", "slope_max", "log-log slope {value:.3f} >= {bound}")]


def _pass_flowmap(cfg, records):
    fails = []
    blown = {r["sample_index"] for r in records if r.get("blew_up")}
    if blown:
        fails.append(f"{len(blown)} samples blew up")
    usable = [r for r in records if not r.get("degenerate") and not r.get("blew_up")]
    if not usable:
        return fails + ["no usable pair: every pair had a zero gap or blew up"], []
    maxes = np.array([mx for _, mx in _max_by(usable, "scale", "ratio")])
    gates = [_Gate("ratio", maxes.max(), "<=", "ratio_bound", "max ratio {value:.2f} > {bound}")]
    if len(maxes) >= 2:
        gates.append(_Gate("ratio", maxes.max() / np.maximum(maxes.min(), 1e-300), "<",
                           "insensitivity_max",
                           "max ratio changed {value:.2f}x across perturbation scales"))
    return fails, gates


def _pass_scaling(cfg, records):
    return _blown(records), [_Gate("H1 discrepancy", r["h1_discrepancy"], "<=", "scaling_tol",
                                   "{name} {value:.3e} > {bound:.0e}")
                             for r in records if "h1_discrepancy" in r]


def _pass_convergence(cfg, records):
    return _blown(records), [
        _Gate(f"{r['fixture']}: order", r["order"], "in", ("order_min", "order_max"),
              "{name} {value:.3f} outside [{bound[0]}, {bound[1]}]")
        for r in records if not r.get("blew_up") and not r["exact"]]


def _pass_estimate_monitor(cfg, records):
    fails = []
    blown = [r for r in records if r.get("blew_up")]
    if blown:
        fails.append(f"{len(blown)} samples blew up")
    zero = [r for r in records if r.get("degenerate")]
    if zero:
        fails.append(f"{len(zero)} samples have zero initial data, ratio undefined")
    ratios = _floats(records, "ratio")
    return fails, [_Gate("ratio", np.max(ratios), "<=", "monitor_bound",
                         "max ratio {value:.2f} > {bound}")] if ratios.size else []


def _pass_bernstein(cfg, records):
    maxes = np.array([mx for _, mx in _max_by(records, "lam", "ratio")])
    return [], [_Gate("ratio", maxes.max() / maxes.min(), "<", "stability_max",
                      "per-lambda maxima vary {value:.2f}x (>= {bound}x)")]


def _no_series(records):
    return {"series": {}}


def _summarize_conservation(records):
    return {"series": {"time_vs_f_drift": r["time_vs_f_drift"]
                       for r in records if "time_vs_f_drift" in r}}


def _summarize_max_ratio(records):
    return {"series": {"lambda_vs_max_ratio": _max_by(records, "lam", "ratio")}}


def _summarize_flowmap(records):
    usable = [r for r in records if not r.get("degenerate") and not r.get("blew_up")]
    series = ({"perturbation_vs_max_ratio": _max_by(usable, "scale", "ratio")}
              if usable else {})
    # each sample contributes a pair at each of the two scales
    return {"usable_pairs": len(usable) // 2, "series": series}


def _summarize_convergence(records):
    return {"series": {f"dt_vs_error_{r['fixture']}": list(zip(r["dts"], r["errors"]))
                       for r in records if not r.get("blew_up")}}


class _Experiment(NamedTuple):
    keys: dict            # config key -> default
    run: Callable         # (cfg, rng) -> (records, artifacts)
    verdict: Callable     # (cfg, records) -> (structural failures, gates)
    summarize: Callable   # records -> summary without its stats
    checks: tuple = ()    # cross-key rules: values -> a broken rule's text, else "" or None
    solvers: Callable = lambda values: {}  # values -> {label: SolverConfig} of its solves


# Defaults shared by the experiments that integrate in time ...
_SOLVER = dict(lam=1.0, n=128, dt=1e-3, t_final=0.25, scheme=SolverConfig.scheme,
               dealias=SolverConfig.dealias)
# ... and by those that draw a random ensemble.
_ENSEMBLE = dict(n_samples=50, n_modes=32, decay=0.7)

_EXPERIMENTS = {
    "simulate": _Experiment(
        dict(_SOLVER, n=256, t_final=1.0, equation="gbo", k=1,
             sample_stride=50,          # steps per stored snapshot
             amplitude=0.2,             # initial data amplitude * cos(x)
             gamma=0.0),                # mean value of the initial data
        _run_simulate, _pass_simulate, _no_series,
        checks=(_renormalized_mean,), solvers=lambda v: {"run": _solver(v)}),
    "conservation": _Experiment(
        dict(_SOLVER, n=256, t_final=1.0, sample_stride=20,
             amplitude=0.2, gamma=0.0,
             e_ks=(2, 3),               # order-study degrees
             e_dt=2e-3,                 # order-study coarsest step
             e_t_final=0.5,             # order-study horizon
             im_tol=1e-10,              # I and M drift
             f_tol=1e-6,                # calibrated F drift
             e_tol=1e-6,                # finest-level energy drift
             order_min=4.0,             # least observed drift order
             separation_min=1e-2),      # wrong-sign drift floor
        _run_conservation, _pass_conservation, _summarize_conservation,
        solvers=_conservation_solvers),
    "gauge-residual": _Experiment(
        dict(lam=1.0, n=256, k=1, n_samples=20, amplitude=0.1,
             n_modes=0,                 # 0 fills the band
             decay=0.8,
             variant="gbo",             # bo or gbo
             shrink_samples=5,          # ensemble for the doubling check
             residual_tol=1e-9,         # L^2 tolerance
             shrink_min=100.0),         # min decay on doubling n
        _run_gauge_residual, _pass_gauge_residual, _no_series,
        checks=(_modes_fit, _doubling_grid, _shrinks_drawn, _gauge_degree)),
    "strichartz-scan": _Experiment(
        dict(_ENSEMBLE, n=128, n_modes=24, decay=0.8,
             lambdas=(1.0, 2.0, 4.0, 8.0, 16.0),    # circle sizes
             horizon=1.0,               # time horizon
             variation_max=2.0,         # max/min bound on the maxima
             slope_max=0.1),            # log-log slope bound
        _run_strichartz, _pass_strichartz, _summarize_max_ratio,
        checks=(_modes_drawn, _modes_fit)),
    "flowmap": _Experiment(
        dict(_SOLVER | _ENSEMBLE, dt=2e-3, t_final=0.5, sample_stride=25,
             n_samples=25, amplitude=0.25, n_modes=16, gamma=0.0,
             perturbation=1e-2,         # H^1 size of the pair gap
             shrink_factor=100.0,       # second-scale divisor
             ratio_bound=10.0,          # admissible Lipschitz ratio
             insensitivity_max=2.0),    # max ratio change across scales
        _run_flowmap, _pass_flowmap, _summarize_flowmap,
        checks=(_modes_drawn, _modes_fit),
        solvers=lambda v: {"run": _solver(v, equation="gbo")}),
    "scaling": _Experiment(
        dict(_SOLVER, k=1,
             variant="bo",              # bo or gbo
             dilation=2.0,              # circle enlargement
             scaling_tol=1e-8),         # H^1 discrepancy bound
        _run_scaling, _pass_scaling, _no_series,
        checks=(_gauge_degree,), solvers=_scaling_solvers),
    "convergence": _Experiment(
        dict(_SOLVER, dt=0.04, t_final=0.4,
             n_levels=4,                # refinement levels
             order_min=3.8,             # measured-order band
             order_max=4.2),
        _run_convergence, _pass_convergence, _summarize_convergence,
        checks=(_order_band,), solvers=_convergence_solvers),
    "estimate-monitor": _Experiment(
        dict(_SOLVER | _ENSEMBLE, k=2, sample_stride=25, n_samples=10, amplitude=0.1,
             monitor_bound=20.0),       # admissible ratio
        _run_estimate_monitor, _pass_estimate_monitor, _no_series,
        checks=(_modes_drawn, _modes_fit),
        solvers=lambda v: {"run": _solver(v, equation="renormalized_gbo")}),
    "bernstein": _Experiment(
        dict(_ENSEMBLE, n=256, n_modes=8,
             lambdas=(1.0, 4.0, 16.0),  # circle sizes
             stability_max=3.0),        # per-lambda maxima spread
        _run_bernstein, _pass_bernstein, _summarize_max_ratio,
        checks=(_modes_drawn, _modes_fit, _modes_per_circle)),
}

EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def recompute_passed(report: ExperimentReport):
    """Re-derive the verdict of a report from its records alone."""
    rebuilt = _build_report(config_from_mapping(report.name, report.config), report.records)
    return rebuilt.passed, rebuilt.failures


# the fields that identify a record, each with the value a record without it
# sorts as: reports sort their records by them, the summary stats skip them
_RECORD_KEY = {"lam": 0.0, "sample_index": 0, "scale": 0.0, "run": ""}


def _summary_stats(records):
    """Order-independent aggregates over the numeric record fields but the record key."""
    numeric = {}
    for r in records:
        for key, val in r.items():
            numeric_val = isinstance(val, (int, float, type(None))) and not isinstance(val, bool)
            if numeric_val and key not in _RECORD_KEY:
                numeric.setdefault(key, []).append(math.nan if val is None else val)
    return {key: {"min": float(np.min(vals)), "max": float(np.max(vals)),
                  "mean": float(np.mean(vals))} for key, vals in sorted(numeric.items())}


def _build_report(cfg: ExperimentConfig, records, artifacts=None) -> ExperimentReport:
    """Make ``records`` plain, as a records file holds them; then sort, judge, summarize."""
    experiment = _EXPERIMENTS[cfg.name]
    records = sorted(_plain(records), key=lambda r: tuple(r.get(key, default)
                                                          for key, default in _RECORD_KEY.items()))
    failures = _judge(*experiment.verdict(cfg, records), cfg)
    summary = dict(experiment.summarize(records), stats=_summary_stats(records))
    return ExperimentReport(name=cfg.name, config=cfg.as_dict(), records=records,
                            summary=summary, passed=not failures, failures=failures,
                            artifacts=artifacts or {})


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run one named experiment; deterministic given (config, seed)."""
    start = _time.perf_counter()
    records, artifacts = _EXPERIMENTS[cfg.name].run(cfg, np.random.default_rng(cfg.seed))
    report = _build_report(cfg, records, artifacts)
    report.wall_time_s = _time.perf_counter() - start
    return report


def save_report(report: ExperimentReport, out_dir, stem: str) -> dict:
    """Write summary, records and plot series; returns the written paths."""
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    summary_path = out / f"{stem}.summary.json"
    summary_path.write_text(report.summary_json())
    paths["summary"] = summary_path
    records_path = out / f"{stem}.records.jsonl"
    records_path.write_text(report.records_jsonl())
    paths["records"] = records_path
    for series_name, rows in report.summary.get("series", {}).items():
        dat = out / f"{stem}.{series_name}.dat"
        # a null in a row (a non-finite record value) is written as nan
        lines = [f"{a:.17g} {b:.17g}" for a, b in np.asarray(rows, dtype=float).tolist()]
        dat.write_text("\n".join(lines) + ("\n" if lines else ""))
        paths[series_name] = dat
    return paths
