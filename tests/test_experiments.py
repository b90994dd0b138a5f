"""Experiment runner: config handling, determinism, verdicts, CLI."""

import argparse
import dataclasses
import json
import struct

import numpy as np
import pytest

from bosp import (
    BlowUpError,
    ConfigError,
    ExperimentConfig,
    PeriodicGrid,
    SpectralField,
    build_gauge,
    config_from_mapping,
    default_config,
    norm,
    random_field,
    recompute_passed,
    run_experiment,
    save_report,
    solve,
    xnorm,
)
from bosp import experiments
from bosp.cli import build_parser, main
from bosp.experiments import (_EXPERIMENTS, _FINITE, _POSITIVE, _RULES, EXPERIMENT_NAMES,
                              _build_report, _hash_field, _judge, _max_by,
                              _run_estimate_monitor, _run_flowmap, load_config_file)

from conftest import strichartz_norm_reference, xnorm_series_per_field


FAST = {
    "simulate": dict(dt=2e-3, t_final=0.05, sample_stride=5),
    "gauge-residual": dict(n_samples=3, shrink_samples=1),
    "strichartz-scan": dict(n_samples=2, lambdas=(1.0, 4.0)),
    "flowmap": dict(n_samples=2),
    "bernstein": dict(n_samples=4),
    "estimate-monitor": dict(n_samples=2),
    "convergence": dict(),
    "scaling": dict(),
    "conservation": dict(dt=1e-3, t_final=0.1, sample_stride=20,
                         e_dt=1e-3, e_t_final=0.1,
                         im_tol=1e-9, separation_min=1e-4),
}

# The config keys each experiment reads, besides name and seed.
KEYS_READ = {name: set(keys.split()) for name, keys in {
    "simulate": "lam n equation k dt t_final scheme dealias sample_stride "
                "amplitude gamma",
    "conservation": "lam n dt t_final scheme dealias sample_stride amplitude gamma "
                    "e_ks e_dt e_t_final im_tol f_tol e_tol separation_min",
    "gauge-residual": "lam n k variant n_samples amplitude n_modes decay "
                      "shrink_samples residual_tol shrink_min",
    "strichartz-scan": "n lambdas n_samples n_modes decay horizon variation_max "
                       "slope_max",
    "flowmap": "lam n dt t_final scheme dealias sample_stride n_samples amplitude "
               "n_modes decay gamma perturbation shrink_factor ratio_bound "
               "insensitivity_max",
    "scaling": "lam n k variant dt t_final scheme dealias dilation scaling_tol",
    "convergence": "lam n dt t_final scheme dealias n_levels order_min order_max",
    "estimate-monitor": "lam n k dt t_final scheme dealias sample_stride n_samples "
                        "amplitude n_modes decay monitor_bound",
    "bernstein": "n lambdas n_samples n_modes decay stability_max",
}.items()}
LAMBDAS_RULE = "lambdas must be a list of 2 or more distinct values, each finite and positive"
# The verdict thresholds; the rule table holds each as finite and positive.
GATES = [(name, key) for name, keys in {
    "conservation": "im_tol f_tol e_tol separation_min",
    "gauge-residual": "residual_tol shrink_min",
    "strichartz-scan": "variation_max",
    "flowmap": "ratio_bound insensitivity_max",
    "scaling": "scaling_tol",
    "convergence": "order_min order_max",
    "estimate-monitor": "monitor_bound",
    "bernstein": "stability_max",
}.items() for key in keys.split()]


class TestConfig:
    def test_all_experiments_have_defaults(self):
        for name in EXPERIMENT_NAMES:
            cfg = default_config(name)
            assert cfg.name == name

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            default_config("teleport")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping("flowmap", {"perturbatoin": 1e-3})

    def test_string_coercion(self):
        cfg = config_from_mapping("strichartz-scan",
                                  {"lambdas": "1 2 4", "n_samples": "7",
                                   "horizon": "0.5"})
        assert cfg.lambdas == (1.0, 2.0, 4.0)
        assert cfg.n_samples == 7 and cfg.horizon == 0.5
        assert config_from_mapping("conservation", {"e_ks": "2, 4"}).e_ks == (2, 4)

    def test_config_holds_exactly_the_keys_read(self):
        for name in EXPERIMENT_NAMES:
            keys = set(default_config(name).as_dict())
            assert keys == KEYS_READ[name] | {"name", "seed"}, name
            assert set(_EXPERIMENTS[name].keys) == KEYS_READ[name], name

    def test_every_declared_key_is_read(self, monkeypatch):
        """The runs, verdicts and solver settings read exactly the declared keys.

        ``name`` and ``seed`` included.  The cross-key checks are not
        counted: a key only they read would be read by nothing the run does.
        """
        read = set()
        get = ExperimentConfig.__getattribute__

        def tracked_get(cfg, key):
            if not key.startswith("_"):
                read.add((get(cfg, "name"), key))
            return get(cfg, key)

        def tracked_solvers(name, build):
            class TrackedValues(dict):
                def __getitem__(self, key):
                    read.add((name, key))
                    return super().__getitem__(key)

            return lambda values: build(TrackedValues(values))

        monkeypatch.setattr(ExperimentConfig, "__getattribute__", tracked_get)
        for name, entry in _EXPERIMENTS.items():
            monkeypatch.setitem(_EXPERIMENTS, name,
                                entry._replace(solvers=tracked_solvers(name, entry.solvers)))
        runs = [(name, FAST[name]) for name in EXPERIMENT_NAMES]
        runs.append(("scaling", {"variant": "gbo", "k": 2}))
        for name, over in runs:
            run_experiment(config_from_mapping(name, over))
        monkeypatch.undo()
        for name in EXPERIMENT_NAMES:
            keys = {k for n, k in read if n == name} & set(default_config(name).as_dict())
            assert keys == KEYS_READ[name] | {"name", "seed"}, name

    def test_config_is_immutable(self):
        cfg = default_config("flowmap")
        with pytest.raises(AttributeError):
            cfg.gamma = 1.0
        assert cfg == config_from_mapping("flowmap", {"gamma": "0"})

    def test_config_repr(self):
        assert repr(config_from_mapping("scaling", {"seed": 3})) == (
            "ExperimentConfig(name='scaling', seed=3, lam=1.0, n=128, dt=0.001, t_final=0.25, "
            "scheme='if_rk4', dealias='alias_free', k=1, variant='bo', dilation=2.0, "
            "scaling_tol=1e-08)")

    @pytest.mark.parametrize("name, args, message", [
        ("flowmap", ["--perturbation", "-0.01"],
         "perturbation must be finite and positive, got -0.01"),
        ("flowmap", ["--perturbation", "0"], "perturbation must be finite and positive, got 0.0"),
        ("conservation", ["--e-ks", "0"],
         "e_ks must be a list of 1 or more distinct values, each an integer >= 1, got (0,)"),
        ("conservation", ["--e-ks", "2,0"],
         "e_ks must be a list of 1 or more distinct values, each an integer >= 1, got (2, 0)"),
        ("scaling", ["--dilation", "0.5"], "dilation must be finite and above 1, got 0.5"),
    ])
    def test_bad_value_refused_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                name, args, message):
        # each of these once ran solves first: to records of a negative gap,
        # to a FAIL with no usable pair, or to a late usage error
        solved = []
        for fn in ("solve", "solve_batch"):
            monkeypatch.setattr(experiments, fn, lambda *a, _fn=fn, **kw: solved.append(_fn))
        assert main([name, *args, "--out", str(tmp_path)]) == 2
        assert solved == []
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["scaling", "--amplitude", "1"],
                                      ["convergence", "--equation", "linear"],
                                      ["bernstein", "--dt", "7"]])
    def test_flag_of_unread_key_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in err
        assert "Traceback" not in err

    def test_config_file_key_of_other_experiment(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[strichartz-scan]\namplitude = 2\n")
        code = main(["strichartz-scan", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert ("error: unknown config key 'amplitude' for experiment "
                "'strichartz-scan'") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["flowmap", "strichartz-scan"])
    def test_empty_ensemble_rejected(self, name, capsys):
        with pytest.raises(ConfigError, match="n_samples"):
            config_from_mapping(name, {"n_samples": 0})
        assert main([name, "--n-samples", "0"]) == 2
        assert "n_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["gauge-residual", "strichartz-scan", "flowmap",
                                      "estimate-monitor", "bernstein"])
    def test_n_modes_above_band_limit_rejected(self, name, capsys):
        n = default_config(name).n
        config_from_mapping(name, {"n_modes": n // 2 - 1})
        with pytest.raises(ConfigError, match="n_modes"):
            config_from_mapping(name, {"n_modes": n // 2})
        assert main([name, "--n-modes", "500"]) == 2
        err = capsys.readouterr().err
        assert f"error: n_modes must be at most n/2 - 1 = {n // 2 - 1}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, value", [("strichartz-scan", -3), ("bernstein", 0),
                                             ("flowmap", 0), ("estimate-monitor", -1),
                                             ("gauge-residual", -2)])
    def test_n_modes_below_one_rejected(self, name, value, capsys):
        # gauge-residual reads 0 as "fill the band", so only it accepts 0;
        # the key's rule refuses a negative count, a cross-key check 0.
        # bernstein's lam = 1 circle needs a drawn mode above its high pass q > 1
        least = {"gauge-residual": 0, "bernstein": 2}.get(name, 1)
        config_from_mapping(name, {"n_modes": least})
        with pytest.raises(ConfigError, match="n_modes"):
            config_from_mapping(name, {"n_modes": value})
        assert main([name, "--n-modes", str(value)]) == 2
        err = capsys.readouterr().err
        rule = "be an integer >= 0" if value < 0 else "be at least 1"
        assert f"error: n_modes must {rule}, got {value}" in err
        assert "Traceback" not in err

    def test_rule_table_holds_every_threshold_as_finite_positive(self):
        # besides the thresholds, the positive keys are the physical sizes;
        # slope_max bounds a slope, which may be negative, so it is only finite
        positive = {(name, key) for name in EXPERIMENT_NAMES for key in _EXPERIMENTS[name].keys
                    if _RULES.get(key) is _POSITIVE}
        sizes = {"lam", "dt", "t_final", "e_dt", "e_t_final", "horizon", "perturbation",
                 "shrink_factor"}
        assert {(name, key) for name, key in positive if key not in sizes} == set(GATES)
        assert "slope_max" not in _RULES

    @pytest.mark.parametrize("name, key", GATES + [("strichartz-scan", "horizon"),
                                                   ("flowmap", "shrink_factor")])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_gate_and_horizon_must_be_finite_positive(self, name, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite and positive"):
            config_from_mapping(name, {key: value})

    @pytest.mark.parametrize("value", [0.0, -0.5, 1.5, float("nan")])
    @pytest.mark.parametrize("name", ["gauge-residual", "strichartz-scan", "flowmap",
                                      "estimate-monitor", "bernstein"])
    def test_decay_outside_unit_interval_rejected(self, name, value):
        config_from_mapping(name, {"decay": 1.0})
        with pytest.raises(ConfigError, match=r"decay must be in \(0, 1\]"):
            config_from_mapping(name, {"decay": value})

    @pytest.mark.parametrize("order_min, order_max", [(4.0, 4.0), (4.2, 3.8)])
    def test_order_band_must_be_ordered(self, order_min, order_max):
        with pytest.raises(ConfigError, match="order_min must be below order_max"):
            config_from_mapping("convergence", {"order_min": order_min,
                                                "order_max": order_max})

    @pytest.mark.parametrize("line", ["variation_max = -1", "horizon = nan", "decay = 0"])
    def test_nonsense_float_in_config_file_is_usage_error(self, tmp_path, capsys, line):
        cfg = _write_cfg(tmp_path, f"[strichartz-scan]\n{line}\n")
        assert main(["strichartz-scan", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {line.split()[0]} must" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name, key", [
        (name, key) for name in EXPERIMENT_NAMES
        for key, default in _EXPERIMENTS[name].keys.items()
        if isinstance(default, float)
        or (isinstance(default, tuple) and isinstance(default[0], float))])
    def test_every_float_key_must_be_finite(self, name, key, value):
        default = _EXPERIMENTS[name].keys[key]
        bad = (default[0], value) if isinstance(default, tuple) else value
        with pytest.raises(ConfigError, match=f"{key}"):
            config_from_mapping(name, {key: bad})

    @pytest.mark.parametrize("args, message", [
        (["simulate", "--t-final", "inf"], "t_final must be finite and positive, got inf"),
        (["simulate", "--amplitude", "nan"], "amplitude must be finite, got nan"),
        (["simulate", "--amplitude", "inf"], "amplitude must be finite, got inf"),
        (["simulate", "--gamma", "inf"], "gamma must be finite, got inf"),
        (["estimate-monitor", "--amplitude", "inf"], "amplitude must be finite, got inf"),
        (["conservation", "--e-t-final", "inf"],
         "e_t_final must be finite and positive, got inf"),
        (["flowmap", "--perturbation", "nan"],
         "perturbation must be finite and positive, got nan"),
        (["scaling", "--dilation", "inf"], "dilation must be finite and above 1, got inf"),
        # finite dt and t_final whose ratio overflows
        (["simulate", "--dt", "1e-300", "--t-final", "1e10"],
         "t_final / dt = 10000000000.0 / 1e-300 overflows a float"),
        (["conservation", "--e-dt", "1e-300", "--e-t-final", "1e10"],
         "t_final / dt = 10000000000.0 / 1e-300 overflows a float"),
        (["scaling", "--dt", "1e-300", "--t-final", "1e10"],
         "t_final / dt = 10000000000.0 / 1e-300 overflows a float"),
    ])
    def test_non_finite_flag_is_usage_error(self, tmp_path, capsys, args, message):
        # each of these once ran into a fake blow-up or an overflow traceback
        assert main(args + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name, key, value", [
        ("gauge-residual", "shrink_samples", 0),
        ("conservation", "e_ks", ()),
        ("strichartz-scan", "lambdas", ()),
        ("bernstein", "lambdas", ""),
    ])
    def test_value_that_switches_a_check_off_rejected(self, name, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping(name, {key: value})

    @pytest.mark.parametrize("name, line", [("strichartz-scan", "lambdas ="),
                                            ("conservation", "e_ks =")])
    def test_empty_list_in_config_file(self, tmp_path, capsys, name, line):
        cfg = _write_cfg(tmp_path, f"[{name}]\n{line}\n")
        assert main([name, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        key = line.split()[0]
        assert f"error: {key} must be {_RULES[key].text}, got ()" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, line, message", [
        ("strichartz-scan", "lambdas = 0 1", f"{LAMBDAS_RULE}, got (0.0, 1.0)"),
        ("strichartz-scan", "lambdas = 1 -2", f"{LAMBDAS_RULE}, got (1.0, -2.0)"),
        ("bernstein", "lambdas = 1 nan", f"{LAMBDAS_RULE}, got (1.0, nan)"),
        ("bernstein", "lambdas = 1 inf", f"{LAMBDAS_RULE}, got (1.0, inf)"),
        ("bernstein", "lambdas = 0.1 1",
         "lambdas entry 0.1 draws modes up to min(int(n_modes * lam), n/2 - 1) = 0 at "
         "n_modes = 8, n = 256; the high pass q > 1 needs one above lam = 0.1"),
    ])
    def test_bad_lambdas_entry_in_config_file(self, tmp_path, capsys, name, line, message):
        cfg = _write_cfg(tmp_path, f"[{name}]\n{line}\n")
        assert main([name, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_bo_gauge_residual_needs_k_one(self, tmp_path, capsys):
        config_from_mapping("gauge-residual", {"variant": "bo", "k": 1})
        with pytest.raises(ConfigError, match="bo variant has k = 1"):
            config_from_mapping("gauge-residual", {"variant": "bo", "k": 3})
        assert main(["gauge-residual", "--variant", "bo", "--k", "3",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: the bo variant has k = 1, got k = 3" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n", [8, 10, 12, 14])
    def test_gauge_residual_n_allows_the_doubling_grid(self, tmp_path, capsys, n):
        # the doubling check evaluates every field again on n/2 points
        config_from_mapping("gauge-residual", {"n": 16, "n_modes": 0})
        message = (f"n must be a multiple of 4 and at least 16 for the doubling check "
                   f"at n/2, got n = {n}")
        with pytest.raises(ConfigError, match=message):
            config_from_mapping("gauge-residual", {"n": n, "n_modes": 0})
        assert main(["gauge-residual", "--n", str(n), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_bo_scaling_needs_k_one(self):
        assert default_config("scaling").k == 1
        config_from_mapping("scaling", {"variant": "gbo", "k": 2})
        with pytest.raises(ConfigError, match="bo variant has k = 1, got k = 2"):
            config_from_mapping("scaling", {"k": 2})

    @pytest.mark.parametrize("name, args, message", [
        ("scaling", ["--variant", "kdv"], "variant must be one of bo, gbo, got 'kdv'"),
        ("gauge-residual", ["--variant", "kdv"], "variant must be one of bo, gbo, got 'kdv'"),
        ("gauge-residual", ["--k", "0"], "k must be an integer >= 1, got 0"),
        ("scaling", ["--variant", "gbo", "--k", "0"], "k must be an integer >= 1, got 0"),
    ])
    def test_variant_rule_is_a_config_error_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                          name, args, message):
        from bosp import cli

        ran = []
        monkeypatch.setattr(cli, "run_experiment", ran.append)
        assert main([name, *args, "--out", str(tmp_path)]) == 2
        assert ran == []
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name, args", [
        ("strichartz-scan", ["--lambdas", "2"]),
        ("strichartz-scan", ["--lambdas", "2", "--n-samples", "2"]),
        ("strichartz-scan", ["--lambdas", "1,1"]),
        ("strichartz-scan", ["--n-samples", "1", "--lambdas", "1"]),
        ("bernstein", ["--lambdas", "4,4"]),
        ("bernstein", ["--lambdas", "16"]),
    ])
    def test_scan_over_one_circle_size_rejected(self, tmp_path, capsys, name, args):
        # the verdicts compare per-lambda maxima, which one lambda cannot
        lambdas = args[args.index("--lambdas") + 1]
        with pytest.raises(ConfigError, match=LAMBDAS_RULE):
            config_from_mapping(name, {"lambdas": lambdas})
        assert main([name, *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {LAMBDAS_RULE}" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_bernstein_lambdas_floor_follows_n_modes(self):
        # 0.125 * 8 is one mode; 0.125 * 7 rounds down to none
        config_from_mapping("bernstein", {"lambdas": "0.125 1"})
        with pytest.raises(ConfigError, match="n_modes = 7"):
            config_from_mapping("bernstein", {"lambdas": "0.125 1", "n_modes": 7})

    @pytest.mark.parametrize("overrides, refused", [
        ({"n_modes": 1, "lambdas": "1 2"}, 1.0),     # mode 1 on the lam = 1 circle is q = 1
        ({"n_modes": 2, "lambdas": "1 2"}, None),
        # at n = 16 a draw is capped at n/2 - 1 = 7 modes, the lam = 7 circle's q = 1
        ({"n": 16, "n_modes": 2, "lambdas": "1 7"}, 7.0),
        ({"n": 16, "n_modes": 2, "lambdas": "1 6.5"}, None),
    ])
    def test_bernstein_draws_a_mode_above_its_high_pass(self, overrides, refused):
        # with none, every ratio was 0 and the verdict divided 0/0
        if refused is not None:
            with pytest.raises(ConfigError, match=f"lambdas entry {refused!r} draws modes up to"):
                config_from_mapping("bernstein", overrides)
            return
        report = run_experiment(config_from_mapping("bernstein", {**overrides, "n_samples": 2}))
        assert all(r["ratio"] > 0 for r in report.records)

    def test_bernstein_default_config_passes(self):
        assert run_experiment(default_config("bernstein")).passed

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[flowmap]\ngamma = 0.5\nn_samples = 3\n")
        overrides = load_config_file(path, "flowmap")
        cfg = config_from_mapping("flowmap", overrides)
        assert cfg.gamma == 0.5 and cfg.n_samples == 3

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[flowmap]\ngravity = 9.8\n")
        with pytest.raises(ConfigError):
            config_from_mapping("flowmap", load_config_file(path, "flowmap"))

    @pytest.mark.parametrize("text", [None, "n = 64\n"])
    def test_unreadable_config_file_is_usage_error(self, tmp_path, capsys, text):
        # a missing file, and a file whose first line comes before any section
        path = tmp_path / "exp.cfg"
        if text is not None:
            path.write_text(text)
        assert main(["scaling", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_section_is_empty(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[bernstein]\nn_samples = 2\n")
        assert load_config_file(path, "flowmap") == {}


class TestDeterminismAndVerdicts:
    def test_identical_seed_identical_bytes(self, tmp_path):
        cfg = config_from_mapping("bernstein", FAST["bernstein"])
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.summary_json() == r2.summary_json()
        assert r1.records_jsonl() == r2.records_jsonl()
        p1 = save_report(r1, tmp_path / "a", "run")
        p2 = save_report(r2, tmp_path / "b", "run")
        assert p1["summary"].read_bytes() == p2["summary"].read_bytes()
        assert p1["records"].read_bytes() == p2["records"].read_bytes()

    def test_different_seed_different_records(self):
        base = dict(FAST["bernstein"])
        r1 = run_experiment(config_from_mapping("bernstein", base))
        r2 = run_experiment(config_from_mapping("bernstein",
                                                dict(base, seed=1)))
        assert r1.records_jsonl() != r2.records_jsonl()

    # First and last inputs_hash of each ensemble experiment's FAST run at
    # seed 5, as the per-field draw loop made them: a change to the
    # generator order, or to any byte of a drawn field, shows here.
    PINNED_HASHES = {
        "strichartz-scan": ("dfad1fad699aaef5", "94bd9154008c036a"),
        "bernstein": ("fb9252570fc7d6f6", "0a0c9dcd06d725d4"),
        "gauge-residual": ("7e9536ec1cfb0d87", "b56bd32494843dec"),
        "flowmap": ("97ffa176c1525334", "04749c602db044c2"),
        "estimate-monitor": ("b3d3de9e1b853a8c", "68c24a08a6739ef0"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_HASHES))
    def test_ensemble_draws_keep_their_hashes(self, name):
        rep = run_experiment(config_from_mapping(name, dict(FAST[name], seed=5)))
        hashes = [r["inputs_hash"] for r in rep.records]
        assert (hashes[0], hashes[-1]) == self.PINNED_HASHES[name]

    def test_bernstein_ratio_of_a_single_cosine(self, monkeypatch):
        """cos(m x/lam) with lam < m < 2 lam: the high pass keeps half, ratio lam/(2m)."""
        def cosines(grid, rng, count, **kwargs):
            c = np.zeros(grid.n, dtype=np.complex128)
            c[int(1.5 * grid.lam)] = c[-int(1.5 * grid.lam)] = 0.5
            return [SpectralField(grid, c, is_real=True)] * count

        monkeypatch.setattr(experiments, "random_fields", cosines)
        rep = run_experiment(config_from_mapping(
            "bernstein", {"lambdas": (4.0, 16.0), "n_samples": 1}))
        assert [r["lam"] for r in rep.records] == [4.0, 16.0]
        for r in rep.records:
            expected = r["lam"] / (2 * int(1.5 * r["lam"]))
            assert r["ratio"] == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_wall_time_not_serialized(self):
        cfg = config_from_mapping("bernstein", FAST["bernstein"])
        rep = run_experiment(cfg)
        assert rep.wall_time_s > 0.0
        assert "wall" not in rep.summary_json()

    @pytest.mark.parametrize("name", sorted(FAST))
    def test_verdict_recomputable_from_records(self, name):
        rep = run_experiment(config_from_mapping(name, FAST[name]))
        ok, fails = recompute_passed(rep)
        assert ok == rep.passed
        assert fails == rep.failures
        assert rep.passed, rep.failures

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_summary_rebuilt_from_records_file(self, name, tmp_path):
        rep = run_experiment(config_from_mapping(name, FAST[name]))
        paths = save_report(rep, tmp_path, "run")
        records = [json.loads(line) for line in paths["records"].read_text().splitlines()]
        config = json.loads(paths["summary"].read_text())["config"]
        rebuilt = _build_report(config_from_mapping(name, config), records)
        assert rebuilt.summary_json().encode() == paths["summary"].read_bytes()
        assert rebuilt.records_jsonl().encode() == paths["records"].read_bytes()

    @pytest.mark.parametrize("name", sorted(FAST))
    def test_stats_skip_record_key(self, name):
        rep = run_experiment(config_from_mapping(name, FAST[name]))
        assert rep.summary["stats"]
        assert not set(rep.summary["stats"]) & {"lam", "sample_index", "scale", "run"}

    @pytest.mark.parametrize("name", sorted(FAST))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nan_never_passes(self, name, bad, tmp_path):
        """A non-finite report fails in memory and after a records file round trip."""
        def poison(val):
            return [poison(v) for v in val] if isinstance(val, list) else (
                bad if isinstance(val, float) else val)

        cfg = config_from_mapping(name, FAST[name])
        records = [{key: val if key in ("lam", "scale") else poison(val)
                    for key, val in rec.items()} for rec in run_experiment(cfg).records]
        rep = _build_report(cfg, records)
        assert not rep.passed and rep.failures
        paths = save_report(rep, tmp_path, "bad")
        read = [json.loads(line) for line in paths["records"].read_text().splitlines()]
        rebuilt = _build_report(cfg, read)
        assert (rebuilt.passed, rebuilt.failures) == (rep.passed, rep.failures)
        assert rebuilt.summary_json().encode() == paths["summary"].read_bytes()

    @pytest.mark.parametrize("name, held", [("conservation", np.ndarray), ("flowmap", np.bool_)])
    def test_numpy_record_values_give_the_plain_report(self, name, held):
        def as_numpy(val):
            if isinstance(val, bool):
                return np.bool_(val)
            if isinstance(val, (int, float)):
                return np.array(val)[()]  # np.int64 or np.float64
            return np.array(val) if isinstance(val, list) else val

        rep = run_experiment(config_from_mapping(name, FAST[name]))
        records = [{key: as_numpy(val) for key, val in rec.items()} for rec in rep.records]
        kinds = {type(val) for rec in records for val in rec.values()}
        assert {held, np.int64, np.float64} <= kinds
        assert recompute_passed(dataclasses.replace(rep, records=records)) == (rep.passed,
                                                                               rep.failures)
        rebuilt = _build_report(config_from_mapping(name, rep.config), records)
        assert rebuilt.summary_json() == rep.summary_json()
        assert rebuilt.records_jsonl() == rep.records_jsonl()

    def test_numpy_config_value_gives_the_plain_report(self):
        plain = run_experiment(config_from_mapping("scaling", {}))
        rep = run_experiment(config_from_mapping("scaling", {"n": np.int64(128)}))
        assert type(rep.config["n"]) is np.int64
        assert (rep.passed, rep.failures) == (plain.passed, plain.failures)
        assert rep.summary_json() == plain.summary_json()
        assert rep.records_jsonl() == plain.records_jsonl()

    @pytest.mark.parametrize("name", sorted(FAST))
    def test_non_finite_gate_fails(self, name):
        """Every gate of every experiment fails on a NaN or infinite value."""
        cfg = config_from_mapping(name, FAST[name])
        fails, gates = _EXPERIMENTS[name].verdict(cfg, run_experiment(cfg).records)
        assert gates and not _judge(fails, gates, cfg)
        bound_keys = set()
        for i, gate in enumerate(gates):
            keys = (gate.bound if isinstance(gate.bound, tuple)
                    else [gate.bound] if gate.bound else [])
            # the rule table holds a bound finite and positive, a slope bound finite
            assert all(_RULES.get(key, _FINITE) is (_FINITE if key == "slope_max" else _POSITIVE)
                       for key in keys), gate
            bound_keys.update(keys)
            for bad in (float("nan"), float("inf"), float("-inf"), None):
                poisoned = gates[:i] + [gate._replace(value=bad)] + gates[i + 1:]
                assert _judge(fails, poisoned, cfg) == [f"non-finite {gate.name}"]
        # every threshold the experiment declares bounds a gate of its run
        assert bound_keys - {"slope_max"} == {key for n, key in GATES if n == name}

    @pytest.mark.parametrize("name, key, gate", [("simulate", "final_h1", "final H1"),
                                                 ("gauge-residual", "residual_h1",
                                                  "H1 residual")])
    @pytest.mark.parametrize("bad", [float("nan"), None])
    def test_unbounded_record_values_are_gated(self, name, key, gate, bad):
        """A value no bound reads still fails the verdict when it is not finite."""
        cfg = config_from_mapping(name, FAST[name])
        records = run_experiment(cfg).records
        records[-1] = dict(records[-1], **{key: bad})
        rebuilt = _build_report(cfg, records)
        assert not rebuilt.passed and rebuilt.failures == [f"non-finite {gate}"]

    def test_group_max_keeps_nan(self):
        records = [{"lam": 1.0, "ratio": r} for r in (1.0, float("nan"), 2.0)]
        ((lam, top),) = _max_by(records, "lam", "ratio")
        assert lam == 1.0 and np.isnan(top)

    def test_zero_data_conservation_is_degenerate_fail(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "[conservation]\n" + "".join(
            f"{key} = {val}\n" for key, val in FAST["conservation"].items()))
        code = main(["conservation", "--amplitude", "0", "--config", cfg,
                     "--out", str(tmp_path), "--stem", "c"])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out
        records = (tmp_path / "c.records.jsonl").read_text()
        assert '"degenerate":true' in records and "null" not in records

    def test_blow_up_is_a_failing_record(self, tmp_path, capsys):
        code = main(["conservation", "--amplitude", "20", "--dt", "1e-3",
                     "--t-final", "0.2", "--out", str(tmp_path), "--stem", "b"])
        out = capsys.readouterr()
        assert code == 1
        assert "[FAIL]" in out.out and "Traceback" not in out.err
        records = [json.loads(line) for line in
                   (tmp_path / "b.records.jsonl").read_text().splitlines()]
        assert all(r["blew_up"] and "last_good_time" in r for r in records)

    def test_simulate_blow_up_is_a_failing_record_without_checkpoint(self, tmp_path, capsys):
        code = main(["simulate", "--amplitude", "20", "--dt", "1e-3", "--t-final", "0.2",
                     "--out", str(tmp_path), "--stem", "b"])
        out = capsys.readouterr()
        assert code == 1
        assert "[FAIL]" in out.out and "blew up" in out.out and "Traceback" not in out.err
        (record,) = [json.loads(line) for line in
                     (tmp_path / "b.records.jsonl").read_text().splitlines()]
        assert record["blew_up"] and "final_h1" not in record
        assert record["last_good_time"] < 0.2
        assert not (tmp_path / "b.bosp").exists()

    def test_simulate_mean_is_gamma(self, tmp_path):
        from bosp import load_checkpoint

        code = main(["simulate", "--gamma", "0.5", "--out", str(tmp_path), "--stem", "g",
                     "--quiet"])
        assert code == 0
        traj = load_checkpoint(tmp_path / "g.bosp")
        assert np.all(traj.half_coeffs[:, 0] == 0.5)

    @pytest.mark.parametrize("name", ["scaling", "convergence"])
    def test_blow_up_caught(self, name):
        rep = run_experiment(config_from_mapping(name, {"dt": 2.0, "t_final": 40.0}))
        assert not rep.passed
        assert any(r.get("blew_up") for r in rep.records)
        assert recompute_passed(rep) == (rep.passed, rep.failures)

    def test_failing_threshold_flips_verdict(self):
        over = dict(FAST["bernstein"], stability_max=1.0)
        rep = run_experiment(config_from_mapping("bernstein", over))
        assert not rep.passed and rep.failures


class TestFlowmapConstruction:
    def test_degenerate_pairs_skipped(self):
        # the least positive float: every scaled direction underflows to a zero gap
        over = dict(FAST["flowmap"], perturbation=5e-324)
        rep = run_experiment(config_from_mapping("flowmap", over))
        assert all(r["degenerate"] for r in rep.records)
        assert not rep.passed  # zero usable pairs bound nothing
        assert rep.failures == ["no usable pair: every pair had a zero gap or blew up"]

    def test_means_pinned_to_gamma(self):
        over = dict(FAST["flowmap"], gamma=0.5)
        rep = run_experiment(config_from_mapping("flowmap", over))
        for rec in rep.records:
            if rec.get("degenerate"):
                continue
            assert abs(rec["mean1"] - 0.5) < 1e-13
            assert abs(rec["mean2"] - 0.5) < 1e-13

    def test_gap_sizes_as_configured(self):
        rep = run_experiment(config_from_mapping("flowmap", FAST["flowmap"]))
        gaps = sorted({round(r["gap_h1"], 12) for r in rep.records
                       if not r["degenerate"]})
        assert gaps == [1e-4, 1e-2]

    def test_blow_up_recorded_per_sample(self):
        over = dict(FAST["flowmap"], amplitude=80.0, dt=0.05, t_final=1.0,
                    sample_stride=1, n_samples=2)
        rep = run_experiment(config_from_mapping("flowmap", over))
        blown = [r for r in rep.records if r.get("blew_up")]
        assert blown, "expected at least one recorded blow-up"
        assert all("last_good_time" in r for r in blown)
        assert not rep.passed
        ok, fails = recompute_passed(rep)
        assert ok == rep.passed and fails == rep.failures


def _flowmap_unbatched(cfg, rng):
    """Flowmap records and summary from one ``solve`` call per field.

    The summary is computed here independently of the registry's
    ``summarize``, so the test compares two derivations of it.
    """
    grid = PeriodicGrid(cfg.lam, cfg.n)
    solver = cfg.solvers["run"]
    scales = [cfg.perturbation, cfg.perturbation / cfg.shrink_factor]
    records = []
    for i in range(cfg.n_samples):
        phi1 = random_field(grid, rng, n_modes=cfg.n_modes, decay=cfg.decay,
                            amplitude=cfg.amplitude, normalize="h1", mean=cfg.gamma)
        direction = random_field(grid, rng, n_modes=cfg.n_modes, decay=cfg.decay,
                                 amplitude=1.0, normalize="h1")
        base = {"sample_index": i, "inputs_hash": _hash_field(phi1)}
        try:
            traj1 = solve(phi1, solver)
        except BlowUpError as exc:
            records += [dict(base, scale=scale, degenerate=False, blew_up=True,
                             last_good_time=exc.last_good_time) for scale in scales]
            continue
        for scale in scales:
            rec = dict(base, scale=scale, blew_up=False, degenerate=False)
            phi2 = phi1 + scale * direction
            gap = norm(scale * direction, "hs", s=1.0)
            if gap == 0.0:
                records.append(dict(rec, degenerate=True))
                continue
            try:
                traj2 = solve(phi2, solver)
            except BlowUpError as exc:
                records.append(dict(rec, blew_up=True, last_good_time=exc.last_good_time))
                continue
            dists = [norm(a - b, "hs", s=1.0) for a, b in zip(traj1, traj2)]
            records.append(dict(rec, mean1=phi1.coeffs[0].real, mean2=phi2.coeffs[0].real,
                                gap_h1=gap, ratio=max(dists) / gap))
    usable = [r for r in records if not r["degenerate"] and not r["blew_up"]]
    per_scale = {}
    for r in usable:
        per_scale[r["scale"]] = max(per_scale.get(r["scale"], 0.0), r["ratio"])
    series = {"perturbation_vs_max_ratio": sorted(per_scale.items())} if usable else {}
    return records, {"usable_pairs": len(usable) // 2, "series": series}


def _estimate_monitor_unbatched(cfg, rng):
    """Estimate-monitor records from one ``solve`` call per field."""
    grid = PeriodicGrid(cfg.lam, cfg.n)
    records = []
    for i in range(cfg.n_samples):
        v0 = random_field(grid, rng, n_modes=cfg.n_modes, decay=cfg.decay,
                          amplitude=cfg.amplitude, normalize="h1")
        rec = {"sample_index": i, "inputs_hash": _hash_field(v0)}
        try:
            vtraj = solve(v0, cfg.solvers["run"])
        except BlowUpError as exc:
            records.append(dict(rec, blew_up=True, last_good_time=exc.last_good_time))
            continue
        wfields = [build_gauge(f, "gbo", cfg.k).w for f in vtraj]
        w_x1, v_x1 = xnorm_series_per_field(vtraj.times, wfields, 1), xnorm(vtraj, 1)
        w0_h1 = norm(wfields[0], "hs", s=1.0)
        k = cfg.k
        denom = w0_h1 + cfg.t_final ** 0.25 * (
            v_x1 ** (k + 1) + v_x1 ** (2 * k + 1) + v_x1 ** (3 * k + 1))
        records.append(dict(rec, w_x1=w_x1, v_x1=v_x1, w0_h1=w0_h1, ratio=w_x1 / denom))
    return records, {"series": {}}


# Over-amplified, coarse-step ensembles in which some rows blow up.  In the
# flowmap one, pair 0's phi1 blows up at t = 0.8, its larger-gap phi2
# earlier (t = 0.4) and its smaller-gap phi2 not at all; pair 1 survives.
BLOWING = {
    "flowmap": dict(n_samples=4, amplitude=2.5, perturbation=2.5, shrink_factor=2.0,
                    dt=0.05, t_final=1.0, sample_stride=1),
    "estimate-monitor": dict(n_samples=4, amplitude=1.5, dt=0.05, t_final=1.0,
                             sample_stride=1),
}


class _CountingGenerator:
    """A seeded generator that records the size of each ``standard_normal`` call."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.sizes = []

    def standard_normal(self, size):
        self.sizes.append(size)
        return self._rng.standard_normal(size)


class TestBatchedEnsembles:
    """The batched flowmap and estimate-monitor match per-field solves exactly."""

    RUNS = {"flowmap": (_run_flowmap, _flowmap_unbatched),
            "estimate-monitor": (_run_estimate_monitor, _estimate_monitor_unbatched)}

    @pytest.mark.parametrize("name", sorted(RUNS))
    @pytest.mark.parametrize("overrides", ["fast", "blowing"])
    def test_records_match_unbatched_loop(self, name, overrides):
        cfg = config_from_mapping(name, (FAST if overrides == "fast" else BLOWING)[name])
        batched, unbatched = self.RUNS[name]
        records, _ = batched(cfg, np.random.default_rng(cfg.seed))
        want_records, want_summary = unbatched(cfg, np.random.default_rng(cfg.seed))
        assert records == want_records
        assert _EXPERIMENTS[name].summarize(records) == want_summary
        blown = [r for r in records if r.get("blew_up")]
        assert bool(blown) == (overrides == "blowing")
        assert len(blown) < len(records)

    def test_strichartz_scan_makes_one_stacked_call_per_circle(self, monkeypatch):
        from bosp import lingroup

        stacks, singles, stacked = [], [], experiments.strichartz_norms
        monkeypatch.setattr(experiments, "strichartz_norms",
                            lambda fields, *a, **kw: stacks.append(len(fields))
                            or stacked(fields, *a, **kw))
        monkeypatch.setattr(lingroup, "strichartz_norm", lambda *a, **kw: singles.append(a))
        cfg = default_config("strichartz-scan")
        rep = run_experiment(cfg)
        assert stacks == [cfg.n_samples] * len(cfg.lambdas)
        assert singles == [] and not hasattr(experiments, "strichartz_norm")
        assert rep.passed and len(rep.records) == cfg.n_samples * len(cfg.lambdas)

    @pytest.mark.parametrize("name", sorted(TestDeterminismAndVerdicts.PINNED_HASHES))
    def test_one_generator_call_per_ensemble(self, name, monkeypatch):
        from bosp import ensembles

        monkeypatch.setattr(ensembles, "random_field",
                            lambda *a, **kw: pytest.fail("per-field random_field call"))
        cfg = config_from_mapping(name, FAST[name])
        rng = _CountingGenerator(cfg.seed)
        records, _ = _EXPERIMENTS[name].run(cfg, rng)
        # one ensemble per circle size where the experiment scans several
        n_ensembles = len(cfg.lambdas) if "lambdas" in cfg.as_dict() else 1
        assert [size[0] for size in rng.sizes] == [cfg.n_samples] * n_ensembles
        assert records and not hasattr(experiments, "random_field")

    def test_strichartz_scan_matches_per_field_reference(self):
        cfg = config_from_mapping("strichartz-scan", FAST["strichartz-scan"])
        records, _ = experiments._run_strichartz(cfg, np.random.default_rng(cfg.seed))
        rng = np.random.default_rng(cfg.seed)
        want = []
        for lam in cfg.lambdas:
            for i in range(cfg.n_samples):
                phi = random_field(PeriodicGrid(lam, cfg.n), rng, n_modes=cfg.n_modes,
                                   decay=cfg.decay, amplitude=1.0, normalize="l2")
                want.append((lam, i, _hash_field(phi),
                             strichartz_norm_reference(phi, cfg.horizon)))
        assert [(r["lam"], r["sample_index"], r["inputs_hash"]) for r in records] == \
            [w[:3] for w in want]
        assert [r["ratio"] for r in records] == pytest.approx([w[3] for w in want], rel=1e-14)

    def test_estimate_monitor_builds_one_gauge_frame_per_trajectory(self, monkeypatch):
        from bosp import gauge

        built, frame = [], gauge._Frame
        monkeypatch.setattr(gauge, "_Frame", lambda *args: built.append(args) or frame(*args))
        cfg = default_config("estimate-monitor")
        records, _ = _run_estimate_monitor(cfg, np.random.default_rng(cfg.seed))
        # 11 snapshots of 4n = 512 padded points fit one stack
        assert [len(args[0]) for args in built] == [11] * cfg.n_samples
        assert not any(r.get("blew_up") for r in records)

    def test_no_snapshot_is_expanded(self, monkeypatch):
        from bosp import Trajectory

        expanded, getitem = [], Trajectory.__getitem__
        monkeypatch.setattr(Trajectory, "__getitem__",
                            lambda traj, i: expanded.append(i) or getitem(traj, i))
        for name, run in (("flowmap", _run_flowmap),
                          ("estimate-monitor", _run_estimate_monitor)):
            cfg = config_from_mapping(name, FAST[name])
            records, _ = run(cfg, np.random.default_rng(cfg.seed))
            assert records and not any(r.get("blew_up") for r in records)
        assert expanded == []

    def test_blown_phi1_keeps_its_own_record(self):
        cfg = config_from_mapping("flowmap", BLOWING["flowmap"])
        records, _ = _run_flowmap(cfg, np.random.default_rng(cfg.seed))
        pair0 = [r for r in records if r["sample_index"] == 0]
        assert [(r["blew_up"], r["last_good_time"]) for r in pair0] == [(True, 0.8)] * 2
        assert not any(r["blew_up"] for r in records if r["sample_index"] == 1)

    def test_blow_up_failure_counts_samples_not_pairs(self):
        rep = run_experiment(config_from_mapping("flowmap", BLOWING["flowmap"]))
        blown = [r["sample_index"] for r in rep.records if r["blew_up"]]
        assert len(blown) == 6 and sorted(set(blown)) == [0, 2, 3]
        assert rep.failures[0] == "3 samples blew up"

    def test_blown_phi2_keeps_phi1_and_the_other_pairs(self, monkeypatch):
        cfg = config_from_mapping("flowmap", FAST["flowmap"])
        clean = run_experiment(cfg)
        stacked = experiments.solve_batch

        def blow_second_phi2(u0s, solver):
            # rows: every phi1, then the phi2 of each pair in (sample, scale) order
            runs = stacked(u0s, solver)
            runs[cfg.n_samples + 1] = BlowUpError(0.3)
            return runs

        monkeypatch.setattr(experiments, "solve_batch", blow_second_phi2)
        rep = run_experiment(cfg)
        (blown,) = [r for r in rep.records if r["blew_up"]]
        assert (blown["sample_index"], blown["scale"]) == (0, cfg.perturbation / cfg.shrink_factor)
        assert blown["last_good_time"] == 0.3 and blown["degenerate"] is False
        assert "ratio" not in blown
        assert rep.failures == ["1 samples blew up"]
        assert [r for r in rep.records if r is not blown] == \
            [r for r in clean.records if r["sample_index"] != 0 or r["scale"] != blown["scale"]]

    def test_estimate_monitor_blow_up_fails_with_its_count(self):
        rep = run_experiment(config_from_mapping("estimate-monitor",
                                                 BLOWING["estimate-monitor"]))
        blown = [r for r in rep.records if r.get("blew_up")]
        assert blown and not rep.passed
        assert rep.failures[0] == f"{len(blown)} samples blew up"


class TestCli:
    def test_pass_exit_code_and_files(self, tmp_path, capsys):
        code = main(["bernstein", "--n-samples", "3", "--out", str(tmp_path),
                     "--stem", "run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] bernstein" in out
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["passed"] is True
        assert (tmp_path / "run.records.jsonl").exists()
        assert (tmp_path / "run.lambda_vs_max_ratio.dat").exists()

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        code = main(["bernstein", "--n-samples", "2", "--out", str(tmp_path),
                     "--stem", "q", "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_fail_exit_code(self, tmp_path, capsys):
        code = main(["flowmap", "--n-samples", "2", "--out", str(tmp_path),
                     "--stem", "f", "--config", _write_cfg(
                         tmp_path, "[flowmap]\nratio_bound = 1e-9\n")])
        assert code == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = _write_cfg(tmp_path, "[flowmap]\nwarp = 9\n")
        code = main(["flowmap", "--config", bad, "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_degenerate_draw_exit_code(self, tmp_path, capsys):
        # the envelope underflows to 0, so no field can be normalized
        code = main(["gauge-residual", "--decay", "1e-200", "--out", str(tmp_path)])
        assert code == 2
        assert "degenerate draw" in capsys.readouterr().err

    def test_zero_estimate_monitor_data_is_a_named_failure(self, tmp_path, capsys):
        code = main(["estimate-monitor", "--amplitude", "0", "--n-samples", "2",
                     "--out", str(tmp_path), "--stem", "z"])
        assert code == 1
        out, err = capsys.readouterr()
        assert "2 samples have zero initial data, ratio undefined" in out
        assert err == ""
        records = [json.loads(line)
                   for line in (tmp_path / "z.records.jsonl").read_text().splitlines()]
        assert [(r["degenerate"], "ratio" in r) for r in records] == [(True, False)] * 2

    @pytest.mark.parametrize("where", ["out", "stem"])
    def test_bad_output_path_is_usage_error_before_running(self, tmp_path, capsys,
                                                           monkeypatch, where):
        # both once ended in a traceback (exit 1) after the whole experiment had run
        from bosp import cli

        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg: pytest.fail("the experiment ran"))
        (tmp_path / "file").write_text("")
        args = (["--out", str(tmp_path / "file" / "x")] if where == "out"
                else ["--out", str(tmp_path / "o"), "--stem", "sub/dir/x"])
        assert main(["scaling", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_write_failure_is_usage_error(self, tmp_path, capsys, monkeypatch):
        from bosp import cli

        def refuse(*args):
            raise PermissionError("read-only report directory")

        monkeypatch.setattr(cli, "save_report", refuse)
        assert main(["scaling", "--out", str(tmp_path), "--quiet"]) == 2
        assert capsys.readouterr().err == "error: read-only report directory\n"

    @pytest.mark.parametrize("where, exc", [("save_report", ValueError("NaN in a strict field")),
                                            ("run_experiment", OSError("scratch disk full"))])
    def test_error_while_running_or_writing_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                            where, exc):
        # these once ended in a traceback and exit 1
        from bosp import cli

        def refuse(*args):
            raise exc

        monkeypatch.setattr(cli, where, refuse)
        assert main(["scaling", "--out", str(tmp_path), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {exc}\n"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-experiment"])
        assert exc.value.code == 2

    def test_simulate_writes_checkpoint(self, tmp_path):
        # the read-back contract: snapshot count, byte-identical re-save, exact size
        code = main(["simulate", "--dt", "1e-3", "--t-final", "0.05", "--sample-stride", "10",
                     "--n", "64", "--out", str(tmp_path), "--stem", "sim", "--quiet"])
        assert code == 0
        from bosp import Trajectory, load_checkpoint, save_checkpoint

        ckpt, resaved = tmp_path / "sim.bosp", tmp_path / "resaved.bosp"
        traj = load_checkpoint(ckpt)
        assert isinstance(traj, Trajectory)
        assert len(traj) == 6 and traj.grid.n == 64
        save_checkpoint(traj, resaved)
        assert resaved.read_bytes() == ckpt.read_bytes()
        header = struct.calcsize("<4sIdIIB")
        assert ckpt.stat().st_size == header + 4 + 6 * (24 + 8 * 64)

    def test_cli_overrides_reach_config(self, tmp_path):
        code = main(["gauge-residual", "--n-samples", "2", "--shrink-samples", "2",
                     "--n", "128", "--seed", "5", "--out", str(tmp_path), "--stem", "g",
                     "--quiet"])
        assert code == 0
        summary = json.loads((tmp_path / "g.summary.json").read_text())
        assert summary["config"]["n"] == 128
        assert summary["config"]["seed"] == 5
        assert summary["config"]["n_samples"] == 2

    def test_cli_scheme_and_dealias_spellings(self, tmp_path):
        code = main(["simulate", "--dt", "1e-3", "--t-final", "0.05",
                     "--scheme", "etd_rk4", "--dealias", "two_thirds",
                     "--out", str(tmp_path), "--stem", "s", "--quiet"])
        assert code == 0
        summary = json.loads((tmp_path / "s.summary.json").read_text())
        assert summary["config"]["scheme"] == "etd_rk4"
        assert summary["config"]["dealias"] == "two_thirds"

    @pytest.mark.parametrize("flag, value", [("--scheme", "ifrk4"), ("--scheme", "rk45"),
                                             ("--dealias", "two-thirds"),
                                             ("--dealias", "pad3")])
    def test_unknown_scheme_or_dealias_is_usage_error(self, tmp_path, capsys, flag, value):
        code = main(["simulate", flag, value, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{value!r}" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_one_flag_per_config_key(self):
        (subparsers,) = [a for a in build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)]
        fixed = {"--config", "--out", "--quiet", "--stem", "-h", "--help"}
        for name in EXPERIMENT_NAMES:
            flags = [a for a in subparsers.choices[name]._actions
                     if not fixed & set(a.option_strings)]
            keys = KEYS_READ[name] | {"seed"}
            assert sorted(a.dest for a in flags) == sorted(keys), name
            for a in flags:
                assert a.option_strings == [f"--{a.dest.replace('_', '-')}"]
                assert a.type is None and a.choices is None and a.default is None

    @pytest.mark.parametrize("name", sorted(FAST))
    def test_flag_and_config_file_give_the_same_report(self, tmp_path, name):
        """Every key set through its flag or through a config file, alike."""
        values = default_config(name).as_dict()
        values.update(FAST[name])
        del values["name"]
        spelled = {key: ",".join(map(str, val)) if isinstance(val, (list, tuple))
                   else str(val) for key, val in values.items()}
        flags = [arg for key, val in spelled.items()
                 for arg in (f"--{key.replace('_', '-')}", val)]
        cfg = _write_cfg(tmp_path, f"[{name}]\n" + "".join(
            f"{key} = {val}\n" for key, val in spelled.items()))
        main([name, *flags, "--out", str(tmp_path), "--stem", "flags", "--quiet"])
        main([name, "--config", cfg, "--out", str(tmp_path), "--stem", "file", "--quiet"])
        by_flags = (tmp_path / "flags.summary.json").read_bytes()
        assert by_flags == (tmp_path / "file.summary.json").read_bytes()
        assert json.loads(by_flags)["config"] == config_from_mapping(name, values).as_dict()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[bernstein]\nn_samples = 3\nlambdas = 1 4\n")
        main(["bernstein", "--config", cfg, "--lambdas", "1,2", "--out", str(tmp_path),
              "--stem", "b", "--quiet"])
        config = json.loads((tmp_path / "b.summary.json").read_text())["config"]
        assert config["n_samples"] == 3 and config["lambdas"] == [1.0, 2.0]

    def test_abbreviated_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["strichartz-scan", "--lambda", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lambda 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unparsable_flag_value_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--n", "abc", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: bad value for 'n': 'abc'" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("equation", ["linear", "bo2"])
    def test_k_for_equation_without_k_is_usage_error(self, tmp_path, capsys, equation):
        code = main(["simulate", "--equation", equation, "--k", "3", "--dt", "1e-3",
                     "--t-final", "0.05", "--out", str(tmp_path), "--stem", "s"])
        assert code == 2
        assert "k applies" in capsys.readouterr().err
        assert not (tmp_path / "s.bosp").exists()

    def test_gauge_residual_at_round_off_resolution_passes(self, tmp_path):
        # at n = 1024 the coarse n = 512 residual is already at round-off
        code = main(["gauge-residual", "--n", "1024", "--n-samples", "5", "--seed", "0",
                     "--out", str(tmp_path), "--stem", "g", "--quiet"])
        assert code == 0

    def test_doubling_check_applies_above_tolerance(self):
        cfg = default_config("gauge-residual")
        fails = _judge(*_EXPERIMENTS["gauge-residual"].verdict(cfg, [
            {"residual_l2": 1e-7, "residual_l2_half": 1e-6}]), cfg)
        assert "doubling n only shrank the residual 10.0x (< 100x)" in fails

    def test_default_run_exercises_doubling_check(self):
        cfg = default_config("gauge-residual")
        rep = run_experiment(cfg)
        coarse = [r["residual_l2_half"] for r in rep.records if "residual_l2_half" in r]
        assert max(coarse) > cfg.residual_tol
        assert rep.passed, rep.failures

    def test_zero_data_residual_fails(self):
        rep = run_experiment(config_from_mapping(
            "gauge-residual", {"amplitude": 0.0, "n_samples": 2, "shrink_samples": 2}))
        assert not rep.passed
        assert any("exactly 0" in f for f in rep.failures)

    def test_bo_variant_residual_experiment(self):
        rep = run_experiment(config_from_mapping(
            "gauge-residual", {"variant": "bo", "n_samples": 3,
                               "shrink_samples": 1}))
        assert rep.passed
        assert max(r["residual_l2"] for r in rep.records) < 1e-9


def _write_cfg(tmp_path, text):
    path = tmp_path / "cli.cfg"
    path.write_text(text)
    return str(path)
