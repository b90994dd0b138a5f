"""Acceptance suite: every shipped guarantee, at its pinned tolerance.

Each criterion prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see
the table even when everything passes).  The heavyweight checks run through
the experiment layer with its default configs, so they exercise the same
code paths as the command line.
"""

import numpy as np

from bosp import (
    PeriodicGrid,
    SolverConfig,
    SpectralField,
    analyze,
    antiderivative,
    build_gauge,
    config_from_mapping,
    default_config,
    differentiate,
    gauge_lipschitz_gap,
    hilbert,
    load_checkpoint,
    mean_remove,
    multiply,
    norm,
    project,
    propagate,
    random_field,
    reconstruct_u,
    recompute_passed,
    run_experiment,
    save_checkpoint,
    save_report,
    solve,
    strichartz_norm,
    synthesize,
)


def _criterion(num, name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d} ({name}): {detail}"
    print(line)
    assert passed, line


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def test_criterion_01_operator_calculus():
    grid = PeriodicGrid(1.0, 64)
    cos = SpectralField.from_function(grid, np.cos)
    sin = SpectralField.from_function(grid, np.sin)
    unit = SpectralField.from_function(grid, lambda x: np.exp(1j * x))
    checks = []

    # transforms
    f = analyze(np.exp(1j * grid.x), grid)
    checks.append(abs(f.coeffs[1] - 1.0) < 1e-12 and
                  np.max(np.abs(np.delete(f.coeffs, 1))) < 1e-12)
    g = analyze(np.full(grid.n, 3.0), grid)
    checks.append(abs(g.coeffs[0] - 3.0) < 1e-12)

    # hilbert transform
    checks.append(np.max(np.abs(hilbert(cos).coeffs - sin.coeffs)) < 1e-12)
    checks.append(np.max(np.abs(hilbert(g).coeffs)) < 1e-12)
    two_plus_cos = SpectralField.from_function(grid, lambda x: 2 + np.cos(x))
    checks.append(np.max(np.abs(hilbert(hilbert(two_plus_cos)).coeffs
                                + cos.coeffs)) < 1e-12)

    # projections
    pc = project(cos, "plus")
    checks.append(abs(pc.coeffs[1] - 0.5) < 1e-12)
    checks.append(abs(project(multiply(cos, cos), "zero").coeffs[0] - 0.5) < 1e-12)
    mix = SpectralField.from_function(
        grid, lambda x: np.exp(-2j * x) + 5.0 + np.exp(3j * x))
    total = project(mix, "plus") + project(mix, "minus") + project(mix, "zero")
    checks.append(np.array_equal(total.coeffs, mix.coeffs))

    # derivative multipliers
    checks.append(np.max(np.abs(differentiate(unit, "abs_d", 0.5).coeffs
                                - unit.coeffs)) < 1e-12)
    two_mode = SpectralField.from_function(grid, lambda x: np.exp(2j * x))
    checks.append(abs(differentiate(two_mode, "abs_d", 0.5).coeffs[2]
                      - np.sqrt(2)) < 1e-12)
    checks.append(np.max(np.abs(differentiate(sin, "d_dx", 1).coeffs
                                - cos.coeffs)) < 1e-12)

    # antiderivative and mean split
    checks.append(np.max(np.abs(antiderivative(cos).coeffs - sin.coeffs)) < 1e-12)
    try:
        antiderivative(g)
        checks.append(False)
    except ValueError:
        checks.append(True)
    mean, rest = mean_remove(two_plus_cos)
    checks.append(_close(mean, 2.0) and
                  np.max(np.abs(rest.coeffs - cos.coeffs)) < 1e-12)
    _, m2 = mean_remove(multiply(cos, cos))
    half_cos2 = SpectralField.from_function(grid, lambda x: 0.5 * np.cos(2 * x))
    checks.append(np.max(np.abs(m2.coeffs - half_cos2.coeffs)) < 1e-12)

    # norms
    checks.append(_close(norm(unit, "hs", s=1.0), np.sqrt(2)))
    checks.append(_close(norm(cos, "lp", p=2), np.sqrt(np.pi)))
    checks.append(_close(norm(cos, "lp", p=4), (3 * np.pi / 4) ** 0.25))

    # free group closed forms
    ones = SpectralField.from_function(grid, lambda x: np.ones_like(x))
    checks.append(np.max(np.abs(propagate(ones, 2.7).coeffs - ones.coeffs)) < 1e-12)
    shifted = SpectralField.from_function(grid, lambda x: np.exp(1j * (x - 0.7)))
    checks.append(np.max(np.abs(propagate(unit, 0.7).coeffs
                                - shifted.coeffs)) < 1e-12)
    checks.append(_close(strichartz_norm(ones, 1.0), (2 * np.pi) ** 0.25))
    checks.append(_close(strichartz_norm(unit, 1.0), (2 * np.pi) ** 0.25))

    # 100-sample property suites
    rng = np.random.default_rng(2024)
    parseval = partition = group = unitary = True
    for _ in range(100):
        u = random_field(grid, rng, n_modes=24, mean=rng.standard_normal())
        quad = norm(u, "lp", p=2) ** 2
        coef = grid.circumference * np.sum(np.abs(u.coeffs) ** 2)
        parseval &= abs(quad - coef) <= 1e-12 * coef
        back = project(u, "plus") + project(u, "minus") + project(u, "zero")
        partition &= np.array_equal(back.coeffs, u.coeffs)
        s, t = rng.uniform(-5, 5, size=2)
        d = np.max(np.abs(propagate(propagate(u, t), s).coeffs
                          - propagate(u, s + t).coeffs))
        group &= d < 1e-13
        unitary &= abs(norm(propagate(u, t), "lp", p=2) - norm(u, "lp", p=2)) \
            <= 1e-13 * norm(u, "lp", p=2)
    checks += [parseval, partition, group, unitary]

    failed = [i for i, ok in enumerate(checks) if not ok]
    _criterion(1, "operator calculus exactness", not failed,
               f"{len(checks)} closed-form and property checks"
               + (f"; failing indices {failed}" if failed else ""))


def test_criterion_02_gauge_identity():
    details = []
    all_ok = True
    for k in (1, 2, 3, 4):
        cfg = config_from_mapping("gauge-residual", {"k": k})
        rep = run_experiment(cfg)
        worst = max(r["residual_l2"] for r in rep.records)
        halves = [r for r in rep.records if "residual_l2_half" in r]
        shrink = max(r["residual_l2_half"] for r in halves) / max(
            max(r["residual_l2"] for r in halves), 1e-300)
        details.append(f"k={k}: max {worst:.1e}, doubling gain {shrink:.0e}")
        all_ok &= rep.passed
    _criterion(2, "gauge identity residual", all_ok, "; ".join(details))


def test_criterion_03_conservation():
    rep = run_experiment(default_config("conservation"))
    ref = next(r for r in rep.records if r["run"] == "reference")
    detail = (
        f"I {ref['drift_I']:.1e}, M {ref['drift_M']:.1e}, "
        f"F {ref['drift_F']:.1e}, opposite-sign F {ref['drift_F_opposite']:.1e}; "
        + ", ".join(
            f"E(k={r['run'][-1]}) {r['drift_E']:.1e}"
            for r in rep.records if r["run"].startswith("energy"))
    )
    _criterion(3, "conservation and sign separation", rep.passed, detail)


def test_criterion_04_solver_order():
    rep = run_experiment(default_config("convergence"))
    detail = ", ".join(f"{r['fixture']}: order {r['order']:.2f}"
                       for r in rep.records)
    _criterion(4, "solver order", rep.passed, detail)


def test_criterion_05_strichartz_uniformity():
    rep = run_experiment(default_config("strichartz-scan"))
    per_lam = rep.summary["series"]["lambda_vs_max_ratio"]
    maxes = [m for _, m in per_lam]
    variation = max(maxes) / min(maxes)
    slope = np.polyfit(np.log([l for l, _ in per_lam]), np.log(maxes), 1)[0]
    _criterion(5, "strichartz lambda uniformity", rep.passed,
               f"variation {variation:.2f}x, log-log slope {slope:+.3f}")


def test_criterion_06_gauge_lipschitz():
    rng = np.random.default_rng(99)
    maxima = {}
    finite = True
    for lam in (1.0, 4.0, 16.0):
        grid = PeriodicGrid(lam, 128)
        worst = 0.0
        for _ in range(100):
            p1 = random_field(grid, rng, n_modes=16, amplitude=0.25, normalize="l2")
            p2 = random_field(grid, rng, n_modes=16, amplitude=0.25, normalize="l2")
            out = gauge_lipschitz_gap(p1, p2, "bo")
            finite &= np.isfinite(out.bound_ratio)
            worst = max(worst, out.bound_ratio)
        maxima[lam] = worst
    spread = max(maxima.values()) / min(maxima.values())
    ok = finite and spread < 3.0
    _criterion(6, "gauge transform lipschitz bound", ok,
               f"per-lambda maxima { {l: round(v, 3) for l, v in maxima.items()} }, "
               f"spread {spread:.2f}x")


def test_criterion_07_scaling_commutation():
    bo = run_experiment(config_from_mapping(
        "scaling", {"variant": "bo", "scaling_tol": 1e-8}))
    gbo = run_experiment(config_from_mapping(
        "scaling", {"variant": "gbo", "k": 2, "scaling_tol": 1e-7}))
    detail = (f"bo discrepancy {bo.records[0]['h1_discrepancy']:.1e}, "
              f"gbo(k=2) {gbo.records[0]['h1_discrepancy']:.1e}")
    _criterion(7, "dilation commutes with the flow", bo.passed and gbo.passed,
               detail)


def test_criterion_08_flowmap_lipschitz():
    details = []
    ok = True
    for gamma in (0.0, 0.5):
        rep = run_experiment(config_from_mapping("flowmap", {"gamma": gamma}))
        usable = [r for r in rep.records if not r["degenerate"]]
        worst = max(r["ratio"] for r in usable)
        per_scale = {}
        for r in usable:
            per_scale[r["scale"]] = max(per_scale.get(r["scale"], 0.0), r["ratio"])
        vals = sorted(per_scale.values())
        details.append(f"gamma={gamma}: max ratio {worst:.2f}, "
                       f"scale change {vals[-1] / vals[0]:.2f}x")
        ok &= rep.passed
    _criterion(8, "flow map lipschitz on fixed-mean data", ok, "; ".join(details))


def test_criterion_09_reconstruction_and_zero_mean():
    rng = np.random.default_rng(7)
    grid = PeriodicGrid(1.0, 256)
    worst_rec = worst_mean = 0.0
    for _ in range(50):
        v = random_field(grid, rng, n_modes=32, amplitude=1.0, normalize="l2")
        st = build_gauge(v, "bo")
        worst_rec = max(worst_rec, norm(reconstruct_u(st, v) - v, "lp", p=2))
        vals = np.exp(-1j * synthesize(st.F, 4)) * synthesize(v, 4)
        worst_mean = max(worst_mean, abs(np.mean(vals)))
    ok = worst_rec < 1e-11 and worst_mean < 1e-11
    _criterion(9, "reconstruction and zero-mean identities", ok,
               f"worst reconstruction {worst_rec:.1e}, worst mean {worst_mean:.1e}")


def test_criterion_10_determinism_and_persistence(tmp_path):
    cfg = config_from_mapping("gauge-residual", {"n_samples": 5, "k": 2})
    r1, r2 = run_experiment(cfg), run_experiment(cfg)
    p1 = save_report(r1, tmp_path / "a", "run")
    p2 = save_report(r2, tmp_path / "b", "run")
    bytes_equal = (p1["summary"].read_bytes() == p2["summary"].read_bytes()
                   and p1["records"].read_bytes() == p2["records"].read_bytes())
    ok1, fails1 = recompute_passed(r1)
    verdict_ok = ok1 == r1.passed and fails1 == r1.failures

    grid = PeriodicGrid(2.0, 64)
    rng = np.random.default_rng(3)
    field = random_field(grid, rng, n_modes=20, mean=0.4)
    f1, f2 = tmp_path / "f1.bosp", tmp_path / "f2.bosp"
    save_checkpoint(field, f1)
    save_checkpoint(load_checkpoint(f1), f2)
    field_trip = f1.read_bytes() == f2.read_bytes()

    u0 = random_field(grid, rng, n_modes=8, amplitude=0.1, normalize="h1")
    traj = solve(u0, SolverConfig("gbo", k=2, dt=0.01, t_final=0.1,
                                  sample_stride=2))
    t1, t2 = tmp_path / "t1.bosp", tmp_path / "t2.bosp"
    save_checkpoint(traj, t1)
    save_checkpoint(load_checkpoint(t1), t2)
    traj_trip = t1.read_bytes() == t2.read_bytes()

    ok = bytes_equal and verdict_ok and field_trip and traj_trip
    _criterion(10, "determinism and persistence", ok,
               f"report bytes identical: {bytes_equal}, verdict recomputable: "
               f"{verdict_ok}, checkpoint round trips byte-identical: "
               f"{field_trip and traj_trip}")
