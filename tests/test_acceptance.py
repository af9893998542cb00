"""Acceptance gate: twelve checks covering weights, connectivity, contraction,
the dual update, the one-point estimator, smoothing, containment, the
centralized reduction, rate trends, the data pipeline, the comparator, and
byte-level determinism.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion. Tolerances and runtime budgets are pinned in the assertions.
"""

import math
import time
from importlib import resources

import numpy as np
import pytest

from netoco.algorithm import _lockstep, make_schedule
from netoco.bench import list_presets, preset_config, run_suite
from netoco.cli import main
from netoco.metrics import bound_constants
from netoco.network import Graph, TopologySchedule, default_ring_6, verify_window_connectivity
from netoco.problems import (
    BoxConstraintSet,
    RegressionRound,
    parse_libsvm,
    serialize_libsvm,
    synthetic_stream,
)
from netoco.reference import (
    box_constraints,
    clipped_subgradient,
    initial_state,
    offline_comparator,
    one_point_estimator,
    product_deviation,
    project_ball,
    regression_loss,
    run_round,
    sample_unit_sphere,
)


def report(number: int, ok: bool, detail: str):
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def best_of(repeats: int, fn) -> float:
    """Shortest wall-clock time of `repeats` runs of fn, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_weight_validity():
    """Each matching's weights are 1/2 on its edges and the diagonal, and zero elsewhere."""

    def check():
        schedule = default_ring_6()
        for graph, weights in zip(schedule.graphs, schedule.weights, strict=True):
            expected = np.eye(6)
            for u, v in graph.edges:
                expected[u - 1, v - 1] = expected[v - 1, u - 1] = 1.0
            assert np.array_equal(weights, 0.5 * expected)
        assert schedule.zeta == 0.5  # exact, not approximate
        return schedule

    schedule = check()  # warm
    elapsed = best_of(5, check)
    sums_off = max(
        max(
            float(np.abs(w.sum(axis=0) - 1.0).max()),
            float(np.abs(w.sum(axis=1) - 1.0).max()),
        )
        for w in schedule.weights
    )
    ok = schedule.zeta == 0.5 and sums_off <= 1e-12 and elapsed < 1e-3
    report(
        1,
        ok,
        f"zeta = {schedule.zeta}, row/col sums off by {sums_off:.2e} (<= 1e-12), "
        f"built and checked in {elapsed * 1e6:.0f} us (< 1 ms)",
    )


def test_criterion_02_window_connectivity():
    full = default_ring_6()
    h1 = Graph(6, ((1, 2), (3, 4), (5, 6)))
    only_h1 = TopologySchedule((h1,), window=2)

    def check():
        assert verify_window_connectivity(full)
        assert not verify_window_connectivity(only_h1)

    check()  # warm
    elapsed = best_of(5, check)
    ok = (
        verify_window_connectivity(full)
        and not verify_window_connectivity(only_h1)
        and elapsed < 1e-3
    )
    report(
        2,
        ok,
        f"window-2 union connected, single-matching schedule rejected, "
        f"checked in {elapsed * 1e6:.0f} us (< 1 ms)",
    )


def test_criterion_03_contraction_bound():
    schedule = default_ring_6()
    n = schedule.node_count
    psi = 1.0 - schedule.zeta / (4.0 * n * n)
    start = time.perf_counter()
    worst_margin = math.inf
    for m in range(1, schedule.period + 1):  # all phase offsets
        for gap in range(0, 51):
            deviation = product_deviation(schedule, m + gap, m)
            bound = psi ** (gap / schedule.window - 2.0)
            worst_margin = min(worst_margin, bound - deviation)
    elapsed = time.perf_counter() - start
    ok = worst_margin >= -1e-12 and elapsed < 1.0
    report(
        3,
        ok,
        f"deviation <= psi^(gap/B - 2) for all gaps <= 50 "
        f"(tightest slack {worst_margin:.3e}), {elapsed:.3f} s (< 1 s)",
    )


def test_criterion_04_dual_update_vs_grid():
    """The dual reset must match a brute-force grid argmax of
    lambda -> sum_s lambda_s v_s - (eta/2) ||lambda||^2 with v = positive parts.
    The objective is separable, so the joint argmax factors per coordinate."""
    from netoco.reference import dual_update

    box = BoxConstraintSet(-0.15, 0.15, 3)
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, 3)
        eta = float(rng.uniform(0.05, 1.0))
        star = dual_update(box, x, eta)
        violation = box_constraints(box).positive_parts(x)
        hi = 2.0 * float(violation.max()) / eta
        grid = np.arange(0.0, hi + 1e-4, 1e-4) if hi > 0 else np.zeros(1)
        for s in range(box.count):
            scores = violation[s] * grid - 0.5 * eta * grid * grid
            worst = max(worst, abs(float(grid[int(np.argmax(scores))]) - float(star[s])))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 5.0
    report(
        4,
        ok,
        f"20 instances, grid step 1e-4: worst coordinate gap {worst:.2e} (<= 1e-3), "
        f"{elapsed:.2f} s (< 5 s)",
    )


def test_criterion_05_estimator_unbiased_and_bounded():
    """For a linear loss the one-point estimate has mean exactly the gradient,
    so a 1e6-sample Monte Carlo average must land within 2% of it; and each
    sample obeys the exact norm cap (d / eps) * sup |loss|."""
    rng = np.random.default_rng(202)
    d, eps = 4, 0.1
    g = rng.normal(size=d)
    offset = 0.3
    x = rng.normal(size=d)
    x *= 0.2 / float(np.linalg.norm(x))

    def loss(points):
        return points @ g + offset

    n = 10**6
    start = time.perf_counter()
    draws = np.random.default_rng(303).standard_normal((n, d))
    directions = draws / np.linalg.norm(draws, axis=1, keepdims=True)
    # The vectorized draw matches repeated library sphere sampling on an
    # identically seeded stream (same Gaussians; normalization may differ by
    # one rounding step between the batched and single-vector norm kernels).
    check_rng = np.random.default_rng(303)
    for row in range(3):
        np.testing.assert_allclose(
            directions[row], sample_unit_sphere(check_rng, d), rtol=1e-14, atol=0
        )
    values = loss(x + eps * directions)
    estimates = (d / eps) * values[:, None] * directions
    for row in range(3):  # tie the vectorized path to the library function
        np.testing.assert_array_equal(
            estimates[row], one_point_estimator(values[row], directions[row], d, eps)
        )
    mean = estimates.mean(axis=0)
    rel_err = float(np.linalg.norm(mean - g) / np.linalg.norm(g))
    value_sup = float(np.linalg.norm(g)) * (float(np.linalg.norm(x)) + eps) + offset
    cap = value_sup * d / eps
    norms = (d / eps) * np.abs(values)  # estimate norms, directions are unit
    all_capped = bool(np.all(norms <= cap))
    elapsed = time.perf_counter() - start
    ok = rel_err <= 0.02 and all_capped and elapsed < 10.0
    report(
        5,
        ok,
        f"1e6 samples: relative error {rel_err:.4f} (<= 0.02), "
        f"max norm {norms.max():.3f} vs cap {cap:.3f} on every sample, "
        f"{elapsed:.1f} s (< 10 s)",
    )


def test_criterion_06_smoothing_error():
    """Probing the quadratic loss at distance eps moves its sphere-smoothed
    value by at most (Lipschitz constant) * eps; Monte Carlo gets 3 standard
    errors of slack."""
    rng = np.random.default_rng(404)
    a = rng.uniform(-1, 1, 4)
    b = float(a @ np.array([1.0, 1.0, 0.0, 0.0]) + rng.normal())
    rho = 1.0
    panel = RegressionRound(a[None, :], np.array([b]), rho)
    eps, n = 0.2, 10**5
    start = time.perf_counter()
    worst_margin = math.inf
    for k in range(20):
        x = rng.normal(size=4)
        x *= float(rng.uniform(0.0, 0.2)) / float(np.linalg.norm(x))
        draws = rng.standard_normal((n, 4))
        directions = draws / np.linalg.norm(draws, axis=1, keepdims=True)
        values = panel.system_values(x + eps * directions)
        smoothed = float(values.mean())
        se = float(values.std(ddof=1)) / math.sqrt(n)
        exact = float(panel.system_values(x[None, :])[0])
        norm_x = float(np.linalg.norm(x))
        lipschitz = (np.linalg.norm(a) * (norm_x + eps) + abs(b)) * np.linalg.norm(a) + 2 * rho * (
            norm_x + eps
        )
        margin = lipschitz * eps + 3.0 * se - abs(smoothed - exact)
        worst_margin = min(worst_margin, margin)
    elapsed = time.perf_counter() - start
    ok = worst_margin >= 0.0 and elapsed < 10.0
    report(
        6,
        ok,
        f"20 points x 1e5 samples: |smoothed - exact| <= G*eps + 3 SE "
        f"(tightest slack {worst_margin:.3e}), {elapsed:.1f} s (< 10 s)",
    )


def test_criterion_07_bandit_containment():
    horizon = 4096
    stream = synthetic_stream(6, 4, horizon, rho=0.0, seed=1)
    box = BoxConstraintSet(-0.15, 0.15, 4)
    radius = box.max_vertex_norm()
    hyper = make_schedule(
        "convex-bandit",
        p=box.count,
        G=max(stream.bounds(radius)[0], box.gradient_bound),
        radius=radius,
        horizon=horizon,
        c=0.5,
    )
    # Every committed decision and probe of the run, block by block as the kernel lends them.
    query_max = decision_max = 0.0
    for _, _, committed, _, _, queries in _lockstep([stream], default_ring_6(), [hyper], box, [1]):
        query_max = max(query_max, float(np.linalg.norm(queries, axis=-1).max()))
        decision_max = max(decision_max, float(np.linalg.norm(committed, axis=-1).max()))
    shrunk = (1.0 - hyper.pi) * radius
    ok = query_max <= radius + 1e-12 and decision_max <= shrunk + 1e-12
    report(
        7,
        ok,
        f"T = 4096: max query norm {query_max:.6f} <= {radius:.6f} + 1e-12, "
        f"max decision norm {decision_max:.6f} <= {shrunk:.6f} + 1e-12",
    )


def centralized_reference(stream, hyper, constraints, horizon):
    """Independently coded single-unit primal-dual recursion.

    Per round: commit x, step against the loss gradient plus dual-weighted
    clipped constraint subgradients, project onto the ball, then reset each
    multiplier to its new violation over eta. No consensus; scalar loops only.
    """
    constraints = box_constraints(constraints)
    x = np.zeros(stream.dimension)
    lam = np.zeros(constraints.count)
    states = []
    for t in range(1, horizon + 1):
        oracle = regression_loss(stream.features[t - 1, 0], stream.targets[t - 1, 0], stream.rho)
        step = oracle.gradient(x).copy()
        for s in range(1, constraints.count + 1):
            if lam[s - 1] != 0.0:
                step = step + lam[s - 1] * clipped_subgradient(constraints, x, s)
        x = project_ball(x - hyper.beta(t) * step, hyper.radius)
        lam = np.array(
            [max(constraints.value(x, s), 0.0) / hyper.eta(t) for s in range(1, constraints.count + 1)]
        )
        states.append((x.copy(), lam.copy()))
    return states


def test_criterion_08_centralized_reduction():
    horizon = 1000
    single = TopologySchedule([Graph(1, [])], window=1)
    box = BoxConstraintSet(-0.15, 0.15, 4)
    radius = box.max_vertex_norm()
    worst = 0.0
    for variant, rho in (("convex-full", 0.0), ("strongly-convex-full", 1.0)):
        stream = synthetic_stream(1, 4, horizon, rho=rho, seed=55)
        hyper = make_schedule(
            variant,
            p=box.count,
            G=max(stream.bounds(radius)[0], box.gradient_bound),
            radius=radius,
            horizon=horizon,
            c=0.5 if variant == "convex-full" else None,
            sigma=stream.strong_convexity if variant.startswith("strongly") else None,
        )
        reference = centralized_reference(stream, hyper, box, horizon)
        state = initial_state(1, box)
        for t in range(1, horizon + 1):
            state, _ = run_round(
                state, RegressionRound(stream.features[t - 1], stream.targets[t - 1], stream.rho),
                single.weights_at(t), hyper, box, t,
            )
            ref_x, ref_lam = reference[t - 1]
            worst = max(
                worst,
                float(np.abs(state.decisions[0] - ref_x).max()),
                float(np.abs(state.duals[0] - ref_lam).max()),
            )
    ok = worst <= 1e-12
    report(
        8,
        ok,
        f"single-unit run vs independent reference over T = 1000, both variants: "
        f"max per-round state difference {worst:.2e} (<= 1e-12)",
    )


@pytest.fixture(scope="module")
def synthetic_suite(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("synthetic-suite")
    names = [n for n in list_presets() if n.startswith("synthetic-")]
    assert len(names) == 8
    start = time.perf_counter()
    results = {name: run_suite(preset_config(name), out_dir=out_dir) for name in names}
    elapsed = time.perf_counter() - start
    return results, elapsed


def strictest_bounds(result, variant, fn):
    """Elementwise strictest (smallest) theoretical bound across seeds,
    with each seed's constants built from its own realized suprema."""
    radius = 0.15 * math.sqrt(4.0)
    per_seed = []
    for r in result.seed_results:
        constants = bound_constants(
            variant,
            n_units=6,
            window=2,
            zeta=0.5,
            p=8,
            G=r.schedule.G,
            radius=radius,
            c=r.schedule.c,
            a=r.schedule.a,
            sigma=r.schedule.sigma,
            C=r.C if variant.endswith("bandit") else None,
            dimension=4 if variant.endswith("bandit") else None,
        )
        per_seed.append([fn(constants, T) for T in result.checkpoints])
    return np.min(np.array(per_seed), axis=0)


def test_criterion_09_rate_trends(synthetic_suite):
    results, elapsed = synthetic_suite
    problems = []

    # (a) convex full information, c = 1/2.
    mean = results["synthetic-convex-c0.5"].mean
    grid = np.array(mean.checkpoints, dtype=float)
    per_round = mean.sreg / grid
    if not np.all(np.diff(per_round) < 0):
        problems.append(f"(a) mean sreg/T not strictly decreasing: {per_round}")
    sreg_cap = strictest_bounds(
        results["synthetic-convex-c0.5"], "convex-full", lambda k, T: k.sreg_bound(T)
    )
    if not np.all(mean.sreg <= sreg_cap):
        problems.append("(a) sreg exceeds its T^(1/2) guarantee")
    cacv_cap = strictest_bounds(
        results["synthetic-convex-c0.5"], "convex-full", lambda k, T: k.cacv_bound(T)
    )
    if not np.all(mean.cacv <= cacv_cap):
        problems.append("(a) cacv exceeds its T^(3/4) guarantee")

    # (b) strongly convex full information, rho = 1.
    sc = results["synthetic-sc-rho1"]
    logs = np.log(np.array(sc.mean.checkpoints, dtype=float))
    per_log = sc.mean.sreg / logs
    for k in (-2, -1):  # last three checkpoints, 10% slack
        if not per_log[k] <= 1.10 * per_log[k - 1]:
            problems.append(f"(b) sreg/log T rises by more than 10% at the end: {per_log[-3:]}")
            break
    sc_cacv_cap = strictest_bounds(sc, "strongly-convex-full", lambda k, T: k.cacv_bound(T))
    if not np.all(sc.mean.cacv <= sc_cacv_cap):
        problems.append("(b) cacv exceeds its sqrt(T log T) guarantee")

    # (c) convex bandit, c = 3/4: averaged trends only.
    bandit = results["synthetic-bandit-c0.75"].mean
    bgrid = np.array(bandit.checkpoints, dtype=float)
    e_sreg_rate = bandit.sreg / bgrid
    e_cacv_rate = bandit.cacv / bgrid
    if not np.all(np.diff(e_sreg_rate) <= 1e-12):
        problems.append(f"(c) averaged sreg/T not decreasing: {e_sreg_rate}")
    if not np.all(np.diff(e_cacv_rate) <= 1e-12):
        problems.append(f"(c) averaged cacv/T not decreasing: {e_cacv_rate}")

    if elapsed >= 60.0:
        problems.append(f"suite took {elapsed:.1f} s (>= 60 s)")
    report(
        9,
        not problems,
        "; ".join(problems)
        if problems
        else (
            f"8 scenarios x 10 seeds at T = 8192 in {elapsed:.1f} s (< 60 s); "
            f"convex sreg/T strictly decreasing, strongly convex sreg/log T stable, "
            f"bandit rates non-increasing, all guarantee caps hold"
        ),
    )


def test_criterion_10_data_pipeline():
    expected = {"mg": (1385, 6), "bodyfat": (252, 14)}
    details = []
    ok = True
    for name, (rows, dims) in expected.items():
        text = resources.files("netoco").joinpath(f"data/{name}.libsvm").read_text("utf-8")
        table = parse_libsvm(text)
        round_trip = parse_libsvm(serialize_libsvm(table))
        same = np.array_equal(round_trip.features, table.features) and np.array_equal(
            round_trip.targets, table.targets
        )
        parsed_rows, dimension = table.features.shape
        ok = ok and (parsed_rows, dimension) == (rows, dims) and same
        details.append(f"{name}: {parsed_rows} x {dimension} (want {rows} x {dims}), round-trip {'exact' if same else 'BROKEN'}")
    report(10, ok, "; ".join(details))


def test_criterion_11_comparator_vs_grid():
    start = time.perf_counter()
    worst = 0.0
    for k in range(10):
        rho = (0.0, 0.25, 1.0)[k % 3]
        stream = synthetic_stream(2, 2, 5, rho=rho, seed=700 + k)
        box = BoxConstraintSet(-0.15, 0.15, 2)
        comparator = offline_comparator(stream, box, 5)
        axis = np.arange(-0.15, 0.15 + 5e-4, 1e-3)
        xs, ys = np.meshgrid(axis, axis)
        points = np.stack([xs.ravel(), ys.ravel()], axis=1)
        totals = np.zeros(len(points))
        for t in range(1, 6):
            totals += RegressionRound(stream.features[t - 1], stream.targets[t - 1], stream.rho).system_values(points)
        worst = max(worst, abs(float(totals.min()) - comparator.objective))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 5.0
    report(
        11,
        ok,
        f"10 instances, grid step 1e-3: worst objective gap {worst:.2e} (<= 1e-5), "
        f"{elapsed:.2f} s (< 5 s)",
    )


def test_criterion_12_csv_determinism(tmp_path):
    scenarios = {
        "det-bandit": (
            "[algorithm]\nvariant = convex-bandit\nc = 0.75\nhorizon = 256\n"
            "[run]\nseeds = 1 2 3 4\n"
        ),
        "det-sc": (
            "[problem]\nrho = 1.0\n"
            "[algorithm]\nvariant = strongly-convex-full\nhorizon = 128\n"
            "[run]\nseeds = 1 2 3 4\n"
        ),
    }
    ok = True
    details = []
    for name, body in scenarios.items():
        config_path = tmp_path / f"{name}.ini"
        config_path.write_text(body, encoding="utf-8")
        blobs = []
        for run_id, workers in (("first", 1), ("second", 1), ("threaded", 4)):
            out = tmp_path / name / run_id
            code = main(["run", str(config_path), "--out", str(out), "--workers", str(workers)])
            assert code == 0
            blobs.append((out / f"{name}.csv").read_bytes())
        identical = blobs[0] == blobs[1] == blobs[2]
        ok = ok and identical
        details.append(f"{name}: {'identical' if identical else 'DIFFERENT'} bytes across runs and workers 1/4")
    report(12, ok, "; ".join(details))
