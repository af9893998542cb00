"""Scenario configuration, preset catalogue, suite runner, and CSV output.

A scenario file is flat key = value INI text with sections [problem],
[topology], [constraints], [algorithm], [run]; see load_config. One scenario
runs its seed list as one lockstep batch, evaluates the metric series per
seed, averages across seeds, and writes one CSV per scenario with per-seed
rows plus a seed = "mean" aggregate row per checkpoint. Identical configs
produce byte-identical CSVs for any worker count: every seed's stream,
schedule, and numbers depend only on its own integers (batching changes no
bit of them), and assembly is ordered.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .algorithm import HyperSchedule, make_schedule, run_seeds, variant_spec
from .metrics import (
    MetricSeries,
    averaged_metrics,
    checkpoint_grid,
    checkpoint_series,
    communication_cost,
)
from .network import (
    Graph,
    TopologySchedule,
    default_ring_6,
    schedule_from_graphs,
    validate_mixing,
    verify_window_connectivity,
)
from .problems import BoxConstraintSet, dataset_stream, parse_libsvm, synthetic_stream

__all__ = [
    "ConfigError",
    "ScenarioError",
    "ScenarioConfig",
    "load_config",
    "list_presets",
    "preset_config",
    "apply_overrides",
    "validate_scenario",
    "SeedResult",
    "SuiteResult",
    "run_suite",
    "OUTPUT_DIR_ENV",
]

OUTPUT_DIR_ENV = "NETOCO_OUTPUT_DIR"

_BUNDLED_DATASETS = {"mg": "mg.libsvm", "bodyfat": "bodyfat.libsvm"}


class ConfigError(ValueError):
    """Bad scenario file or preset arguments."""


class ScenarioError(RuntimeError):
    """A scenario failed validation before its first round."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    source: str  # "synthetic" | "dataset"
    dataset: Optional[str]  # bundled name or file path when source = "dataset"
    n_units: int
    dimension: Optional[int]  # None for datasets (inferred from the file)
    rho: float
    data_seed: int
    lower: float
    upper: float
    radius: Optional[float]  # None: upper * sqrt(dimension) once d is known
    variant: str
    c: Optional[float]
    a: float
    horizon: int
    checkpoints: Optional[tuple[int, ...]]  # None: geometric grid from horizon
    seeds: tuple[int, ...]
    output_dir: Optional[str]
    workers: int  # accepted and kept; seeds run as one batch whatever its value
    topology: TopologySchedule


_SECTIONS = {
    "problem": {"source", "dataset", "units", "dimension", "rho", "seed"},
    "topology": {"preset", "nodes", "window", "graphs"},
    "constraints": {"lower", "upper", "radius"},
    "algorithm": {"variant", "c", "a", "horizon", "checkpoints"},
    "run": {"seeds", "seed_count", "output", "workers"},
}


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file; unknown sections or keys are errors."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    def get(section, key, default=None):
        return parser.get(section, key, fallback=default)

    source = (get("problem", "source", "synthetic") or "synthetic").strip()
    if source not in ("synthetic", "dataset"):
        raise ConfigError(f"problem source must be synthetic or dataset, got {source!r}")
    dataset = get("problem", "dataset")
    if source == "dataset":
        if not dataset:
            raise ConfigError("source = dataset needs a dataset name or path")
        dataset = dataset.strip()
        if dataset not in _BUNDLED_DATASETS:
            candidate = Path(dataset)
            if not candidate.is_absolute():
                candidate = path.parent / candidate
            dataset = str(candidate)
        if get("problem", "dimension") is not None:
            raise ConfigError("dimension is inferred from the dataset; remove it")
    elif dataset is not None:
        raise ConfigError("dataset is only valid with source = dataset")

    n_units = _parse_int(get("problem", "units", "6"), "units", minimum=1)
    dimension = (
        None
        if source == "dataset"
        else _parse_int(get("problem", "dimension", "4"), "dimension", minimum=1)
    )
    rho = _parse_float(get("problem", "rho", "0"), "rho")
    if rho < 0.0:
        raise ConfigError("rho must be >= 0")
    data_seed = _parse_int(get("problem", "seed", "0"), "seed", minimum=0)

    topology = _parse_topology(parser, n_units)

    lower = _parse_float(get("constraints", "lower", "-0.15"), "lower")
    upper = _parse_float(get("constraints", "upper", "0.15"), "upper")
    if not lower < upper:
        raise ConfigError("need lower < upper")
    radius_text = get("constraints", "radius")
    radius = None if radius_text is None else _parse_float(radius_text, "radius")
    if radius is not None and not radius > 0.0:
        raise ConfigError("radius must be > 0")

    variant = get("algorithm", "variant")
    if not variant:
        raise ConfigError("[algorithm] variant is required")
    variant = variant.strip()
    c_text = get("algorithm", "c")
    c = None if c_text is None else _parse_float(c_text, "c")
    a = _parse_float(get("algorithm", "a", "2.0"), "a")
    horizon = _parse_int(get("algorithm", "horizon", "8192"), "horizon", minimum=1)
    checkpoints_text = get("algorithm", "checkpoints")
    checkpoints = (
        None
        if checkpoints_text is None
        else tuple(_parse_int(tok, "checkpoints", minimum=1) for tok in _tokens(checkpoints_text))
    )

    seeds_text = get("run", "seeds")
    seed_count_text = get("run", "seed_count")
    if seeds_text is not None and seed_count_text is not None:
        raise ConfigError("give either seeds or seed_count, not both")
    if seeds_text is not None:
        seeds = tuple(_parse_int(tok, "seeds", minimum=0) for tok in _tokens(seeds_text))
        if not seeds:
            raise ConfigError("seeds must not be empty")
        if len(set(seeds)) != len(seeds):
            raise ConfigError("seeds must be distinct")
    else:
        count = _parse_int(seed_count_text or "10", "seed_count", minimum=1)
        seeds = tuple(range(1, count + 1))
    output_dir = get("run", "output")
    workers = _parse_int(get("run", "workers", "1"), "workers", minimum=1)

    config = ScenarioConfig(
        name=path.stem,
        source=source,
        dataset=dataset,
        n_units=n_units,
        dimension=dimension,
        rho=rho,
        data_seed=data_seed,
        lower=lower,
        upper=upper,
        radius=radius,
        variant=variant,
        c=c,
        a=a,
        horizon=horizon,
        checkpoints=checkpoints,
        seeds=seeds,
        output_dir=output_dir,
        workers=workers,
        topology=topology,
    )
    _check_variant_parameters(config)
    return config


def _tokens(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _parse_int(text, key, minimum=None) -> int:
    try:
        value = int(str(text).strip())
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _parse_float(text, key) -> float:
    try:
        value = float(str(text).strip())
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite")
    return value


def _parse_topology(parser, n_units: int) -> TopologySchedule:
    if not parser.has_section("topology") or parser.get("topology", "preset", fallback=None):
        preset = (
            parser.get("topology", "preset", fallback="default-ring-6")
            if parser.has_section("topology")
            else "default-ring-6"
        ).strip()
        for key in ("nodes", "window", "graphs"):
            if parser.has_option("topology", key):
                raise ConfigError("topology preset excludes nodes/window/graphs")
        if preset != "default-ring-6":
            raise ConfigError(f"unknown topology preset {preset!r}")
        topology = default_ring_6()
        if topology.node_count != n_units:
            raise ConfigError(
                f"topology preset has {topology.node_count} nodes but units = {n_units}"
            )
        return topology
    nodes = _parse_int(parser.get("topology", "nodes", fallback=str(n_units)), "nodes", minimum=1)
    if nodes != n_units:
        raise ConfigError(f"topology nodes = {nodes} but units = {n_units}")
    window = _parse_int(parser.get("topology", "window", fallback="1"), "window", minimum=1)
    graphs_text = parser.get("topology", "graphs", fallback=None)
    if not graphs_text:
        raise ConfigError("explicit topology needs graphs")
    graphs = []
    for segment in graphs_text.split("|"):
        tokens = segment.split()
        edges = []
        for token in tokens:
            if token == "-":  # empty graph marker
                continue
            head, sep, tail = token.partition("-")
            if not sep:
                raise ConfigError(f"bad edge token {token!r}; expected i-j")
            edges.append((_parse_int(head, "edge"), _parse_int(tail, "edge")))
        try:
            graphs.append(Graph(nodes, tuple(edges)))
        except ValueError as exc:
            raise ConfigError(f"bad graph {segment.strip()!r}: {exc}") from None
    if not graphs:
        raise ConfigError("explicit topology needs at least one graph")
    return schedule_from_graphs(graphs, window=window)


def _check_variant_parameters(config: ScenarioConfig):
    """The variant's own parameter rules, plus what they mean for the config keys."""
    try:
        spec = variant_spec(config.variant)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if spec.strongly_convex:
        if config.rho <= 0.0:
            raise ConfigError("strongly convex variants need rho > 0")
        if config.c is not None:
            raise ConfigError("c is only meaningful for convex variants")
    try:
        spec.check_parameters(c=config.c, a=config.a, sigma=2.0 * config.rho)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Presets

_SYNTHETIC_BASE = dict(
    source="synthetic",
    dataset=None,
    n_units=6,
    dimension=4,
    data_seed=0,
    lower=-0.15,
    upper=0.15,
    radius=None,
    a=2.0,
    horizon=8192,
    checkpoints=None,
    seeds=tuple(range(1, 11)),
    output_dir=None,
    workers=1,
)


def _presets() -> dict[str, ScenarioConfig]:
    catalogue = {}

    def add(name, **kwargs):
        base = dict(_SYNTHETIC_BASE)
        base.update(kwargs)
        catalogue[name] = ScenarioConfig(name=name, topology=default_ring_6(), **base)

    for c in (0.5, 0.75):
        add(f"synthetic-convex-c{c:g}", variant="convex-full", c=c, rho=0.0)
        add(f"synthetic-bandit-c{c:g}", variant="convex-bandit", c=c, rho=0.0)
    for rho in (1.0, 2.0):
        add(f"synthetic-sc-rho{rho:g}", variant="strongly-convex-full", c=None, rho=rho)
        add(f"synthetic-sc-bandit-rho{rho:g}", variant="strongly-convex-bandit", c=None, rho=rho)
    for dataset in ("mg", "bodyfat"):
        common = dict(source="dataset", dataset=dataset, dimension=None)
        add(f"{dataset}-convex", variant="convex-full", c=0.5, rho=0.0, **common)
        add(f"{dataset}-bandit", variant="convex-bandit", c=0.5, rho=0.0, **common)
        add(f"{dataset}-sc", variant="strongly-convex-full", c=None, rho=1.0, **common)
        add(f"{dataset}-sc-bandit", variant="strongly-convex-bandit", c=None, rho=1.0, **common)
    return catalogue


def list_presets() -> tuple[str, ...]:
    return tuple(_presets())


def preset_config(
    name: str,
    *,
    seed_count: Optional[int] = None,
    horizon: Optional[int] = None,
    output_dir: Optional[str] = None,
    workers: Optional[int] = None,
) -> ScenarioConfig:
    catalogue = _presets()
    if name not in catalogue:
        raise ConfigError(f"unknown preset {name!r}; see `netoco presets`")
    return apply_overrides(
        catalogue[name], seed_count=seed_count, horizon=horizon, output_dir=output_dir,
        workers=workers,
    )


def apply_overrides(
    config: ScenarioConfig,
    *,
    seed_count: Optional[int] = None,
    horizon: Optional[int] = None,
    output_dir: Optional[str] = None,
    workers: Optional[int] = None,
) -> ScenarioConfig:
    """Replace the seed list with 1..seed_count and set the other values given; None keeps one."""
    changes = {}
    if seed_count is not None:
        if seed_count < 1:
            raise ConfigError("seed_count must be >= 1")
        changes["seeds"] = tuple(range(1, seed_count + 1))
    if horizon is not None:
        if horizon < 1:
            raise ConfigError("horizon must be >= 1")
        changes["horizon"] = horizon
    if output_dir is not None:
        changes["output_dir"] = output_dir
    if workers is not None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        changes["workers"] = workers
    return replace(config, **changes)


# ---------------------------------------------------------------------------
# Running

@dataclass
class SeedResult:
    seed: int
    series: MetricSeries
    G: float
    C: float
    schedule: HyperSchedule


@dataclass
class SuiteResult:
    name: str
    checkpoints: tuple[int, ...]
    seed_results: list[SeedResult]
    mean: MetricSeries
    csv_path: Optional[Path]


def _load_dataset(config: ScenarioConfig):
    if config.dataset in _BUNDLED_DATASETS:
        text = (
            resources.files("netoco").joinpath("data").joinpath(_BUNDLED_DATASETS[config.dataset])
        ).read_text(encoding="utf-8")
    else:
        try:
            text = Path(config.dataset).read_text(encoding="utf-8")
        except OSError as exc:
            raise ScenarioError(f"cannot read dataset {config.dataset}: {exc}") from None
    examples, dimension = parse_libsvm(text)
    if not examples:
        raise ScenarioError(f"dataset {config.dataset} is empty")
    if dimension < 1:
        raise ScenarioError(f"dataset {config.dataset} has no features")
    return examples, dimension


def _checkpoints(config: ScenarioConfig) -> tuple[int, ...]:
    if config.checkpoints is None:
        return checkpoint_grid(config.horizon)
    kept = tuple(k for k in config.checkpoints if k <= config.horizon)
    if kept != tuple(sorted(set(kept))):
        raise ConfigError("checkpoints must be strictly increasing")
    if not kept or kept[-1] != config.horizon:
        kept = kept + (config.horizon,)
    return kept


@dataclass(frozen=True)
class _Prepared:
    """What a valid scenario resolves to before its first round."""

    examples: Optional[list]  # parsed dataset examples; None for synthetic data
    dimension: int
    radius: float
    constraints: BoxConstraintSet
    checkpoints: tuple[int, ...]


def _prepare(config: ScenarioConfig) -> tuple[list[str], Optional[_Prepared]]:
    """Pre-round checks and resolution; the failures are empty exactly when the result is set."""
    failures = []
    try:
        _check_variant_parameters(config)
    except ConfigError as exc:
        failures.append(str(exc))
    variant_ok = not failures
    if not config.seeds:
        failures.append("seeds must not be empty")
    examples, dimension = None, config.dimension
    if config.source == "dataset":
        try:
            examples, dimension = _load_dataset(config)
        except (ScenarioError, ValueError) as exc:
            failures.append(str(exc))
            return failures, None
    radius = config.radius if config.radius is not None else config.upper * math.sqrt(dimension)
    constraints = BoxConstraintSet(config.lower, config.upper, dimension)
    if constraints.max_vertex_norm() > radius + 1e-12:
        failures.append(
            f"decision box leaves the ball: corner norm {constraints.max_vertex_norm():.6g} "
            f"> radius {radius:.6g}"
        )
    if config.topology.node_count != config.n_units:
        failures.append("topology node count differs from units")
    if not verify_window_connectivity(config.topology):
        failures.append(f"union over windows of {config.topology.window} is not connected")
    for graph, weights in zip(config.topology.graphs, config.topology.weights):
        report = validate_mixing(weights, graph)
        failures.extend(f"mixing: {v}" for v in report.violations)
    if config.horizon < 1:
        failures.append(f"horizon must be >= 1, got {config.horizon}")
        return failures, None
    if variant_ok:
        try:
            # G only scales step sizes; range checks don't need the data.
            _schedule(config, constraints, radius, G=1.0, sigma=2.0 * config.rho)
        except ValueError as exc:
            failures.append(str(exc))
    try:
        checkpoints = _checkpoints(config)
    except ConfigError as exc:
        failures.append(str(exc))
    if failures:
        return failures, None
    return [], _Prepared(examples, dimension, radius, constraints, checkpoints)


def validate_scenario(config: ScenarioConfig) -> list[str]:
    """Pre-round checks; returns human-readable failures (empty means valid)."""
    return _prepare(config)[0]


def _schedule(config, constraints, radius, *, G, sigma) -> HyperSchedule:
    """The step schedule of a scenario; make_schedule drops sigma for convex variants."""
    return make_schedule(
        config.variant, p=constraints.count, G=G, radius=radius, horizon=config.horizon,
        c=config.c, a=config.a, sigma=sigma,
    )


def _seed_inputs(config, seed, prepared: _Prepared):
    """One seed's stream, its realized bounds G and C, and its step schedule."""
    stream_seed = config.data_seed + seed
    if config.source == "synthetic":
        stream = synthetic_stream(
            config.n_units, prepared.dimension, config.horizon, config.rho, stream_seed
        )
    else:
        stream = dataset_stream(
            prepared.examples, config.n_units, config.horizon, config.rho, stream_seed
        )
    radius, constraints = prepared.radius, prepared.constraints
    G = max(stream.gradient_bound(radius), constraints.gradient_bound)
    C = stream.value_bound(radius)
    schedule = _schedule(config, constraints, radius, G=G, sigma=stream.strong_convexity)
    return stream, G, C, schedule


def run_suite(config: ScenarioConfig, *, out_dir=None, write: bool = True) -> SuiteResult:
    """Run every seed of a scenario, average, and (by default) write its CSV.

    All seeds run in lockstep as one batch (algorithm.run_seeds); the workers
    setting is accepted but changes neither the output nor the work done.

    Output directory precedence: out_dir argument, then the NETOCO_OUTPUT_DIR
    environment variable, then the config's output key, then "results".
    """
    failures, prepared = _prepare(config)
    if failures:
        raise ScenarioError("; ".join(failures))
    checkpoints, constraints = prepared.checkpoints, prepared.constraints
    inputs = [_seed_inputs(config, seed, prepared) for seed in config.seeds]
    streams = [stream for stream, _, _, _ in inputs]
    totals = run_seeds(
        streams,
        config.topology,
        [schedule for _, _, _, schedule in inputs],
        constraints,
        config.seeds,
        checkpoints,
    )
    comm_cost = np.array(
        [communication_cost(config.topology, T) for T in checkpoints], dtype=np.int64
    )
    seed_results = []
    for s, (seed, (stream, G, C, schedule)) in enumerate(zip(config.seeds, inputs)):
        series = checkpoint_series(
            stream,
            constraints,
            checkpoints,
            totals.system_losses[:, s],
            totals.violations[:, s],
            comm_cost,
        )
        seed_results.append(SeedResult(seed=seed, series=series, G=G, C=C, schedule=schedule))
    mean = averaged_metrics([r.series for r in seed_results])
    csv_path = None
    if write:
        directory = Path(
            out_dir
            or os.environ.get(OUTPUT_DIR_ENV)
            or config.output_dir
            or "results"
        )
        directory.mkdir(parents=True, exist_ok=True)
        csv_path = directory / f"{config.name}.csv"
        csv_path.write_text(_render_csv(config, checkpoints, seed_results, mean), encoding="utf-8")
    return SuiteResult(
        name=config.name,
        checkpoints=checkpoints,
        seed_results=seed_results,
        mean=mean,
        csv_path=csv_path,
    )


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _render_csv(config, checkpoints, seed_results, mean) -> str:
    n = config.n_units
    header = ["checkpoint_T", "seed", "sreg"]
    header += [f"reg_unit_{i}" for i in range(1, n + 1)]
    header += ["cacv", "comm_cost"]
    lines = [",".join(header)]
    for k, T in enumerate(checkpoints):
        for result in seed_results:
            s = result.series
            row = [str(T), str(result.seed), _fmt(s.sreg[k])]
            row += [_fmt(v) for v in s.regrets[k]]
            row += [_fmt(s.cacv[k]), _fmt(s.comm_cost[k])]
            lines.append(",".join(row))
        row = [str(T), "mean", _fmt(mean.sreg[k])]
        row += [_fmt(v) for v in mean.regrets[k]]
        row += [_fmt(mean.cacv[k]), _fmt(mean.comm_cost[k])]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
