"""Scenario configuration, preset catalogue, suite runner, and CSV output.

A scenario file is flat key = value INI text with sections [problem],
[topology], [constraints], [algorithm], [run]; see load_config. A preset is
the table of keys where it differs from a file's defaults, and preset_config
reads it through the same loader, so every key has one default. One scenario
runs its seed list as one lockstep batch, evaluates the metric series per
seed with one comparator solve for the batch, averages across seeds, and
writes one CSV per scenario with per-seed rows plus a seed = "mean"
aggregate row per checkpoint. Identical configs produce byte-identical CSVs:
every seed's stream, schedule, and numbers depend only on its own integers
(batching changes no bit of them), and assembly is ordered.
"""

from __future__ import annotations

import configparser
import math
import numbers
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .algorithm import HyperSchedule, block_bytes, check_checkpoints, make_schedule, variant_spec
from .metrics import ConvergenceError, MetricSeries, averaged_metrics, checkpoint_grid, checkpoint_series
from .network import Graph, TopologySchedule, _integer, default_ring_6, verify_window_connectivity
from .problems import (
    BoxConstraintSet,
    DatasetTable,
    ParseError,
    RegressionStream,
    _memory_failure,
    dataset_stream,
    parse_libsvm,
    synthetic_stream,
)

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
    """A scenario failed validation before its first round, or a comparator did not converge."""


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
    radius: Optional[float]  # None: the box's corner norm, max(|lower|, |upper|) * sqrt(d), once d is known
    variant: str
    c: Optional[float]
    a: float
    horizon: int
    checkpoints: Optional[tuple[int, ...]]  # None: geometric grid from horizon
    seeds: tuple[int, ...]
    output_dir: Optional[str]
    topology: TopologySchedule


_SECTIONS = {
    "problem": {"source", "dataset", "units", "dimension", "rho", "seed"},
    "topology": {"window", "graphs"},
    "constraints": {"lower", "upper", "radius"},
    "algorithm": {"variant", "c", "a", "horizon", "checkpoints"},
    "run": {"seeds", "seed_count", "output", "workers"},  # workers: read and dropped, for perfbench's scenario files
}


def load_config(
    path, *, seed_count: Optional[int] = None, horizon: Optional[int] = None
) -> ScenarioConfig:
    """Parse and validate a scenario file; unknown sections or keys are errors.

    seed_count and horizon, where given, replace the file's values before the
    config's one check (apply_overrides).
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return _from_parser(parser, path.stem, path.parent, seed_count=seed_count, horizon=horizon)


def _from_parser(parser, name: str, base_dir: Optional[Path], *, seed_count=None, horizon=None) -> ScenarioConfig:
    """The config of parsed scenario keys, with every key's default; the only builder of one.

    Here: text to values, section and key names, and keys that exclude each other; the
    config ends in one apply_overrides call, given the overrides that are not None in place
    of the keys' values, which checks the rules and the seed count's size once. A relative
    dataset path resolves against base_dir, the scenario file's directory.
    """
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    def get(section, key, default=None):
        return parser.get(section, key, fallback=default)

    source = (get("problem", "source") or "synthetic").strip()
    dataset = get("problem", "dataset")
    if dataset is not None:
        dataset = dataset.strip()
        if source == "dataset" and dataset and dataset not in _BUNDLED_DATASETS:
            dataset = str(Path(dataset) if base_dir is None else base_dir / dataset)

    n_units = _parse_int(get("problem", "units", "6"), "units")
    dimension_text = get("problem", "dimension", None if source == "dataset" else "4")
    dimension = None if dimension_text is None else _parse_int(dimension_text, "dimension")
    rho = _parse_float(get("problem", "rho", "0"), "rho")
    data_seed = _parse_int(get("problem", "seed", "0"), "seed")

    topology = _parse_topology(parser, n_units)

    lower = _parse_float(get("constraints", "lower", "-0.15"), "lower")
    upper = _parse_float(get("constraints", "upper", "0.15"), "upper")
    radius_text = get("constraints", "radius")
    radius = None if radius_text is None else _parse_float(radius_text, "radius")

    variant = get("algorithm", "variant")
    if not variant:
        raise ConfigError("[algorithm] variant is required")
    variant = variant.strip()
    c_text = get("algorithm", "c")
    c = None if c_text is None else _parse_float(c_text, "c")
    a = _parse_float(get("algorithm", "a", "2.0"), "a")
    horizon_key = _parse_int(get("algorithm", "horizon", "8192"), "horizon")
    checkpoints_text = get("algorithm", "checkpoints")
    checkpoints = (
        None
        if checkpoints_text is None
        else tuple(_parse_int(tok, "checkpoints") for tok in _tokens(checkpoints_text))
    )

    seeds_text = get("run", "seeds")
    seed_count_text = get("run", "seed_count")
    if seeds_text is not None and seed_count_text is not None:
        raise ConfigError("give either seeds or seed_count, not both")
    if seeds_text is not None:
        seeds, count = tuple(_parse_int(tok, "seeds") for tok in _tokens(seeds_text)), None
    else:  # apply_overrides builds 1..count
        seeds, count = (), _parse_int(seed_count_text or "10", "seed_count")
    output_dir = get("run", "output")
    _parse_int(get("run", "workers", "1"), "workers", minimum=1)  # perfbench's scenario files set it; it decides nothing

    return apply_overrides(ScenarioConfig(
        name=name,
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
        horizon=horizon_key,
        checkpoints=checkpoints,
        seeds=seeds,
        output_dir=output_dir,
        topology=topology,
    ), seed_count=count if seed_count is None else seed_count, horizon=horizon)


def _tokens(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _number_text(text) -> str:
    """text stripped; ValueError for what int() and float() read but no scenario number holds: the digit
    separator "_" (1_024) and non-ASCII characters, such as other scripts' digits, as parse_libsvm does."""
    text = str(text).strip()
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return text


def _parse_int(text, key, minimum=None) -> int:
    try:
        value = int(_number_text(text))
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _parse_float(text, key) -> float:
    try:
        return float(_number_text(text))
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None


def _parse_topology(parser, n_units: int) -> TopologySchedule:
    """default_ring_6(), unless window or graphs make the schedule explicit, on nodes 1..units."""
    if not any(parser.has_option("topology", key) for key in _SECTIONS["topology"]):
        return default_ring_6()
    if n_units < 1:
        raise ConfigError(f"explicit topology needs units >= 1 nodes, got units = {n_units}")
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
            graphs.append(Graph(n_units, tuple(edges)))
        except ValueError as exc:
            raise ConfigError(f"bad graph {segment.strip()!r}: {exc}") from None
    if not graphs:
        raise ConfigError("explicit topology needs at least one graph")
    # One dense N x N weight matrix per graph, built where it is kept: load_config's traced
    # peak for three graphs on 400 nodes is 1.02 times this.
    failure = _memory_failure(
        len(graphs) * n_units * n_units * 8,
        f"explicit topology: {len(graphs)} graph(s) on units = {n_units} nodes", "mixing weights",
    )
    if failure:
        raise ConfigError(failure)
    return TopologySchedule(graphs, window=window)


def _minimum_failure(key: str, value, minimum: int) -> Optional[str]:
    """The failure of value as key unless it is an integer of at least minimum; a non-integer fails in the loader's words."""
    try:
        return None if value is not None and _integer(value, key) >= minimum else f"{key} must be >= {minimum}, got {value}"
    except ValueError as exc:
        return str(exc)


def _rule_failures(config: ScenarioConfig) -> list[str]:
    """Every rule on a config's own field values, in the order of the file's keys.

    Their one home: apply_overrides, which every config passes through, raises these
    failures and validate_scenario returns them before any data work, so a value fails in
    the same words from a file key, a preset override or a replaced field.
    """
    failures = []

    def rule(holds, message):
        if not holds:
            failures.append(message)

    def at_least(key, value, minimum):
        failure = _minimum_failure(key, value, minimum)
        rule(failure is None, failure)

    source = config.source
    known = source in ("synthetic", "dataset")
    rule(known, f"problem source must be synthetic or dataset, got {source!r}")
    if source == "dataset":
        rule(config.dataset, "source = dataset needs a dataset name or path")
        rule(config.dimension is None, "dimension is inferred from the dataset; remove it")
    else:
        rule(config.dataset is None, "dataset is only valid with source = dataset")
    at_least("units", config.n_units, 1)
    if source == "synthetic":
        at_least("dimension", config.dimension, 1)
    not_numbers = []
    for key in ("rho", "lower", "upper", "radius", "c", "a"):
        value = getattr(config, key)
        if value is None and key in ("radius", "c"):  # the box's corner norm; no c for strongly convex variants
            continue
        if isinstance(value, numbers.Real):
            rule(math.isfinite(value), f"{key} must be finite")
        else:
            not_numbers.append(f"{key} must be a number, got {value!r}")
    if not_numbers:  # the rules below compare these fields as numbers
        return failures + not_numbers
    rule(config.rho >= 0.0, "rho must be >= 0")
    at_least("seed", config.data_seed, 0)
    nodes = config.topology.node_count
    rule(nodes == config.n_units, f"topology has {nodes} nodes but units = {config.n_units}")
    rule(config.lower < config.upper, "need lower < upper")
    rule(config.radius is None or config.radius > 0.0, "radius must be > 0")
    try:
        spec = variant_spec(config.variant)
        if spec.strongly_convex:
            rule(config.rho > 0.0, "strongly convex variants need rho > 0")
            rule(config.c is None, "c is only meaningful for convex variants")
        else:
            spec.check_parameters(c=config.c, a=config.a, sigma=None)
    except ValueError as exc:
        failures.append(str(exc))
    at_least("horizon", config.horizon, 1)
    rule(config.checkpoints != (), "checkpoints must not be empty; omit the key for the default grid")
    for checkpoint in config.checkpoints or ():
        at_least("checkpoints", checkpoint, 1)
    rule(config.seeds, "seeds must not be empty")
    rule(len(set(config.seeds)) == len(config.seeds), "seeds must be distinct")
    for seed in config.seeds:
        at_least("seeds", seed, 0)
    return failures


# ---------------------------------------------------------------------------
# Presets

def _preset_table() -> dict[str, dict[str, dict[str, str]]]:
    """Each preset as the scenario keys (section -> key -> text) where it differs from the file
    defaults; preset_config reads them as load_config reads a file."""
    table = {}

    def add(name, variant, c=None, **problem):
        entry = {"problem": problem} if problem else {}
        entry["algorithm"] = {"variant": variant} if c is None else {"variant": variant, "c": c}
        table[name] = entry

    for c in ("0.5", "0.75"):
        add(f"synthetic-convex-c{c}", "convex-full", c)
        add(f"synthetic-bandit-c{c}", "convex-bandit", c)
    for rho in ("1", "2"):
        add(f"synthetic-sc-rho{rho}", "strongly-convex-full", rho=rho)
        add(f"synthetic-sc-bandit-rho{rho}", "strongly-convex-bandit", rho=rho)
    for dataset in ("mg", "bodyfat"):
        common = {"source": "dataset", "dataset": dataset}
        add(f"{dataset}-convex", "convex-full", "0.5", **common)
        add(f"{dataset}-bandit", "convex-bandit", "0.5", **common)
        add(f"{dataset}-sc", "strongly-convex-full", rho="1", **common)
        add(f"{dataset}-sc-bandit", "strongly-convex-bandit", rho="1", **common)
    return table


_PRESETS = _preset_table()


def list_presets() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset_config(
    name: str,
    *,
    seed_count: Optional[int] = None,
    horizon: Optional[int] = None,
    workers: Optional[int] = None,  # perfbench's workloads pass workers=1; checked, then dropped
) -> ScenarioConfig:
    """A preset's keys read as a scenario file's, with the overrides as load_config takes them."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; see `netoco presets`")
    failure = workers is not None and _minimum_failure("workers", workers, 1)
    if failure:
        raise ConfigError(failure)
    parser = configparser.ConfigParser()
    parser.read_dict(_PRESETS[name])
    return _from_parser(parser, name, None, seed_count=seed_count, horizon=horizon)


def apply_overrides(
    config: ScenarioConfig, *, seed_count: Optional[int] = None, horizon: Optional[int] = None
) -> ScenarioConfig:
    """Replace the seed list with 1..seed_count and set the other values given; None keeps one.

    ConfigError joins every rule the result fails (_rule_failures), a seed_count that is
    not an integer of at least 1 among them, in the rules' words; the size check made
    before 1..seed_count is built runs after the rules, which it needs.
    """
    # Seed 1 stands in for 1..seed_count until the checks pass.
    seeds = None if seed_count is None else (1,)
    changes = {"horizon": horizon, "seeds": seeds}
    config = replace(config, **{key: value for key, value in changes.items() if value is not None})
    failures = _rule_failures(config)
    count_failure = seed_count is not None and _minimum_failure("seed_count", seed_count, 1)
    if count_failure:
        failures.append(count_failure)
    if failures:
        raise ConfigError("; ".join(failures))
    if seed_count is None:
        return config
    seed_count = _integer(seed_count, "seed_count")
    sizes = config.horizon, config.n_units, config.dimension
    failure = _stream_failure(f"seed_count = {seed_count} with horizon = {config.horizon}", seed_count, *sizes)
    if failure:  # raised before 1..seed_count is built
        raise ConfigError(failure)
    return replace(config, seeds=tuple(range(1, seed_count + 1)))


def _stream_failure(lead: str, seeds: int, horizon: int, n_units: int, dimension: Optional[int]):
    """The failure when what run_suite holds at once exceeds physical memory; else None.

    For values that pass the rules: every seed's stream, S N T (d + 1) floats, and one block
    of the kernel's arrays under a box's 2 d constraints. A dataset's dimension (None) counts as 1.
    When the seeds do not fit, the message leads with "horizon = T for one seed" if one seed alone
    does not fit either, since the seed count is then not at fault, and with the caller's lead if it does.
    Nothing else a run keeps grows with T: the bounds, the dealing of dataset rows and the step
    sizes take one 128-round block at a time, a synthetic stream's draws one 1024-round chunk,
    the finiteness check makes no temporary, and the metrics keep a few rows per checkpoint.
    The block's share, block_bytes, counts S B N (7 d + p + 2 + N) floats: the kernel's block
    arrays and the one (B, S, N, N) product of the system losses. Warm tracemalloc peak of
    run_suite over this estimate at T = 8192 (tests/test_run_memory.py holds each to 1.25):

        bodyfat-convex, 1 seed              1.02
        mg-sc, 1 seed                       1.06
        synthetic-sc-bandit-rho1, 1 seed    1.12
        synthetic-convex-c0.5, 3 seeds      1.00
    """
    width = "a dataset's dimension >= 1" if dimension is None else f"dimension = {dimension}"
    d = dimension or 1

    def failure(count, what):
        need = 8 * count * n_units * horizon * (d + 1) + block_bytes(count, n_units, d, 2 * d, horizon)
        return _memory_failure(need, f"{what}, units = {n_units} and {width}", "stream data and block arrays")

    too_many = failure(seeds, lead)
    return too_many and (failure(1, f"horizon = {horizon} for one seed") or too_many)


# ---------------------------------------------------------------------------
# Running

@dataclass
class SeedResult:
    seed: int
    series: MetricSeries
    C: float
    schedule: HyperSchedule  # its G is the seed's realized gradient bound


@dataclass
class SuiteResult:
    name: str
    checkpoints: tuple[int, ...]
    seed_results: list[SeedResult]
    mean: MetricSeries
    csv_path: Path


def _load_dataset(config: ScenarioConfig):
    if config.dataset in _BUNDLED_DATASETS:
        data = (
            resources.files("netoco").joinpath("data").joinpath(_BUNDLED_DATASETS[config.dataset])
        ).read_bytes()
    else:
        try:
            data = Path(config.dataset).read_bytes()
        except OSError as exc:
            raise ScenarioError(f"cannot read dataset {config.dataset}: {exc}") from None
    try:
        table = parse_libsvm(data)
    except ParseError as exc:
        raise ScenarioError(f"dataset {config.dataset}: {exc}") from None
    rows, dimension = table.features.shape
    if rows == 0:
        raise ScenarioError(f"dataset {config.dataset} is empty")
    if dimension < 1:
        raise ScenarioError(f"dataset {config.dataset} has no features")
    with np.errstate(over="ignore", invalid="ignore"):  # reported as non-finite data by the bounds
        return table.rescaled(), dimension


def _checkpoints(config: ScenarioConfig) -> tuple[int, ...]:
    if config.checkpoints is None:
        return checkpoint_grid(config.horizon)
    kept = tuple(k for k in config.checkpoints if k <= config.horizon)
    if not kept or kept[-1] != config.horizon:
        kept = kept + (config.horizon,)
    return check_checkpoints(kept, config.horizon)


@dataclass(frozen=True)
class _Prepared:
    """What a valid scenario resolves to before its first round."""

    dataset: Optional[DatasetTable]  # the rescaled rows, built once; None for synthetic data
    radius: float
    constraints: BoxConstraintSet
    checkpoints: tuple[int, ...]


def _prepare(config: ScenarioConfig) -> tuple[list[str], Optional[_Prepared]]:
    """Pre-round checks and resolution; the failures are empty exactly when the result is set.
    The field rules come first, and their failures return before any data work."""
    failures = _rule_failures(config)
    if failures:
        return failures, None
    dataset, dimension, bounds = None, config.dimension, None
    if config.source == "dataset":
        try:
            dataset, dimension = _load_dataset(config)
        except (ScenarioError, ValueError) as exc:
            return [str(exc)], None
    # Estimated before the bounding stream, which is as wide as a seed's stream.
    too_large = _stream_failure(
        f"horizon = {config.horizon} with {len(config.seeds)} seeds", len(config.seeds),
        config.horizon, config.n_units, dimension,
    )
    constraints = BoxConstraintSet(config.lower, config.upper, dimension)
    corner = constraints.max_vertex_norm()
    radius = corner if config.radius is None else config.radius
    # Features lie in [-1, 1]^d for both sources, so this bounds the feature part of G.
    feature_g = (dimension + 2.0 * config.rho) * radius
    # R^2 needs no check of its own: (d + 2 rho) R >= R, as d >= 1 and rho >= 0.
    if not all(map(math.isfinite, (radius, corner, feature_g * feature_g))):
        failures.append(
            f"lower/upper/radius/rho too large: radius R = {radius:.6g}, "
            f"corner norm {corner:.6g} and the feature part of G^2, "
            f"(d R + 2 rho R)^2 = {feature_g * feature_g:.6g}, must be finite"
        )
    else:
        if corner > radius + 1e-12:
            failures.append(
                f"decision box leaves the ball: corner norm {corner:.6g} > radius {radius:.6g}"
            )
        if not too_large:
            try:
                bounds = _realized_bounds(
                    _bounding_stream(config, dataset, dimension), constraints, radius,
                    "the largest synthetic draw" if dataset is None else "dataset rows",
                )
            except ScenarioError as exc:
                failures.append(str(exc))
            except ValueError as exc:  # rows that rescale to non-finite values
                failures.append(f"dataset rows after rescaling: {exc}")
    if not verify_window_connectivity(config.topology):
        failures.append(f"union over windows of {config.topology.window} is not connected")
    if too_large:
        failures.append(too_large)
    try:
        # Range checks need no data; the step sizes must stay finite at the largest G.
        G = 1.0 if bounds is None else bounds[0]
        hyper = _schedule(config, constraints, radius, G=G, sigma=2.0 * config.rho)
    except ValueError as exc:
        failures.append(str(exc))
    else:
        if bounds is not None:
            failures.extend(_overflow_failures(config, hyper, dimension, *bounds))
    try:
        checkpoints = _checkpoints(config)
    except ValueError as exc:
        failures.append(str(exc))
    if failures:
        return failures, None
    return [], _Prepared(dataset, radius, constraints, checkpoints)


# A standard normal draw beyond 40 has probability below 1e-340.
_NOISE_BOUND = 40.0


def _bounding_stream(config: ScenarioConfig, dataset, dimension: int) -> RegressionStream:
    """A stream whose G and C bound those of every seed's stream from above.

    A dataset is judged by all its rows: one unit sees each rescaled row once,
    a view of the table. Synthetic features lie in [-1, 1]^d and targets are
    a.xbar + N(0, 1) noise with |a.xbar| <= d // 2, so the corner of the cube
    with the largest target bounds every draw, save noise beyond _NOISE_BOUND.
    """
    if dataset is not None:
        return RegressionStream(dataset.features[:, None, :], dataset.targets[:, None], config.rho)
    target = dimension // 2 + _NOISE_BOUND
    return RegressionStream(np.ones((1, 1, dimension)), np.full((1, 1), target), config.rho)


def _overflow_failures(
    config: ScenarioConfig, hyper: HyperSchedule, dimension: int, G: float, C: float
) -> list[str]:
    """The run's arithmetic at losses bounded by G and C: the first update and the loss sums.

    beta_t times the dual pull is at most the radius R (beta_t / eta_t <= 1 / 2
    and the pull's violation is at most 2 R), so no update leaves the ball of
    radius 2 R + beta_1 g, with g the largest gradient: G, or (d / eps) C
    under bandit feedback. A regret is the difference of two sums of at most
    N T losses, each at most C.
    """
    gradient = dimension * C / hyper.eps if hyper.is_bandit else G
    reach = 2.0 * hyper.radius + hyper.beta(1) * gradient
    sums = 2.0 * config.n_units * config.horizon * C
    if all(map(math.isfinite, (reach * reach, sums))):
        return []
    return [
        f"the run's arithmetic overflows: updates reach 2 R + beta_1 g = {reach:.6g}, squared "
        f"{reach * reach:.6g}, and the loss sums 2 N T C = {sums:.6g}, which must be finite; "
        "lower/upper/radius, rho, a, c or the data are too large"
    ]


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
    """One seed's stream, realized value bound C and step schedule; schedule.G is the realized gradient bound."""
    stream_seed = config.data_seed + seed
    if config.source == "synthetic":
        stream = synthetic_stream(
            config.n_units, prepared.constraints.dimension, config.horizon, config.rho, stream_seed
        )
    else:
        stream = dataset_stream(
            prepared.dataset, config.n_units, config.horizon, config.rho, stream_seed
        )
    radius, constraints = prepared.radius, prepared.constraints
    G, C = _realized_bounds(stream, constraints, radius, f"seed {seed}")
    try:
        schedule = _schedule(config, constraints, radius, G=G, sigma=stream.strong_convexity)
    except ValueError as exc:  # step sizes past _prepare's bound, from noise beyond _NOISE_BOUND
        raise ScenarioError(f"seed {seed}: {exc}") from None
    return stream, C, schedule


def _realized_bounds(stream, constraints, radius, rows: str) -> tuple[float, float]:
    """G and C over a stream's rows; ScenarioError, naming the rows, unless G, G^2 and C are finite."""
    with np.errstate(over="ignore"):  # an overflow is reported below, by key
        G, C = stream.bounds(radius)
    G = max(G, constraints.gradient_bound)
    if not all(map(math.isfinite, (G, G * G, C))):
        raise ScenarioError(
            f"{rows}: realized bounds G = {G:.6g}, G^2 = {G * G:.6g} and C = {C:.6g} must be "
            "finite; lower/upper/radius, rho or the dataset targets are too large"
        )
    return G, C


def run_suite(config: ScenarioConfig, *, out_dir=None) -> SuiteResult:
    """Run every seed of a scenario, average, and write its CSV.

    One call, metrics.checkpoint_series, runs all seeds in lockstep as one
    batch and scores them. The hindsight comparators of every seed's
    checkpoints are solved together, in one stacked solve; one that does not
    converge raises ScenarioError naming the scenario, the first such seed,
    its checkpoint and the residual.

    Output directory precedence: out_dir argument, then the NETOCO_OUTPUT_DIR
    environment variable, then the config's output key, then "results".
    """
    failures, prepared = _prepare(config)
    if failures:
        raise ScenarioError("; ".join(failures))
    checkpoints = prepared.checkpoints
    inputs = [_seed_inputs(config, seed, prepared) for seed in config.seeds]
    try:
        series = checkpoint_series(
            [stream for stream, _, _ in inputs], config.topology, [schedule for _, _, schedule in inputs],
            prepared.constraints, config.seeds, checkpoints,
        )
    except ConvergenceError as exc:
        raise ScenarioError(f"{config.name}: seed {config.seeds[exc.stream]}: {exc}") from None
    seed_results = [
        SeedResult(seed=seed, series=seed_series, C=C, schedule=schedule)
        for seed, seed_series, (_, C, schedule) in zip(config.seeds, series, inputs)
    ]
    mean = averaged_metrics([r.series for r in seed_results])
    directory = Path(out_dir or os.environ.get(OUTPUT_DIR_ENV) or config.output_dir or "results")
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


def _render_csv(config, checkpoints, seed_results, mean) -> str:
    """The CSV text: a row per checkpoint and seed, then the mean's; floats by repr, counts by str.

    A row's sreg, regrets and cacv become Python floats in one tolist() call.
    """
    header = ["checkpoint_T", "seed", "sreg"]
    header += [f"reg_unit_{i}" for i in range(1, config.n_units + 1)]
    header += ["cacv", "comm_cost"]
    lines = [",".join(header)]
    labelled = [(str(r.seed), r.series) for r in seed_results] + [("mean", mean)]
    series = [(label, np.column_stack((s.sreg, s.regrets, s.cacv)), s.comm_cost.tolist()) for label, s in labelled]
    for k, T in enumerate(checkpoints):
        for label, values, counts in series:
            lines.append(f"{T},{label},{','.join(map(repr, values[k].tolist()))},{counts[k]}")
    return "\n".join(lines) + "\n"
