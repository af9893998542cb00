"""Scenario configs, presets, the suite runner, CSV output, and the CLI."""

import configparser
import csv
import dataclasses

import numpy as np
import pytest

import netoco.bench
from netoco.bench import (
    OUTPUT_DIR_ENV,
    ConfigError,
    ScenarioError,
    list_presets,
    load_config,
    preset_config,
    run_suite,
    validate_scenario,
)
from netoco.cli import main
from netoco.problems import BoxConstraintSet

SC_SCENARIO = """\
[problem]
units = 6
dimension = 3
rho = 1.0
seed = 7

[algorithm]
variant = strongly-convex-full
horizon = 32

[run]
seeds = 1 2
"""


def write_config(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadConfig:
    def test_full_file_round_trips_every_field(self, tmp_path):
        path = write_config(
            tmp_path,
            """\
[problem]
source = synthetic
units = 3
dimension = 2
rho = 0.5
seed = 11

[topology]
nodes = 3
window = 2
graphs = 1-2 | 2-3

[constraints]
lower = -0.2
upper = 0.2
radius = 0.9

[algorithm]
variant = convex-full
c = 0.75
a = 3.0
horizon = 512 ; inline comment
checkpoints = 64, 128 256

[run]
seeds = 5 6 7
output = out-here
workers = 2
""",
            name="everything.ini",
        )
        config = load_config(path)
        assert config.name == "everything"
        assert config.source == "synthetic"
        assert config.n_units == 3
        assert config.dimension == 2
        assert config.rho == 0.5
        assert config.data_seed == 11
        assert (config.lower, config.upper, config.radius) == (-0.2, 0.2, 0.9)
        assert (config.variant, config.c, config.a) == ("convex-full", 0.75, 3.0)
        assert config.horizon == 512
        assert config.checkpoints == (64, 128, 256)
        assert config.seeds == (5, 6, 7)
        assert config.output_dir == "out-here"
        assert config.workers == 2
        assert config.topology.node_count == 3
        assert config.topology.period == 2
        assert config.topology.window == 2

    def test_defaults(self, tmp_path):
        path = write_config(
            tmp_path, "[algorithm]\nvariant = convex-full\nc = 0.5\n", name="mini.ini"
        )
        config = load_config(path)
        assert config.name == "mini"
        assert config.source == "synthetic"
        assert config.dataset is None
        assert (config.n_units, config.dimension) == (6, 4)
        assert (config.rho, config.data_seed) == (0.0, 0)
        assert (config.lower, config.upper, config.radius) == (-0.15, 0.15, None)
        assert config.a == 2.0
        assert config.horizon == 8192
        assert config.checkpoints is None
        assert config.seeds == tuple(range(1, 11))
        assert config.output_dir is None
        assert config.workers == 1
        assert config.topology.node_count == 6
        assert config.topology.window == 2

    def test_seed_count_expands_to_a_range(self, tmp_path):
        path = write_config(
            tmp_path,
            "[algorithm]\nvariant = convex-full\nc = 0.5\n[run]\nseed_count = 4\n",
        )
        assert load_config(path).seeds == (1, 2, 3, 4)

    def test_dataset_paths_resolve_against_the_config(self, tmp_path):
        bundled = write_config(
            tmp_path,
            "[problem]\nsource = dataset\ndataset = mg\n"
            "[algorithm]\nvariant = convex-full\nc = 0.5\n",
            name="bundled.ini",
        )
        assert load_config(bundled).dataset == "mg"
        relative = write_config(
            tmp_path,
            "[problem]\nsource = dataset\ndataset = local.libsvm\n"
            "[algorithm]\nvariant = convex-full\nc = 0.5\n",
            name="relative.ini",
        )
        assert load_config(relative).dataset == str(tmp_path / "local.libsvm")

    @pytest.mark.parametrize(
        ("body", "message"),
        [
            ("[mystery]\nx = 1\n[algorithm]\nvariant = convex-full\nc = 0.5\n", "unknown section"),
            ("[algorithm]\nvariant = convex-full\nc = 0.5\nzeal = 9\n", "unknown key"),
            ("[problem]\nsource = oracle\n[algorithm]\nvariant = convex-full\nc = 0.5\n", "source"),
            ("[problem]\nsource = dataset\n[algorithm]\nvariant = convex-full\nc = 0.5\n", "needs a dataset"),
            (
                "[problem]\ndataset = mg\n[algorithm]\nvariant = convex-full\nc = 0.5\n",
                "only valid with source",
            ),
            (
                "[problem]\nsource = dataset\ndataset = mg\ndimension = 4\n"
                "[algorithm]\nvariant = convex-full\nc = 0.5\n",
                "inferred from the dataset",
            ),
            ("[problem]\nrho = -1\n[algorithm]\nvariant = convex-full\nc = 0.5\n", "rho"),
            (
                "[constraints]\nlower = 0.2\nupper = 0.1\n[algorithm]\nvariant = convex-full\nc = 0.5\n",
                "lower < upper",
            ),
            (
                "[constraints]\nradius = 0\n[algorithm]\nvariant = convex-full\nc = 0.5\n",
                "radius",
            ),
            ("[algorithm]\nc = 0.5\n", "variant is required"),
            ("[algorithm]\nvariant = banditry\nc = 0.5\n", "unknown variant"),
            ("[algorithm]\nvariant = convex-full\n", "convex variants need c"),
            ("[algorithm]\nvariant = convex-full\nc = 1.2\n", "c must lie"),
            ("[algorithm]\nvariant = convex-full\nc = 0.5\na = 1\n", "a must be"),
            (
                "[problem]\nrho = 1\n[algorithm]\nvariant = strongly-convex-full\nc = 0.5\n",
                "only meaningful for convex",
            ),
            (
                "[algorithm]\nvariant = strongly-convex-full\n",
                "need rho > 0",
            ),
            (
                "[algorithm]\nvariant = convex-full\nc = 0.5\nhorizon = zero\n",
                "must be an integer",
            ),
            (
                "[algorithm]\nvariant = convex-full\nc = portion\n",
                "must be a number",
            ),
            (
                "[algorithm]\nvariant = convex-full\nc = 0.5\n[run]\nseeds = 1 2\nseed_count = 2\n",
                "not both",
            ),
            (
                "[algorithm]\nvariant = convex-full\nc = 0.5\n[run]\nseeds = 1 1\n",
                "distinct",
            ),
            (
                "[algorithm]\nvariant = convex-full\nc = 0.5\n[topology]\npreset = torus\n",
                "unknown topology preset",
            ),
            (
                "[algorithm]\nvariant = convex-full\nc = 0.5\n"
                "[topology]\npreset = default-ring-6\nnodes = 6\n",
                "preset excludes",
            ),
            (
                "[problem]\nunits = 4\n[algorithm]\nvariant = convex-full\nc = 0.5\n",
                "6 nodes but units = 4",
            ),
            (
                "[problem]\nunits = 3\n[algorithm]\nvariant = convex-full\nc = 0.5\n"
                "[topology]\nnodes = 2\ngraphs = 1-2\n",
                "nodes = 2 but units = 3",
            ),
            (
                "[problem]\nunits = 2\n[algorithm]\nvariant = convex-full\nc = 0.5\n"
                "[topology]\nnodes = 2\nwindow = 1\n",
                "needs graphs",
            ),
            (
                "[problem]\nunits = 2\n[algorithm]\nvariant = convex-full\nc = 0.5\n"
                "[topology]\nnodes = 2\ngraphs = 1:2\n",
                "bad edge token",
            ),
            (
                "[problem]\nunits = 2\n[algorithm]\nvariant = convex-full\nc = 0.5\n"
                "[topology]\nnodes = 2\ngraphs = 1-1\n",
                "bad graph",
            ),
        ],
    )
    def test_rejections(self, tmp_path, body, message):
        path = write_config(tmp_path, body)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_empty_graph_marker(self, tmp_path):
        path = write_config(
            tmp_path,
            "[problem]\nunits = 2\n[algorithm]\nvariant = convex-full\nc = 0.5\n"
            "[topology]\nnodes = 2\nwindow = 2\ngraphs = 1-2 | -\n",
        )
        topology = load_config(path).topology
        assert topology.period == 2
        assert len(topology.graph_at(1).edges) == 1
        assert len(topology.graph_at(2).edges) == 0

    def test_empty_topology_section_is_the_default_preset(self, tmp_path):
        path = write_config(
            tmp_path, "[algorithm]\nvariant = convex-full\nc = 0.5\n[topology]\n"
        )
        assert load_config(path).topology == netoco.bench.default_ring_6()

    @pytest.mark.parametrize(
        "topology", ["", "[topology]\nwindow = 3\ngraphs = 1-2 2-3 | 3-4 | 4-5 5-6 6-1\n"], ids=["preset", "explicit"]
    )
    def test_two_loads_of_one_file_are_one_set_element(self, tmp_path, topology):
        path = write_config(tmp_path, "[algorithm]\nvariant = convex-full\nc = 0.5\n" + topology)
        first, second = load_config(path), load_config(path)
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != dataclasses.replace(second, topology=dataclasses.replace(second.topology, window=6))


class TestPresets:
    def test_catalogue_names(self):
        names = list_presets()
        assert len(names) == 16
        for expected in (
            "synthetic-convex-c0.5",
            "synthetic-convex-c0.75",
            "synthetic-bandit-c0.5",
            "synthetic-bandit-c0.75",
            "synthetic-sc-rho1",
            "synthetic-sc-rho2",
            "synthetic-sc-bandit-rho1",
            "synthetic-sc-bandit-rho2",
            "mg-convex",
            "mg-bandit",
            "mg-sc",
            "mg-sc-bandit",
            "bodyfat-convex",
            "bodyfat-bandit",
            "bodyfat-sc",
            "bodyfat-sc-bandit",
        ):
            assert expected in names

    def test_every_preset_validates(self):
        for name in list_presets():
            config = preset_config(name)
            assert validate_scenario(config) == [], name
            assert config.horizon == 8192
            assert config.seeds == tuple(range(1, 11))

    def test_overrides(self):
        config = preset_config("synthetic-sc-rho1", seed_count=3, horizon=64, workers=4)
        assert config.seeds == (1, 2, 3)
        assert config.horizon == 64
        assert config.workers == 4

    def test_a_lookup_builds_one_topology_and_the_list_none(self, monkeypatch):
        built = []
        ring = netoco.bench.default_ring_6

        def counting():
            built.append(1)
            return ring()

        monkeypatch.setattr(netoco.bench, "default_ring_6", counting)
        assert len(list_presets()) == 16
        assert built == []
        preset_config("mg-sc-bandit", seed_count=2)
        assert len(built) == 1

    @pytest.mark.parametrize("name", list_presets())
    def test_a_preset_equals_its_keys_loaded_from_a_file(self, tmp_path, name):
        parser = configparser.ConfigParser()
        parser.read_dict(netoco.bench._PRESETS[name])
        path = tmp_path / "keys.ini"
        with open(path, "w", encoding="utf-8") as handle:
            parser.write(handle)
        from_file, preset = load_config(path), preset_config(name)
        assert from_file == dataclasses.replace(preset, name="keys")
        for field in dataclasses.fields(preset):  # 1 == 1.0, so == alone would pass a float for an int
            assert type(getattr(from_file, field.name)) is type(getattr(preset, field.name)), field.name

    def test_bad_arguments(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_config("synthetic-chaos")
        with pytest.raises(ConfigError, match="seed_count"):
            preset_config("mg-sc", seed_count=0)
        with pytest.raises(ConfigError, match="horizon"):
            preset_config("mg-sc", horizon=0)
        with pytest.raises(ConfigError, match="workers"):
            preset_config("mg-sc", workers=0)


class TestValidateScenario:
    def test_valid_synthetic_scenario(self, tmp_path):
        config = load_config(write_config(tmp_path, SC_SCENARIO))
        assert validate_scenario(config) == []

    def test_box_leaving_the_ball_is_reported(self, tmp_path):
        body = SC_SCENARIO + "[constraints]\nradius = 0.1\n"
        config = load_config(write_config(tmp_path, body))
        failures = validate_scenario(config)
        assert any("leaves the ball" in f for f in failures)

    @pytest.mark.parametrize(("lower", "upper"), [(-0.3, 0.15), (-0.3, -0.1)], ids=["wider-below", "below-zero"])
    def test_the_default_radius_holds_any_box(self, tmp_path, lower, upper):
        """With no radius set, the ball is the one through the box's farthest corner,
        max(|lower|, |upper|) * sqrt(d), also for a box that reaches further below zero
        than above it, or lies below zero."""
        body = SC_SCENARIO + f"[constraints]\nlower = {lower}\nupper = {upper}\n"
        config = load_config(write_config(tmp_path, body))
        failures, prepared = netoco.bench._prepare(config)
        assert failures == []
        assert prepared.radius == BoxConstraintSet(lower, upper, 3).max_vertex_norm()

    def test_bandit_shrinkage_failure_is_reported(self, tmp_path):
        body = "[algorithm]\nvariant = convex-bandit\nc = 0.5\nhorizon = 8\n"
        config = load_config(write_config(tmp_path, body))
        failures = validate_scenario(config)
        assert any("pi" in f for f in failures)

    def test_disconnected_window_is_reported(self, tmp_path):
        body = (
            "[problem]\nunits = 4\n"
            "[topology]\nnodes = 4\nwindow = 2\ngraphs = 1-2 | 1-2 3-4\n"
            "[algorithm]\nvariant = convex-full\nc = 0.5\n"
        )
        config = load_config(write_config(tmp_path, body))
        failures = validate_scenario(config)
        assert any("not connected" in f for f in failures)

    def test_missing_dataset_file_is_reported(self, tmp_path):
        body = (
            "[problem]\nsource = dataset\ndataset = gone.libsvm\n"
            "[algorithm]\nvariant = convex-full\nc = 0.5\n"
        )
        config = load_config(write_config(tmp_path, body))
        failures = validate_scenario(config)
        assert any("cannot read dataset" in f for f in failures)

    def test_unsorted_checkpoints_are_reported(self, tmp_path):
        body = SC_SCENARIO + "[algorithm.extra]\n"
        config = load_config(
            write_config(
                tmp_path,
                SC_SCENARIO.replace(
                    "horizon = 32", "horizon = 32\ncheckpoints = 8 4"
                ),
            )
        )
        failures = validate_scenario(config)
        assert any("strictly increasing" in f for f in failures)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestRunSuite:
    def test_writes_a_csv_with_seed_and_mean_rows(self, tmp_path):
        config = load_config(write_config(tmp_path, SC_SCENARIO))
        result = run_suite(config, out_dir=tmp_path / "out")
        assert result.csv_path == tmp_path / "out" / "scenario.csv"
        rows = read_csv(result.csv_path)
        assert rows[0] == [
            "checkpoint_T", "seed", "sreg",
            "reg_unit_1", "reg_unit_2", "reg_unit_3",
            "reg_unit_4", "reg_unit_5", "reg_unit_6",
            "cacv", "comm_cost",
        ]
        checkpoints = result.checkpoints
        assert checkpoints == (2, 4, 8, 16, 32)
        assert len(rows) == 1 + len(checkpoints) * 3  # 2 seeds + mean per checkpoint
        # Mean rows reproduce the averaged series bit for bit.
        for k, T in enumerate(checkpoints):
            block = rows[1 + 3 * k : 1 + 3 * (k + 1)]
            assert [r[1] for r in block] == ["1", "2", "mean"]
            assert all(r[0] == str(T) for r in block)
            mean_row = block[2]
            assert float(mean_row[2]) == result.mean.sreg[k]
            assert float(mean_row[-2]) == result.mean.cacv[k]
            assert int(mean_row[-1]) == result.mean.comm_cost[k]
            seed_sregs = np.array([float(r[2]) for r in block[:2]])
            assert np.mean(seed_sregs) == pytest.approx(result.mean.sreg[k], rel=1e-15)

    def test_byte_identical_across_invocations_and_worker_counts(self, tmp_path):
        from dataclasses import replace

        config = load_config(write_config(tmp_path, SC_SCENARIO))
        first = run_suite(config, out_dir=tmp_path / "a")
        second = run_suite(config, out_dir=tmp_path / "b")
        threaded = run_suite(replace(config, workers=4), out_dir=tmp_path / "c")
        blob = first.csv_path.read_bytes()
        assert second.csv_path.read_bytes() == blob
        assert threaded.csv_path.read_bytes() == blob

    def test_output_directory_precedence(self, tmp_path, monkeypatch):
        body = SC_SCENARIO.replace(
            "[run]\nseeds = 1 2", "[run]\nseeds = 1 2\noutput = from-config"
        )
        config = load_config(write_config(tmp_path, body, name="prec.ini"))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        # 1. config's own output key (relative to the working directory)
        result = run_suite(config)
        assert result.csv_path.resolve() == tmp_path / "from-config" / "prec.csv"
        assert result.csv_path.exists()
        # 2. environment variable beats the config key
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "from-env"))
        result = run_suite(config)
        assert result.csv_path == tmp_path / "from-env" / "prec.csv"
        # 3. explicit argument beats both
        result = run_suite(config, out_dir=tmp_path / "from-arg")
        assert result.csv_path == tmp_path / "from-arg" / "prec.csv"

    def test_default_directory_is_results(self, tmp_path, monkeypatch):
        config = load_config(write_config(tmp_path, SC_SCENARIO))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        result = run_suite(config)
        assert result.csv_path.resolve() == tmp_path / "results" / "scenario.csv"
        assert result.csv_path.exists()
        assert len(result.seed_results) == 2
        assert result.seed_results[0].schedule.G > 0
        assert result.seed_results[0].C > 0

    def test_explicit_checkpoints_are_capped_at_the_horizon(self, tmp_path):
        body = SC_SCENARIO.replace(
            "horizon = 32", "horizon = 12\ncheckpoints = 4 8 100"
        )
        config = load_config(write_config(tmp_path, body))
        result = run_suite(config, out_dir=tmp_path)
        assert result.checkpoints == (4, 8, 12)

    def test_invalid_scenario_raises(self, tmp_path):
        body = SC_SCENARIO + "[constraints]\nradius = 0.01\n"
        config = load_config(write_config(tmp_path, body))
        with pytest.raises(ScenarioError, match="leaves the ball"):
            run_suite(config, out_dir=tmp_path)

    def test_bandit_suite_runs_where_shrinkage_allows(self, tmp_path):
        body = (
            "[problem]\nrho = 1.0\n"
            "[algorithm]\nvariant = strongly-convex-bandit\nhorizon = 64\n"
            "[run]\nseeds = 1 2\n"
        )
        config = load_config(write_config(tmp_path, body, name="bandit.ini"))
        result = run_suite(config, out_dir=tmp_path)
        assert result.checkpoints[-1] == 64
        # Distinct seeds see distinct sphere directions, so metrics differ.
        a, b = result.seed_results
        assert a.series.sreg[-1] != b.series.sreg[-1]

    def test_dataset_scenario_runs_from_the_bundle(self, tmp_path):
        config = preset_config("mg-sc", seed_count=2, horizon=16)
        result = run_suite(config, out_dir=tmp_path)
        assert result.csv_path.exists()
        assert result.checkpoints == (1, 2, 4, 8, 16)

    def test_custom_dataset_file_next_to_the_config(self, tmp_path):
        (tmp_path / "tiny.libsvm").write_text(
            "1.0 1:0.5 2:-0.25\n-1.0 1:-0.5 2:0.75\n0.5 2:1.0\n", encoding="utf-8"
        )
        body = (
            "[problem]\nsource = dataset\ndataset = tiny.libsvm\nrho = 1.0\n"
            "[algorithm]\nvariant = strongly-convex-full\nhorizon = 8\n"
            "[run]\nseeds = 1\n"
        )
        config = load_config(write_config(tmp_path, body, name="tiny.ini"))
        result = run_suite(config, out_dir=tmp_path)
        assert result.checkpoints[-1] == 8


class TestCli:
    def test_presets_lists_names(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(list_presets())

    def test_run_preset_with_overrides(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--preset", "synthetic-sc-rho1",
                "--seed-count", "2",
                "--horizon", "32",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "synthetic-sc-rho1: T=32 seeds=2" in out
        assert "mean sreg=" in out
        assert (tmp_path / "synthetic-sc-rho1.csv").exists()

    def test_run_config_file_with_horizon_override(self, tmp_path, capsys):
        path = write_config(tmp_path, SC_SCENARIO)
        code = main(["run", str(path), "--horizon", "16", "--out", str(tmp_path / "o")])
        assert code == 0
        rows = read_csv(tmp_path / "o" / "scenario.csv")
        assert rows[-1][0] == "16"

    def test_run_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["run"]) == 2
        assert "config file or --preset" in capsys.readouterr().err
        path = write_config(tmp_path, SC_SCENARIO)
        assert main(["run", str(path), "--preset", "mg-sc"]) == 2

    def test_run_unknown_preset_fails_cleanly(self, capsys):
        assert main(["run", "--preset", "nonesuch"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_run_bad_config_fails_cleanly(self, tmp_path, capsys):
        path = write_config(tmp_path, "[algorithm]\nvariant = convex-full\n")
        assert main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, SC_SCENARIO, name="fine.ini")
        assert main(["validate", str(path)]) == 0
        assert "ok: fine" in capsys.readouterr().out

    def test_validate_reports_failures(self, tmp_path, capsys):
        body = SC_SCENARIO + "[constraints]\nradius = 0.01\n"
        path = write_config(tmp_path, body)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "fail:" in err and "leaves the ball" in err

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "gone.ini")]) == 2
        assert "error:" in capsys.readouterr().err
