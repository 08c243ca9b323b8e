import csv
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from srrw_lab import cli, config, forest, metrics, runner, walk
from srrw_lab.config import parse_config, validate_config
from srrw_lab.errors import CapacityError, SchemaError
from srrw_lab.presets import preset_config, preset_names
from srrw_lab.runner import run


DROP = object()  # an override that removes the field


def base_config(tmp_path, **overrides):
    doc = {
        "schema_version": 1,
        "kind": "oracle-check",
        "group": {"kind": "cyclic", "L": 2},
        "mu": {"type": "uniform"},
        "alphas": [0.0, 0.3, 0.5, 0.7],
        "n_max": 4,
        "replicas": 1,
        "seed": 7,
        "estimator": "exact",
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return doc


class TestValidation:
    def test_replicas_zero_names_field(self, tmp_path):
        problems = validate_config(base_config(tmp_path, replicas=0))
        assert any(p.startswith("replicas") for p in problems)

    def test_exhaustive_profiles_capacity_names_cap(self, tmp_path):
        doc = base_config(
            tmp_path,
            kind="profiles",
            group={"kind": "symmetric", "m": 8},
            mu={"type": "uniform"},
        )
        problems = validate_config(doc)
        assert any("24" in p and p.startswith("group") for p in problems)

    def test_presets_all_validate(self):
        for name in preset_names():
            assert validate_config(preset_config(name)) == []

    def test_benchmark_workloads_all_validate(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for build in (*workloads.WORKLOADS.values(), *workloads.REDUCED.values()):
            for doc in workloads.configs("w", 1, str(tmp_path), build):
                assert validate_config(doc) == []

    def test_planned_cutoff_scans_validate(self, tmp_path):
        # the first pass of each scan fits the forest cap; at d = 1024, alpha = 0.9 it
        # holds 782 MiB and keeps no checkpoint. An extension past the cap is refused
        # when it is reached.
        doc = preset_config("cutoff-desk")
        doc.update(sizes=[256, 512, 1024], alphas=[0.25, 0.5, 0.75, 0.9], replicas=4096)
        doc.update(threads=1, output_dir=str(tmp_path))
        assert validate_config(doc) == []

    def test_forest_cap_is_checked_beside_unrelated_problems(self, tmp_path):
        doc = preset_config("fig1-cycle-desk")
        doc.update(grid={"type": "geometric", "n_max": 10**8}, seed=-1, bogus=1)
        problems = [p.split(":")[0] for p in validate_config(doc)]
        assert sorted(problems) == ["bogus", "grid", "seed"]

    def test_bad_schema_version(self, tmp_path):
        problems = validate_config(base_config(tmp_path, schema_version=2))
        assert any(p.startswith("schema_version") for p in problems)

    def test_estimator_group_compat(self, tmp_path):
        doc = base_config(
            tmp_path,
            kind="tv-curve",
            estimator="rao-blackwell",
            grid={"type": "geometric", "n_max": 10},
        )
        problems = validate_config(doc)  # L=2 is even: no RB reduction
        assert any(p.startswith("estimator") for p in problems)

    def test_parse_rejects_invalid(self, tmp_path):
        with pytest.raises(SchemaError):
            parse_config(base_config(tmp_path, replicas=0))

    def test_aggregates_multiple_problems(self, tmp_path):
        doc = base_config(tmp_path, replicas=0, seed="x", alphas=[2.0])
        problems = validate_config(doc)
        assert len(problems) >= 3

    def test_explicit_mu_probs_must_be_an_object(self, tmp_path):
        doc = base_config(tmp_path, mu={"type": "explicit", "probs": [0.5, 0.5]})
        assert any(p.startswith("mu") for p in validate_config(doc))

    @pytest.mark.parametrize(
        "group",
        [
            {"kind": "cyclic", "L": 2.5},
            {"kind": "hypercube", "d": True},
            {"kind": "symmetric", "m": "3"},
        ],
    )
    def test_non_integer_group_size_is_a_config_problem(self, tmp_path, group):
        problems = validate_config(base_config(tmp_path, group=group))
        assert any(p.startswith("group") and "integer" in p for p in problems)
        with pytest.raises(SchemaError):
            parse_config(base_config(tmp_path, group=group))

    def test_profiles_need_order_two(self, tmp_path):
        doc = base_config(tmp_path, kind="profiles", group={"kind": "table", "table": [[0]]})
        problems = validate_config(doc)
        assert any(p.startswith("group") and ">= 2" in p for p in problems)

    @pytest.mark.parametrize(
        "kind, group, mu, estimator, sizes",
        [
            ("phase-transition", {"kind": "cyclic", "L": 5}, "simple-cycle", "rao-blackwell", [4]),
            ("phase-transition", {"kind": "cyclic", "L": 5}, "simple-cycle", "rao-blackwell", [1]),
            ("phase-transition", {"kind": "cyclic", "L": 5}, "simple-cycle", "rao-blackwell", [5, 8]),
            ("cutoff", {"kind": "hypercube", "d": 4}, "lazy-hypercube", "hypercube-weight", [1]),
            ("cutoff", {"kind": "hypercube", "d": 4}, "lazy-hypercube", "hypercube-weight", [1025]),
        ],
    )
    def test_scaling_sizes_checked_up_front(self, tmp_path, kind, group, mu, estimator, sizes):
        doc = base_config(
            tmp_path, kind=kind, group=group, mu={"type": mu}, estimator=estimator, sizes=sizes
        )
        assert [p for p in validate_config(doc) if not p.startswith("sizes")] == []
        assert any(p.startswith("sizes") for p in validate_config(doc))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert not os.path.exists(doc["output_dir"])

    @pytest.mark.parametrize(
        "kind, epsilons",
        [
            ("oracle-check", 0.5),  # not a list: used to end in a TypeError
            ("phase-transition", []),  # used to write a header-only mixing_times.csv
        ],
    )
    def test_epsilons_checked_up_front(self, tmp_path, kind, epsilons):
        doc = _small_config(tmp_path, kind, epsilons=epsilons)
        assert [p.split(":")[0] for p in validate_config(doc)] == ["epsilons"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert cli.main(["run", "--config", str(path)]) == 2
        assert not os.path.exists(doc["output_dir"])

    @pytest.mark.parametrize(
        "kind, field, cap",
        [
            # 2^63 replicas used to hang in chunk_ranges; 2^63 points per decade
            # failed in geometric_grid
            ("phase-transition", "replicas", config.REPLICAS_CAP),
            ("mixing-scan", "points_per_decade", config.POINTS_PER_DECADE_CAP),
        ],
    )
    def test_counts_capped_up_front(self, tmp_path, kind, field, cap):
        assert validate_config(_small_config(tmp_path, kind, **{field: cap})) == []
        for value in (cap + 1, 2**63):
            doc = _small_config(tmp_path, kind, **{field: value})
            problems = validate_config(doc)
            assert [p.split(":")[0] for p in problems] == [field]
            assert f"[1, {cap}]" in problems[0]
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            assert cli.main(["validate", "--config", str(path)]) == 2
            assert not os.path.exists(doc["output_dir"])

    def test_endpoint_step_table_capped_up_front(self, tmp_path):
        # one chunk of 100 000 walks on Z_3 to n = 30 000 would hold 3 GB of steps
        doc = base_config(
            tmp_path, kind="tv-curve", group={"kind": "cyclic", "L": 3},
            mu={"type": "simple-cycle"}, alphas=[0.5], estimator="endpoint",
            replicas=100_000, grid={"n_max": 30_000},
        )
        problems = validate_config(doc)
        assert [p.split(":")[0] for p in problems] == ["grid"]
        assert str(walk.STEP_TABLE_CAP) in problems[0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert cli.main(["run", "--config", str(path)]) == 2
        assert not os.path.exists(doc["output_dir"])
        assert validate_config(dict(doc, replicas=10_000)) == []

    def test_endpoint_runs_on_groups_without_a_table(self, tmp_path):
        # S_7 has order 5040 > groups.TABLE_CAP; mul multiplies its index arrays
        doc = base_config(
            tmp_path, kind="tv-curve", group={"kind": "symmetric", "m": 7},
            mu={"type": "uniform"}, alphas=[0.5], estimator="endpoint", replicas=2000,
            grid={"type": "explicit", "values": [1, 10, 50]},
        )
        assert validate_config(doc) == []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match=r"R=2000 < 100\*\|G\|=504000"):
            assert cli.main(["run", "--config", str(path)]) == 0
        assert os.path.exists(os.path.join(doc["output_dir"], "curves.csv"))

    def test_forest_stats_batch_capped_up_front(self, tmp_path):
        # 100 forests grown to 10^8 at modulus 10^8 + 1 would hold 160 GB in one chunk
        doc = base_config(
            tmp_path, kind="forest-stats", alphas=[0.5], replicas=100,
            grid={"type": "explicit", "values": [10**8]},
        )
        problems = validate_config(doc)
        assert [p.split(":")[0] for p in problems] == ["grid"]
        assert str(metrics.FOREST_BYTES_CAP) in problems[0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert cli.main(["run", "--config", str(path)]) == 2
        assert not os.path.exists(doc["output_dir"])
        assert validate_config(dict(doc, grid={"n_max": 10**5})) == []

    def test_forest_stats_rows_capped_up_front(self, tmp_path):
        # 10^7 replicas at one grid point are 1.1 * 10^8 rows of about 160 B: the
        # pass itself, a 512-replica chunk at a time, fits its cap
        doc = base_config(
            tmp_path, kind="forest-stats", alphas=[0.5], replicas=10**7,
            grid={"type": "explicit", "values": [5]},
        )
        problems = validate_config(doc)
        assert [p.split(":")[0] for p in problems] == ["replicas"]
        assert str(metrics.FOREST_BYTES_CAP) in problems[0]
        assert validate_config(preset_config("forest-stats-desk")) == []
        # the section checks too, before it starts the pass
        cfg = replace(parse_config(dict(doc, replicas=100)), replicas=10**7)
        with pytest.raises(CapacityError, match="rows"):
            runner._forest_stats_section(cfg, None, None)

    @pytest.mark.parametrize(
        "kind, group, mu, estimator, field",
        [
            # scaling kinds run one estimator; another name would mislabel the rows
            ("phase-transition", {"kind": "cyclic", "L": 5}, "simple-cycle", "exact", "estimator"),
            ("cutoff", {"kind": "hypercube", "d": 4}, "lazy-hypercube", "exact", "estimator"),
            # these estimators compute one walk's curve whatever mu says
            ("tv-curve", {"kind": "cyclic", "L": 5}, "lazy-cycle", "rao-blackwell", "mu"),
            ("tv-curve", {"kind": "hypercube", "d": 4}, "uniform", "hypercube-weight", "mu"),
        ],
    )
    def test_mislabelling_configs_rejected(self, tmp_path, kind, group, mu, estimator, field):
        doc = base_config(
            tmp_path,
            kind=kind,
            group=group,
            mu={"type": mu},
            estimator=estimator,
            sizes=[group.get("L", group.get("d"))],
            grid={"type": "explicit", "values": [1, 2]},
        )
        assert [p.split(":")[0] for p in validate_config(doc)] == [field]

    @pytest.mark.parametrize(
        "kind, group, mu, estimator",
        [
            ("profiles", {"kind": "cyclic", "L": 4}, "uniform", "rao-blackwell"),
            ("oracle-check", {"kind": "cyclic", "L": 5}, "lazy-cycle", "rao-blackwell"),
            ("forest-stats", {"kind": "symmetric", "m": 7}, "uniform", "endpoint"),
        ],
    )
    def test_rules_of_an_estimator_the_kind_never_runs_do_not_apply(
        self, tmp_path, kind, group, mu, estimator
    ):
        # these kinds run their own estimator whatever the config's field says
        doc = base_config(
            tmp_path,
            kind=kind,
            group=group,
            mu={"type": mu},
            estimator=estimator,
            alphas=[0.5],
            n_max=2,
            grid={"type": "explicit", "values": [1, 2]},
        )
        assert validate_config(doc) == []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(path)]) == 0

    def test_explicit_mu_equal_to_the_estimated_walk_accepted(self, tmp_path):
        doc = base_config(
            tmp_path,
            kind="tv-curve",
            group={"kind": "cyclic", "L": 5},
            mu={"type": "explicit", "probs": {"1": 0.5, "4": 0.5}},
            estimator="rao-blackwell",
            grid={"type": "explicit", "values": [1, 2]},
        )
        assert validate_config(doc) == []

    @pytest.mark.parametrize(
        "kind, overrides, env, field",
        [
            # these used to validate and then end in a traceback or a KeyError
            ("tv-curve", {"points_per_decade": "x"}, None, "points_per_decade"),
            ("tv-curve", {"n_max": "x"}, None, "n_max"),
            ("tv-curve", {"sizes": 5}, None, "sizes"),
            ("forest-stats", {"grid": DROP}, None, "grid"),
            ("tv-curve", {"group": {"kind": "cyclic"}}, None, "group.L"),
            ("tv-curve", {"points_per_decade": 0}, None, "points_per_decade"),
            ("oracle-check", {"replicas": True}, None, "replicas"),
            ("oracle-check", {"output_dir": 3}, None, "output_dir"),
            # the exact estimator's caps hold for curves as for oracle-check
            ("tv-curve", {"grid": {"type": "geometric", "n_max": 12}}, None, "grid"),
            ("tv-curve", {"group": {"kind": "symmetric", "m": 7}}, None, "group"),
            # a misspelt field used to run with the default
            ("oracle-check", {"replica": 100}, None, "replica"),
            ("oracle-check", {}, "abc", "threads"),
            # the oracle's spin enumeration: 24^4 spin combinations at n = 8
            (
                "oracle-check",
                {"group": {"kind": "symmetric", "m": 4}, "alphas": [0.5], "n_max": 8},
                None,
                "n_max",
            ),
            (
                "tv-curve",
                {
                    "group": {"kind": "symmetric", "m": 4},
                    "alphas": [0.5],
                    "grid": {"type": "explicit", "values": [1, 8]},
                },
                None,
                "grid",
            ),
            # a field this schema no longer has is reported, not ignored
            ("mixing-scan", {"smoothing_bandwidth": 1.0}, None, "smoothing_bandwidth"),
            # the oracle's memory: 13^4 spins x 4096 floats per law matrix at n = 9
            (
                "oracle-check",
                {
                    "group": {"kind": "hypercube", "d": 12},
                    "mu": {"type": "lazy-hypercube"},
                    "alphas": [0.5],
                    "n_max": 9,
                },
                None,
                "n_max",
            ),
            # the forest pass's memory: fig1-cycle-desk to n = 10^8 would hold 256 GB
            # per chunk
            (
                "tv-curve",
                {
                    "group": {"kind": "cyclic", "L": 101},
                    "mu": {"type": "simple-cycle"},
                    "alphas": [0.0, 0.5, 0.75, 0.9],
                    "grid": {"type": "geometric", "n_max": 10**8},
                    "replicas": 20000,
                    "estimator": "rao-blackwell",
                },
                None,
                "grid",
            ),
        ],
    )
    def test_every_config_that_validates_can_run(
        self, tmp_path, monkeypatch, kind, overrides, env, field
    ):
        doc = _small_config(tmp_path, kind, **overrides)
        doc = {k: v for k, v in doc.items() if v is not DROP}
        if env is not None:
            monkeypatch.setenv("SRRW_LAB_THREADS", env)
        assert [p.split(":")[0] for p in validate_config(doc)] == [field]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert cli.main(["run", "--config", "cfg.json"]) == 2
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_readme_field_table_matches_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| field | default | rule |\n")[1].split("\n\n")[0]
        rows = [line.split("|")[1:3] for line in table.splitlines()[1:]]
        documented = {n.strip().strip("`"): d.strip().strip("`") for n, d in rows}
        assert documented == {
            name: "required" if f.default is config.REQUIRED else json.dumps(f.default)
            for name, f in config.FIELDS.items()
        }

    def test_programming_errors_are_not_config_problems(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("bug in group construction")

        monkeypatch.setattr("srrw_lab.groups.make_group", boom)
        with pytest.raises(RuntimeError, match="bug in group construction"):
            validate_config(base_config(tmp_path))


class TestRunner:
    def test_oracle_check_outputs(self, tmp_path):
        cfg = parse_config(base_config(tmp_path))
        result = run(cfg)
        csv_path = os.path.join(cfg.output_dir, "oracle_check.csv")
        assert csv_path in result.outputs
        rows = [
            line.split(",")
            for line in open(csv_path).read().strip().splitlines()[1:]
        ]
        by_key = {(float(r[2]), int(r[3])): float(r[5]) for r in rows}
        for a in (0.0, 0.3, 0.5, 0.7):
            assert by_key[(a, 2)] == pytest.approx((1 + a) / 2, abs=1e-12)
        summary = json.load(open(os.path.join(cfg.output_dir, "summary.json")))
        assert summary["kind"] == "oracle-check"
        assert not summary["guard_triggered"]

    def test_lazy_cycle_on_z2_is_the_uniform_walk(self, tmp_path):
        # +1 and -1 coincide on Z_2, so the lazy walk is {0: 1/2, 1: 1/2}
        outputs = {}
        for mu in ("lazy-cycle", "uniform"):
            doc = base_config(tmp_path, mu={"type": mu}, output_dir=str(tmp_path / mu))
            assert validate_config(doc) == []
            run(parse_config(doc))
            outputs[mu] = (tmp_path / mu / "oracle_check.csv").read_bytes()
        assert outputs["lazy-cycle"] == outputs["uniform"]

    def test_tv_curve_deterministic_across_threads(self, tmp_path):
        # replicas span two chunks of the forest pass (metrics.CYCLE_CHUNK = 512)
        cases = [
            ("tv-curve", "curves.csv", {"estimator": "rao-blackwell"}),
            ("forest-stats", "cluster_stats.csv", {
                "alphas": [0.3, 0.9], "grid": {"type": "explicit", "values": [5, 40]},
            }),
        ]
        for kind, name, fields in cases:
            out = []
            for i, threads in enumerate((1, 3, 1)):
                doc = base_config(
                    tmp_path,
                    kind=kind,
                    group={"kind": "cyclic", "L": 5},
                    mu={"type": "simple-cycle"},
                    alphas=[0.5],
                    grid={"type": "geometric", "n_max": 40},
                    replicas=600,
                    output_dir=str(tmp_path / kind / f"run{i}"),
                    threads=threads,
                )
                run(parse_config(dict(doc, **fields)))
                out.append(open(tmp_path / kind / f"run{i}" / name, "rb").read())
            assert out[0] == out[1] == out[2], kind

    def test_seed_changes_outputs(self, tmp_path):
        def doc(i, seed):
            return base_config(
                tmp_path,
                kind="tv-curve",
                group={"kind": "cyclic", "L": 5},
                mu={"type": "simple-cycle"},
                alphas=[0.5],
                grid={"type": "geometric", "n_max": 30},
                replicas=400,
                estimator="rao-blackwell",
                output_dir=str(tmp_path / f"seedrun{i}"),
                seed=seed,
            )

        run(parse_config(doc(0, 1)))
        run(parse_config(doc(1, 2)))
        a = open(tmp_path / "seedrun0" / "curves.csv", "rb").read()
        b = open(tmp_path / "seedrun1" / "curves.csv", "rb").read()
        assert a != b

    def test_forest_stats_csv_schema(self, tmp_path):
        doc = base_config(
            tmp_path,
            kind="forest-stats",
            group={"kind": "cyclic", "L": 3},
            mu={"type": "simple-cycle"},
            alphas=[0.5],
            grid={"type": "explicit", "values": [50]},
            replicas=4,
            output_dir=str(tmp_path / "fs"),
        )
        run(parse_config(doc))
        lines = open(tmp_path / "fs" / "cluster_stats.csv").read().strip().splitlines()
        assert lines[0] == "seed,estimator,n,alpha,replica,k,count"
        assert len(lines) == 1 + 4 * 11  # 10 size rows + odd row per replica

    def test_profiles_output(self, tmp_path):
        doc = base_config(
            tmp_path,
            kind="profiles",
            group={"kind": "cyclic", "L": 5},
            mu={"type": "lazy-cycle"},
            alphas=[0.5],
            output_dir=str(tmp_path / "prof"),
        )
        result = run(parse_config(doc))
        lines = open(tmp_path / "prof" / "profiles.csv").read().strip().splitlines()
        assert lines[0] == "seed,estimator,r,phi,psi,phi_witness_mask,psi_witness_mask"
        assert len(lines) == 3  # sizes 1 and 2
        assert result.summary["results"]["certified"] is True

    def test_mixing_scan_guard_exit(self, tmp_path):
        # horizon 2 puts the n=2 exceedance inside the 10% tail: guard fires
        doc = base_config(
            tmp_path,
            kind="mixing-scan",
            alphas=[0.5],
            epsilons=[0.2],
            grid={"type": "explicit", "values": [1, 2]},
            output_dir=str(tmp_path / "scan"),
        )
        result = run(parse_config(doc))
        assert result.guard_triggered
        scans = result.summary["results"]["scans"]
        assert scans[0]["guard_triggered"] and scans[0]["t_mix"] == 3


def _small_config(tmp_path, kind, **overrides):
    """A config of each kind that runs in well under a second."""
    cycle = {"group": {"kind": "cyclic", "L": 5}, "mu": {"type": "simple-cycle"}}
    cube = {"group": {"kind": "hypercube", "d": 4}, "mu": {"type": "lazy-hypercube"}}
    fields = {
        "tv-curve": {"grid": {"type": "explicit", "values": [1, 2]}},
        "mixing-scan": {"grid": {"type": "explicit", "values": [1, 2, 3]}, "epsilons": [0.2]},
        "phase-transition": dict(
            cycle, sizes=[5], estimator="rao-blackwell", replicas=64, alphas=[0.5]
        ),
        "cutoff": dict(
            cube, sizes=[4], estimator="hypercube-weight", replicas=64, alphas=[0.5]
        ),
        "forest-stats": {"grid": {"type": "explicit", "values": [5]}, "replicas": 2},
        "profiles": {"group": {"kind": "cyclic", "L": 5}, "mu": {"type": "lazy-cycle"}},
        "oracle-check": {"n_max": 2},
    }[kind]
    return base_config(tmp_path, kind=kind, **{**fields, **overrides})


CURVE_HEADER = "seed,group,alpha,estimator,n,value,stderr,replicas"


class TestSections:
    def test_every_kind_has_a_section(self):
        assert set(runner.SECTIONS) == set(config.KINDS)

    @pytest.mark.parametrize(
        "kind, overrides, artifacts",
        [
            ("tv-curve", {}, {"curves.csv": CURVE_HEADER}),
            ("mixing-scan", {}, {"curves.csv": CURVE_HEADER}),
            (
                "mixing-scan",
                {
                    "group": {"kind": "cyclic", "L": 5},
                    "mu": {"type": "simple-cycle"},
                    "estimator": "rao-blackwell",
                    "replicas": 64,
                },
                {"curves.csv": CURVE_HEADER},
            ),
            (
                "phase-transition",
                {},
                {
                    "mixing_times.csv": "seed,estimator,alpha,size,epsilon,t_mix,"
                    "normalized,horizon,guard_triggered"
                },
            ),
            (
                "cutoff",
                {},
                {
                    "mixing_times.csv": "seed,estimator,alpha,size,epsilon,t_mix,"
                    "normalized,horizon,guard_triggered"
                },
            ),
            ("forest-stats", {}, {"cluster_stats.csv": "seed,estimator,n,alpha,replica,k,count"}),
            (
                "profiles",
                {},
                {"profiles.csv": "seed,estimator,r,phi,psi,phi_witness_mask,psi_witness_mask"},
            ),
            ("oracle-check", {}, {"oracle_check.csv": "seed,estimator,alpha,n,tv,p_identity"}),
        ],
    )
    def test_artifacts_and_headers(self, tmp_path, kind, overrides, artifacts):
        cfg = parse_config(_small_config(tmp_path, kind, **overrides))
        result = run(cfg)
        paths = [os.path.join(cfg.output_dir, name) for name in artifacts]
        summary_path = os.path.join(cfg.output_dir, "summary.json")
        assert result.outputs == paths + [summary_path]
        assert json.load(open(summary_path))["outputs"] == paths
        assert sorted(os.listdir(cfg.output_dir)) == sorted([*artifacts, "summary.json"])
        for path, header in zip(paths, artifacts.values()):
            with open(path, "rb") as fh:
                assert fh.readline() == header.encode() + b"\n"
        # the summary names the estimator every row says it ran
        estimator = json.load(open(summary_path))["estimator"]
        for path in paths:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows and {row["estimator"] for row in rows} == {estimator}

    @pytest.mark.parametrize("kind", sorted(config.KINDS))
    def test_summary_records_the_stream_layout(self, tmp_path, kind):
        cfg = parse_config(_small_config(tmp_path, kind))
        run(cfg)
        with open(os.path.join(cfg.output_dir, "summary.json")) as fh:
            assert json.load(fh)["stream_layout"] == forest.STREAM_LAYOUT == 2

    def test_sections_call_entry_points_through_module_attributes(
        self, tmp_path, monkeypatch
    ):
        # wrappers installed after import (as a tracer does) must see the calls
        calls = []

        def spy(module, name):
            orig = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return orig(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        spy(metrics, "hypercube_mixing_time")
        spy(metrics, "hypercube_tv_curve")
        spy(runner, "iso_profile")
        run(parse_config(_small_config(tmp_path, "cutoff", output_dir=str(tmp_path / "c"))))
        run(parse_config(_small_config(tmp_path, "profiles", output_dir=str(tmp_path / "p"))))
        assert calls == ["hypercube_mixing_time", "hypercube_tv_curve", "iso_profile"]


def test_serial_runs_import_neither_numpy_ma_nor_a_thread_pool(tmp_path):
    # each import costs every process milliseconds that none of these runs needs
    docs = [
        _small_config(tmp_path, kind, threads=1, output_dir=str(tmp_path / kind))
        for kind in ("cutoff", "oracle-check", "profiles")
    ]
    script = (
        "import json, sys\n"
        "from srrw_lab.config import parse_config\n"
        "from srrw_lab.runner import run\n"
        "for doc in json.loads(sys.argv[1]):\n"
        "    run(parse_config(doc))\n"
        "print(json.dumps([m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(config.__file__)))
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(docs)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == []
    assert sorted(os.listdir(tmp_path)) == ["cutoff", "oracle-check", "profiles"]


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config(tmp_path))
        assert cli.main(["validate", "--config", path]) == 0

    def test_validate_error_exit_2_and_no_output(self, tmp_path):
        doc = base_config(tmp_path, replicas=0)
        path = self.write_config(tmp_path, doc)
        assert cli.main(["validate", "--config", path]) == 2
        assert cli.main(["run", "--config", path]) == 2
        assert not os.path.exists(doc["output_dir"])

    def test_run_ok(self, tmp_path):
        path = self.write_config(tmp_path, base_config(tmp_path))
        assert cli.main(["run", "--config", path]) == 0

    def test_run_guard_exit_4(self, tmp_path):
        doc = base_config(
            tmp_path,
            kind="mixing-scan",
            alphas=[0.5],
            epsilons=[0.2],
            grid={"type": "explicit", "values": [1, 2]},
            output_dir=str(tmp_path / "scan4"),
        )
        path = self.write_config(tmp_path, doc)
        assert cli.main(["run", "--config", path]) == 4

    def test_capacity_exit_3(self, tmp_path, monkeypatch):
        doc = base_config(tmp_path, output_dir=str(tmp_path / "cap"))
        path = self.write_config(tmp_path, doc)

        def boom(cfg):
            raise CapacityError("synthetic capacity overflow")

        monkeypatch.setattr(cli, "run", boom)
        assert cli.main(["run", "--config", path]) == 3

    def test_seed_override(self, tmp_path):
        doc = base_config(
            tmp_path,
            kind="tv-curve",
            group={"kind": "cyclic", "L": 5},
            mu={"type": "simple-cycle"},
            alphas=[0.5],
            grid={"type": "geometric", "n_max": 20},
            replicas=300,
            estimator="rao-blackwell",
            output_dir=str(tmp_path / "ovr"),
        )
        path = self.write_config(tmp_path, doc)
        assert cli.main(["run", "--config", path, "--seed", "123"]) == 0
        first = open(tmp_path / "ovr" / "curves.csv").read()
        assert first.splitlines()[1].startswith("123,")

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "-1"), ("--seed", str(1 << 64)), ("--threads", "0"), ("--threads", "-2")],
    )
    def test_bad_override_exit_2_and_no_output(self, tmp_path, capsys, flag, value):
        # the overrides go through the same validation as the config fields
        doc = base_config(tmp_path)
        path = self.write_config(tmp_path, doc)
        assert cli.main(["run", "--config", path, flag, value]) == 2
        assert f"invalid: {flag[2:]}:" in capsys.readouterr().err
        assert not os.path.exists(doc["output_dir"])

    def test_threads_override(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg.threads) or runner.run(cfg))
        path = self.write_config(tmp_path, base_config(tmp_path, threads=1))
        assert cli.main(["run", "--config", path, "--threads", "2"]) == 0
        assert seen == [2]

    def test_presets_list_and_show(self, capsys):
        assert cli.main(["presets", "list"]) == 0
        listed = capsys.readouterr().out
        assert "fig1-cycle-desk" in listed
        assert cli.main(["presets", "show", "fig1-cycle-desk"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["group"] == {"kind": "cyclic", "L": 101}
        assert cli.main(["presets", "show", "nope"]) == 2

    def test_threads_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SRRW_LAB_THREADS", "2")
        cfg = parse_config(base_config(tmp_path))
        assert cfg.threads == 2


class TestExplicitMuConfigs:
    def test_symmetric_cycle_notation_keys(self, tmp_path):
        doc = base_config(
            tmp_path,
            group={"kind": "symmetric", "m": 3},
            mu={"type": "explicit", "probs": {"(12)": 0.5, "(132)": 0.5}},
            alphas=[0.5],
            n_max=3,
            output_dir=str(tmp_path / "s3"),
        )
        assert validate_config(doc) == []
        run(parse_config(doc))
        assert os.path.exists(tmp_path / "s3" / "oracle_check.csv")

    def test_lamplighter_keys(self, tmp_path):
        doc = base_config(
            tmp_path,
            group={"kind": "lamplighter", "L": 2},
            mu={
                "type": "explicit",
                "probs": {"00,0": 0.5, "10,0": 0.25, "00,1": 0.25},
            },
            alphas=[0.3],
            n_max=3,
            output_dir=str(tmp_path / "lamp"),
        )
        assert validate_config(doc) == []
        run(parse_config(doc))
        assert os.path.exists(tmp_path / "lamp" / "oracle_check.csv")

    def test_hypercube_bitstring_keys(self, tmp_path):
        doc = base_config(
            tmp_path,
            group={"kind": "hypercube", "d": 2},
            mu={
                "type": "explicit",
                "probs": {"00": 0.5, "10": 0.25, "01": 0.25},
            },
            alphas=[0.5],
            n_max=3,
            output_dir=str(tmp_path / "hc"),
        )
        assert validate_config(doc) == []
        run(parse_config(doc))

    def test_bad_element_name_reported(self, tmp_path):
        doc = base_config(
            tmp_path,
            mu={"type": "explicit", "probs": {"7": 1.0}},
        )
        problems = validate_config(doc)
        assert any(p.startswith("mu") for p in problems)


class TestRunnerEstimatorPaths:
    def test_tv_curve_endpoint_estimator(self, tmp_path):
        doc = base_config(
            tmp_path,
            kind="tv-curve",
            group={"kind": "cyclic", "L": 3},
            mu={"type": "simple-cycle"},
            alphas=[0.5],
            grid={"type": "explicit", "values": [1, 2, 4]},
            replicas=600,
            estimator="endpoint",
            output_dir=str(tmp_path / "ep"),
        )
        run(parse_config(doc))
        lines = open(tmp_path / "ep" / "curves.csv").read().strip().splitlines()
        assert len(lines) == 4
        assert ",endpoint," in lines[1]

    def test_tv_curve_hypercube_weight_estimator(self, tmp_path):
        doc = base_config(
            tmp_path,
            kind="tv-curve",
            group={"kind": "hypercube", "d": 6},
            mu={"type": "lazy-hypercube"},
            alphas=[0.5],
            grid={"type": "geometric", "n_max": 60},
            replicas=500,
            estimator="hypercube-weight",
            output_dir=str(tmp_path / "hw"),
        )
        run(parse_config(doc))
        assert os.path.exists(tmp_path / "hw" / "curves.csv")

    def test_phase_transition_kind(self, tmp_path):
        doc = base_config(
            tmp_path,
            kind="phase-transition",
            group={"kind": "cyclic", "L": 5},
            mu={"type": "simple-cycle"},
            alphas=[0.6],
            sizes=[5, 9],
            epsilons=[0.25],
            replicas=400,
            estimator="rao-blackwell",
            output_dir=str(tmp_path / "pt"),
        )
        result = run(parse_config(doc))
        assert "0.6" in result.summary["results"]["loglog_slopes"]
        lines = open(tmp_path / "pt" / "mixing_times.csv").read().strip().splitlines()
        assert lines[0].startswith("seed,estimator,alpha,size,epsilon,t_mix")
        assert len(lines) == 3

    def test_cutoff_kind_small(self, tmp_path):
        doc = base_config(
            tmp_path,
            kind="cutoff",
            group={"kind": "hypercube", "d": 8},
            mu={"type": "lazy-hypercube"},
            alphas=[0.5],
            sizes=[8],
            epsilons=[0.25],
            replicas=500,
            estimator="hypercube-weight",
            output_dir=str(tmp_path / "co"),
        )
        result = run(parse_config(doc))
        row = result.summary["results"]["mixing_times"][0]
        assert row["t_mix"] >= 1
        assert row["horizons_tried"][-1] == row["horizon"]
        assert "cutoff_constants" in result.summary["results"]
        header = open(tmp_path / "co" / "mixing_times.csv").readline().strip()
        assert "horizons_tried" not in header

    @pytest.mark.parametrize("hook", [sys.setprofile, sys.settrace])
    def test_resumed_scans_write_the_same_bytes_under_a_hook(self, tmp_path, hook):
        # a guard that keeps firing extends the horizon, resuming the forests
        doc = base_config(
            tmp_path, kind="cutoff", group={"kind": "hypercube", "d": 8},
            mu={"type": "lazy-hypercube"}, alphas=[0.5], sizes=[8], epsilons=[1e-6],
            replicas=300, estimator="hypercube-weight",
        )
        result = run(parse_config(dict(doc, output_dir=str(tmp_path / "plain"))))
        assert len(result.summary["results"]["mixing_times"][0]["horizons_tried"]) > 1
        hook(lambda *args: None)
        try:
            run(parse_config(dict(doc, output_dir=str(tmp_path / "hooked"))))
        finally:
            hook(None)
        plain, hooked = (tmp_path / out / "mixing_times.csv" for out in ("plain", "hooked"))
        assert plain.read_bytes() == hooked.read_bytes()
