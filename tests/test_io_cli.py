import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatclust import io as fio
from flatclust.cli import main
from flatclust.clustering import cluster_tree, dbscan_cluster
from flatclust.density import lambda_of_k
from flatclust.io import (
    ParseError,
    PipelineConfig,
    emit_curves_csv,
    emit_series_csv,
    ingest_series_csv,
    read_json_document,
    run_cluster,
    run_smooth,
    write_json_document,
)
from flatclust.series import RawSeries, grid_series_views
from flatclust.synthetic import (
    ClusterTemplate,
    FunctionFamilySpec,
    TemplateComponent,
    jump_family,
    lipschitz_family,
    sample_raw_series,
)


class TestPipelineConfig:
    def test_requires_exactly_one_threshold(self):
        with pytest.raises(ValueError, match="exactly one"):
            PipelineConfig(s=1, d=4)
        with pytest.raises(ValueError, match="exactly one"):
            PipelineConfig(s=1, d=4, k=3, level=0.5)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PipelineConfig(s=0, d=4, k=3)
        with pytest.raises(ValueError):
            PipelineConfig(s=1, d=4, k=0)
        with pytest.raises(ValueError):
            PipelineConfig(s=1, d=4, k=3, delta="later")
        with pytest.raises(ValueError):
            PipelineConfig(s=1, d=4, k=3, gamma=-0.5)

    def test_lambda_key_round_trip(self):
        cfg = PipelineConfig.from_dict({"s": 2, "d": 3, "lambda": 0.4})
        assert cfg.level == 0.4 and cfg.k is None
        assert cfg.to_dict()["lambda"] == 0.4
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg
        pin = json.loads((Path(__file__).parent / "pinned_config_documents.json").read_text())["pipeline"]
        cfg = PipelineConfig.from_dict(pin["document"])
        assert json.dumps(cfg.to_dict(), sort_keys=True) == pin["json"]
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            PipelineConfig.from_dict({"s": 1, "d": 2, "k": 1, "bandwidth": 0.1})

    def test_missing_required(self):
        with pytest.raises(ValueError, match="missing required"):
            PipelineConfig.from_dict({"k": 1})


SERIES_CSV = """series_id,time,v1,v2
a,0.25,0.1,0.9
a,0.5,0.2,0.8
a,0.75,0.3,0.7
b,0.25,0.5,0.5
b,0.5,0.6,0.4
b,0.75,0.7,0.3
"""


class TestSeriesCsv:
    def test_parse_groups_and_sorts(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(SERIES_CSV)
        series = ingest_series_csv(path)
        assert len(series) == 2
        a = next(s for s in series if s.id == "a")
        assert a.m == 3 and a.s == 2
        assert np.allclose(a.values[:, 0], [0.1, 0.2, 0.3])

    def test_unsorted_rows_are_sorted_by_time(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("series_id,time,v1\na,0.8,0.3\na,0.2,0.1\na,0.5,0.2\n")
        (series,) = ingest_series_csv(path)
        assert np.allclose(series.times, [0.2, 0.5, 0.8])
        assert np.allclose(series.values[:, 0], [0.1, 0.2, 0.3])

    def test_duplicate_id_time_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("series_id,time,v1\na,0.5,0.1\na,0.5,0.2\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest_series_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("series_id,time,v1,v2\na,0.5,0.1\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest_series_csv(path)

    def test_time_outside_range_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("series_id,time,v1\na,0.0,0.1\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest_series_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("id,time,v1\na,0.5,0.1\n")
        with pytest.raises(ParseError, match="line 1"):
            ingest_series_csv(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("series_id,time,v1\na,0.5,abc\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest_series_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_names_line(self, tmp_path, bad):
        path = tmp_path / "s.csv"
        path.write_text(f"series_id,time,v1,v2\na,0.5,0.1,0.2\na,1.0,0.3,{bad}\n")
        with pytest.raises(ParseError, match=f"line 3: non-finite value .* in column v2") as caught:
            ingest_series_csv(path)
        assert caught.value.line == 3

    def test_first_offending_line_wins_across_chunks(self, tmp_path, monkeypatch):
        # a duplicate on line 4 comes before a bad field count on line 6,
        # though the chunk holding line 6 is read after the duplicate's
        monkeypatch.setattr(fio, "INGEST_CHUNK", 2)
        path = tmp_path / "s.csv"
        path.write_text("series_id,time,v1\na,0.5,0.1\nb,0.5,0.1\na,0.5,0.2\nb,1.0,0.3\nc,0.5\n")
        with pytest.raises(ParseError, match="line 4: duplicate"):
            ingest_series_csv(path)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"series_id,time,v1\r\na,0.5,0.1\r\na,1.0,0.2\r\n")
        (series,) = ingest_series_csv(path)
        assert series.m == 2

    def test_emit_ingest_round_trip_is_exact(self, tmp_path):
        fam = jump_family()
        raws, _, _ = sample_raw_series(fam, 5, 17, seed=12)
        path = tmp_path / "round.csv"
        emit_series_csv(path, raws)
        back = ingest_series_csv(path)
        by_id = {s.id: s for s in back}
        for original in raws:
            got = by_id[original.id]
            assert np.array_equal(got.times, original.times)
            assert np.array_equal(got.values, original.values)


class TestRunCluster:
    def _series(self, n=40, m=24, fam=None):
        fam = fam or lipschitz_family(d=4, eps_bar=0.0)
        raws, labels, _ = sample_raw_series(fam, n, m, seed=13)
        return raws, labels, fam

    def test_separated_families_recovered_exactly(self):
        raws, labels, fam = self._series()
        cfg = PipelineConfig(s=1, d=4, delta=0.1, gamma="auto", k=3)
        result = run_cluster(cfg, raws)
        got = np.asarray(result["assignments"])
        assert result["manifest"]["resolved"]["k"] == 3
        assert set(got.tolist()) == {0, 1}
        # same-template series always share a cluster id
        for value in (0, 1):
            assert len(set(got[labels == value])) == 1

    def test_k_larger_than_n_marks_all_noise(self):
        raws, _, _ = self._series(n=10)
        cfg = PipelineConfig(s=1, d=4, delta=0.1, k=11)
        result = run_cluster(cfg, raws)
        assert np.all(np.asarray(result["assignments"]) == -1)

    def test_lambda_route_matches_k_route(self):
        from flatclust.density import lambda_of_k

        raws, _, _ = self._series()
        base = run_cluster(PipelineConfig(s=1, d=4, delta=0.1, k=3), raws)
        lam = lambda_of_k(3, len(raws), 0.1, 4)
        alt = run_cluster(PipelineConfig(s=1, d=4, delta=0.1, level=lam), raws)
        assert alt["manifest"]["resolved"]["k"] == 3
        assert np.array_equal(np.asarray(base["assignments"]), np.asarray(alt["assignments"]))

    def test_refuses_short_series_naming_id(self):
        raws, _, _ = self._series(n=3, m=24)
        short = raws[1]
        truncated = RawSeries(id="stub", s=1, times=short.times[:4], values=short.values[:4])
        cfg = PipelineConfig(s=1, d=4, delta=0.1, k=2)
        with pytest.raises(ValueError, match="stub"):
            run_cluster(cfg, raws + [truncated])

    def test_tree_document_structure(self):
        raws, _, _ = self._series()
        cfg = PipelineConfig(s=1, d=4, delta=0.1, k=3, k_ladder=(8, 3, 1))
        result = run_cluster(cfg, raws)
        tree = result["tree"]
        assert [level["k"] for level in tree["levels"]] == [8, 3, 1]
        for level in tree["levels"]:
            assert level["lambda"] > 0
            ids = [m for c in level["clusters"] for m in c["members"]] + level["noise"]
            assert sorted(ids) == sorted(result["ids"])

    def test_smooth_round_trip(self, tmp_path):
        raws, _, _ = self._series()
        cfg = PipelineConfig(s=1, d=4, delta=0.1, k=3)
        grids = run_smooth(cfg, raws)
        path = tmp_path / "grids.csv"
        emit_series_csv(path, grids)
        back = ingest_series_csv(path)
        assert len(back) == len(grids)
        assert all(s.m == 4 for s in back)


def _write_cluster_inputs(tmp_path, k_ladder=None):
    fam = lipschitz_family(d=4, eps_bar=0.02)
    raws, _, _ = sample_raw_series(fam, 24, 32, seed=14)
    series_path = tmp_path / "series.csv"
    emit_series_csv(series_path, raws)
    config = {"s": 1, "d": 4, "delta": 0.1, "gamma": "auto", "k": 3}
    if k_ladder:
        config["k_ladder"] = k_ladder
    config_path = tmp_path / "config.json"
    write_json_document(config_path, config)
    return series_path, config_path


class TestCli:
    def test_cluster_command(self, tmp_path):
        series_path, config_path = _write_cluster_inputs(tmp_path)
        out = tmp_path / "out"
        rc = main(["cluster", "--config", str(config_path), "--input", str(series_path), "--outdir", str(out)])
        assert rc == 0
        assert (out / "assignments.csv").exists()
        manifest = read_json_document(out / "manifest.json")
        assert manifest["resolved"]["k"] == 3
        lines = (out / "assignments.csv").read_text().splitlines()
        assert lines[0] == "series_id,cluster"
        assert len(lines) == 25

    def test_cluster_is_byte_deterministic(self, tmp_path):
        series_path, config_path = _write_cluster_inputs(tmp_path, k_ladder=[8, 3, 1])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(["cluster", "--config", str(config_path), "--input", str(series_path), "--outdir", str(out)])
            assert rc == 0
        for name in ("assignments.csv", "manifest.json", "tree.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_tree_requires_ladder(self, tmp_path, capsys):
        series_path, config_path = _write_cluster_inputs(tmp_path)
        rc = main(["tree", "--config", str(config_path), "--input", str(series_path), "--outdir", str(tmp_path / "t")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"

    def test_tree_command(self, tmp_path):
        series_path, config_path = _write_cluster_inputs(tmp_path, k_ladder=[8, 3, 1])
        out = tmp_path / "t"
        rc = main(["tree", "--config", str(config_path), "--input", str(series_path), "--outdir", str(out)])
        assert rc == 0
        tree = read_json_document(out / "tree.json")
        assert [level["k"] for level in tree["levels"]] == [8, 3, 1]

    def test_smooth_command(self, tmp_path):
        series_path, config_path = _write_cluster_inputs(tmp_path)
        out_csv = tmp_path / "smoothed.csv"
        rc = main(["smooth", "--config", str(config_path), "--input", str(series_path), "--output", str(out_csv)])
        assert rc == 0
        series = ingest_series_csv(out_csv)
        assert all(s.m == 4 for s in series)

    @pytest.mark.parametrize("command", ["cluster", "tree", "smooth"])
    def test_header_only_series_csv_is_one_json_error(self, tmp_path, capsys, command):
        _, config_path = _write_cluster_inputs(tmp_path, k_ladder=[8, 3, 1])
        series_path = tmp_path / "empty.csv"
        series_path.write_text("series_id,time,v1\n")
        out = tmp_path / "out"
        target = ["--output", str(out)] if command == "smooth" else ["--outdir", str(out)]
        rc = main([command, "--config", str(config_path), "--input", str(series_path), *target])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "invalid-argument",
            "message": "no series to smooth: the input has no observation rows",
        }
        assert not out.exists()

    def test_synth_mixture(self, tmp_path):
        from flatclust.synthetic import two_bump_mixture_1d

        spec_path = tmp_path / "spec.json"
        write_json_document(spec_path, {"spec": two_bump_mixture_1d().to_dict(), "n": 50, "seed": 3})
        out = tmp_path / "synth"
        rc = main(["synth", "--spec", str(spec_path), "--outdir", str(out)])
        assert rc == 0
        assert (out / "points.csv").read_text().splitlines()[0] == "point_id,x1"
        pts = np.loadtxt(out / "points.csv", delimiter=",", skiprows=1, usecols=1, ndmin=2)
        assert pts.shape == (50, 1)
        labels = (out / "labels.csv").read_text().splitlines()
        assert len(labels) == 51

    def test_synth_function_family(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_json_document(
            spec_path, {"spec": lipschitz_family(d=4, eps_bar=0.02).to_dict(), "n": 8, "m": 24, "seed": 4}
        )
        out = tmp_path / "synth"
        rc = main(["synth", "--spec", str(spec_path), "--outdir", str(out)])
        assert rc == 0
        series = ingest_series_csv(out / "series.csv")
        assert len(series) == 8 and all(s.m == 24 for s in series)
        grid = ingest_series_csv(out / "grid_truth.csv")
        assert all(g.m == 4 for g in grid)

    def test_synth_bad_kind(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_json_document(spec_path, {"spec": {"kind": "sinusoid"}})
        rc = main(["synth", "--spec", str(spec_path), "--outdir", str(tmp_path / "x")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config-error"

    def test_experiment_command_and_outputs(self, tmp_path):
        out = tmp_path / "exp"
        cfg = tmp_path / "exp.json"
        write_json_document(cfg, {"n_ladder": [64, 128], "trials": 1, "seed": 6})
        rc = main(["experiment", "kde_rate", "--config", str(cfg), "--outdir", str(out)])
        assert rc == 0
        report = read_json_document(out / "kde_rate_report.json")
        assert report["name"] == "kde_rate"
        assert "wall_clock_s" not in report
        curves = (out / "kde_rate_curves.csv").read_text().splitlines()
        assert curves[0] == "curve,x,y"
        assert len(curves) == 3

    def test_experiment_reports_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "exp.json"
        write_json_document(cfg, {"n_ladder": [64, 128], "trials": 2, "seed": 6})
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["experiment", "kde_rate", "--config", str(cfg), "--outdir", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "kde_rate_report.json").read_bytes() == (outs[1] / "kde_rate_report.json").read_bytes()

    def test_unknown_experiment_lists_available(self, tmp_path, capsys):
        rc = main(["experiment", "warpdrive", "--outdir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "unknown-experiment"
        assert "kde_rate" in err["available"]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("series_id,time,v1\na,2.0,0.5\n")
        _, config_path = _write_cluster_inputs(tmp_path)
        rc = main(["cluster", "--config", str(config_path), "--input", str(bad), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse-error" and err["line"] == 2

    def test_non_finite_value_is_a_parse_error_with_line(self, tmp_path, capsys):
        series_path, config_path = _write_cluster_inputs(tmp_path)
        lines = series_path.read_text().splitlines()
        fields = lines[5].split(",")
        lines[5] = ",".join(fields[:2] + ["nan"])
        series_path.write_text("\n".join(lines) + "\n")
        rc = main(["cluster", "--config", str(config_path), "--input", str(series_path), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse-error" and err["line"] == 6

    def test_experiment_summary_shows_wall_clock(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        write_json_document(cfg, {"n_ladder": [64, 128], "trials": 1, "seed": 6})
        assert main(["experiment", "kde_rate", "--config", str(cfg), "--outdir", str(tmp_path / "o")]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("kde_rate: passed=")
        assert float(line.split("wall_clock_s=")[1]) > 0.0

    def test_malformed_config_is_machine_readable(self, tmp_path, capsys):
        series_path, _ = _write_cluster_inputs(tmp_path)
        cfg = tmp_path / "badcfg.json"
        write_json_document(cfg, {"s": 1, "d": 4})
        rc = main(["cluster", "--config", str(cfg), "--input", str(series_path), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-argument"


_BASE = {"s": 1, "d": 4, "k": 3}


@pytest.mark.parametrize("command", ["cluster", "tree"])
@pytest.mark.parametrize(
    "config, message",
    [
        ([_BASE], "config must be a JSON object, got list"),
        ({**_BASE, "s": "1"}, "s must be an integer"),
        ({**_BASE, "s": True}, "s must be an integer"),
        ({**_BASE, "d": 4.5}, "d must be an integer"),
        ({**_BASE, "k": True}, "k must be an integer"),
        ({**_BASE, "k": 2.7}, "k must be an integer"),
        ({**_BASE, "k_ladder": 5}, "k_ladder must be a list, got 5"),
        ({**_BASE, "k_ladder": [2.5, 1]}, "k_ladder[0] must be an integer, got 2.5"),
        ({**_BASE, "k_ladder": [1, 3]}, "k_ladder must be a strictly descending list"),
        ({**_BASE, "k_ladder": [3, 3]}, "k_ladder must be a strictly descending list"),
        ({**_BASE, "k_ladder": [3, 0]}, "k_ladder must be a strictly descending list"),
        ({**_BASE, "k_ladder": [True]}, "k_ladder[0] must be an integer, got True"),
        ({**_BASE, "k_ladder": []}, "k_ladder must be a strictly descending list"),
        ({**_BASE, "delta": True}, "delta must be a finite number or 'auto', got True"),
        ({**_BASE, "link_radius": "wide"}, "link_radius must be a finite number, got 'wide'"),
        ({**_BASE, "clip": True}, "unknown config key 'clip'"),
        ({**_BASE, "seed": 5}, "unknown config key 'seed'"),
        ({**_BASE, "lattice_resolution": 200}, "unknown config key 'lattice_resolution'"),
    ],
    ids=[
        "array",
        "s-string",
        "s-bool",
        "d-float",
        "k-bool",
        "k-fraction",
        "ladder-scalar",
        "ladder-fraction",
        "ladder-ascending",
        "ladder-repeat",
        "ladder-zero",
        "ladder-bool",
        "ladder-empty",
        "delta-bool",
        "link-string",
        "clip-removed",
        "seed-removed",
        "lattice-removed",
    ],
)
def test_bad_config_is_an_invalid_argument(tmp_path, capsys, command, config, message):
    series_path, _ = _write_cluster_inputs(tmp_path)
    cfg = tmp_path / "badcfg.json"
    write_json_document(cfg, config)
    rc = main([command, "--config", str(cfg), "--input", str(series_path), "--outdir", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-argument"
    assert message in err["message"]
    assert not (tmp_path / "o").exists()


_MIXTURE = {"kind": "mixture", "components": [{"box": [[0.1, 0.4]]}], "weights": [1.0]}


@pytest.mark.parametrize(
    "argv, document, message",
    [
        (["synth", "--spec"], [1, 2], "config must be a JSON object, got list"),
        (["synth", "--spec"], {"spec": _MIXTURE, "n": 2.7}, "n must be an integer, got 2.7"),
        (["synth", "--spec"], {"spec": _MIXTURE, "n": True}, "n must be an integer, got True"),
        (["synth", "--spec"], {"spec": _MIXTURE, "n": "5"}, "n must be an integer, got '5'"),
        (["synth", "--spec"], {"spec": _MIXTURE, "seed": 1.9}, "seed must be an integer, got 1.9"),
        (["synth", "--spec"], {"spec": {"kind": "mixture"}}, "missing required config key 'spec.components'"),
        (
            ["synth", "--spec"],
            {"spec": {**_MIXTURE, "components": [{"box": [[0.1, "x"]]}]}},
            "spec.components[0].box[0][1] must be a finite number, got 'x'",
        ),
        (["experiment", "kde_rate", "--config"], [1, 2], "config must be a JSON object, got list"),
        (["experiment", "kde_rate", "--config"], {"trials": 1.5}, "trials must be an integer, got 1.5"),
        (["experiment", "kde_rate", "--config"], {"n_ladder": 5}, "n_ladder must be a list, got 5"),
        (["experiment", "kde_rate", "--config"], {"bogus": 1}, "unknown config key 'bogus'"),
        (["experiment", "kde_rate", "--config"], {"trials": True}, "trials must be an integer, got True"),
        (["experiment", "sandwich", "--config"], {"mixture": [1]}, "mixture must be a JSON object, got list"),
        (
            ["experiment", "sandwich", "--config"],
            {"mixture": {**_MIXTURE, "weights": [0.5]}},
            "mixture: weights must be nonnegative and sum to 1",
        ),
        (
            ["experiment", "kde_rate", "--config"],
            {"trials": 0, "n_ladder": [64, 128]},
            "trials must be >= 1, got 0",
        ),
        (["experiment", "sandwich", "--config"], {"trials": 0}, "trials must be >= 1, got 0"),
        (
            ["experiment", "hartigan", "--config"],
            {"component_pair": [0, 5], "trials": 1, "n_ladder": [64, 128]},
            "component_pair must name two distinct components below C=2, got [0, 5]",
        ),
        (
            ["experiment", "kde_rate", "--config"],
            {"lattice_resolution": 0},
            "lattice_resolution must be >= 1, got 0",
        ),
        (["experiment", "noisy_kde_gap", "--config"], {"queries": 0}, "queries must be >= 1, got 0"),
        (
            ["experiment", "grid_resolution", "--config"],
            {"n_per_template": 0},
            "n_per_template must be >= 1, got 0",
        ),
        (
            ["experiment", "smoothing_rate", "--config"],
            {"series_per_trial": 0},
            "series_per_trial must be >= 1, got 0",
        ),
        (
            ["experiment", "compensating", "--config"],
            {"n_values": [1000, 10**130], "d_values": [1]},
            f"the closed form overflows a float at (n, s, d) = [({10**130}, 1, 1)]",
        ),
        (
            ["experiment", "sandwich", "--config"],
            {"mixture": {**_MIXTURE, "components": [{"box": [[0.4, 0.1]]}]}},
            "mixture.components[0]: need lo < hi, got [0.4, 0.1]",
        ),
    ],
    ids=[
        "synth-array",
        "synth-n-fraction",
        "synth-n-bool",
        "synth-n-string",
        "synth-seed-fraction",
        "synth-missing-components",
        "synth-box-string",
        "kde_rate-array",
        "kde_rate-trials-fraction",
        "kde_rate-ladder-scalar",
        "kde_rate-unknown-key",
        "kde_rate-trials-bool",
        "sandwich-mixture-array",
        "sandwich-mixture-weights",
        "kde_rate-no-trials",
        "sandwich-no-trials",
        "hartigan-pair-out-of-range",
        "kde_rate-no-lattice",
        "noisy_kde_gap-no-queries",
        "grid_resolution-no-templates-drawn",
        "smoothing_rate-no-series",
        "compensating-closed-form-overflow",
        "sandwich-component-box-reversed",
    ],
)
def test_bad_document_is_one_json_error(tmp_path, capsys, argv, document, message):
    path = tmp_path / "doc.json"
    write_json_document(path, document)
    rc = main([*argv, str(path), "--outdir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload == {"error": "invalid-argument", "message": message}
    assert not (tmp_path / "o").exists()


def _spread_family():
    """Three two-component sinusoid clusters with spread, flattened at sd = 8."""

    def template(o1, o2, phase):
        return ClusterTemplate(
            components=(
                TemplateComponent(kind="sine", offset=o1, amp=0.1, freq=0.5, phase=phase),
                TemplateComponent(kind="sine", offset=o2, amp=0.1, freq=0.5, phase=phase + 0.25),
            ),
            offset_jitter=0.06,
            amp_jitter=0.5,
        )

    return FunctionFamilySpec(
        clusters=(template(0.22, 0.5, 0.0), template(0.5, 0.78, 0.5), template(0.78, 0.22, 0.25)),
        weights=(1 / 3, 1 / 3, 1 / 3),
        d=4,
        eps_bar=0.05,
    )


def _per_level_tree_document(tree, ids, n, sd):
    """Every level of a tree over the ladder alone, parents from its own links."""
    levels = []
    for level in tree.levels:
        lab = level.labeling
        clusters = [
            {
                "id": c,
                "parent": level.parents[c] if level.parents else None,
                "members": [ids[i] for i in lab.members(c)],
            }
            for c in range(lab.n_clusters)
        ]
        levels.append(
            {
                "k": level.k,
                "lambda": lambda_of_k(level.k, n, tree.delta, sd),
                "clusters": clusters,
                "noise": [ids[i] for i in np.nonzero(lab.assignments == -1)[0]],
            }
        )
    return {"delta": tree.delta, "link_radius": tree.link_radius, "levels": levels}


@pytest.mark.parametrize(
    "k", [80, 25, 10, 3, 1], ids=["above", "top-rung", "between-upper", "between-lower", "below"]
)
def test_run_cluster_equals_separate_labeling_and_ladder_tree(k):
    raws, _, _ = sample_raw_series(_spread_family(), 300, 64, seed=21)
    ladder = (25, 5, 2)  # its top level's ids are the reverse of the next one's
    cfg = PipelineConfig(s=2, d=4, delta=0.08, k=k, k_ladder=ladder)
    result = run_cluster(cfg, raws)
    grids = run_smooth(cfg, raws)
    points = np.stack([g.values for g in grids]).reshape(len(grids), -1)
    ids = [g.id for g in grids]
    flat = dbscan_cluster(points, k, 0.08)
    want = _per_level_tree_document(cluster_tree(points, 0.08, ladder), ids, 300, 8)
    assert np.array_equal(result["assignments"], flat.assignments)
    assert json.dumps(result["tree"], sort_keys=True) == json.dumps(want, sort_keys=True)
    assert max(len(level["clusters"]) for level in want["levels"]) > 1
    no_ladder = run_cluster(PipelineConfig(s=2, d=4, delta=0.08, k=k), raws)
    assert np.array_equal(no_ladder["assignments"], flat.assignments)
    assert no_ladder["tree"] is None


def _g17(x) -> str:
    return format(float(x), ".17g")


def test_curves_csv_bytes_match_the_inline_writer(tmp_path):
    """Every CSV writer emits the bytes of a plain row-by-row f-string loop."""
    curves = {
        "zeta": [[1, 2.5], [np.float64(0.1), np.int64(3)]],
        "alpha": [[math.log(3.0), 1e-300], [-0.0, 1 / 3]],
        "empty": [],
    }
    want = io.StringIO()
    want.write("curve,x,y\n")
    for curve in sorted(curves):
        for x, y in curves[curve]:
            want.write(f"{curve},{_g17(x)},{_g17(y)}\n")
    emit_curves_csv(tmp_path / "c.csv", curves)
    assert (tmp_path / "c.csv").read_bytes() == want.getvalue().encode("utf-8")

    odd = [5e-324, -0.0, 1e308, 0.1 + 0.2, -1 / 7, 2.0**60]
    raws = [
        RawSeries(id="a", s=2, times=[0.25, 0.5, 1.0], values=[odd[:2], odd[2:4], odd[4:]]),
        RawSeries(id="b", s=2, times=[1 / 3, 1.0], values=[[0.5, 1], [np.pi, -np.e]]),
    ]
    grids = grid_series_views(["g0", "g1"], np.random.default_rng(3).uniform(0, 1, (2, 3, 2)))
    for series in (raws, grids):
        want = "series_id,time,v1,v2\n" + "".join(
            f"{sr.id},{_g17(t)}," + ",".join(map(_g17, vals)) + "\n"
            for sr in series
            for t, vals in zip(sr.times, sr.values)
        )
        emit_series_csv(tmp_path / "s.csv", series)
        assert (tmp_path / "s.csv").read_bytes() == want.encode("utf-8")

    points = np.array([odd[:3], odd[3:]])
    want = "point_id,x1,x2,x3\n" + "".join(
        f"{pid}," + ",".join(map(_g17, row)) + "\n" for pid, row in zip(["p0", "p1"], points)
    )
    fio.emit_points_csv(tmp_path / "p.csv", points, ["p0", "p1"])
    assert (tmp_path / "p.csv").read_bytes() == want.encode("utf-8")

    ids, labels = ["x", "y", "z"], np.array([2, -1, 0])
    writers = ((fio.emit_assignments_csv, "series_id,cluster"), (fio.emit_labels_csv, "id,label"))
    for emit, header in writers:
        emit(tmp_path / "l.csv", ids, labels)
        want = header + "\n" + "".join(f"{sid},{int(label)}\n" for sid, label in zip(ids, labels))
        assert (tmp_path / "l.csv").read_bytes() == want.encode("utf-8")


def _row_loop_ingest(path):
    """Reference ingest: one row at a time, every rule in row order."""
    reader = csv.reader(io.StringIO(Path(path).read_text(encoding="utf-8")))
    s = len(next(reader)) - 2
    rows, seen = {}, set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != s + 2:
            raise ParseError(f"expected {s + 2} fields, got {len(row)}", line=lineno)
        sid = row[0]
        try:
            t = float(row[1])
            values = tuple(float(v) for v in row[2:])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not 0.0 < t <= 1.0:
            raise ParseError(f"time {t} outside (0, 1]", line=lineno)
        bad = [j for j, v in enumerate(values) if not math.isfinite(v)]
        if bad:
            raise ParseError(f"non-finite value {values[bad[0]]} in column v{bad[0] + 1}", line=lineno)
        if (sid, t) in seen:
            raise ParseError(f"duplicate (series_id, time) = ({sid}, {t})", line=lineno)
        seen.add((sid, t))
        rows.setdefault(sid, []).append((t, values))
    out = []
    for sid, obs in rows.items():
        obs.sort(key=lambda pair: pair[0])
        out.append((sid, np.array([t for t, _ in obs]), np.array([v for _, v in obs]).reshape(-1, s)))
    return out


_TIMES = st.sampled_from(["0.25", "0.5", "0.75", "1", "1.0", "0.125", "3e-1", " 0.5 ", "1_0e-1"])
_BAD_TIMES = st.sampled_from(["0", "0.0", "-0.5", "1.5", "nan", "inf", "", "abc", "0x1"])
_VALUES = st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr)
_BAD_VALUES = st.sampled_from(["nan", "-inf", "inf", "x", "", "1,5", "--1"])


@st.composite
def _series_csv(draw):
    s = draw(st.integers(1, 3))
    corrupt = draw(st.booleans())
    times = st.one_of(_TIMES, _TIMES, _TIMES, _BAD_TIMES) if corrupt else _TIMES
    values = st.one_of(_VALUES, _VALUES, _VALUES, _BAD_VALUES) if corrupt else _VALUES
    row = st.tuples(st.sampled_from(["a", "b", "c", "", "d e"]), times, st.lists(values, min_size=s, max_size=s))
    rows = [[sid, t, *vals] for sid, t, vals in draw(st.lists(row, max_size=30))]
    if corrupt:
        for i in draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=3)):
            if rows:
                rows[i] = draw(st.sampled_from([[], rows[i][:-1], rows[i] + ["0.5"]]))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["series_id", "time"] + [f"v{i}" for i in range(1, s + 1)])
    writer.writerows(rows)
    return text.getvalue()


@settings(max_examples=300, deadline=None)
@given(text=_series_csv(), chunk=st.sampled_from([1, 2, 3, 7, 8192]))
def test_chunked_ingest_agrees_with_the_row_loop(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("ingest") / "s.csv"
    path.write_text(text, encoding="utf-8")
    try:
        want = _row_loop_ingest(path)
    except ParseError as exc:
        want = exc
    saved = fio.INGEST_CHUNK
    fio.INGEST_CHUNK = chunk
    try:
        got = ingest_series_csv(path)
    except ParseError as exc:
        got = exc
    finally:
        fio.INGEST_CHUNK = saved
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), text
        assert (str(got), got.line) == (str(want), want.line)
    else:
        assert not isinstance(got, ParseError), (text, str(got))
        assert [(y.id, y.times.tolist(), y.values.tolist()) for y in got] == [
            (sid, t.tolist(), v.tolist()) for sid, t, v in want
        ]
