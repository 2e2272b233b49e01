import csv
import hashlib
import io
import json
import math
import tracemalloc
import warnings
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
from flatclust.series import RawSeries, SeriesBatch, grid_series_views
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

    def test_error_names_physical_line_after_multiline_id(self, tmp_path):
        # the quoted id spans lines 2-3, so the bad time is on line 4
        path = tmp_path / "s.csv"
        path.write_text('series_id,time,v1\n"a\nb",0.5,0.1\nc,2.0,0.1\n')
        with pytest.raises(ParseError, match=r"^line 4: time 2.0 outside \(0, 1\]$") as caught:
            ingest_series_csv(path)
        assert caught.value.line == 4
        path.write_text('series_id,time,v1\n"a\n\nb",0.5,0.1\n\nc,0.5\n')
        with pytest.raises(ParseError, match=r"^line 6: expected 3 fields, got 2$"):
            ingest_series_csv(path)

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

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_errors_name_the_physical_line_whatever_the_line_end(self, tmp_path, ending):
        path = tmp_path / "s.csv"
        # no quotes, so the fast path reads the rows; the bad time is on line 4
        path.write_bytes(ending.join(["series_id,time,v1", "a,0.5,0.1", "a,1.0,0.2", "b,1.5,0.3", ""]).encode())
        with pytest.raises(ParseError, match=r"^line 4: time 1.5 outside") as caught:
            ingest_series_csv(path)
        assert caught.value.line == 4
        # a quoted id keeps its line end and spans lines 3-4, so the bad time is on line 6
        rows = ["series_id,time,v1", "a,0.5,0.1", f'"q{ending}r",0.5,0.1', "b,0.5,0.2", "b,1.5,0.3", ""]
        path.write_bytes(ending.join(rows).encode())
        with pytest.raises(ParseError, match=r"^line 6: time 1.5 outside") as caught:
            ingest_series_csv(path)
        assert caught.value.line == 6
        path.write_bytes(ending.join(rows[:-2] + [""]).encode())
        assert [y.id for y in ingest_series_csv(path)] == ["a", f"q{ending}r", "b"]

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

    def test_fast_path_reads_emitted_csv_without_csv_reader(self, tmp_path, monkeypatch):
        raws, _, _ = sample_raw_series(jump_family(), 6, 17, seed=12)
        names = ["a_1", "b 2", "é_x", "名前", " lead", "trail "]
        raws = [RawSeries(id=name, s=r.s, times=r.times, values=r.values) for name, r in zip(names, raws)]
        path = tmp_path / "s.csv"
        emit_series_csv(path, raws)

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called on a file the fast path reads")

        monkeypatch.setattr(fio.csv, "reader", refuse)
        back = ingest_series_csv(path)
        assert [y.id for y in back] == names
        for got, original in zip(back, raws):
            assert got.times.tobytes() == original.times.tobytes()
            assert got.values.tobytes() == original.values.tobytes()

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_invalid_utf8_names_its_line(self, tmp_path, ending):
        rows = ["series_id,time,v1", "a,0.5,0.1", "a,1.0,0.2", "b,0.5,\udcff", "b,1.0,0.3"]
        data = ending.join(rows).encode("utf-8", "surrogateescape")  # \udcff is the byte 0xff
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=r"^line 4: byte 0xff is not UTF-8 \(invalid start byte\)$") as caught:
            ingest_series_csv(path)
        assert caught.value.line == 4

    def test_a_byte_order_mark_is_refused_on_line_1_by_both_parsers(self, tmp_path):
        message = r"^line 1: file starts with a UTF-8 byte-order mark \(BOM\); save it without one$"
        text = "\ufeffseries_id,time,v1\na,0.5,0.1\n"
        for parse in (fio._fast_rows, fio._exact_rows):
            with pytest.raises(ParseError, match=message):
                parse(text)
        for body in (text, '\ufeff"series_id",time,v1\n"a",0.5,0.1\n'):  # a quote leaves the file to the exact parser
            path = tmp_path / "s.csv"
            path.write_bytes(body.encode("utf-8"))
            with pytest.raises(ParseError, match=message) as caught:
                ingest_series_csv(path)
            assert caught.value.line == 1


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
            run_cluster(cfg, SeriesBatch.from_series([*raws, truncated]))

    @pytest.mark.parametrize(
        "series, message",
        [
            (  # every series of a batch has its s, so the message names the first
                lambda raws: [RawSeries(f"odd{i}", 2, y.times, np.hstack([y.values] * 2)) for i, y in enumerate(raws)],
                "series 'odd0' has s=2, config expects 1",
            ),
            (
                lambda raws: [*raws, RawSeries("odd", 1, raws[1].times[:4], raws[1].values[:4])],
                "series 'odd' has m=4 <= d=4; need m > d",
            ),
        ],
        ids=["s-mismatch", "m-not-above-d"],
    )
    def test_refused_series_messages(self, series, message):
        raws, _, _ = self._series(n=3, m=24)
        with pytest.raises(ValueError) as info:
            run_cluster(PipelineConfig(s=1, d=4, delta=0.1, k=2), SeriesBatch.from_series(series(raws)))
        assert str(info.value) == message

    @pytest.mark.parametrize("link_radius, want", [(None, 0.2), (0.15, 0.15)], ids=["default", "configured"])
    def test_manifest_link_radius(self, link_radius, want):
        raws, _, _ = self._series()
        cfg = PipelineConfig(s=1, d=4, delta=0.1, k=3, k_ladder=(8, 3), link_radius=link_radius)
        result = run_cluster(cfg, raws)
        assert result["manifest"]["resolved"]["link_radius"] == want
        assert result["tree"]["link_radius"] == want

    def test_result_keys(self):
        raws, _, _ = self._series()
        result = run_cluster(PipelineConfig(s=1, d=4, delta=0.1, k=3), raws)
        assert sorted(result) == ["assignments", "ids", "manifest", "tree"]

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


def test_run_smooth_smooths_the_ingested_batch_without_a_copy(tmp_path):
    # a copy of the batch's times and values alone would reach this peak
    raws, _, _ = sample_raw_series(lipschitz_family(d=4, eps_bar=0.05), 2000, 64, seed=15)
    emit_series_csv(tmp_path / "s.csv", raws)
    batch = ingest_series_csv(tmp_path / "s.csv")
    copy_bytes = batch.times.nbytes + batch.values.nbytes
    tracemalloc.start()
    try:
        grids = run_smooth(PipelineConfig(s=1, d=4, k=3), batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grids) == 2000 and peak < copy_bytes


def test_run_smooth_views_are_rows_of_one_read_only_grid():
    raws, _, _ = sample_raw_series(lipschitz_family(d=4, eps_bar=0.05), 30, 32, seed=15)
    grids = run_smooth(PipelineConfig(s=1, d=4, k=3), raws)
    owner = grids[0].values.base
    assert owner.shape == (30, 4, 1) and not owner.flags.writeable
    assert all(g.values.base is owner for g in grids)
    assert np.array_equal(np.stack([g.values for g in grids]), owner)
    with pytest.raises(ValueError, match="WRITEABLE"):
        grids[0].values.setflags(write=True)


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

    @pytest.mark.parametrize(
        "tail, line, message",
        [
            (b"b" * 131073 + b",0.5,0.1\n", 3, "line 3: field larger than field limit (131072)"),
            (b"b,0.5,\xff\n", 3, "line 3: byte 0xff is not UTF-8 (invalid start byte)"),
        ],
        ids=["field-over-the-csv-limit", "invalid-utf8"],
    )
    def test_unreadable_csv_is_one_parse_error(self, tmp_path, capsys, tail, line, message):
        _, config_path = _write_cluster_inputs(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"series_id,time,v1\na,0.5,0.1\n" + tail)
        rc = main(["cluster", "--config", str(config_path), "--input", str(bad), "--outdir", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "parse-error", "line": line, "message": message}

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


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("cluster", {"delta": 1e-200}, "delta=1e-200 at sd=4, n=24 gives n*delta^sd*v_sd=0.0, not a positive"),
        ("cluster", {"delta": 1e308}, "delta=1e+308 at sd=4, n=24 gives n*delta^sd*v_sd=inf, not a positive"),
        ("tree", {"delta": 1e-200, "k_ladder": [5, 3]}, "delta=1e-200 at sd=4, n=24 gives n*delta^sd*v_sd=0.0"),
        ("cluster", {"delta": 1e-90, "k": None, "lambda": 1.0}, "delta=1e-90 at sd=4, n=24 gives n*delta^sd*v_sd=0.0"),
        # a subnormal ball mass: lambda_of_k(3) is inf, which no JSON document can hold
        ("cluster", {"d": 2, "delta": 1e-160}, "delta=1e-160 at sd=2, n=24 gives k=3 lambda=inf"),
        ("tree", {"d": 2, "delta": 1e-154, "k_ladder": [10**6, 3]}, "delta=1e-154 at sd=2, n=24 gives k=1000000"),
        ("cluster", {"delta": 1.0, "k": None, "lambda": 1e308}, "lambda=1e+308 at delta=1.0, sd=4, n=24 gives k=inf"),
    ],
    ids=["delta-underflow", "delta-overflow", "tree-underflow", "lambda-underflow", "level-inf", "ladder-inf", "k-inf"],
)
def test_an_extreme_delta_is_refused_before_clustering(tmp_path, capsys, monkeypatch, command, config, message):
    # these ended in ZeroDivisionError and OverflowError tracebacks, or wrote Infinity into the manifest
    def no_clustering(*args, **kwargs):
        raise AssertionError("clustering ran")

    monkeypatch.setattr(fio, "dbscan_cluster", no_clustering)
    monkeypatch.setattr(fio, "cluster_tree", no_clustering)
    series_path, _ = _write_cluster_inputs(tmp_path)
    cfg = tmp_path / "extreme.json"
    write_json_document(cfg, {k: v for k, v in {**_BASE, **config}.items() if v is not None})
    rc = main([command, "--config", str(cfg), "--input", str(series_path), "--outdir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "invalid-argument" and payload["message"].startswith(message)
    assert not (tmp_path / "o").exists()


def test_an_experiment_with_an_extreme_delta_is_refused(tmp_path, capsys):
    # exited 0 with NaN and Infinity tokens in its report
    cfg = tmp_path / "exp.json"
    write_json_document(cfg, {"delta_scale": 1e-300, "m_ladder": [64, 128], "trials": 1})
    assert main(["experiment", "noisy_kde_gap", "--config", str(cfg), "--outdir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "invalid-argument"
    assert payload["message"].endswith("at sd=2, n=512 gives n*delta^sd*v_sd=0.0, not a positive finite number")
    assert not (tmp_path / "o").exists()


def test_an_empty_experiment_config_path_is_an_io_error(tmp_path, capsys):
    # an empty path names no file; it is not "no --config", which runs the defaults
    assert main(["experiment", "compensating", "--config", "", "--outdir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "io-error"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("gamma", [1e-300, 1e-320])
def test_a_tiny_gamma_smooths_without_an_overflow_warning(tmp_path, gamma):
    # at 1e-300 kernel_le's u*u overflowed outside the support; at the
    # subnormal 1e-320 the quotient (t_j - t) / gamma itself did
    series_path, _ = _write_cluster_inputs(tmp_path)
    cfg = tmp_path / "tiny_gamma.json"
    write_json_document(cfg, {**_BASE, "delta": 0.1, "gamma": gamma})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["cluster", "--config", str(cfg), "--input", str(series_path), "--outdir", str(tmp_path / "o")]) == 0
    assert read_json_document(tmp_path / "o" / "manifest.json")["resolved"]["gamma"]["series00000"] == gamma


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_json_document_refuses_non_json_numbers_before_opening(tmp_path, bad):
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    write_json_document(kept, {"a": 1})
    before = kept.read_bytes()
    for path in (fresh, kept):
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            write_json_document(path, {"a": 1, "nested": {"level": [0.5, bad]}})
    assert not fresh.exists()
    assert kept.read_bytes() == before == b'{\n  "a": 1\n}\n'


_MIXTURE = {"kind": "mixture", "components": [{"box": [[0.1, 0.4]]}], "weights": [1.0]}


@pytest.mark.parametrize(
    "argv, document, message",
    [
        (["synth", "--spec"], [1, 2], "config must be a JSON object, got list"),
        (["synth", "--spec"], {"spec": _MIXTURE, "n": 2.7}, "n must be an integer, got 2.7"),
        (["synth", "--spec"], {"spec": _MIXTURE, "n": True}, "n must be an integer, got True"),
        (["synth", "--spec"], {"spec": _MIXTURE, "n": "5"}, "n must be an integer, got '5'"),
        (["synth", "--spec"], {"spec": _MIXTURE, "seed": 1.9}, "seed must be an integer, got 1.9"),
        (["synth", "--spec"], {"spec": _MIXTURE, "n": 0}, "n must be >= 1, got 0"),
        (["synth", "--spec"], {"spec": lipschitz_family(d=4).to_dict(), "n": 0}, "n must be >= 1, got 0"),
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
        # a falsy document is refused like any other non-object, not read as "no config"
        (["experiment", "compensating", "--config"], [], "config must be a JSON object, got list"),
        (["experiment", "compensating", "--config"], None, "config must be a JSON object, got NoneType"),
        (["experiment", "compensating", "--config"], 0, "config must be a JSON object, got int"),
        (["experiment", "compensating", "--config"], False, "config must be a JSON object, got bool"),
        (["experiment", "compensating", "--config"], "", "config must be a JSON object, got str"),
    ],
    ids=[
        "synth-array",
        "synth-n-fraction",
        "synth-n-bool",
        "synth-n-string",
        "synth-seed-fraction",
        "synth-mixture-no-points",
        "synth-family-no-series",
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
        "compensating-empty-array",
        "compensating-null",
        "compensating-zero",
        "compensating-false",
        "compensating-empty-string",
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


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--config", "{doc}", "--input", "{csv}", "--outdir", "{out}"],
        ["tree", "--config", "{doc}", "--input", "{csv}", "--outdir", "{out}"],
        ["smooth", "--config", "{doc}", "--input", "{csv}", "--output", "{out}"],
        ["synth", "--spec", "{doc}", "--outdir", "{out}"],
        ["experiment", "kde_rate", "--config", "{doc}", "--outdir", "{out}"],
    ],
    ids=["cluster", "tree", "smooth", "synth", "experiment"],
)
@pytest.mark.parametrize(
    "data, line, message",
    [
        (b'{"s": 1, "d": 1, "k": 1,\n "delta": }', 2, "line 2: Expecting value (column 11)"),
        (b'{"s": 1,\r\n\r\n "d": 1', 3, "line 3: Expecting ',' delimiter (column 8)"),
        (b"\xff{}", 1, "line 1: byte 0xff is not UTF-8 (invalid start byte)"),
        (b'{"s": 1,\n "d": "\xe9"}', 2, "line 2: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
        (b"\xef\xbb\xbf{}", 1, "line 1: Unexpected UTF-8 BOM (decode using utf-8-sig) (column 1)"),
        (b"", 1, "line 1: Expecting value (column 1)"),
    ],
    ids=["syntax", "unterminated-crlf", "leading-0xff", "non-utf8-value", "bom", "empty"],
)
def test_unreadable_document_is_a_parse_error_naming_its_line(tmp_path, capsys, argv, data, line, message):
    doc = tmp_path / "doc.json"
    doc.write_bytes(data)
    paths = {"doc": doc, "csv": tmp_path / "series.csv", "out": tmp_path / "o"}
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "parse-error", "line": line, "message": message}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("document", [{"spec": _MIXTURE, "n": 10**15}], ids=["mixture-n"])
def test_synth_beyond_the_address_space_is_one_json_error(tmp_path, capsys, document):
    # numpy refuses an array larger than the address space at once, so nothing is allocated
    path = tmp_path / "doc.json"
    write_json_document(path, document)
    rc = main(["synth", "--spec", str(path), "--outdir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "out-of-memory"
    assert payload["message"].startswith("Unable to allocate")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("d", [10**4 + 1, 10**12, 10**14])
def test_synth_with_a_family_d_past_the_bound_is_one_json_error(tmp_path, capsys, d):
    # refused before the family builds its grid, so no d-sized array is allocated
    path = tmp_path / "doc.json"
    write_json_document(path, {"spec": {**lipschitz_family().to_dict(), "d": d}})
    rc = main(["synth", "--spec", str(path), "--outdir", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "invalid-argument", "message": f"spec: d must be <= 10000, got {d}"}
    assert not (tmp_path / "o").exists()


def test_synth_that_fails_while_sampling_writes_no_directory(tmp_path, capsys):
    path = tmp_path / "doc.json"
    write_json_document(path, {"spec": lipschitz_family(d=4).to_dict(), "m": 4})
    rc = main(["synth", "--spec", str(path), "--outdir", str(tmp_path / "o")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "invalid-argument",
        "message": "need m > d, got m=4, d=4",
    }
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


@pytest.mark.parametrize(
    "family, n, m, seed, sha256",
    [
        (jump_family(), 5, 13, 3, "c0dea1ea666bd94814938fd44967d90afcf48ae6c23f18e21f9e943f1ecafc59"),
        (_spread_family(), 70, 24, 8, "d3b622f377152b716da01556cff0a763b4a90a98a7a19a23302308a0774fbc7a"),
    ],
    ids=["jump", "spread_two_chunks"],
)
def test_sampled_series_csv_bytes_are_pinned(tmp_path, family, n, m, seed, sha256):
    # a sampled batch stores its j/m schedule once; the CSV (as `synth` writes it) still has every row's time
    raws, _, _ = sample_raw_series(family, n, m, seed)
    emit_series_csv(tmp_path / "s.csv", raws)
    assert hashlib.sha256((tmp_path / "s.csv").read_bytes()).hexdigest() == sha256


# Ragged lengths, irregular times, rows out of order and quoted ids: read by the exact parser.
_RAGGED_CSV = (
    "series_id,time,v1\n"
    '"north, 1",0.13,0.21\n'
    '"north, 1",0.41,0.19\n'
    "south,0.07,0.83\n"
    '"north, 1",0.77,0.24\n'
    '"north, 1",0.95,0.18\n'
    "south,0.33,0.79\n"
    "south,0.58,0.81\n"
    "south,0.61,0.84\n"
    "south,1,0.77\n"
    '"say ""hi""",0.2,0.22\n'
    '"say ""hi""",0.45,0.26\n'
    '"say ""hi""",0.7,0.2\n'
    '"say ""hi""",0.9,0.23\n'
    '"say ""hi""",0.99,0.21\n'
    '"say ""hi""",0.5,0.24\n'
    "east,0.9,0.8\n"
    "east,0.1,0.82\n"
    "east,0.5,0.86\n"
    "east,0.75,0.81\n"
    "west,0.25,0.5\n"
    "west,0.5,0.52\n"
    "west,0.75,0.49\n"
    "west,1.0,0.51\n"
    "west,0.125,0.48\n"
)


def _cli_inputs(tmp_path, kind):
    """(series CSV, config) of one pinned CLI input: a sampled j/m CSV or the hand-written ragged one."""
    series_path = tmp_path / "series.csv"
    if kind == "sampled":
        raws, _, _ = sample_raw_series(_spread_family(), 60, 24, 5)
        emit_series_csv(series_path, raws)
        return series_path, {"s": 2, "d": 4, "delta": 0.08, "k": 4, "k_ladder": [12, 4, 2]}
    series_path.write_text(_RAGGED_CSV)
    return series_path, {"s": 1, "d": 2, "delta": 0.15, "k": 2, "k_ladder": [3, 2, 1]}


@pytest.mark.parametrize(
    "kind, want",
    [
        (
            "sampled",
            {
                "assignments.csv": "a225f6f261f4eeb2d25f7db8b17132334449755910e05988442bf9def3033ec5",
                "manifest.json": "d0607964e54c271cf437b3f1eee8c292c86c2337e40d303e43b244de7c425202",
                "tree.json": "06f348e063d510ca267751b92020fb7193bff10db85edb10cdbdcbfe196b7320",
                "grid.csv": "4f4eb579416415561b32b3789d626bbb4dc69e9e6e76223845c5a384052b2d9d",
            },
        ),
        (
            "ragged",
            {
                "assignments.csv": "fd2e38b9e97d74ec4c2e03d77562adbc4703c53d157d49e7a24130d302544580",
                "manifest.json": "e73cdf80a176ca7268787abac1ddadca89182ee7c2c370162fbaafd3b264ba2e",
                "tree.json": "696ba39077861d815cbc26e2cf6374f65928b2f2f917da5146ae10d4f9dd30d2",
                "grid.csv": "9602ac39e3ed842f48268a0bb6884a53475fbebbf6870dd0004df37f0c58cc35",
            },
        ),
    ],
)
def test_cli_output_bytes_are_pinned(tmp_path, kind, want):
    # digests of `flatclust tree` and `flatclust smooth`, so a refactor of the pipeline keeps every byte
    series_path, config = _cli_inputs(tmp_path, kind)
    config_path = tmp_path / "config.json"
    write_json_document(config_path, config)
    out = tmp_path / "t"
    assert main(["tree", "--config", str(config_path), "--input", str(series_path), "--outdir", str(out)]) == 0
    grid = out / "grid.csv"
    assert main(["smooth", "--config", str(config_path), "--input", str(series_path), "--output", str(grid)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in want}
    assert got == want


def test_config_s_unlike_the_csv_s_is_pinned(tmp_path, capsys):
    series_path, config = _cli_inputs(tmp_path, "ragged")
    config_path = tmp_path / "config.json"
    write_json_document(config_path, {**config, "s": 2})
    rc = main(["cluster", "--config", str(config_path), "--input", str(series_path), "--outdir", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        '{"error": "invalid-argument", "message": "series \'north, 1\' has s=1, config expects 2"}\n'
    )
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("odd_id", ["a,b", 'a"b', "a\nb", "a\rb", '"', ","])
def test_ids_that_need_quotes_round_trip(tmp_path, odd_id):
    ids = [odd_id, "plain"]
    raws = [RawSeries(id=sid, s=1, times=[0.5, 1.0], values=[[0.1], [0.2]]) for sid in ids]
    emit_series_csv(tmp_path / "s.csv", raws)
    back = ingest_series_csv(tmp_path / "s.csv")
    assert [(y.id, y.times.tolist(), y.values.tolist()) for y in back] == [
        (x.id, x.times.tolist(), x.values.tolist()) for x in raws
    ]
    for emit, name in ((fio.emit_assignments_csv, "a.csv"), (fio.emit_labels_csv, "l.csv")):
        emit(tmp_path / name, ids, [0, -1])
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1:] == [[odd_id, "0"], ["plain", "-1"]]
    fio.emit_points_csv(tmp_path / "p.csv", np.array([[0.5], [0.25]]), ids)
    emit_curves_csv(tmp_path / "c.csv", {odd_id: [[1, 2]]})
    for name, want in (("p.csv", [[odd_id, "0.5"], ["plain", "0.25"]]), ("c.csv", [[odd_id, "1", "2"]])):
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1:] == want


def _row_loop_ingest(path):
    """Reference ingest: one row at a time, every rule in row order."""
    reader = csv.reader(io.StringIO(Path(path).read_bytes().decode("utf-8"), newline=""))
    s = len(next(reader)) - 2
    rows, seen = {}, set()
    end = reader.line_num
    for row in reader:
        lineno, end = end + 1, reader.line_num  # a row's first physical line
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


_TIMES = st.sampled_from(["0.25", "0.5", "0.75", "1", "1.0", "0.125", "3e-1", " 0.5 ", "0.5\x0c"])
_ODD_TIMES = st.sampled_from(["1_0e-1", "\u0660.\u0665", "0.2\u0665"])  # float reads them, numpy does not
_BAD_TIMES = st.sampled_from(["0", "0.0", "-0.5", "1.5", "nan", "inf", "", "abc", "0x1", "#0.5", "0.5\x1c", "0._5"])
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.17g" % x),
    st.sampled_from([" 0.25", "0.25\x0c", "-0", "1e-400"]),
)
_ODD_VALUES = st.sampled_from(["1_5e-1", "\u0661", "\u0661\u0665e-1"])
_BAD_VALUES = st.sampled_from(["nan", "-inf", "inf", "x", "", "1,5", "--1", "1#", "#1", "\x1c1", "1__0"])
_IDS = ["a", "b", "c", "", "d e", "a_1", "#x", "\u00e9", "\u540d", "x\x0cy"]


@st.composite
def _series_csv(draw):
    """A series CSV text, valid or not, with the line ends and odd lines a file may hold."""
    s = draw(st.integers(1, 3))
    corrupt = draw(st.booleans())
    ids = _IDS + ["a,b", 'q"t', "l\nf", "c\rr"] if draw(st.integers(0, 2)) == 0 else _IDS  # csv.writer quotes these
    times, values = _TIMES, _VALUES
    if draw(st.integers(0, 2)) == 0:
        times, values = st.one_of(times, times, times, _ODD_TIMES), st.one_of(values, values, _ODD_VALUES)
    if corrupt:
        times, values = st.one_of(times, times, times, _BAD_TIMES), st.one_of(values, values, values, _BAD_VALUES)
    row = st.tuples(st.sampled_from(ids), times, st.lists(values, min_size=s, max_size=s))
    rows = [[sid, t, *vals] for sid, t, vals in draw(st.lists(row, max_size=30))]
    if corrupt:
        for i in draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=3)):
            if rows:
                rows[i] = draw(st.sampled_from([[], rows[i][:-1], rows[i] + ["0.5"]]))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["series_id", "time"] + [f"v{i}" for i in range(1, s + 1)])
    writer.writerows(rows)
    lines = text.getvalue().split("\n")[:-1]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # blank and whitespace-only lines
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\x0c", "\t"])))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    final = ending if draw(st.integers(0, 3)) else ""  # sometimes no final line end
    return ending.join(lines) + final


@settings(max_examples=400, deadline=None)
@given(text=_series_csv(), chunk=st.sampled_from([1, 2, 3, 7, 8192]))
def test_chunked_ingest_agrees_with_the_row_loop(tmp_path_factory, text, chunk):
    """Either path, any chunk size: the reference's series bit for bit, or its error and line."""
    path = tmp_path_factory.mktemp("ingest") / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    saved = fio.INGEST_CHUNK
    fio.INGEST_CHUNK = chunk
    try:
        _assert_ingest_is_the_row_loop(path)
    finally:
        fio.INGEST_CHUNK = saved


@pytest.mark.parametrize(
    "text",
    [
        "series_id,time,v1\na,0.5,0.1,0.2\n",  # a field too many, which usecols would drop
        "series_id,time,v1\na,0.5,0.1,0.2,0.3\n \n",  # the right comma count, in a row too long and a blank one
        "series_id,time,v1\na,0.5,0.1,0.2,0.3\n\n",  # the same with an empty line, which loadtxt skips
        "series_id,time,v1\na,0.5,0.1\n \na,1.0,0.2\n",  # whitespace-only line
        "series_id,time,v1\na,0.5,0.1\n\na,2.0,0.2\n",  # a blank line before the error
        "series_id,time,v1\na,0.5,0.1\na,\n",  # nothing after the id
        "series_id,time,v1\na\nb\n",  # no numbers at all, which loadtxt would warn about
        "series_id,time,v1\na,0.5,1_0\n",  # float reads 1_0, numpy does not
        "series_id,time,v1\na,0.5,1\x1c\n",  # numpy reads 1\x1c, float does not
        "series_id,time,v1\n\u540d,0.5,\u0661\n",  # non-ASCII id and digit
    ],
)
def test_fast_path_traps_read_as_the_row_loop(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_ingest_is_the_row_loop(path)


def _assert_ingest_is_the_row_loop(path):
    text = path.read_bytes().decode("utf-8")
    try:
        want = _row_loop_ingest(path)
    except ParseError as exc:
        want = exc
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would reach the command line's stderr
            got = ingest_series_csv(path)
    except ParseError as exc:
        got = exc
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), text
        assert (str(got), got.line) == (str(want), want.line)
    else:
        assert not isinstance(got, ParseError), (text, str(got))
        assert [(y.id, y.times.tobytes(), y.values.tobytes()) for y in got] == [
            (sid, t.tobytes(), v.tobytes()) for sid, t, v in want
        ]

_NUMBER_PROBES = [
    "0.5", "1", "1.", ".5", "-0", "+1", "1e500", "1e-400", "4.9e-324", "nan", "-nan", "+inf", "Infinity",
    "1_0", "1__0", "0x1p3", "1d5", "1.0j", "1e", "++1", "#1", "1#", " ", "\x001", "1\x00",
    "١", "٠.٥", " 1 ", "\t1", "1\x0c", "\x0b1", "1\x85", "1\xa0", "1 ", "　1",
    "1\x1c", "\x1d1", "1\x1e", "\x1f1",
]
_NUMBER_CHARS = list("0123456789+-.eE_ infnaINFNAxjd#") + [
    "\t", "\x0b", "\x0c", "\x00", "\x1c", "\x1f", "\x85", "\xa0", " ", "　", "١", "１",
]


def _loadtxt_number(token: str):
    """The bits np.loadtxt reads from token as the fast path calls it, or None where it refuses it."""
    try:
        got = np.loadtxt([f"id,{token}"], delimiter=",", comments=None, quotechar=None, ndmin=2, usecols=[1])
    except ValueError:
        return None
    assert got.shape == (1, 1), token
    return got.tobytes()


def _check_number(token: str) -> bool:
    """Where numpy's parser reads a number, float reads the same bits, but for the characters
    the fast path leaves to the exact parser. Returns whether numpy read it."""
    bits = _loadtxt_number(token)
    if bits is None:
        return False  # the exact parser reads the file
    if any(c in token for c in fio._EXACT_ONLY):
        with pytest.raises(ValueError):  # numpy strips \x1c-\x1f as whitespace, float refuses them
            float(token)
    else:
        assert np.float64(float(token)).tobytes() == bits, token
    return True


def test_loadtxt_reads_the_probes_as_float_does():
    read = [token for token in _NUMBER_PROBES if _check_number(token)]
    assert "1\x1c" in read and "1_0" not in read and "\u0661" not in read and "0.5" in read


@settings(max_examples=500, deadline=None)
@given(
    token=st.one_of(
        st.text(st.sampled_from(_NUMBER_CHARS), min_size=1, max_size=8),
        st.floats().map(repr),
        st.floats().map(lambda x: "%.17g" % x),
    )
)
def test_loadtxt_reads_no_number_that_float_reads_otherwise(token):
    _check_number(token)
