"""CLI tests: every subcommand end-to-end through main()."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_removed_report_subcommand_rejected(self, capsys):
        """Performance is measured by perfbench: there is no bench-file report."""
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2
        assert "invalid choice: 'report'" in capsys.readouterr().err


class TestSpecs:
    def test_ga100(self, capsys):
        assert main(["specs", "--arch", "GA100"]) == 0
        out = capsys.readouterr().out
        assert "1410" in out and "500 W" in out
        assert "61 usable of 81" in out

    def test_gv100(self, capsys):
        assert main(["specs", "--arch", "gv100"]) == 0
        assert "117 usable of 167" in capsys.readouterr().out

    def test_unknown_arch_exit_code(self, capsys):
        assert main(["specs", "--arch", "H100"]) == 2
        assert "unknown architecture" in capsys.readouterr().err


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    data = tmp_path_factory.mktemp("campaign")
    code = main(
        [
            "collect",
            "--workloads", "dgemm,stream,spmv,lud",
            "--freqs", "510,705,900,1095,1290,1410",
            "--runs", "1",
            "--max-samples", "6",
            "--out", str(data),
        ]
    )
    assert code == 0
    return data


@pytest.fixture(scope="module")
def models(campaign, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    code = main(
        [
            "train",
            "--data", str(campaign),
            "--out", str(out),
            "--power-epochs", "20",
            "--time-epochs", "10",
        ]
    )
    assert code == 0
    return out


class TestCollectTrainPredict:
    """The full operational flow through the CLI."""

    def test_collect_wrote_csvs(self, campaign):
        csvs = list(campaign.glob("*/*.csv"))
        assert len(csvs) == 4 * 6  # workloads x clocks x 1 run

    def test_train_wrote_models(self, models):
        assert (models / "power.npz").exists()
        assert (models / "time.npz").exists()
        assert (models / "power.scalers.npz").exists()

    def test_predict_outputs_selections(self, models, capsys):
        code = main(["predict", "--models", str(models), "--workload", "lammps"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EDP" in out and "ED2P" in out and "MHz" in out

    def test_predict_with_threshold(self, models, capsys):
        code = main(
            ["predict", "--models", str(models), "--workload", "resnet50", "--threshold", "0.01"]
        )
        assert code == 0
        assert "MHz" in capsys.readouterr().out

    def test_predict_cross_arch(self, models, capsys):
        """GA100-trained models driving a GV100 prediction via the CLI."""
        code = main(["predict", "--models", str(models), "--arch", "GV100", "--workload", "lstm"])
        assert code == 0
        assert "GV100" in capsys.readouterr().out


class TestSelect:
    def test_batched_selection_output(self, models, capsys):
        code = main(
            ["select", "--models", str(models), "--workloads", "lammps,lstm,lammps", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 applications on GA100" in out
        assert out.count("lammps") >= 2
        assert "MHz" in out
        assert "service: 3 requests" in out

    @pytest.mark.parametrize("command", ["select", "serve"])
    @pytest.mark.parametrize("flag", [["--fused"], ["--shards", "2"]], ids=["fused", "shards"])
    def test_removed_engine_flags_rejected(self, models, command, flag, capsys):
        """One engine serves every request: no engine-mode flags parse."""
        source = ["--workloads", "lstm"] if command == "select" else ["--input", "-"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--models", str(models), *source, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check", "--jobs", "2"], "unrecognized arguments"),
            (["graph", "--dtypes"], "invalid choice: 'graph'"),
            (["graph"], "invalid choice: 'graph'"),
        ],
        ids=["check-jobs", "graph-dtypes", "graph"],
    )
    def test_removed_devtools_flags_rejected(self, argv, message, capsys):
        """The checker parses sequentially and has no call-graph dump: none parses."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_named_suites_resolve(self, models, capsys):
        assert main(["select", "--models", str(models), "--workloads", "training"]) == 0
        out = capsys.readouterr().out
        assert "dgemm" in out and "stream" in out

    def test_chunked_flushes(self, models, capsys):
        code = main(
            ["select", "--models", str(models), "--workloads", "evaluation", "--batch", "2", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max 2" in out

    def test_bad_batch_rejected(self, models, capsys):
        assert main(["select", "--models", str(models), "--workloads", "lstm", "--batch", "0"]) == 2
        assert "--batch" in capsys.readouterr().err

    def test_unknown_workload_exit_code(self, models, capsys):
        assert main(["select", "--models", str(models), "--workloads", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestServe:
    def _request_file(self, tmp_path, lines):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_workload_and_feature_requests(self, models, tmp_path, capsys):
        import json

        path = self._request_file(
            tmp_path,
            [
                '{"workload": "lammps"}',
                '{"fp_active": 0.6, "dram_active": 0.3, "time_at_max_s": 2.5, "name": "custom"}',
                "",  # blank lines are skipped
                '{"workload": "lammps"}',
            ],
        )
        code = main(["serve", "--models", str(models), "--input", str(path), "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["name"] for r in responses] == ["lammps", "custom", "lammps"]
        for r in responses:
            assert {"EDP", "ED2P"} == set(r["selections"])
            for sel in r["selections"].values():
                assert sel["freq_mhz"] > 0
        assert "service: 3 requests" in captured.err

    def test_invalid_lines_reported_and_exit_nonzero(self, models, tmp_path, capsys):
        import json

        path = self._request_file(
            tmp_path,
            ['{"fp_active": 0.5}', '{"workload": "lammps"}'],
        )
        code = main(["serve", "--models", str(models), "--input", str(path)])
        assert code == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert "error" in lines[0]
        assert lines[1]["name"] == "lammps"

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"fp_active": 0.5}',
            '{"fp_active": 0.5, "dram_active": 0.3, "time_at_max_s": -1}',
            '{"fp_active": NaN, "dram_active": 0.3, "time_at_max_s": 2.0}',
            '{"fp_active": 0.5, "dram_active": 0.3, "time_at_max_s": Infinity}',
            '{"fp_active": 7, "dram_active": -2, "time_at_max_s": 2.0}',
            '{"fp_active": 0.5, "dram_active": 0.3, "time_at_max_s": 2.0, "power_at_max_w": -5}',
            '{"fp_active": null, "dram_active": 0.3, "time_at_max_s": 2.0}',
            '{"workload": "lammps", "size": "big"}',
            '{"workload": "lammps", "size": 0}',
        ],
        ids=[
            "missing-field",
            "negative-time",
            "nan-activity",
            "infinite-time",
            "activity-range",
            "negative-power",
            "null-activity",
            "non-integer-size",
            "size-out-of-range",
        ],
    )
    def test_error_line_keeps_request_order(self, models, tmp_path, capsys, bad_line):
        """A bad line gets its own error reply, after the valid ones before it."""
        import json

        path = self._request_file(
            tmp_path,
            [
                '{"fp_active": 0.6, "dram_active": 0.3, "time_at_max_s": 2.5, "name": "one"}',
                bad_line,
                '{"fp_active": 0.4, "dram_active": 0.2, "time_at_max_s": 1.5, "name": "two"}',
            ],
        )
        code = main(["serve", "--models", str(models), "--input", str(path)])
        assert code == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 3
        assert lines[0]["name"] == "one"
        assert set(lines[1]) == {"error"}
        assert lines[2]["name"] == "two"

    def test_unknown_workload_error_is_not_requoted(self, models, tmp_path, capsys):
        """The reply carries the lookup message itself, not its repr."""
        import json

        path = self._request_file(
            tmp_path,
            [
                '{"workload": "lammps"}',
                '{"workload": "nosuch"}',
                '{"workload": "lammps"}',
            ],
        )
        code = main(["serve", "--models", str(models), "--input", str(path)])
        assert code == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) == 3
        assert lines[0]["name"] == "lammps"
        assert lines[1]["error"].startswith("unknown workload 'nosuch'")
        assert lines[2]["name"] == "lammps"

    def test_feature_repeats_hit_cache(self, models, tmp_path, capsys):
        import json

        request = '{"fp_active": 0.6, "dram_active": 0.3, "time_at_max_s": 2.5}'
        path = self._request_file(tmp_path, [request, request])
        # --batch 1 forces two flushes, so the repeat comes from the LRU.
        code = main(["serve", "--models", str(models), "--input", str(path), "--batch", "1"])
        assert code == 0
        first, second = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert not first["cached"]
        assert second["cached"]
        assert first["selections"] == second["selections"]


class TestFleetCli:
    def test_list_scenarios(self, capsys):
        assert main(["fleet", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("baseline", "capped", "flash-crowd", "node-churn", "day"):
            assert name in out

    def test_unknown_scenario_exit_code(self, capsys):
        assert main(["fleet", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_short_campaign_writes_metrics(self, tmp_path, capsys):
        out_file = tmp_path / "metrics.json"
        code = main(
            [
                "fleet",
                "--scenario", "baseline",
                "--seed", "0",
                "--duration-factor", "0.05",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        import json

        metrics = json.loads(out_file.read_text())
        assert metrics["scenario"] == "baseline"
        assert metrics["jobs_completed"] == metrics["jobs_submitted"] > 0
        out = capsys.readouterr().out
        assert "deadlines met" in out


class TestObsCli:
    """Global --trace/--manifest flags and the obs subcommand."""

    def test_trace_flag_writes_spans_and_summarize_reads_them(self, models, tmp_path, capsys):
        trace = tmp_path / "select.jsonl"
        code = main(
            ["--trace", str(trace), "select", "--models", str(models), "--workloads", "lammps,lstm"]
        )
        assert code == 0
        assert trace.exists()
        capsys.readouterr()  # drop the selection output

        assert main(["obs", "analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        # Per-stage span rows with counts and percentiles.
        for name in ("serving.flush", "serving.predict", "serving.select", "telemetry.cell"):
            assert name in out
        assert "p50" in out and "p99" in out

    def test_summarize_top_limits_rows(self, models, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["--trace", str(trace), "select", "--models", str(models), "--workloads", "lstm"]) == 0
        capsys.readouterr()
        assert main(["obs", "analyze", str(trace), "--top", "1"]) == 0
        out = capsys.readouterr().out
        table = out.split("\n\n")[0].splitlines()
        assert "p50" in table[0] and len(table) == 2

    def test_summarize_missing_file_exit_code(self, tmp_path, capsys):
        # `obs analyze` is the one trace reader; `obs summarize` is gone.
        with pytest.raises(SystemExit) as exc:
            main(["obs", "summarize", str(tmp_path / "nope.jsonl")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_summarize_json_format(self, models, tmp_path, capsys):
        import json

        trace = tmp_path / "t.jsonl"
        assert main(["--trace", str(trace), "select", "--models", str(models), "--workloads", "lstm"]) == 0
        capsys.readouterr()
        assert main(["obs", "analyze", str(trace), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "serving.flush" in payload["spans"]
        row = payload["spans"]["serving.flush"]
        assert row["count"] == 1
        assert 0.0 <= row["p50_s"] <= row["p95_s"] <= row["p99_s"] <= row["max_cum_s"]
        assert row["self_s"] <= row["cum_s"]
        assert payload["records"] >= payload["spans"]["serving.flush"]["count"]
        assert isinstance(payload["events"], dict)

    def test_analyze_attribution_and_critical_path(self, models, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["--trace", str(trace), "select", "--models", str(models), "--workloads", "lammps,lstm"]) == 0
        capsys.readouterr()
        assert main(["obs", "analyze", str(trace), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "self" in out and "cum" in out
        assert "serving.flush" in out
        assert "critical path" in out

    def test_analyze_flamegraph_export(self, models, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        out_file = tmp_path / "flame.txt"
        assert main(["--trace", str(trace), "select", "--models", str(models), "--workloads", "lstm"]) == 0
        capsys.readouterr()
        assert main(["obs", "analyze", str(trace), "--flamegraph", str(out_file)]) == 0
        assert "flamegraph:" in capsys.readouterr().err
        lines = out_file.read_text().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack and int(weight) >= 0
        assert any(line.startswith("serving.flush;") for line in lines)

    def test_analyze_diff_two_traces(self, models, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for trace in (a, b):
            assert main(["--trace", str(trace), "select", "--models", str(models), "--workloads", "lstm"]) == 0
            capsys.readouterr()
        assert main(["obs", "analyze", str(a), "--diff", str(b), "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "| span | count a→b | self a | self b |" in out
        assert "serving.flush" in out

    def test_analyze_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["obs", "analyze", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_analyze_missing_diff_file_exit_code(self, models, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["--trace", str(trace), "select", "--models", str(models), "--workloads", "lstm"]) == 0
        capsys.readouterr()
        assert main(["obs", "analyze", str(trace), "--diff", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_export_json_round_trips_registry(self, models, capsys):
        import json

        from repro.obs import registry_from_json

        # A select run populates the process-global registry.
        assert main(["select", "--models", str(models), "--workloads", "lammps"]) == 0
        capsys.readouterr()
        assert main(["obs", "export", "--format", "json"]) == 0
        payload = capsys.readouterr().out
        restored = registry_from_json(payload)
        assert {"serving_requests_total", "serving_flush_predict_seconds"} <= set(restored.names())
        # Round trip is lossless: re-export matches byte for byte.
        assert restored.to_json() == payload.rstrip("\n")
        assert json.loads(payload)["schema"] == 1

    def test_export_prometheus_text(self, models, capsys):
        assert main(["select", "--models", str(models), "--workloads", "lstm"]) == 0
        capsys.readouterr()
        assert main(["obs", "export"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE serving_requests_total counter" in out
        assert "serving_flush_select_seconds_bucket" in out
        assert 'le="+Inf"' in out

    def test_train_drops_manifest_next_to_models(self, models):
        import json

        manifest = json.loads((models / "run_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["exit_code"] == 0
        assert set(manifest["model_fingerprints"]) == {"power", "time"}
        assert manifest["config"]["power_epochs"] == 20
        assert len(manifest["config_hash"]) == 64
        assert manifest["wall_time_s"] > 0

    def test_collect_drops_manifest_next_to_campaign(self, campaign):
        import json

        manifest = json.loads((campaign / "run_manifest.json").read_text())
        assert manifest["command"] == "collect"
        assert manifest["seed"] == 0

    def test_explicit_manifest_path(self, tmp_path, capsys):
        import json

        target = tmp_path / "manifest.json"
        assert main(["--manifest", str(target), "specs", "--arch", "GA100"]) == 0
        capsys.readouterr()
        manifest = json.loads(target.read_text())
        assert manifest["command"] == "specs"
        assert manifest["argv"][0] == "--manifest"

    def test_trace_records_training_epochs(self, campaign, tmp_path, capsys):
        import json

        trace = tmp_path / "train.jsonl"
        out = tmp_path / "models"
        code = main(
            [
                "--trace", str(trace),
                "train",
                "--data", str(campaign),
                "--out", str(out),
                "--power-epochs", "4",
                "--time-epochs", "3",
            ]
        )
        assert code == 0
        capsys.readouterr()
        records = [json.loads(l) for l in trace.read_text().splitlines()]
        epochs = [r for r in records if r["name"] == "nn.epoch"]
        assert len(epochs) == 4 + 3
        assert all(r["dur_s"] >= 0 for r in epochs)


class TestExperiment:
    def test_tab1(self, capsys):
        assert main(["experiment", "tab1"]) == 0
        assert "GA100" in capsys.readouterr().out

    def test_fig1_fast(self, capsys):
        assert main(["experiment", "fig1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "DGEMM optimal energy" in out

    def test_extension_studies_listed(self):
        from repro.cli import _EXPERIMENTS

        assert {"pareto_study", "capping_study", "cluster_study", "phase_study", "gv100_savings"} <= _EXPERIMENTS

    def test_cluster_study_fast(self, capsys):
        assert main(["experiment", "cluster_study", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "model-driven" in out
