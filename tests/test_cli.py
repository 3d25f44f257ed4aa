"""Tests for the command-line interface (repro.cli)."""

import json
import os

import numpy as np
import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def capture_help(capsys, monkeypatch, *argv):
    """The --help text of one (sub)command, at a pinned terminal width."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--help"])
    assert excinfo.value.code == 0
    return capsys.readouterr().out


class TestDatasetsCommand:
    def test_lists_presets(self, capsys):
        code, out, _ = run_cli(capsys, "datasets")
        assert code == 0
        rows = json.loads(out)
        names = {row["name"] for row in rows}
        assert {"ds2_like", "euclidean_like"} <= names
        assert all("description" in row for row in rows)


class TestGenerateAndAnalyze:
    def test_generate_writes_npz(self, capsys, tmp_path):
        target = tmp_path / "matrix.npz"
        code, out, _ = run_cli(
            capsys, "generate", "planetlab_like", "-o", str(target), "--nodes", "40"
        )
        assert code == 0
        assert target.exists()
        assert "40-node" in out

    def test_analyze_preset(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--preset", "ds2_like", "--nodes", "50")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_nodes"] == 50
        assert 0 <= payload["violating_triangle_fraction"] <= 1
        assert payload["severity"]["edges"] > 0

    def test_analyze_from_file(self, capsys, tmp_path):
        target = tmp_path / "matrix.npz"
        run_cli(capsys, "generate", "p2psim_like", "-o", str(target), "--nodes", "30")
        code, out, _ = run_cli(capsys, "analyze", "--input", str(target))
        assert code == 0
        assert json.loads(out)["n_nodes"] == 30

    def test_analyze_missing_file_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--input", str(tmp_path / "nope.npz"))
        assert code == 1
        assert "error" in err

    def test_generate_then_analyze_through_a_path_without_suffix(self, capsys, tmp_path):
        target = tmp_path / "matrix"
        code, out, _ = run_cli(
            capsys, "generate", "p2psim_like", "-o", str(target), "--nodes", "30"
        )
        assert code == 0
        assert f"to {target}" in out
        assert target.exists() and not (tmp_path / "matrix.npz").exists()
        code, out, _ = run_cli(capsys, "analyze", "--input", str(target))
        assert code == 0
        assert json.loads(out)["n_nodes"] == 30

    def test_analyze_refuses_a_pickled_member(self, capsys, tmp_path):
        marker = tmp_path / "unpickled"

        class Payload:
            def __reduce__(self):
                return os.mkdir, (str(marker),)

        path = tmp_path / "evil.npz"
        np.savez(path, delays=np.zeros((3, 3)), labels=np.array([Payload()] * 3))
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1
        assert "evil.npz is refused: not a pickle-free .npz" in err
        assert not marker.exists()


class TestExperimentsCommands:
    def test_list_experiments(self, capsys):
        code, out, _ = run_cli(capsys, "experiments")
        assert code == 0
        ids = json.loads(out)
        assert "fig20" in ids and "fig25" in ids

    def test_run_experiment_scalar_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", "fig19", "--nodes", "60", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "fig19"
        assert "median_severity_shrunk" in payload["data"]

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig99")
        assert code == 1
        assert "unknown experiment" in err

    def test_run_full_payload(self, capsys):
        code, out, _ = run_cli(capsys, "run", "fig09", "--nodes", "60", "--full")
        assert code == 0
        payload = json.loads(out)
        assert "datasets" in payload["data"]

    def test_report_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--nodes", "60", "--only", "fig19", "fig09"
        )
        assert code == 0
        assert "# Regenerated experiment results" in out
        assert "## fig19" in out

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        code, out, _ = run_cli(
            capsys, "report", "--nodes", "60", "--only", "fig09", "-o", str(target)
        )
        assert code == 0
        assert target.exists()
        assert "## fig09" in target.read_text()


class TestRunAllCommand:
    def test_run_all_subset_prints_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "run-all", "--nodes", "48", "--only", "fig03", "fig08"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "bench-experiments/v1"
        assert [entry["id"] for entry in payload["experiments"]] == ["fig03", "fig08"]
        assert payload["totals"]["experiments"] == 2

    def test_run_all_cached_second_pass_all_hits(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "artifacts")
        report_path = str(tmp_path / "BENCH_experiments.json")
        args = (
            "run-all", "--nodes", "48", "--jobs", "2",
            "--only", "fig03", "fig08",
            "--cache-dir", cache_dir, "--report", report_path,
        )
        code, _, _ = run_cli(capsys, *args)
        assert code == 0
        code, _, _ = run_cli(capsys, *args)
        assert code == 0
        payload = json.loads(open(report_path, encoding="utf-8").read())
        assert payload["totals"]["cache"]["misses"] == 0
        assert payload["totals"]["cache"]["hits"] > 0
        assert payload["totals"]["all_cache_hits"] is True

    def test_run_all_full_includes_scalar_results(self, capsys):
        code, out, _ = run_cli(
            capsys, "run-all", "--nodes", "48", "--only", "fig03", "--full"
        )
        assert code == 0
        payload = json.loads(out)
        assert "report" in payload and "results" in payload
        assert "fig03" in payload["results"]

    def test_run_all_unknown_experiment_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "run-all", "--only", "fig99")
        assert code == 1
        assert "unknown experiment" in err

    def test_run_all_only_without_ids_is_an_argparse_error(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["run-all", "--only"])
        assert excinfo.value.code == 2


class TestScenarioCommands:
    def test_scenarios_lists_full_library_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios")
        assert code == 0
        rows = json.loads(out)
        names = {row["name"] for row in rows}
        assert {"baseline", "tiv_free", "heavy_tiv", "asymmetric"} <= names

    def test_scenarios_matrix_flag_restricts_listing(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios", "--matrix", "small")
        small = {row["name"] for row in json.loads(out)}
        assert code == 0
        code, out, _ = run_cli(capsys, "scenarios", "--matrix", "full")
        full = {row["name"] for row in json.loads(out)}
        assert code == 0
        assert small < full

    def test_scenarios_unknown_matrix_is_an_argparse_error(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["scenarios", "--matrix", "huge"])

    def test_run_scenarios_matrix_and_only_wired_through(self, capsys, tmp_path):
        report_path = tmp_path / "BENCH_scenarios.json"
        code, out, _ = run_cli(
            capsys,
            "run-scenarios",
            "--matrix",
            "small",
            "--only",
            "fig03",
            "--nodes",
            "32",
            "--report",
            str(report_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"] == "small"
        # --only reached every scenario's sweep...
        for row in payload["scenarios"]:
            assert [e["id"] for e in row["report"]["experiments"]] == ["fig03"]
        # ...and --nodes/--report were honoured.
        assert payload["config"]["n_nodes"] == 32
        assert report_path.exists()

    def test_run_scenarios_explicit_names_override_matrix(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run-scenarios",
            "--scenario",
            "tiv_free",
            "--only",
            "fig03",
            "--nodes",
            "32",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix"] == "custom"
        assert [r["scenario"]["name"] for r in payload["scenarios"]] == ["tiv_free"]

    def test_run_with_unknown_scenario_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig03", "--scenario", "not_real")
        assert code == 1
        assert "unknown scenario" in err


class TestGraphCommand:
    def test_graph_prints_waves_and_addresses(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "--experiment", "fig19", "--nodes", "48"
        )
        assert code == 0
        assert "wave 0:" in out and "wave 1:" in out
        assert "dataset[ds2_like,48]" in out
        assert "vivaldi" in out and "alert" in out
        assert "cache=unknown" in out  # no --cache-dir given

    def test_graph_json_reports_cache_status(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        run_cli(
            capsys,
            "run-all",
            "--only",
            "fig03",
            "--nodes",
            "48",
            "--jobs",
            "1",
            "--cache-dir",
            str(cache_dir),
        )
        code, out, _ = run_cli(
            capsys,
            "graph",
            "--experiment",
            "fig03",
            "fig19",
            "--nodes",
            "48",
            "--cache-dir",
            str(cache_dir),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        status = {row["artifact"]: row["cache"] for row in payload["artifacts"]}
        assert status["dataset[ds2_like,48]"] == "hit"
        assert status["clusters"] == "hit"
        assert status["vivaldi"] == "miss"  # fig19's chain was never warmed
        waves = {row["artifact"]: row["wave"] for row in payload["artifacts"]}
        assert waves["alert"] > waves["vivaldi"] > waves["dataset[ds2_like,48]"]
        assert all(len(row["address"]) == 32 for row in payload["artifacts"])

    def test_graph_scenario_changes_addresses(self, capsys):
        code, plain, _ = run_cli(
            capsys, "graph", "--experiment", "fig03", "--nodes", "48", "--json"
        )
        assert code == 0
        code, scoped, _ = run_cli(
            capsys,
            "graph",
            "--experiment",
            "fig03",
            "--nodes",
            "48",
            "--scenario",
            "heavy_tiv",
            "--json",
        )
        assert code == 0
        plain_addresses = {r["address"] for r in json.loads(plain)["artifacts"]}
        scoped_addresses = {r["address"] for r in json.loads(scoped)["artifacts"]}
        assert not plain_addresses & scoped_addresses

    def test_graph_unknown_experiment_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "graph", "--experiment", "fig99")
        assert code == 1
        assert "unknown experiments" in err


class TestStreamCommands:
    def make_trace(self, capsys, tmp_path, *extra):
        target = tmp_path / "trace.npz"
        code, out, _ = run_cli(
            capsys,
            "make-trace",
            "-o",
            str(target),
            "--nodes",
            "24",
            "--duration",
            "20",
            "--churn",
            "0.2",
            *extra,
        )
        assert code == 0
        assert target.exists()
        return target, out

    def test_make_trace_then_stream_through_a_path_without_suffix(self, capsys, tmp_path):
        target = tmp_path / "trace"
        code, out, _ = run_cli(
            capsys, "make-trace", "-o", str(target), "--nodes", "16", "--duration", "10"
        )
        assert code == 0
        assert f"to {target}" in out
        assert target.exists() and not (tmp_path / "trace.npz").exists()
        code, out, _ = run_cli(capsys, "stream", "--trace", str(target))
        assert code == 0
        assert json.loads(out)["totals"]["final_active_nodes"] == 16

    def test_make_trace_writes_and_summarises(self, capsys, tmp_path):
        target, out = self.make_trace(capsys, tmp_path)
        assert "24-node trace" in out
        assert "joins" in out and "leaves" in out

    def test_stream_replays_and_reports(self, capsys, tmp_path):
        target, _ = self.make_trace(capsys, tmp_path)
        report_path = tmp_path / "STREAM_report.json"
        code, out, err = run_cli(
            capsys,
            "stream",
            "--trace",
            str(target),
            "--window",
            "5",
            "--report",
            str(report_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "stream-report/v1"
        assert payload["window_seconds"] == 5.0
        assert len(payload["windows"]) == 4
        assert payload["totals"]["final_active_nodes"] == 24
        assert payload["queries"]["closest"]
        assert "wrote stream report" in err
        on_disk = json.loads(report_path.read_text())
        assert on_disk["totals"] == payload["totals"]

    def test_stream_accuracy_improves_on_the_cli_path(self, capsys, tmp_path):
        target, _ = self.make_trace(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "stream", "--trace", str(target))
        assert code == 0
        assert json.loads(out)["totals"]["accuracy_improved"] is True

    def test_stream_missing_trace_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "stream", "--trace", str(tmp_path / "no.npz"))
        assert code == 1
        assert "not found" in err

    def test_make_trace_with_faults_summarises_the_spec(self, capsys, tmp_path):
        _, out = self.make_trace(capsys, tmp_path, "--faults", "liars=0.2,seed=1")
        assert "faults: liars=0.2" in out

    def test_make_trace_rejects_bad_fault_spec(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "make-trace",
            "-o",
            str(tmp_path / "t.npz"),
            "--faults",
            "teleport=1",
        )
        assert code == 1
        assert "teleport" in err

    def test_stream_kill_and_resume_matches_uninterrupted(self, capsys, tmp_path):
        target, _ = self.make_trace(capsys, tmp_path)
        ck = tmp_path / "ck.npz"
        wal = tmp_path / "wal.jsonl"
        durability = (
            "--defense",
            "--checkpoint",
            str(ck),
            "--wal",
            str(wal),
            "--checkpoint-every",
            "50",
        )
        code, out, _ = run_cli(capsys, "stream", "--trace", str(target), "--defense")
        assert code == 0
        uninterrupted = json.loads(out)["totals"]["state_fingerprint"]
        code, out, _ = run_cli(
            capsys, "stream", "--trace", str(target), *durability,
            "--stop-after", "100",
        )
        assert code == 0
        assert json.loads(out)["totals"]["stopped_after_events"] == 100
        code, out, _ = run_cli(
            capsys, "stream", "--trace", str(target), *durability, "--resume"
        )
        assert code == 0
        resumed = json.loads(out)["totals"]
        assert resumed["resumed_at_event"] == 100
        assert resumed["state_fingerprint"] == uninterrupted

    def test_stream_resume_without_checkpoint_fails_cleanly(self, capsys, tmp_path):
        target, _ = self.make_trace(capsys, tmp_path)
        code, _, err = run_cli(capsys, "stream", "--trace", str(target), "--resume")
        assert code == 1
        assert "resume" in err

    def test_chaos_reports_defended_vs_undefended(self, capsys, tmp_path):
        report_path = tmp_path / "CHAOS_report.json"
        code, out, err = run_cli(
            capsys,
            "chaos",
            "--nodes",
            "24",
            "--duration",
            "10",
            "--liar-fractions",
            "0.0,0.2",
            "--report",
            str(report_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "chaos-report/v1"
        assert [row["liar_fraction"] for row in payload["rows"]] == [0.0, 0.2]
        for row in payload["rows"]:
            assert "degradation_vs_clean" in row["defended"]
            assert "degradation_vs_clean" in row["undefended"]
        assert "wrote chaos report" in err
        assert json.loads(report_path.read_text())["rows"] == payload["rows"]

    def test_chaos_rejects_bad_liar_fractions(self, capsys):
        code, _, err = run_cli(capsys, "chaos", "--liar-fractions", "abc")
        assert code == 1
        assert "liar-fractions" in err

    def test_make_trace_rejects_bad_churn(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "make-trace",
            "-o",
            str(tmp_path / "t.npz"),
            "--churn",
            "2.0",
        )
        assert code == 1
        assert "churn" in err


class TestHelpSnapshots:
    """The CLI surface is a contract: the command list, the new stream
    commands' usage and the shared parent-parser flags are pinned exactly
    (at an 80-column terminal)."""

    COMMAND_LIST = (
        "{datasets,generate,analyze,experiments,run,run-all,graph,cache,"
        "scenarios,run-scenarios,make-trace,stream,chaos,bench,serve-bench,"
        "perf-gate,report}"
    )

    MAKE_TRACE_USAGE = (
        "usage: repro make-trace [-h] [--nodes NODES] [--seed SEED]\n"
        "                        [--preset {ds2_like,euclidean_like,meridian_like,"
        "p2psim_like,planetlab_like,uniform_euclidean}]\n"
        "                        [--scenario SCENARIO] [--duration DURATION]\n"
        "                        [--rate RATE] [--churn CHURN] [--faults FAULTS]\n"
        "                        [--fault-seed FAULT_SEED] -o OUTPUT\n"
    )

    STREAM_USAGE = (
        "usage: repro stream [-h] [--report REPORT] --trace TRACE "
        "[--window WINDOW]\n"
        "                    [--alert-threshold ALERT_THRESHOLD] [--seed SEED]\n"
        "                    [--defense] [--checkpoint CHECKPOINT] [--wal WAL]\n"
        "                    [--checkpoint-every CHECKPOINT_EVERY] [--resume]\n"
        "                    [--stop-after STOP_AFTER]\n"
    )

    GRAPH_USAGE = (
        "usage: repro graph [-h] [--nodes NODES] [--seed SEED] "
        "[--cache-dir CACHE_DIR]\n"
        "                   [--experiment EXPERIMENT [EXPERIMENT ...]]\n"
        "                   [--scenario SCENARIO] [--json]\n"
    )

    RUN_ALL_USAGE = (
        "usage: repro run-all [-h] [--nodes NODES] [--seed SEED] [--jobs JOBS]\n"
        "                     [--cache-dir CACHE_DIR] [--report REPORT]\n"
        "                     [--only ONLY [ONLY ...]] [--scenario SCENARIO] "
        "[--full]\n"
    )

    def test_top_level_command_list_pinned(self, capsys, monkeypatch):
        out = capture_help(capsys, monkeypatch)
        assert self.COMMAND_LIST in out.replace("\n             ", "")

    def test_make_trace_usage_pinned(self, capsys, monkeypatch):
        out = capture_help(capsys, monkeypatch, "make-trace")
        assert out.startswith(self.MAKE_TRACE_USAGE)

    def test_stream_usage_pinned(self, capsys, monkeypatch):
        out = capture_help(capsys, monkeypatch, "stream")
        assert out.startswith(self.STREAM_USAGE)

    def test_run_all_usage_pinned(self, capsys, monkeypatch):
        out = capture_help(capsys, monkeypatch, "run-all")
        assert out.startswith(self.RUN_ALL_USAGE)

    def test_graph_usage_pinned(self, capsys, monkeypatch):
        out = capture_help(capsys, monkeypatch, "graph")
        assert out.startswith(self.GRAPH_USAGE)

    @staticmethod
    def option_help(text, flag):
        """The help paragraph of one option in a --help dump."""
        lines = text.splitlines()
        start = next(
            i for i, line in enumerate(lines) if line.lstrip().startswith(flag)
        )
        block = [lines[start]]
        for line in lines[start + 1 :]:
            if line.startswith("                    ") and not line.lstrip().startswith("--"):
                block.append(line)
            else:
                break
        # Collapse the column padding: argparse aligns the help column per
        # subparser, so only the words are comparable across commands.
        return " ".join(" ".join(block).split())

    def test_shared_flags_render_identically_everywhere(self, capsys, monkeypatch):
        """The parent parsers are the single source of each shared flag:
        every subcommand using --jobs/--cache-dir/--nodes must show the
        byte-identical help text."""
        helps = {
            command: capture_help(capsys, monkeypatch, *command.split())
            for command in (
                "run-all",
                "run-scenarios",
                "graph",
                "cache prune",
                "run",
                "report",
            )
        }
        for flag, commands in (
            ("--jobs", ("run-all", "run-scenarios")),
            ("--cache-dir", ("run-all", "run-scenarios", "graph", "cache prune")),
            ("--nodes", ("run-all", "run-scenarios", "graph", "run", "report")),
            ("--seed", ("run-all", "run-scenarios", "graph", "run", "report")),
            ("--only", ("run-all", "run-scenarios", "report")),
        ):
            rendered = {self.option_help(helps[c], flag) for c in commands}
            assert len(rendered) == 1, f"{flag} help text diverged: {rendered}"

    def test_report_flag_names_the_per_command_artifact(self, capsys, monkeypatch):
        # --report shares one template but names each command's artifact.
        for command, artifact in (
            ("run-all", "BENCH_experiments.json"),
            ("run-scenarios", "BENCH_scenarios.json"),
            ("bench", "BENCH_perf.json"),
            ("serve-bench", "BENCH_serving.json"),
            ("stream", "STREAM_report.json"),
        ):
            out = capture_help(capsys, monkeypatch, command)
            assert artifact in self.option_help(out, "--report")


class TestCachePruneCommand:
    def test_prune_removes_stale_entries_and_keeps_live_ones(self, capsys, tmp_path):
        import numpy as np

        from repro.experiments.cache import ArtifactCache

        cache_dir = tmp_path / "cache"
        # fig03 plus the three figures whose simulation runs are artifacts.
        figures = ("fig03", "fig11", "fig13", "fig22_23")
        run_cli(
            capsys,
            "run-all",
            "--only",
            *figures,
            "--nodes",
            "48",
            "--jobs",
            "1",
            "--cache-dir",
            str(cache_dir),
        )
        for kind in ("oscillation", "misplacement", "dynamic"):
            assert len(list((cache_dir / kind).glob("*.npz"))) == 1, kind
        # A pre-kernel-era vivaldi entry that current code can never hit.
        ArtifactCache(cache_dir).store(
            "vivaldi",
            {"preset": "ds2_like", "n_nodes": 48, "seed": 0, "vivaldi_seconds": 8},
            {"coordinates": np.zeros((48, 3))},
        )
        code, out, err = run_cli(
            capsys, "cache", "prune", "--cache-dir", str(cache_dir), "--dry-run"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pruned"] == 1 and payload["dry_run"]
        assert "dry run" in err

        code, out, err = run_cli(
            capsys, "cache", "prune", "--cache-dir", str(cache_dir)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pruned"] == 1
        assert "pre-'kernel'-era" in payload["entries"][0]["reason"]
        assert "pruned 1" in err
        # The live entries still hit: a warm rerun misses nothing.
        code, out, _ = run_cli(
            capsys,
            "run-all",
            "--only",
            *figures,
            "--nodes",
            "48",
            "--jobs",
            "1",
            "--cache-dir",
            str(cache_dir),
        )
        assert code == 0
        assert json.loads(out)["totals"]["all_cache_hits"]


class TestOutputDirectories:
    """Output paths in a directory that does not exist yet are created."""

    def test_make_trace(self, capsys, tmp_path):
        target = tmp_path / "new" / "dir" / "trace.npz"
        code, _, _ = run_cli(
            capsys, "make-trace", "-o", str(target), "--nodes", "16", "--duration", "10"
        )
        assert code == 0
        assert target.exists()

    def test_stream_checkpoint_and_wal(self, capsys, tmp_path):
        trace = tmp_path / "trace.npz"
        run_cli(capsys, "make-trace", "-o", str(trace), "--nodes", "16", "--duration", "10")
        checkpoint = tmp_path / "ck" / "dir" / "ck.npz"
        wal = tmp_path / "wal" / "dir" / "wal.jsonl"
        code, _, _ = run_cli(
            capsys, "stream", "--trace", str(trace),
            "--checkpoint", str(checkpoint), "--wal", str(wal),
        )
        assert code == 0
        assert checkpoint.exists() and wal.exists()

    def test_bench_report(self, capsys, tmp_path):
        target = tmp_path / "new" / "dir" / "BENCH_perf.json"
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "24", "--kernels", "vivaldi_step_batched",
            "--repeats", "1", "--warmup", "0", "--report", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)

    def test_report_output(self, capsys, tmp_path):
        target = tmp_path / "new" / "dir" / "report.md"
        code, _, _ = run_cli(
            capsys, "report", "--nodes", "48", "--only", "fig09", "-o", str(target)
        )
        assert code == 0
        assert "## fig09" in target.read_text()
