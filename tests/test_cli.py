"""Command-line interface."""

import json

import pytest

from repro.cli import generate, main


class TestGenerate:
    def test_grid(self):
        g = generate("grid:3x4")
        assert g.num_nodes == 12

    def test_ring(self):
        assert generate("ring:9").num_edges == 9

    def test_tree_seeded(self):
        a = generate("tree:40", seed=3)
        b = generate("tree:40", seed=3)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_random(self):
        g = generate("random:30:0.1", seed=1)
        assert g.num_nodes == 30

    def test_complete(self):
        assert generate("complete:5").num_edges == 10

    def test_bad_kind(self):
        with pytest.raises(SystemExit):
            generate("mobius:9")

    def test_bad_spec(self):
        with pytest.raises(SystemExit):
            generate("grid:banana")

    def test_keyvalue_tree(self):
        a = generate("tree:n=40", seed=3)
        b = generate("tree:40", seed=3)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_keyvalue_grid(self):
        assert generate("grid:rows=3,cols=5").num_nodes == 15

    def test_keyvalue_random(self):
        g = generate("random:n=30,p=0.1", seed=1)
        assert g.num_nodes == 30
        assert sorted(g.edges()) == sorted(
            generate("random:30:0.1", seed=1).edges()
        )

    def test_keyvalue_ring(self):
        assert generate("ring:n=12").num_edges == 12

    def test_bad_keyvalue(self):
        with pytest.raises(SystemExit):
            generate("grid:rows=3")  # missing cols
        with pytest.raises(SystemExit):
            generate("tree:n=")


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--generate", "grid:4x4"]) == 0
        out = capsys.readouterr().out
        assert "nodes:    16" in out
        assert "leader (max id): 15" in out

    def test_kdom(self, capsys):
        assert main(["kdom", "--generate", "ring:24", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "|D| =" in out and "domination radius = 2" in out

    def test_kdom_verbose(self, capsys):
        assert main(
            ["kdom", "--generate", "ring:12", "--k", "1", "-v"]
        ) == 0
        assert "D = [" in capsys.readouterr().out

    def test_partition(self, capsys):
        assert main(["partition", "--generate", "tree:60", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "max radius" in out

    @pytest.mark.parametrize("algorithm", ["fast", "ghs", "pipeline"])
    def test_mst_exact(self, capsys, algorithm):
        code = main(
            ["mst", "--generate", "random:40:0.1", "--algorithm", algorithm]
        )
        assert code == 0
        assert "exact vs sequential Kruskal" in capsys.readouterr().out

    def test_graph_file(self, tmp_path, capsys):
        edge_file = tmp_path / "g.edges"
        edge_file.write_text("0 1 5\n1 2 3\n2 0 4\n")
        assert main(["info", "--graph", str(edge_file)]) == 0
        assert "nodes:    3" in capsys.readouterr().out

    def test_missing_source(self):
        with pytest.raises(SystemExit):
            main(["info"])


class TestFaultsCommand:
    def test_clean_run_is_healthy(self, capsys):
        assert main(["faults", "--generate", "ring:12", "--workload", "flood"]) == 0
        out = capsys.readouterr().out
        assert "completed: True" in out
        assert "resilience: OK" in out

    def test_crashed_dominator_fails_health_check(self, capsys):
        # Node 9 is in the DP's dominating set on ring:12's BFS spanning
        # tree; crashing it after the run strands a survivor component.
        code = main(
            [
                "faults", "--generate", "ring:12", "--workload", "kdom",
                "--k", "2", "--crash", "9@6",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATIONS" in out
        assert "no surviving dominator" in out

    def test_reliable_masks_loss(self, capsys):
        code = main(
            [
                "faults", "--generate", "ring:12", "--workload", "bfs",
                "--drop", "0.1", "--reliable", "--max-rounds", "5000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "completed: True" in out
        assert "reliable=yes" in out

    def test_verbose_prints_plan(self, capsys):
        assert main(
            [
                "faults", "--generate", "ring:8", "--workload", "flood",
                "--crash", "3@2", "-v",
            ]
        ) in (0, 1)
        assert "crash" in capsys.readouterr().out

    def test_bad_crash_spec(self):
        with pytest.raises(SystemExit):
            main(["faults", "--generate", "ring:8", "--crash", "3"])

    def test_bad_rates(self):
        with pytest.raises(SystemExit):
            main(["faults", "--generate", "ring:8", "--drop", "0.7",
                  "--duplicate", "0.7"])

    def test_bad_timeout(self):
        with pytest.raises(SystemExit):
            main(["faults", "--generate", "ring:8", "--reliable",
                  "--timeout", "2"])


class TestTraceCommand:
    def test_flood_trace_is_valid(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(
            ["trace", "--generate", "ring:8", "--algo", "flood",
             "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "events" in text and "sends per round" in text
        from repro.obs import validate_trace

        assert validate_trace(str(out)) == []

    def test_graph_spec_fallback(self, tmp_path, capsys):
        # --graph accepts a generator spec when the value is not a file.
        out = tmp_path / "t.jsonl"
        code = main(
            ["trace", "--graph", "tree:n=16", "--algo", "bfs",
             "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_fast_mst_phases_match_staged(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(
            ["trace", "--graph", "tree:n=16", "--algo", "fast-mst",
             "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "phase totals match StagedRun breakdown: yes" in text

    def test_kdom_phases_match_staged(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(
            ["trace", "--generate", "tree:20", "--algo", "kdom",
             "--k", "2", "--out", str(out)]
        )
        assert code == 0
        assert "phase totals match StagedRun breakdown: yes" in (
            capsys.readouterr().out
        )

    def test_faulted_trace_records_fault_events(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(
            ["trace", "--generate", "ring:10", "--algo", "flood",
             "--drop", "0.3", "--fault-seed", "5", "--out", str(out)]
        )
        assert code == 0
        from repro.obs import read_trace

        trace = read_trace(str(out))
        assert trace.by_kind("drop")
        assert all("plan_index" in e for e in trace.by_kind("drop"))

    def test_fault_flags_rejected_for_composites(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["trace", "--generate", "tree:16", "--algo", "fast-mst",
                 "--drop", "0.5", "--out", str(tmp_path / "t.jsonl")]
            )

    def test_bad_graph_value(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["trace", "--graph", "nosuchfile", "--algo", "flood",
                 "--out", str(tmp_path / "t.jsonl")]
            )


class TestPerfFlags:
    def test_unknown_workload_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["perf", "--fast", "--workload", "nope", "--no-gate"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_workload_filter_and_compare(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = ["perf", "--fast", "--reps", "1", "--workload", "bfs_path",
                "--no-gate"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--compare", "BENCH_sim.json"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "bfs_path" in out


class TestSweepCommand:
    def test_fast_grid_inline(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        code = main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "sweep kdom: 8 cell(s) — ran 8, skipped 0 (complete)" in text
        assert "merged: rounds(max)=" in text
        assert out.exists()

    def test_resume_skips_everything(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        args = ["sweep", "--fast", "--backend", "inline", "--out", str(out)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "ran 0, skipped 8 (complete)" in capsys.readouterr().out

    def test_partial_run_exits_incomplete_code(self, tmp_path, capsys):
        """Exit code 3 means "fine but unfinished" — distinct from 1
        (crash/verify failure) so CI can tell them apart."""
        out = tmp_path / "sweep.jsonl"
        code = main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out),
             "--max-cells", "2"]
        )
        assert code == 3
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_sharded_sweeps_merge_byte_identical(self, tmp_path, capsys):
        one_shot = tmp_path / "full.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(one_shot)]
        ) == 0
        shards = []
        for index in range(2):
            path = tmp_path / f"shard{index}.jsonl"
            code = main(
                ["sweep", "--fast", "--backend", "inline",
                 "--shard", f"{index}/2", "--out", str(path)]
            )
            assert code == 0
            shards.append(str(path))
        merged = tmp_path / "merged.jsonl"
        assert main(["merge-stores", *shards, "--out", str(merged)]) == 0
        assert merged.read_bytes() == one_shot.read_bytes()
        assert "merged 2 shard store(s)" in capsys.readouterr().out

    def test_bad_shard_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="shard"):
            main(["sweep", "--fast", "--shard", "2/2"])

    def test_merge_refuses_missing_shard(self, tmp_path):
        path = tmp_path / "s0.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--shard", "0/2",
             "--out", str(path)]
        ) == 0
        with pytest.raises(SystemExit, match="missing shard"):
            main(["merge-stores", str(path),
                  "--out", str(tmp_path / "m.jsonl")])

    def test_unknown_workload_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["sweep", "--workload", "nope", "--spec", "tree:n=8"])

    def test_import_registers_benchmark_workload(self, capsys):
        code = main(
            ["sweep", "--import", "benchmarks.bench_e16_faults",
             "--workload", "e16-reliable", "--spec", "random:n=20,p=0.2",
             "--seeds", "0", "--ks", "0", "--backend", "inline"]
        )
        assert code == 0
        assert "sweep e16-reliable: 1 cell(s)" in capsys.readouterr().out

    def test_bad_import_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="--import"):
            main(["sweep", "--import", "no.such.module", "--fast"])

    def test_explicit_grid_with_verify(self, capsys):
        code = main(
            ["sweep", "--workload", "partition", "--spec", "tree:n=30",
             "--seeds", "0,1", "--ks", "3", "--backend", "inline",
             "--verify"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "sweep partition: 2 cell(s)" in text
        assert "verify: all cells ok" in text

    def test_verbose_echoes_cells(self, capsys):
        code = main(
            ["sweep", "--workload", "kdom", "--spec", "tree:n=20",
             "--seeds", "0", "--ks", "2", "--backend", "inline", "-v"]
        )
        assert code == 0
        assert "tree:n=20 seed=0 k=2: rounds=" in capsys.readouterr().out

    def test_spec_required_without_fast(self):
        with pytest.raises(SystemExit, match="--spec"):
            main(["sweep", "--backend", "inline"])

    def test_bad_seed_list(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--spec", "tree:n=20", "--seeds", "0,x",
                  "--backend", "inline"])

    def test_grid_mismatch_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="different grid"):
            main(
                ["sweep", "--workload", "kdom", "--spec", "tree:n=20",
                 "--seeds", "0", "--ks", "2", "--backend", "inline",
                 "--out", str(out)]
            )


class TestReportCommand:
    def trace_file(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(
            ["trace", "--generate", "ring:8", "--algo", "flood",
             "--out", str(out)]
        ) == 0
        capsys.readouterr()  # discard trace output
        return out

    def test_valid_trace(self, tmp_path, capsys):
        out = self.trace_file(tmp_path, capsys)
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "trace valid" in text
        assert "algo=flood" in text

    def test_corrupt_trace_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["report", str(bad)]) == 1
        assert "unreadable trace" in capsys.readouterr().out

    def test_schema_violation_fails(self, tmp_path, capsys):
        out = self.trace_file(tmp_path, capsys)
        lines = out.read_text().splitlines()
        # Corrupt one event record: strip a required field.
        import json

        for index, line in enumerate(lines):
            obj = json.loads(line)
            if obj.get("record") == "event" and obj["kind"] == "send":
                del obj["payload"]
                lines[index] = json.dumps(obj, sort_keys=True)
                break
        out.write_text("\n".join(lines) + "\n")
        assert main(["report", str(out)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestHardenedSweepCommand:
    def test_deadline_flag_is_byte_identical_to_plain_sweep(
        self, tmp_path, capsys
    ):
        plain, hardened = tmp_path / "plain.jsonl", tmp_path / "hard.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(plain)]
        ) == 0
        code = main(
            ["sweep", "--fast", "--workers", "2", "--deadline-s", "30",
             "--out", str(hardened)]
        )
        assert code == 0
        assert "ran 8, skipped 0 (complete)" in capsys.readouterr().out
        assert hardened.read_bytes() == plain.read_bytes()

    def test_bad_deadline_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--fast", "--deadline-s", "0"])


class TestRepairStoreCommand:
    def damaged_store(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out),
             "--max-cells", "3"]
        ) == 3
        capsys.readouterr()
        lines = out.read_text().splitlines()
        lines[1] = lines[1].replace('"k":', '"j":', 1)  # break one row's crc
        out.write_text("\n".join(lines) + "\n")
        return out

    def test_repairs_in_place(self, tmp_path, capsys):
        out = self.damaged_store(tmp_path, capsys)
        assert main(["repair-store", str(out)]) == 0
        text = capsys.readouterr().out
        assert "repaired" in text
        assert "corrupt line(s) dropped" in text
        # Repaired store resumes cleanly and refills the lost cell.
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out)]
        ) == 0

    def test_repair_to_new_path(self, tmp_path, capsys):
        out = self.damaged_store(tmp_path, capsys)
        fixed = tmp_path / "fixed.jsonl"
        assert main(["repair-store", str(out), "--out", str(fixed)]) == 0
        assert fixed.exists()

    def test_missing_store_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["repair-store", str(tmp_path / "nope.jsonl")])


class TestPartialMergeCommand:
    def test_allow_partial_exits_incomplete_with_manifest(
        self, tmp_path, capsys
    ):
        shard0 = tmp_path / "s0.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--shard", "0/2",
             "--out", str(shard0)]
        ) == 0
        merged = tmp_path / "m.jsonl"
        code = main(
            ["merge-stores", str(shard0), "--out", str(merged),
             "--allow-partial"]
        )
        assert code == 3
        text = capsys.readouterr().out
        assert "PARTIAL merge" in text
        assert (tmp_path / "m.jsonl.holes.json").exists()
        # The checkpoint resumes into the full store.
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(merged)]
        ) == 0

    def test_complete_partial_merge_exits_zero(self, tmp_path, capsys):
        shards = []
        for index in range(2):
            path = tmp_path / f"s{index}.jsonl"
            assert main(
                ["sweep", "--fast", "--backend", "inline",
                 "--shard", f"{index}/2", "--out", str(path)]
            ) == 0
            shards.append(str(path))
        code = main(
            ["merge-stores", *shards, "--out", str(tmp_path / "m.jsonl"),
             "--allow-partial"]
        )
        assert code == 0


class TestChaosCommand:
    def test_clean_drill_verifies_and_exits_zero(self, tmp_path, capsys):
        code = main(
            ["chaos", "--fast", "--seed", "7",
             "--out-dir", str(tmp_path), "--deadline-s", "0.5"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "chaos plan" in text
        assert "verified: store byte-identical to fault-free run" in text
        assert "task_retried" in text

    def test_poison_drill_exits_quarantine_code(self, tmp_path, capsys):
        code = main(
            ["chaos", "--fast", "--seed", "3", "--out-dir", str(tmp_path),
             "--deadline-s", "0.5", "--kills", "0", "--hangs", "0",
             "--corrupts", "0", "--poisons", "1", "--max-attempts", "2"]
        )
        assert code == 3
        text = capsys.readouterr().out
        assert "quarantined:" in text
        assert "minus" in text  # verified minus quarantined cells

    def test_overfull_plan_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="bad chaos drill"):
            main(
                ["chaos", "--workload", "kdom", "--spec", "tree:n=8",
                 "--seeds", "0", "--ks", "2", "--out-dir", str(tmp_path),
                 "--kills", "5"]
            )


class TestStatusCommand:
    def swept_store(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        return out

    def test_status_reads_the_sidecar(self, tmp_path, capsys):
        out = self.swept_store(tmp_path, capsys)
        assert main(["status", str(out)]) == 0
        text = capsys.readouterr().out
        assert "sweep kdom: COMPLETE 8/8 cells" in text
        assert "backend inline, workers 1" in text

    def test_status_accepts_the_sidecar_path_directly(
        self, tmp_path, capsys
    ):
        out = self.swept_store(tmp_path, capsys)
        assert main(["status", str(out) + ".status.json"]) == 0
        assert "8/8 cells" in capsys.readouterr().out

    def test_status_final_renders_store_telemetry(self, tmp_path, capsys):
        out = self.swept_store(tmp_path, capsys)
        assert main(["status", str(out), "--final"]) == 0
        text = capsys.readouterr().out
        assert "sweep kdom: COMPLETE 8/8 cells" in text
        assert "telemetry (repro-telemetry/1):" in text
        assert "sweep_cells_ok{workload=kdom} = 8" in text

    def test_status_final_is_identical_across_worker_counts(
        self, tmp_path, capsys
    ):
        texts = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.jsonl"
            assert main(
                ["sweep", "--fast", "--backend", "process",
                 "--workers", workers, "--out", str(out)]
            ) == 0
            capsys.readouterr()
            assert main(["status", str(out), "--final"]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_missing_sidecar_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read status file"):
            main(["status", str(tmp_path / "nope.jsonl")])

    def test_mid_sweep_status_via_max_cells(self, tmp_path, capsys):
        out = tmp_path / "partial.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out),
             "--max-cells", "3"]
        ) == 3  # EXIT_SWEEP_INCOMPLETE
        capsys.readouterr()
        assert main(["status", str(out)]) == 0
        text = capsys.readouterr().out
        assert "INCOMPLETE 3/8 cells" in text
        assert "pending 5" in text


class TestStatusWatchTolerance:
    """Watch mode retries past transient sidecar failures (ISSUE 9):
    a watch started before the first heartbeat, or a read racing the
    os.replace swap, renders a waiting line instead of dying."""

    def _interrupt_after_first_sleep(self, monkeypatch):
        import time as time_mod

        def interrupt(_interval):
            raise KeyboardInterrupt

        monkeypatch.setattr(time_mod, "sleep", interrupt)

    def test_watch_tolerates_missing_sidecar(
        self, tmp_path, capsys, monkeypatch
    ):
        self._interrupt_after_first_sleep(monkeypatch)
        assert main(
            ["status", str(tmp_path / "nope.jsonl"), "--watch"]
        ) == 0
        assert "waiting for" in capsys.readouterr().out

    def test_watch_tolerates_torn_document(
        self, tmp_path, capsys, monkeypatch
    ):
        self._interrupt_after_first_sleep(monkeypatch)
        (tmp_path / "s.jsonl.status.json").write_text("{torn")
        assert main(["status", str(tmp_path / "s.jsonl"), "--watch"]) == 0
        assert "waiting for" in capsys.readouterr().out

    def test_watch_exits_when_state_is_terminal(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        # state=complete on the first render: no sleep, clean exit.
        assert main(["status", str(out), "--watch"]) == 0
        assert "COMPLETE 8/8 cells" in capsys.readouterr().out

    def test_one_shot_keeps_the_hard_failure(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read status file"):
            main(["status", str(tmp_path / "nope.jsonl")])


class TestServeCommand:
    def test_parser_wires_the_config(self, monkeypatch):
        import repro.serve as serve_mod

        captured = {}

        def fake_run_server(config):
            captured["config"] = config
            return 0

        monkeypatch.setattr(serve_mod, "run_server", fake_run_server)
        assert main(
            ["serve", "--port", "0", "--backend", "inline",
             "--cache-size", "16", "--deadline-s", "2.5",
             "--workers", "3"]
        ) == 0
        config = captured["config"]
        assert config.port == 0
        assert config.backend == "inline"
        assert config.cache_size == 16
        assert config.deadline_s == 2.5
        assert config.workers == 3

    def test_bad_cache_size(self):
        with pytest.raises(SystemExit, match="--cache-size"):
            main(["serve", "--cache-size", "0"])

    def test_bad_deadline(self):
        with pytest.raises(SystemExit, match="--deadline-s"):
            main(["serve", "--deadline-s", "-1"])

    def test_bad_import(self):
        with pytest.raises(SystemExit, match="--import nope_mod"):
            main(["serve", "--import", "nope_mod"])


class TestTopCommand:
    def test_lists_every_sidecar(self, tmp_path, capsys):
        for name in ("a.jsonl", "b.jsonl"):
            assert main(
                ["sweep", "--fast", "--backend", "inline",
                 "--out", str(tmp_path / name)]
            ) == 0
        capsys.readouterr()
        assert main(["top", "--dir", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].split()[:3] == ["sweep", "state", "cells"]
        assert "a.jsonl" in text and "b.jsonl" in text
        assert text.count("8/8") == 2

    def test_empty_dir(self, tmp_path, capsys):
        assert main(["top", "--dir", str(tmp_path)]) == 0
        assert "no *.status.json files found" in capsys.readouterr().out

    def test_unreadable_sidecar_skipped(self, tmp_path, capsys):
        (tmp_path / "torn.status.json").write_text("{not json")
        assert main(["top", "--dir", str(tmp_path)]) == 0
        assert "no *.status.json files found" in capsys.readouterr().out


class TestSweepTelemetryFlags:
    def test_no_telemetry_writes_no_sidecar_or_meta(self, tmp_path, capsys):
        import json as json_mod

        out = tmp_path / "off.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out),
             "--no-telemetry"]
        ) == 0
        capsys.readouterr()
        assert not (tmp_path / "off.jsonl.status.json").exists()
        meta = json_mod.loads(out.read_text().splitlines()[0])
        assert "telemetry" not in meta

    def test_status_flag_redirects_the_sidecar(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        side = tmp_path / "elsewhere.status.json"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out),
             "--status", str(side)]
        ) == 0
        capsys.readouterr()
        assert side.exists()
        assert not (tmp_path / "s.jsonl.status.json").exists()

    def test_profile_workers_prints_hot_functions(self, tmp_path, capsys):
        out = tmp_path / "p.jsonl"
        prof = tmp_path / "prof"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out),
             "--profile-workers", str(prof)]
        ) == 0
        text = capsys.readouterr().out
        assert "worker profiles: 1 dump(s)" in text
        assert "cumulative" in text

    def test_profile_workers_defaults_next_to_the_store(
        self, tmp_path, capsys
    ):
        out = tmp_path / "p.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--out", str(out),
             "--profile-workers"]
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "p.jsonl.profiles").is_dir()


class TestReportBench:
    def test_bench_renders_the_history(self, tmp_path, capsys):
        from repro import perf

        history = tmp_path / "history.jsonl"
        for best in (2.0, 1.0):
            perf.append_history(
                {"schema": perf.SCHEMA, "mode": "fast",
                 "workloads": {"sweep_kdom": {"best_seconds": best,
                                              "backend": "reference"}}},
                str(history),
            )
        assert main(["report", "--bench", "--history", str(history)]) == 0
        text = capsys.readouterr().out
        assert "perf trajectory: 2 recorded run(s)" in text
        assert "sweep_kdom" in text and "2.00x faster" in text

    def test_bench_without_history_exits_one(self, tmp_path, capsys):
        assert main(
            ["report", "--bench", "--history", str(tmp_path / "none")]
        ) == 1
        assert "no perf history" in capsys.readouterr().out

    def test_report_without_trace_or_bench_is_an_error(self):
        with pytest.raises(SystemExit, match="trace file is required"):
            main(["report"])


class TestIngestCommand:
    @pytest.fixture
    def store(self, tmp_path):
        path = tmp_path / "s.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--no-telemetry",
             "--out", str(path)]
        ) == 0
        return str(path)

    def test_ingest_then_noop_reingest(self, store, tmp_path, capsys):
        db = str(tmp_path / "wh.sqlite")
        assert main(["ingest", store, "--db", db]) == 0
        first = capsys.readouterr().out
        assert "+8 row(s)" in first and "8 row(s) total" in first
        assert main(["ingest", store, "--db", db]) == 0
        again = capsys.readouterr().out
        assert "no-op" in again and "8 row(s) total" in again

    def test_incomplete_store_exits_three(self, tmp_path, capsys):
        path = tmp_path / "part.jsonl"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--no-telemetry",
             "--max-cells", "3", "--out", str(path)]
        ) == 3
        capsys.readouterr()
        db = str(tmp_path / "wh.sqlite")
        assert main(["ingest", str(path), "--db", db]) == 3
        assert "INCOMPLETE" in capsys.readouterr().out
        assert main(
            ["ingest", str(path), "--db", db, "--allow-partial"]
        ) == 3
        assert "PARTIAL" in capsys.readouterr().out

    def test_corrupt_store_exits_one(self, store, tmp_path, capsys):
        with open(store) as handle:
            lines = handle.read().splitlines()
        lines.insert(2, "{mid-file garbage")
        with open(store, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(SystemExit, match="corrupt"):
            main(["ingest", store, "--db", str(tmp_path / "wh.sqlite")])


class TestQueryCommand:
    @pytest.fixture
    def fabric(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        db = tmp_path / "wh.sqlite"
        assert main(
            ["sweep", "--fast", "--backend", "inline", "--no-telemetry",
             "--out", str(store)]
        ) == 0
        assert main(["ingest", str(store), "--db", str(db)]) == 0
        capsys.readouterr()
        return {"store": str(store), "db": str(db)}

    def test_json_byte_identity_warehouse_vs_raw(self, fabric, capsys):
        query = ["--metric", "dominators", "--where", "workload=kdom",
                 "--group-by", "family,k",
                 "--agg", "count,min,max,mean,p50,p90", "--json"]
        assert main(["query", "--db", fabric["db"]] + query) == 0
        from_warehouse = capsys.readouterr().out
        assert main(["query", "--store", fabric["store"]] + query) == 0
        from_raw = capsys.readouterr().out
        assert from_warehouse == from_raw
        doc = json.loads(from_warehouse)
        assert doc["schema"] == "repro-query/1"
        assert doc["rows_matched"] == 8

    def test_ascii_table_default(self, fabric, capsys):
        assert main(
            ["query", "--db", fabric["db"], "--metric", "rounds",
             "--group-by", "family"]
        ) == 0
        text = capsys.readouterr().out
        assert "query rounds [results]: 8 row(s) matched" in text

    def test_empty_match_exits_three(self, fabric, capsys):
        assert main(
            ["query", "--db", fabric["db"], "--metric", "dominators",
             "--where", "workload=absent"]
        ) == 3
        assert "0 row(s) matched" in capsys.readouterr().out

    def test_bad_filter_field_exits_one(self, fabric):
        with pytest.raises(SystemExit, match="unknown filter field"):
            main(["query", "--db", fabric["db"], "--metric", "dominators",
                  "--where", "color=red"])

    def test_metric_required_without_bench(self, fabric):
        with pytest.raises(SystemExit, match="--metric is required"):
            main(["query", "--db", fabric["db"]])

    def test_bench_query_over_history(self, tmp_path, capsys):
        from repro import perf

        history = tmp_path / "h.jsonl"
        for best in (2.0, 1.0):
            perf.append_history(
                {"schema": perf.SCHEMA, "mode": "fast",
                 "workloads": {"bfs_path": {"best_seconds": best,
                                            "backend": "reference"}}},
                str(history),
            )
        assert main(
            ["query", "--bench", "--history", str(history),
             "--group-by", "workload", "--agg", "count,min,max", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["table"] == "bench"
        assert doc["groups"] == [
            {"key": {"workload": "bfs_path"}, "count": 2,
             "min": 1.0, "max": 2.0},
        ]


class TestPortfolioCommand:
    def test_portfolio_roundtrip_to_warehouse(self, tmp_path, capsys):
        store = tmp_path / "p.jsonl"
        db = str(tmp_path / "wh.sqlite")
        assert main(
            ["portfolio", "--spec", "random:n=24,p=0.18",
             "--seeds", "0,1,2", "--backend", "inline",
             "--out", str(store)]
        ) == 0
        text = capsys.readouterr().out
        assert "<- best" in text and "verdict:" in text
        assert main(["ingest", str(store), "--db", db]) == 0
        assert "portfolio verdict" in capsys.readouterr().out

    def test_json_verdict_document(self, capsys):
        assert main(
            ["portfolio", "--spec", "tree:n=16", "--seeds", "0,1",
             "--backend", "inline", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-portfolio/1"
        assert doc["best_seed"] in (0, 1)

    def test_worker_count_does_not_change_the_verdict(self, tmp_path,
                                                      capsys):
        texts = []
        for workers, name in ((1, "w1"), (2, "w2")):
            store = tmp_path / f"{name}.jsonl"
            assert main(
                ["portfolio", "--spec", "random:n=20,p=0.2",
                 "--seeds", "0,1,2,3", "--backend", "process",
                 "--workers", str(workers), "--out", str(store)]
            ) == 0
            capsys.readouterr()
            with open(str(store) + ".verdict.json") as handle:
                texts.append(handle.read())
        assert texts[0] == texts[1]

    def test_unknown_workload_exits_one(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["portfolio", "--spec", "tree:n=16", "--workload",
                  "nope", "--backend", "inline"])


class TestReportBenchWarehouse:
    def test_history_lands_in_the_warehouse(self, tmp_path, capsys):
        from repro import perf

        history = tmp_path / "h.jsonl"
        db = str(tmp_path / "wh.sqlite")
        for best in (2.0, 1.5, 1.0):
            perf.append_history(
                {"schema": perf.SCHEMA, "mode": "fast",
                 "workloads": {"bfs_path": {"best_seconds": best,
                                            "backend": "reference"}}},
                str(history),
            )
        assert main(
            ["report", "--bench", "--history", str(history),
             "--warehouse", db]
        ) == 0
        text = capsys.readouterr().out
        assert "+3 bench entries" in text
        assert "perf trajectory: 3 recorded run(s)" in text
        # second ingest of the same history adds nothing
        assert main(
            ["report", "--bench", "--history", str(history),
             "--warehouse", db]
        ) == 0
        assert "+0 bench entries, 3 already recorded" in \
            capsys.readouterr().out
        assert main(
            ["query", "--bench", "--db", db, "--agg", "count"]
        ) == 0
