"""The command-line interface."""

import io
import json
import pathlib

import pytest

from repro.cli import main

FIG3_LIKE = """
database
  site 1: x y
  site 2: z

transaction T1
  site 1: Lx x Ly y Ux Uy
  site 2: Lz z Uz

transaction T2
  site 1: Ly y Lx x Uy Ux
  site 2: Lz z Uz
"""

SAFE_PAIR = """
database
  site 1: x
  site 2: z

transaction T1
  site 1: Lx x Ux
  site 2: Lz z Uz
  precede Lx -> Uz
  precede Lz -> Ux

transaction T2
  site 1: Lx x Ux
  site 2: Lz z Uz
  precede Lx -> Uz
  precede Lz -> Ux
"""

TOTAL_PAIR = """
database
  site 1: x z

transaction T1
  site 1: Lx x Ux Lz z Uz

transaction T2
  site 1: Lz z Uz Lx x Ux
"""


@pytest.fixture
def unsafe_file(tmp_path):
    path = tmp_path / "unsafe.sys"
    path.write_text(FIG3_LIKE)
    return str(path)


@pytest.fixture
def safe_file(tmp_path):
    path = tmp_path / "safe.sys"
    path.write_text(SAFE_PAIR)
    return str(path)


@pytest.fixture
def total_file(tmp_path):
    path = tmp_path / "total.sys"
    path.write_text(TOTAL_PAIR)
    return str(path)


class TestAnalyze:
    def test_unsafe_exits_1(self, unsafe_file, capsys):
        assert main(["analyze", unsafe_file]) == 1
        out = capsys.readouterr().out
        assert "safe:         False" in out
        assert "theorem-2" in out

    def test_safe_exits_0(self, safe_file, capsys):
        assert main(["analyze", safe_file]) == 0
        assert "safe:         True" in capsys.readouterr().out

    def test_certificate_flag(self, unsafe_file, capsys):
        main(["analyze", unsafe_file, "--certificate"])
        assert "Unsafeness certificate" in capsys.readouterr().out

    def test_exhaustive_flag(self, unsafe_file, capsys):
        assert main(["analyze", unsafe_file, "--exhaustive"]) == 1
        assert "agree: True" in capsys.readouterr().out

    def test_dot_flag(self, unsafe_file, capsys):
        main(["analyze", unsafe_file, "--dot"])
        assert 'digraph "D(T1,T2)"' in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys):
        assert main(["analyze", "/nonexistent.sys"]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_output(self, unsafe_file, capsys):
        import json

        code = main(["analyze", unsafe_file, "--json", "--certificate"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["safe"] is False
        assert payload["method"] == "theorem-2"
        assert payload["transactions"] == ["T1", "T2"]
        assert payload["certificate"]["dominator"] == ["x", "y"]
        assert len(payload["witness"]) == 18

    def test_json_with_exhaustive_flag(self, safe_file, capsys):
        import json

        code = main(["analyze", safe_file, "--json", "--exhaustive"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["exhaustive_agrees"] is True

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.sys"
        bad.write_text("nonsense\n")
        assert main(["analyze", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_safe_system_exits_0(self, safe_file, capsys):
        assert main(["simulate", safe_file, "--runs", "50"]) == 0
        out = capsys.readouterr().out
        assert "non-serializable:   0.00%" in out

    def test_unsafe_system_exits_1(self, unsafe_file, capsys):
        assert main(["simulate", unsafe_file, "--runs", "200"]) == 1


class TestPlane:
    def test_total_pair_rendered(self, total_file, capsys):
        code = main(["plane", total_file])
        out = capsys.readouterr().out
        assert "#" in out  # rectangles
        assert code == 1  # this pair is unsafe
        assert "UNSAFE" in out

    def test_partial_orders_rejected(self, unsafe_file, capsys):
        assert main(["plane", unsafe_file]) == 2
        assert "not totally ordered" in capsys.readouterr().err


class TestReduce:
    def test_satisfiable_formula(self, capsys):
        assert main(["reduce", "(a | b) & (~a | b)"]) == 0
        out = capsys.readouterr().out
        assert "UNSAFE" in out
        assert "Theorem 3 check (unsafe ⟺ satisfiable): True" in out

    def test_trivial_unsat(self, capsys):
        assert main(["reduce", "(a) & (~a)"]) == 0
        assert "satisfiable=False" in capsys.readouterr().out

    def test_unrestricted_input_transformed(self, capsys):
        assert main(["reduce", "(a | b | c | d)"]) == 0
        assert "restricted form" in capsys.readouterr().out


DATABASE_ONLY = """
database
  site 1: x y
  site 2: z
"""

TRIANGLE_FILES = {
    "t1.sys": """
database
  site 1: a b c

transaction T1
  site 1: La a Ua Lb b Ub
""",
    "t2.sys": """
database
  site 1: a b c

transaction T2
  site 1: Lb b Ub Lc c Uc
""",
    "t3.sys": """
database
  site 1: a b c

transaction T3
  site 1: Lc c Uc La a Ua
""",
}


@pytest.fixture
def triangle_files(tmp_path):
    paths = []
    for name, text in TRIANGLE_FILES.items():
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return paths


class TestAnalyzeEmptySystem:
    def test_database_only_file_is_trivially_safe(self, tmp_path, capsys):
        path = tmp_path / "empty.sys"
        path.write_text(DATABASE_ONLY)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "transactions: " in out
        assert "sites used:   []" in out
        assert "safe:         True" in out


class TestSimulateJson:
    def test_payload_shape(self, safe_file, capsys):
        code = main(
            ["simulate", safe_file, "--runs", "50", "--seed", "9", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["runs"] == 50
        assert payload["seed"] == 9
        assert payload["rates"]["non-serializable"] == 0.0
        assert payload["verdict"]["safe"] is True
        assert payload["agreement"] is True

    def test_unsafe_system(self, unsafe_file, capsys):
        code = main(["simulate", unsafe_file, "--runs", "200", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["rates"]["non-serializable"] > 0
        assert payload["verdict"]["safe"] is False


class TestReduceJson:
    def test_satisfiable_formula(self, capsys):
        assert main(["reduce", "(a | b) & (~a | b)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfiable"] is True
        assert payload["verdict"]["safe"] is False
        assert payload["agreement"] is True
        assert payload["entities"] > 0

    def test_trivial_unsat_settled_early(self, capsys):
        assert main(["reduce", "(a) & (~a)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfiable"] is False
        assert payload["settled_by_unit_propagation"] is False

    def test_unrestricted_input_reports_transform(self, capsys):
        assert main(["reduce", "(a | b | c | d)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "restricted_form" in payload


class TestVet:
    def test_safe_files_all_admitted(self, safe_file, capsys):
        assert main(["vet", safe_file]) == 0
        out = capsys.readouterr().out
        assert "ADMIT  T1" in out and "ADMIT  T2" in out
        assert "2 admitted, 0 rejected" in out
        assert "service stats:" in out

    def test_unsafe_pair_rejected(self, unsafe_file, capsys):
        assert main(["vet", unsafe_file]) == 1
        out = capsys.readouterr().out
        assert "ADMIT  T1" in out
        assert "REJECT T2" in out and "unsafe" in out

    def test_cycle_condition_across_files(self, triangle_files, capsys):
        assert main(["vet", *triangle_files]) == 1
        out = capsys.readouterr().out
        assert "ADMIT  T1" in out and "ADMIT  T2" in out
        assert "REJECT T3" in out and "B_c is acyclic" in out

    def test_name_collisions_renamed(self, safe_file, capsys):
        assert main(["vet", safe_file, safe_file]) == 0
        out = capsys.readouterr().out
        assert "ADMIT  T1@2" in out and "ADMIT  T2@2" in out

    def test_json_payload(self, unsafe_file, capsys):
        code = main(["vet", unsafe_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["admitted"] == 1 and payload["rejected"] == 1
        decisions = payload["decisions"]
        assert decisions[0]["admitted"] is True
        assert decisions[1]["admitted"] is False
        assert decisions[1]["failing_pair"] == ["T2", "T1"]
        assert payload["stats"]["live_transactions"] == 1

    def test_missing_file_exits_2(self, capsys):
        assert main(["vet", "/nonexistent.sys"]) == 2
        assert "error" in capsys.readouterr().err


class TestServe:
    def run_serve(self, monkeypatch, capsys, lines):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(line + "\n" for line in lines))
        )
        assert main(["serve"]) == 0
        return capsys.readouterr().out.splitlines()

    def test_admit_evict_stats_loop(self, monkeypatch, capsys):
        out = self.run_serve(
            monkeypatch,
            capsys,
            [
                "ADMIT database; site 1: a b c;"
                " transaction T1; site 1: La a Ua Lb b Ub",
                "ADMIT transaction T2; site 1: Lb b Ub Lc c Uc",
                "ADMIT transaction T3; site 1: Lc c Uc La a Ua",
                "STATS",
                "EVICT T2",
                "ADMIT transaction T3; site 1: Lc c Uc La a Ua",
                "QUIT",
            ],
        )
        assert out[0] == "READY"
        assert out[1] == "OK admitted T1"
        assert out[2] == "OK admitted T2"
        assert out[3].startswith("REJECT T3")
        stats = json.loads(out[4].removeprefix("STATS "))
        assert stats["live_transactions"] == 2
        assert out[5] == "OK evicted T2"
        assert out[6] == "OK admitted T3"
        assert out[7] == "OK bye"

    def test_protocol_errors_are_reported_not_fatal(self, monkeypatch, capsys):
        out = self.run_serve(
            monkeypatch,
            capsys,
            [
                "EVICT ghost",
                "FROBNICATE",
                "ADMIT transaction T1; site 1: La a Ua",
                "QUIT",
            ],
        )
        assert out[1].startswith("ERR cannot evict unknown")
        assert out[2].startswith("ERR unknown command")
        # No database was ever declared, so the bare ADMIT fails cleanly.
        assert out[3].startswith("ERR")
        assert out[4] == "OK bye"

    def test_blank_lines_ignored_and_eof_terminates(self, monkeypatch, capsys):
        out = self.run_serve(monkeypatch, capsys, ["", "   "])
        assert out == ["READY"]


class TestFigures:
    def test_all_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "# fig1" in out and "# fig3" in out and "# fig5" in out

    def test_single_figure(self, capsys):
        assert main(["figures", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "safe=True" in out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "fig99"]) == 2


class TestVerbosity:
    def test_quiet_drops_narration_keeps_verdict(self, safe_file, capsys):
        assert main(["-q", "analyze", safe_file]) == 0
        out = capsys.readouterr().out
        assert "safe:         True" in out
        assert "transactions:" not in out

    def test_double_quiet_silences_stdout(self, safe_file, capsys):
        assert main(["-qq", "analyze", safe_file]) == 0
        assert capsys.readouterr().out == ""

    def test_verbose_narrates_loading(self, safe_file, capsys):
        assert main(["-v", "analyze", safe_file]) == 0
        assert "loading" in capsys.readouterr().out

    def test_log_json_emits_json_lines(self, safe_file, capsys):
        assert main(["--log-json", "analyze", safe_file]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        records = [json.loads(line) for line in captured.err.splitlines()]
        assert any("safe:" in record["message"] for record in records)
        assert all({"ts", "level", "message"} <= set(r) for r in records)


class TestTraceAndMetrics:
    @pytest.fixture(autouse=True)
    def clean_registry(self):
        from repro.obs import metrics

        metrics.REGISTRY.reset()
        yield
        metrics.REGISTRY.reset()

    def test_vet_trace_then_report(self, safe_file, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        assert main(["vet", safe_file, "--trace", trace_file]) == 0
        capsys.readouterr()
        from repro.obs import trace

        assert not trace.tracing_enabled()  # stopped by main()
        assert main(["trace-report", trace_file]) == 0
        out = capsys.readouterr().out
        assert "service.admit" in out
        assert "self ms" in out

    def test_trace_report_limit(self, safe_file, tmp_path, capsys):
        trace_file = str(tmp_path / "t.jsonl")
        main(["vet", safe_file, "--trace", trace_file])
        capsys.readouterr()
        assert main(["trace-report", trace_file, "--limit", "1"]) == 0
        assert "more span name(s)" in capsys.readouterr().out

    def test_trace_report_rejects_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["trace-report", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_report_missing_file(self, capsys):
        assert main(["trace-report", "/nonexistent.jsonl"]) == 2

    def test_metrics_dump_on_stderr(self, unsafe_file, capsys):
        assert main(["analyze", unsafe_file, "--metrics"]) == 1
        err = capsys.readouterr().err
        assert "# TYPE repro_decisions_total counter" in err
        assert 'repro_decisions_total{method="theorem-2",safe="false"} 1' in err

    def test_vet_metrics_cover_service_phases(self, safe_file, capsys):
        assert main(["vet", safe_file, "--metrics"]) == 0
        err = capsys.readouterr().err
        assert "# TYPE repro_service_phase_seconds histogram" in err
        assert 'phase="fingerprint"' in err


class TestSimulateEvents:
    def test_timeline_printed_and_deterministic(self, unsafe_file, capsys):
        main(["simulate", unsafe_file, "--events", "--seed", "7"])
        first = capsys.readouterr().out
        main(["simulate", unsafe_file, "--events", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second
        assert "timeline:" in first
        assert "grant" in first
        assert "outcome:" in first


class TestServeMetrics:
    def test_metrics_command_reports_registry(self, monkeypatch, capsys):
        from repro.obs import metrics

        metrics.REGISTRY.reset()
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                "ADMIT database; site 1: a b;"
                " transaction T1; site 1: La a Ua Lb b Ub\n"
                "METRICS\n"
                "QUIT\n"
            ),
        )
        assert main(["serve"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "OK admitted T1"
        payload = json.loads(out[2].removeprefix("METRICS "))
        events = payload["repro_service_events_total"]["series"]
        assert events['{event="admitted"}'] >= 1
        metrics.REGISTRY.reset()


class TestChaosJson:
    def test_json_report_schema(self, unsafe_file, capsys):
        code = main(["chaos", unsafe_file, "--seeds", "5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        expected = {
            "seeds",
            "policy",
            "max_retries",
            "plan_entries",
            "outcomes",
            "completion_rate",
            "mean_retries",
            "total_retries",
            "faults_injected",
            "deadlocks_resolved",
            "recoveries",
            "p95_recovery_latency_steps",
            "wall_seconds",
        }
        assert expected <= set(payload)
        assert payload["seeds"] == 5
        assert payload["policy"] == "abort-youngest"
        assert isinstance(payload["outcomes"], dict)
        assert sum(payload["outcomes"].values()) == payload["seeds"]
        assert 0.0 <= payload["completion_rate"] <= 1.0
        assert code == (0 if payload["completion_rate"] == 1.0 else 1)

    def test_json_is_deterministic_modulo_wall_time(self, unsafe_file, capsys):
        main(["chaos", unsafe_file, "--seeds", "4", "--json"])
        first = json.loads(capsys.readouterr().out)
        main(["chaos", unsafe_file, "--seeds", "4", "--json"])
        second = json.loads(capsys.readouterr().out)
        first.pop("wall_seconds")
        second.pop("wall_seconds")
        assert first == second

    def test_crash_recovery_outcome_is_pinned(self, capsys):
        # Golden numbers for the simulator's fault schedule: abort backoff,
        # victim choice and recovery all feed into them.
        plan = pathlib.Path(__file__).parents[1] / "examples/systems/crash_recovery_plan.json"
        code = main(
            [
                "chaos",
                "--seeds", "50",
                "--faults", str(plan),
                "--deadlock-policy", "abort-youngest",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        payload.pop("wall_seconds")
        assert code == 0
        assert payload == {
            "seeds": 50,
            "policy": "abort-youngest",
            "max_retries": 3,
            "plan_entries": 4,
            "outcomes": {"serializable": 50},
            "completion_rate": 1.0,
            "mean_retries": 2.16,
            "total_retries": 108,
            "faults_injected": 193,
            "deadlocks_resolved": 29,
            "recoveries": 65,
            "p95_recovery_latency_steps": 18.0,
        }


class TestClusterCli:
    def test_run_safe_pair_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "pair.sys"
        path.write_text(
            "database\n"
            "  site 1: x\n"
            "  site 2: y\n"
            "\n"
            "transaction T1\n"
            "  site 1: Lx x Ux\n"
            "  site 2: Ly y Uy\n"
            "  precede Lx -> Ly\n"
            "  precede Ly -> Ux\n"
            "  precede Lx -> Uy\n"
            "\n"
            "transaction T2\n"
            "  site 1: Lx x Ux\n"
            "  site 2: Ly y Uy\n"
            "  precede Lx -> Ly\n"
            "  precede Ly -> Ux\n"
            "  precede Lx -> Uy\n"
        )
        code = main(
            ["cluster", "run", str(path), "--rounds", "3", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["mode"] == "vetted-safe"
        assert payload["serializable"] is True
        assert payload["committed"] == payload["transactions"] == 6

    def test_run_unsafe_pair_exits_one(self, unsafe_file, capsys):
        code = main(
            [
                "cluster",
                "run",
                unsafe_file,
                "--rounds",
                "3",
                "--seed",
                "5",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["mode"] == "runtime-guarded"

    def test_run_events_timeline(self, safe_file, capsys):
        main(["cluster", "run", safe_file, "--events"])
        out = capsys.readouterr().out
        assert "grant" in out
        assert "cluster run:" in out

    def test_failed_run_writes_postmortem_bundle(self, tmp_path, capsys):
        # Serializable and fully audited, but 7 of 8 transactions run
        # out of retries: the run exits 1, so it leaves a bundle too.
        system = pathlib.Path(__file__).parents[1] / "examples/systems/fig3_like.sys"
        bundle = tmp_path / "pm"
        code = main(
            [
                "cluster", "run", str(system),
                "--rounds", "4",
                "--max-retries", "0",
                "--seed", "7",
                "--postmortem", str(bundle),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "retry-exhausted  7" in out
        assert (bundle / "MANIFEST.json").is_file()
        assert (bundle / "events.jsonl").stat().st_size > 0
        assert main(["postmortem", str(bundle), "--tail", "3"]) == 0
        rendered = capsys.readouterr().out
        assert "reason=uncommitted" in rendered
        assert "timeline: 512 event(s) retained" in rendered

    def test_missing_file_exits_two(self, capsys):
        assert main(["cluster", "run", "nope.sys"]) == 2

    def test_run_and_arena_share_run_flags_not_retry_defaults(self):
        from repro.cli import build_parser

        parser = build_parser()
        run_args = parser.parse_args(["cluster", "run", "x.sys"])
        arena_args = parser.parse_args(["arena", "--workload", "w.json"])
        for args in (run_args, arena_args):
            assert args.transport == "memory" and args.seed == 0
            assert args.no_vet is False and args.deadlock_policy == "abort-youngest"
            assert args.grant_timeout is None and args.request_timeout is None
        assert run_args.max_retries == 3
        assert arena_args.max_retries == 5

    @pytest.mark.parametrize("command", ["serve --site 1", "status"])
    def test_bad_peer_exits_two(self, command, capsys):
        argv = ["cluster", *command.split(), "--peer", "1=localhost:port"]
        assert main(argv) == 2
        assert "bad --peer '1=localhost:port'" in capsys.readouterr().err

    def test_status_without_peers_exits_two(self, capsys):
        assert main(["cluster", "status"]) == 2
        assert "need at least one --peer" in capsys.readouterr().err

    def test_bad_fault_plan_site_fails_fast(self, safe_file, tmp_path, capsys):
        # Satellite check: a plan targeting a site the system doesn't
        # have must be rejected at load time, before any server boots.
        plan = tmp_path / "plan.json"
        plan.write_text('{"site_crashes": [{"site": 9, "at": 40}]}')
        code = main(
            [
                "cluster",
                "run",
                safe_file,
                "--faults",
                str(plan),
                "--request-timeout",
                "1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown site 9" in err

    def test_run_with_replicas_uses_replicated_runtime(
        self, capsys, tmp_path
    ):
        path = tmp_path / "pair.sys"
        path.write_text(
            "database\n"
            "  site 1: x\n"
            "  site 2: y\n"
            "\n"
            "transaction T1\n"
            "  site 1: Lx x Ux\n"
            "  site 2: Ly y Uy\n"
            "  precede Lx -> Ly\n"
            "  precede Ly -> Ux\n"
            "  precede Lx -> Uy\n"
            "\n"
            "transaction T2\n"
            "  site 1: Lx x Ux\n"
            "  site 2: Ly y Uy\n"
            "  precede Lx -> Ly\n"
            "  precede Ly -> Ux\n"
            "  precede Lx -> Uy\n"
        )
        code = main(
            [
                "cluster",
                "run",
                str(path),
                "--replicas",
                "3",
                "--rounds",
                "2",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["replicas"] == 3
        assert payload["failovers"] == 0
        assert payload["committed"] == payload["transactions"] == 4
        assert "recovery" in payload and payload["recovery"] == []


TINY_SPEC = {
    "name": "tiny",
    "entities": 6,
    "sites": 2,
    "transactions": 4,
    "keys": {"distribution": "zipfian", "skew": 1.2},
    "mix": {"entities_per_txn": 2},
    "arrival": {"process": "closed", "concurrency": 3},
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_SPEC))
    return str(path)


class TestClusterWorkloadCli:
    def test_workload_run_exits_zero(self, spec_file, capsys):
        code = main(
            ["cluster", "run", "--workload", spec_file, "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["serializable"] is True
        assert payload["transactions"] == TINY_SPEC["transactions"]

    def test_workload_run_accepts_policy(self, spec_file, capsys):
        code = main(
            [
                "cluster",
                "run",
                "--workload",
                spec_file,
                "--workload-policy",
                "tree",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["committed"] == TINY_SPEC["transactions"]

    def test_file_and_workload_together_exit_two(self, safe_file, spec_file, capsys):
        assert main(["cluster", "run", safe_file, "--workload", spec_file]) == 2
        assert "not both" in capsys.readouterr().err

    def test_neither_file_nor_workload_exits_two(self, capsys):
        assert main(["cluster", "run"]) == 2
        assert "need a system FILE" in capsys.readouterr().err

    def test_workload_with_replicas_exits_two(self, spec_file, capsys):
        assert (
            main(["cluster", "run", "--workload", spec_file, "--replicas", "3"]) == 2
        )

    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(TINY_SPEC, bogus=True)))
        assert main(["cluster", "run", "--workload", str(path)]) == 2
        assert "unknown traffic spec keys" in capsys.readouterr().err


class TestArenaCli:
    def test_matrix_smoke_exits_zero(self, spec_file, tmp_path, capsys):
        plan = tmp_path / "hot.json"
        plan.write_text(
            json.dumps({"grant_delays": [{"entity": "e0", "at": 2, "until": 8}]})
        )
        out = tmp_path / "arena.json"
        code = main(
            [
                "arena",
                "--workload",
                spec_file,
                "--policy",
                "2pl",
                "--policy",
                "tree",
                "--fault-plan",
                "none",
                "--fault-plan",
                str(plan),
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        rendered = capsys.readouterr().out
        assert code == 0
        assert "arena: 2 policies × 1 workloads × 2 fault plans" in rendered
        payload = json.loads(out.read_text())
        assert payload["all_ok"] is True
        assert len(payload["cells"]) == 4
        assert payload["fault_plans"] == ["none", "hot"]

    def test_json_output(self, spec_file, capsys):
        code = main(["arena", "--workload", spec_file, "--policy", "2pl", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [cell["policy"] for cell in payload["cells"]] == ["2pl"]

    def test_malformed_spec_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        assert main(["arena", "--workload", str(path)]) == 2
        assert "traffic spec" in capsys.readouterr().err

    def test_json_is_deterministic_modulo_wall_time(self, spec_file, capsys):
        def snapshot():
            main(["arena", "--workload", spec_file, "--policy", "2pl", "--json"])
            payload = json.loads(capsys.readouterr().out)
            payload.pop("wall_seconds")
            for cell in payload["cells"]:
                for key in ("wall_seconds", "throughput_txn_s", "p50_ms", "p99_ms"):
                    cell.pop(key)
            return payload

        assert snapshot() == snapshot()


class TestCountFlags:
    """Counts are non-negative and a replica group has at least one
    member: any other value is a usage error (exit 2) before the
    command runs."""

    @staticmethod
    def assert_usage_error(argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_negative_limit(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "".join(
                json.dumps({"span": f"s{i}", "id": i, "pid": 1,
                            "start_ns": 0, "dur_ns": 100 - i}) + "\n"
                for i in range(14)
            )
        )
        self.assert_usage_error(
            ["trace-report", str(path), "--limit", "-2"], capsys
        )

    def test_negative_tail(self, tmp_path, capsys):
        from repro.obs.events import EventLog
        from repro.obs.insight import dump_postmortem

        events = EventLog()
        events.emit("grant", transaction="T1", entity="x", site=1)
        bundle = dump_postmortem(tmp_path / "b", event_log=events, reason="r")
        self.assert_usage_error(["postmortem", bundle, "--tail", "-3"], capsys)

    @pytest.mark.parametrize("replicas", ["0", "-2"])
    def test_run_needs_a_replica(self, replicas, capsys):
        self.assert_usage_error(
            ["cluster", "run", "examples/systems/transfer_2pl.sys",
             "--replicas", replicas],
            capsys,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "examples/systems/transfer_2pl.sys", "--runs", "-5"],
            ["simulate", "examples/systems/transfer_2pl.sys", "--runs", "0"],
            ["chaos", "examples/systems/transfer_2pl.sys", "--seeds", "-1"],
            ["chaos", "examples/systems/transfer_2pl.sys", "--seeds", "0"],
            ["simulate", "examples/systems/transfer_2pl.sys", "--max-retries", "-2",
             "--deadlock-policy", "abort-youngest"],
            ["chaos", "examples/systems/transfer_2pl.sys", "--max-retries", "-1"],
            ["cluster", "run", "examples/systems/transfer_2pl.sys", "--max-retries", "-1"],
            ["arena", "--workload", "w.json", "--max-retries", "-1"],
        ],
        ids=[
            "negative-runs",
            "no-runs",
            "negative-seeds",
            "no-seeds",
            "simulate-retries",
            "chaos-retries",
            "cluster-retries",
            "arena-retries",
        ],
    )
    def test_negative_or_empty_counts(self, argv, capsys):
        self.assert_usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "flags",
        [["--replicas", "0"], ["--replicas", "3", "--replica-index", "-1"]],
        ids=["no-replicas", "negative-index"],
    )
    def test_serve_rejects_bad_replica_flags(self, flags, capsys):
        self.assert_usage_error(["cluster", "serve", "--site", "1", *flags], capsys)
