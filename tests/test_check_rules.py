"""Per-rule positive/negative fixtures for the repro.check lint level.

Every rule gets a seeded-violation fixture (must fire, with the right
rule id, symbol and file:line anchor) and a clean fixture (must stay
silent).  Whole-tree rules are exercised through hand-built contexts so
the fixtures never depend on the real tree's state; the real tree's
cleanliness is asserted separately in test_static_analysis.py.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.check import KNOBS, RULES, render_env_table, run_check
from repro.check.engine import CheckContext, load_context
from repro.check.findings import Baseline, Finding
from repro.check.rules import (
    env_stale_rule,
    readme_env_table_rule,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write(tmp_path, rel, text):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))
    return str(path)


def _run(tmp_path, rel_paths, rule_id):
    return run_check(str(tmp_path), paths=rel_paths, rule_ids=[rule_id])


class TestRegistry:
    def test_all_five_analyzers_registered(self):
        assert set(RULES) >= {
            "check-env-knobs",
            "check-env-stale",
            "check-readme-env-table",
            "check-telemetry-names",
            "check-fast-path-contract",
            "check-thread-safety",
        }

    def test_rules_are_data(self):
        for rule in RULES.values():
            assert rule.severity in ("error", "warning"), rule.id
            assert rule.hint, rule.id
            assert rule.description, rule.id


class TestEnvKnobs:
    def test_unregistered_read_fires(self, tmp_path):
        _write(
            tmp_path,
            "bad.py",
            """
            import os
            os.environ.get("REPRO_BOGUS_KNOB", "1")
            """,
        )
        found = _run(tmp_path, ["bad.py"], "check-env-knobs")
        assert len(found) == 1
        f = found[0]
        assert f.rule == "check-env-knobs"
        assert f.severity == "error"
        assert f.symbol == "REPRO_BOGUS_KNOB"
        assert (f.path, f.line) == ("bad.py", 3)

    def test_indirect_constant_read_resolves(self, tmp_path):
        _write(
            tmp_path,
            "indirect.py",
            """
            import os
            _ENV = "REPRO_ALSO_BOGUS"
            value = os.environ[_ENV]
            """,
        )
        found = _run(tmp_path, ["indirect.py"], "check-env-knobs")
        assert [f.symbol for f in found] == ["REPRO_ALSO_BOGUS"]

    def test_registered_and_foreign_reads_silent(self, tmp_path):
        _write(
            tmp_path,
            "ok.py",
            """
            import os
            os.environ.get("REPRO_TRACE")       # registered knob
            os.environ.get("HOME")              # not our namespace
            os.getenv("REPRO_CACHE_DIR")
            """,
        )
        assert _run(tmp_path, ["ok.py"], "check-env-knobs") == []

    def test_stale_rule_flags_unread_knobs(self, tmp_path):
        # a full-tree context in which nothing reads any knob: every
        # registry entry must be reported stale.
        context = CheckContext(root=str(tmp_path), files=[], full_tree=True)
        found = list(env_stale_rule(context))
        assert {f.symbol for f in found} == set(KNOBS)

    def test_stale_rule_silent_on_subtree_scans(self, tmp_path):
        context = CheckContext(root=str(tmp_path), files=[], full_tree=False)
        assert list(env_stale_rule(context)) == []


class TestReadmeEnvTable:
    def _context(self, tmp_path, table):
        (tmp_path / "README.md").write_text(f"# fixture\n\n{table}\n\nmore\n")
        return CheckContext(root=str(tmp_path), files=[], full_tree=True)

    def test_generated_table_is_accepted(self, tmp_path):
        context = self._context(tmp_path, render_env_table())
        assert list(readme_env_table_rule(context)) == []

    def test_dropped_row_fires(self, tmp_path):
        lines = render_env_table().splitlines()
        del lines[3]
        found = list(readme_env_table_rule(self._context(tmp_path, "\n".join(lines))))
        assert len(found) == 1
        assert "disagrees with check/knobs.py" in found[0].message

    def test_missing_header_fires(self, tmp_path):
        found = list(readme_env_table_rule(self._context(tmp_path, "no table")))
        assert len(found) == 1
        assert "header not found" in found[0].message

    def test_table_has_ir_verify_row(self):
        assert any(
            row.startswith("| `REPRO_IR_VERIFY` |")
            for row in render_env_table().splitlines()
        )


class TestTelemetryNames:
    def test_unknown_names_fire_with_symbols(self, tmp_path):
        _write(
            tmp_path,
            "t.py",
            """
            def run(telemetry, tracer):
                telemetry.add("synth_callz", 1)
                telemetry.add_stage_time("synthesiss", 0.1)
                with tracer.span("bogus_span"):
                    pass
            """,
        )
        found = _run(tmp_path, ["t.py"], "check-telemetry-names")
        assert {f.symbol for f in found} == {
            "counter:synth_callz",
            "stage:synthesiss",
            "span:bogus_span",
        }
        assert all(f.severity == "error" for f in found)

    def test_known_names_and_foreign_receivers_silent(self, tmp_path):
        _write(
            tmp_path,
            "ok.py",
            """
            def run(telemetry, tracer, queue):
                telemetry.add("synth_calls", 1)
                telemetry.add_stage_time("synthesis", 0.1)
                telemetry.add_stage_time("train_kernel:matmul", 0.1)
                with tracer.span("synthesize"):
                    pass
                queue.add("anything")  # not a telemetry receiver
            """,
        )
        assert _run(tmp_path, ["ok.py"], "check-telemetry-names") == []

    def test_stage_helper_first_positional_name(self, tmp_path):
        _write(
            tmp_path,
            "s.py",
            """
            def run(sinks):
                with stage(sinks, "not_a_stage"):
                    pass
                with stage_all(sinks, "train"):
                    pass
            """,
        )
        found = _run(tmp_path, ["s.py"], "check-telemetry-names")
        assert [f.symbol for f in found] == ["stage:not_a_stage"]


class TestFastPathContract:
    def test_incomplete_contract_fires_every_leg(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/fastmod.py",
            """
            FAST_PATH_CONTRACT = {
                "kill_switch": "REPRO_NOT_A_KNOB",
                "reference": "reference_fn",
                "bench": "bench_missing.py",
            }
            """,
        )
        found = _run(tmp_path, ["src/repro/fastmod.py"], "check-fast-path-contract")
        symbols = {f.symbol for f in found}
        assert symbols == {
            "switch:REPRO_NOT_A_KNOB",
            "read:REPRO_NOT_A_KNOB",
            "reference:reference_fn",
            "bench:bench_missing.py",
        }

    def test_complete_contract_is_silent(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/fastmod.py",
            """
            import os

            FAST_PATH_CONTRACT = {
                "kill_switch": "REPRO_COMPILED_TRAIN",
                "reference": "reference_fn",
                "bench": "bench_fast.py",
            }

            def fast(x):
                if os.environ.get("REPRO_COMPILED_TRAIN", "1") == "0":
                    return reference_fn(x)
                return x
            """,
        )
        _write(
            tmp_path,
            "benchmarks/bench_fast.py",
            "from repro.fastmod import fast\n",
        )
        found = _run(
            tmp_path,
            ["src/repro/fastmod.py", "benchmarks/bench_fast.py"],
            "check-fast-path-contract",
        )
        assert found == []

    def test_bench_not_importing_module_fires(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/fastmod.py",
            """
            import os

            FAST_PATH_CONTRACT = {
                "kill_switch": "REPRO_COMPILED_TRAIN",
                "reference": "reference_fn",
                "bench": "bench_fast.py",
            }

            def fast(x):
                if os.environ.get("REPRO_COMPILED_TRAIN", "1") == "0":
                    return reference_fn(x)
                return x
            """,
        )
        _write(tmp_path, "benchmarks/bench_fast.py", "import os\n")
        found = _run(
            tmp_path,
            ["src/repro/fastmod.py", "benchmarks/bench_fast.py"],
            "check-fast-path-contract",
        )
        assert [f.symbol for f in found] == ["bench-import:repro.fastmod"]
        assert found[0].path == "benchmarks/bench_fast.py"


class TestThreadSafety:
    def test_unannotated_shared_state_warns(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/engine/state.py",
            """
            CACHE = {}

            class Registry:
                entries = []
            """,
        )
        found = _run(tmp_path, ["src/repro/engine/state.py"], "check-thread-safety")
        assert {f.symbol for f in found} == {"CACHE", "Registry.entries"}
        assert all(f.severity == "warning" for f in found)

    def test_annotation_and_dunders_silence(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/engine/state.py",
            """
            __all__ = ["CACHE"]

            # thread-safety: guarded by _LOCK in every accessor.
            CACHE = {}
            """,
        )
        assert (
            _run(tmp_path, ["src/repro/engine/state.py"], "check-thread-safety") == []
        )

    def test_out_of_scope_files_ignored(self, tmp_path):
        _write(tmp_path, "src/repro/prefix/state.py", "CACHE = {}\n")
        assert (
            _run(tmp_path, ["src/repro/prefix/state.py"], "check-thread-safety")
            == []
        )


class TestParseErrors:
    def test_syntax_error_becomes_finding(self, tmp_path):
        _write(tmp_path, "broken.py", "def nope(:\n")
        found = run_check(str(tmp_path), paths=["broken.py"])
        assert [f.rule for f in found] == ["check-parse-error"]
        assert found[0].severity == "error"


class TestBaseline:
    def test_split_partitions_and_reports_stale(self):
        finding = Finding(
            rule="check-env-knobs",
            severity="error",
            path="a.py",
            line=3,
            message="m",
            symbol="REPRO_X",
        )
        baseline = Baseline(
            entries={
                finding.key(): "kept on purpose",
                "check-env-knobs:gone.py:REPRO_GONE": "stale",
            }
        )
        active, suppressed, stale = baseline.split([finding])
        assert active == []
        assert suppressed == [finding]
        assert stale == ["check-env-knobs:gone.py:REPRO_GONE"]

    def test_load_rejects_empty_justification(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"entries": [{"key": "k", "justification": ""}]}))
        with pytest.raises(ValueError):
            Baseline.load(str(path))


class TestCli:
    """End-to-end exit codes through ``python -m repro check``."""

    def _check(self, *argv, cwd=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "check", *argv],
            cwd=cwd or ROOT,
            env=env,
            capture_output=True,
            text=True,
        )

    def _seeded_root(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/bad.py",
            """
            import os
            os.environ.get("REPRO_SEEDED_VIOLATION")
            """,
        )
        return tmp_path

    def test_seeded_violation_exits_1_naming_rule_and_anchor(self, tmp_path):
        root = self._seeded_root(tmp_path)
        proc = self._check("src/repro/bad.py", "--root", str(root))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "[check-env-knobs]" in proc.stdout
        assert "src/repro/bad.py:3" in proc.stdout
        assert "REPRO_SEEDED_VIOLATION" in proc.stdout

    def test_json_format_is_machine_readable(self, tmp_path):
        root = self._seeded_root(tmp_path)
        proc = self._check(
            "src/repro/bad.py", "--root", str(root), "--format", "json"
        )
        payload = json.loads(proc.stdout)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "check-env-knobs"

    def test_baseline_suppresses_and_stale_fails_strict(self, tmp_path):
        root = self._seeded_root(tmp_path)
        key = "check-env-knobs:src/repro/bad.py:REPRO_SEEDED_VIOLATION"
        baseline = tmp_path / "b.json"
        baseline.write_text(
            json.dumps({"entries": [{"key": key, "justification": "fixture"}]})
        )
        proc = self._check(
            "src/repro/bad.py", "--root", str(root), "--baseline", str(baseline)
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 baselined" in proc.stdout

        stale = tmp_path / "stale.json"
        stale.write_text(
            json.dumps(
                {"entries": [{"key": "check-x:nowhere.py:gone", "justification": "?"}]}
            )
        )
        # stale keys only mean something on the full default scan
        proc = self._check("--root", str(root), "--baseline", str(stale), "--strict")
        assert proc.returncode == 1
        assert "check-stale-baseline" in proc.stdout

    def test_bad_root_is_a_usage_error(self, tmp_path):
        proc = self._check("--root", str(tmp_path / "nowhere"))
        assert proc.returncode == 2

    def test_render_env_table_round_trips(self):
        proc = self._check("--render-env-table")
        assert proc.returncode == 0
        assert proc.stdout.strip() == render_env_table().strip()


class TestContextLoading:
    def test_skips_pycache_and_dotdirs(self, tmp_path):
        _write(tmp_path, "pkg/__pycache__/junk.py", "x = (\n")
        _write(tmp_path, "pkg/.hidden/junk.py", "x = (\n")
        _write(tmp_path, "pkg/ok.py", "x = 1\n")
        context = load_context(str(tmp_path), paths=["pkg"])
        assert [s.rel for s in context.files] == ["pkg/ok.py"]
