"""Tests for the rflint static-analysis suite (``repro.devtools``).

Each RFP rule is pinned three ways: it fires on its bad fixture, stays
quiet on its good fixture, and an inline ``# rflint: disable=`` comment
silences it. The project-wide machinery gets its own coverage — cross-
module resolution, logical-line suppression spans, the incremental
cache, ``--fix`` idempotence, baselines, and SARIF output. On top of
that, the repo itself must lint clean — the same gate CI runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.config import ENV_REGISTRY, get_nn_dtype
from repro.devtools.baseline import Baseline, fingerprint
from repro.devtools.cache import LintCache
from repro.devtools.engine import (
    PARSE_ERROR_ID,
    LintConfig,
    all_rules,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.devtools.lint import main as lint_main
from repro.devtools.sarif import to_sarif
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "rflint"

#: Display path each rule's fixtures are linted under, chosen to satisfy
#: the rule's path scope (RFP004 only runs under radar/signal, RFP007
#: only under tests, RFP015 only under the audit package, RFP016 only
#: under experiments/serve, the project rules RFP010 and RFP012-RFP014
#: under their respective subsystem trees).
RULE_DISPLAY_PATHS = {
    "RFP001": "src/repro/module.py",
    "RFP002": "src/repro/module.py",
    "RFP003": "src/repro/module.py",
    "RFP004": "src/repro/radar/module.py",
    "RFP005": "src/repro/module.py",
    "RFP006": "src/repro/module.py",
    "RFP007": "tests/test_module.py",
    "RFP008": "src/repro/serve/module.py",
    "RFP010": "src/repro/serve/module.py",
    "RFP012": "src/repro/radar/module.py",
    "RFP013": "src/repro/radar/module.py",
    "RFP014": "src/repro/serve/module.py",
    "RFP015": "src/repro/audit/module.py",
    "RFP016": "src/repro/experiments/module.py",
}

RULE_IDS = sorted(RULE_DISPLAY_PATHS)


def lint_fixture(name: str, display_path: str):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return lint_source(text, display_path)


class TestRegistry:
    def test_all_fourteen_rules_registered(self):
        assert sorted(all_rules()) == RULE_IDS

    def test_rules_have_docs_and_titles(self):
        for rule_cls in all_rules().values():
            assert rule_cls.title
            assert rule_cls.__doc__


@pytest.mark.parametrize("rule_id", RULE_IDS)
class TestEachRule:
    def test_fires_on_bad_fixture(self, rule_id):
        findings = lint_fixture(
            f"{rule_id.lower()}_bad.py", RULE_DISPLAY_PATHS[rule_id]
        )
        assert findings, f"{rule_id} did not fire on its bad fixture"
        assert {f.rule_id for f in findings} == {rule_id}

    def test_quiet_on_good_fixture(self, rule_id):
        findings = lint_fixture(
            f"{rule_id.lower()}_good.py", RULE_DISPLAY_PATHS[rule_id]
        )
        assert findings == []

    def test_inline_suppression_silences_rule(self, rule_id):
        display_path = RULE_DISPLAY_PATHS[rule_id]
        text = (FIXTURES / f"{rule_id.lower()}_bad.py").read_text(
            encoding="utf-8"
        )
        findings = lint_source(text, display_path)
        lines = text.splitlines()
        for line_number in sorted({f.line for f in findings}, reverse=True):
            lines[line_number - 1] += f"  # rflint: disable={rule_id}"
        suppressed = lint_source("\n".join(lines) + "\n", display_path)
        assert [f for f in suppressed if f.rule_id == rule_id] == []


class TestSuppression:
    def test_static_suppressed_fixture_is_clean(self):
        assert lint_fixture("rfp_suppressed.py", "src/repro/module.py") == []

    def test_disable_all_keyword(self):
        text = "import numpy as np\nnp.random.seed(0)  # rflint: disable=all\n"
        assert lint_source(text, "src/repro/module.py") == []

    def test_suppression_inside_string_is_inert(self):
        text = (
            "import numpy as np\n"
            'MESSAGE = "# rflint: disable=RFP001"\n'
            "np.random.seed(0)\n"
        )
        findings = lint_source(text, "src/repro/module.py")
        assert [f.rule_id for f in findings] == ["RFP001"]

    def test_trailing_disable_covers_multiline_statement(self):
        # The finding anchors at line 2; the comment trails line 4. The
        # statement is one logical line, so its whole span is covered.
        text = (
            "import numpy as np\n"
            "np.random.seed(\n"
            "    0\n"
            ")  # rflint: disable=RFP001\n"
        )
        assert lint_source(text, "src/repro/module.py") == []

    def test_standalone_comment_covers_only_its_own_line(self):
        text = (
            "import numpy as np\n"
            "# rflint: disable=RFP001\n"
            "np.random.seed(0)\n"
        )
        findings = lint_source(text, "src/repro/module.py")
        assert [f.rule_id for f in findings] == ["RFP001"]

    def test_disable_does_not_leak_to_next_statement(self):
        text = (
            "import numpy as np\n"
            "np.random.seed(0)  # rflint: disable=RFP001\n"
            "np.random.seed(1)\n"
        )
        findings = lint_source(text, "src/repro/module.py")
        assert [f.line for f in findings] == [3]


class TestScoping:
    def test_rfp004_scoped_to_numeric_packages(self):
        text = (FIXTURES / "rfp004_bad.py").read_text(encoding="utf-8")
        assert lint_source(text, "src/repro/radar/module.py")
        assert lint_source(text, "src/repro/signal/module.py")
        assert lint_source(text, "src/repro/nn/module.py")
        assert lint_source(text, "src/repro/gan/module.py")
        assert lint_source(text, "src/repro/trajectories/module.py") == []

    def test_rfp003_exempts_the_registry_module(self):
        text = (
            "import os\n"
            'DTYPE = os.environ.get("RF_PROTECT_NN_DTYPE", "float64")\n'
        )
        assert lint_source(text, "src/repro/radar/module.py")
        assert lint_source(text, "src/repro/config.py") == []

    def test_rfp007_scoped_to_tests(self):
        text = (FIXTURES / "rfp007_bad.py").read_text(encoding="utf-8")
        assert lint_source(text, "tests/test_module.py")
        assert lint_source(text, "src/repro/module.py") == []

    def test_rfp008_scoped_to_serve(self):
        text = (FIXTURES / "rfp008_bad.py").read_text(encoding="utf-8")
        assert lint_source(text, "src/repro/serve/module.py")
        assert lint_source(text, "src/repro/radar/module.py") == []

    def test_rfp014_scoped_to_serve(self):
        text = (FIXTURES / "rfp014_bad.py").read_text(encoding="utf-8")
        assert lint_source(text, "src/repro/serve/module.py")
        assert lint_source(text, "src/repro/gan/module.py") == []

    def test_fixture_corpus_excluded_from_directory_walk(self):
        result = lint_paths([str(REPO_ROOT / "tests")], LintConfig())
        fixture_paths = [
            f.path for f in result.findings if "fixtures/rflint" in f.path
        ]
        assert fixture_paths == []

    def test_explicitly_named_file_bypasses_excludes(self):
        result = lint_paths([str(FIXTURES / "rfp006_bad.py")], LintConfig())
        assert result.findings


class TestProjectAnalysis:
    """Cross-module behavior of the project pass (RFP010/012/014)."""

    def test_rfp014_follows_chains_across_modules(self):
        helper = (
            "import time\n"
            "\n"
            "\n"
            "def settle() -> None:\n"
            "    time.sleep(0.1)\n"
        )
        service = (
            "from repro.serve.helper import settle\n"
            "\n"
            "\n"
            "async def handle() -> None:\n"
            "    settle()\n"
        )
        findings = lint_sources({
            "src/repro/serve/helper.py": helper,
            "src/repro/serve/service_probe.py": service,
        })
        assert [f.rule_id for f in findings] == ["RFP014"]
        finding = findings[0]
        assert finding.path == "src/repro/serve/service_probe.py"
        assert "repro.serve.helper.settle" in finding.message
        assert "time.sleep" in finding.message

    def test_rfp010_typed_receiver_across_modules(self):
        session_mod = (
            "import asyncio\n"
            "\n"
            "\n"
            "class Session:\n"
            "    def __init__(self) -> None:\n"
            "        self.lock = asyncio.Lock()\n"
            "        self.frames = 0\n"
            "\n"
            "    async def ingest(self) -> None:\n"
            "        async with self.lock:\n"
            "            self.frames += 1\n"
        )
        probe_mod = (
            "from repro.serve.sessionmod import Session\n"
            "\n"
            "\n"
            "def snoop(session: Session) -> int:\n"
            "    return session.frames\n"
        )
        findings = lint_sources({
            "src/repro/serve/sessionmod.py": session_mod,
            "src/repro/serve/probe.py": probe_mod,
        })
        assert [f.rule_id for f in findings] == ["RFP010"]
        assert findings[0].path == "src/repro/serve/probe.py"

    def test_rfp012_checkpoint_subscripts_checked_project_wide(self):
        schema_mod = (FIXTURES / "rfp012_good.py").read_text(encoding="utf-8")
        reader_mod = (
            "def history_depth(counter) -> int:\n"
            '    return len(counter.checkpoint["history"])\n'
            "\n"
            "\n"
            "def current(counter) -> int:\n"
            '    return counter.checkpoint["count"]\n'
        )
        findings = lint_sources({
            "src/repro/radar/countermod.py": schema_mod,
            "src/repro/serve/reader.py": reader_mod,
        })
        assert [f.rule_id for f in findings] == ["RFP012"]
        assert findings[0].path == "src/repro/serve/reader.py"
        assert "'history'" in findings[0].message


class TestIncrementalCache:
    def _project(self, tmp_path: Path) -> Path:
        src = tmp_path / "proj"
        src.mkdir()
        bad = (FIXTURES / "rfp006_bad.py").read_text(encoding="utf-8")
        (src / "alpha.py").write_text(bad, encoding="utf-8")
        (src / "beta.py").write_text("VALUE = 1\n", encoding="utf-8")
        return src

    def test_warm_run_reanalyzes_only_changed_files(self, tmp_path):
        src = self._project(tmp_path)
        config = LintConfig()
        cache_dir = tmp_path / "cache"

        cold = lint_paths([str(src)], config,
                          cache=LintCache.open(cache_dir, config))
        assert cold.files_checked == 2
        assert cold.files_reanalyzed == 2
        assert {f.rule_id for f in cold.findings} == {"RFP006"}

        warm = lint_paths([str(src)], config,
                          cache=LintCache.open(cache_dir, config))
        assert warm.files_checked == 2
        assert warm.files_reanalyzed == 0
        assert warm.findings == cold.findings

        (src / "beta.py").write_text("VALUE = 2\n", encoding="utf-8")
        touched = lint_paths([str(src)], config,
                             cache=LintCache.open(cache_dir, config))
        assert touched.files_reanalyzed == 1
        assert touched.findings == cold.findings

    def test_config_change_invalidates_cache(self, tmp_path):
        src = self._project(tmp_path)
        cache_dir = tmp_path / "cache"
        config = LintConfig()
        lint_paths([str(src)], config,
                   cache=LintCache.open(cache_dir, config))

        narrowed = LintConfig(select=("RFP001",))
        rerun = lint_paths([str(src)], narrowed,
                           cache=LintCache.open(cache_dir, narrowed))
        assert rerun.files_reanalyzed == 2
        assert rerun.findings == ()

    def test_project_findings_survive_cached_facts(self, tmp_path):
        # Cross-module findings come from the (always re-run) project
        # pass over cached *facts* — a fully warm run must still report
        # them without re-analyzing any file.
        serve = tmp_path / "src" / "repro" / "serve"
        serve.mkdir(parents=True)
        (serve / "helper.py").write_text(
            "import time\n\n\ndef settle() -> None:\n    time.sleep(0.1)\n",
            encoding="utf-8",
        )
        (serve / "service_probe.py").write_text(
            "from repro.serve.helper import settle\n\n\n"
            "async def handle() -> None:\n    settle()\n",
            encoding="utf-8",
        )
        config = LintConfig()
        cache_dir = tmp_path / "cache"
        cold = lint_paths([str(serve)], config,
                          cache=LintCache.open(cache_dir, config))
        warm = lint_paths([str(serve)], config,
                          cache=LintCache.open(cache_dir, config))
        assert warm.files_reanalyzed == 0
        assert [f.rule_id for f in cold.findings] == ["RFP014"]
        assert warm.findings == cold.findings


class TestAutoFix:
    def test_fix_rfp004_inserts_dtype_and_is_idempotent(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "repro" / "radar" / "module.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import numpy as np\n\nbuffer = np.zeros(4)\n", encoding="utf-8"
        )
        assert lint_main([str(target)]) == 1
        assert lint_main(["--fix", str(target)]) == 0
        fixed = target.read_text(encoding="utf-8")
        assert "np.zeros(4, dtype=np.float64)" in fixed
        assert lint_main(["--fix", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == fixed

    def test_fix_rfp005_rewrites_mutable_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "module.py"
        target.write_text(
            "def collect(items=[]):\n"
            "    items.append(1)\n"
            "    return items\n",
            encoding="utf-8",
        )
        assert lint_main(["--fix", str(target)]) == 0
        fixed = target.read_text(encoding="utf-8")
        assert "items=None" in fixed
        assert "if items is None:" in fixed
        assert lint_main([str(target)]) == 0


class TestBaseline:
    def test_fingerprints_survive_line_shifts(self):
        text = (FIXTURES / "rfp006_bad.py").read_text(encoding="utf-8")
        baseline = Baseline.from_findings(
            lint_source(text, "src/repro/module.py")
        )
        shifted = "# leading comment\n" + text
        fresh = baseline.filter(lint_source(shifted, "src/repro/module.py"))
        assert fresh == []

    def test_filter_absorbs_up_to_recorded_count(self):
        findings = lint_fixture("rfp006_bad.py", "src/repro/module.py")
        partial = Baseline.from_findings(findings[:1])
        remaining = partial.filter(findings)
        assert len(remaining) == len(findings) - 1

    def test_grows_over_is_the_ratchet(self):
        small = lint_fixture("rfp006_bad.py", "src/repro/module.py")
        extra = lint_fixture("rfp001_bad.py", "src/repro/module.py")
        base = Baseline.from_findings(small)
        grown = Baseline.from_findings([*small, *extra])
        assert grown.grows_over(base) == sorted(
            {fingerprint(f) for f in extra}
        )
        assert base.grows_over(grown) == []
        assert base.grows_over(base) == []

    def test_cli_update_then_filter_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "module.py"
        target.write_text(
            (FIXTURES / "rfp006_bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        baseline_file = tmp_path / "baseline.json"
        assert lint_main(
            ["--update-baseline", str(baseline_file), str(target)]
        ) == 0
        payload = json.loads(baseline_file.read_text(encoding="utf-8"))
        assert payload["total"] >= 1
        assert lint_main(
            ["--baseline", str(baseline_file), str(target)]
        ) == 0
        assert lint_main([str(target)]) == 1

    def test_baseline_flags_mutually_exclusive(self):
        exit_code = lint_main(
            ["--baseline", "a.json", "--update-baseline", "b.json", "src"]
        )
        assert exit_code == 2

    def test_repo_ships_an_empty_baseline(self):
        payload = json.loads(
            (REPO_ROOT / ".rflint-baseline.json").read_text(encoding="utf-8")
        )
        assert payload["total"] == 0
        assert payload["findings"] == {}


class TestSarif:
    def test_sarif_document_shape(self):
        findings = lint_fixture("rfp006_bad.py", "src/repro/module.py")
        document = to_sarif(findings)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        descriptors = run["tool"]["driver"]["rules"]
        assert [rule["id"] for rule in descriptors] == RULE_IDS
        result = run["results"][0]
        assert result["ruleId"] == "RFP006"
        assert descriptors[result["ruleIndex"]]["id"] == "RFP006"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/module.py"
        assert location["region"]["startLine"] == findings[0].line

    def test_cli_sarif_output_parses(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        exit_code = lint_main(
            ["--format", "sarif", "tests/fixtures/rflint/rfp006_bad.py"]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        results = payload["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"RFP006"}


class TestEngine:
    def test_parse_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", "src/repro/module.py")
        assert [f.rule_id for f in findings] == [PARSE_ERROR_ID]

    def test_findings_are_sorted_and_serializable(self):
        findings = lint_fixture("rfp006_bad.py", "src/repro/module.py")
        assert findings == sorted(findings)
        for finding in findings:
            record = finding.to_dict()
            assert record["rule"] == "RFP006"
            assert record["line"] >= 1

    def test_unknown_select_rejected(self):
        with pytest.raises(ValueError, match="RFP999"):
            lint_paths(
                [str(FIXTURES / "rfp006_bad.py")],
                LintConfig(select=("RFP999",)),
            )

    def test_select_limits_rules(self):
        result = lint_paths(
            [str(FIXTURES / "rfp006_bad.py")], LintConfig(select=("RFP001",))
        )
        assert result.findings == ()

    def test_parallel_jobs_match_serial(self):
        paths = [
            str(FIXTURES / "rfp001_bad.py"),
            str(FIXTURES / "rfp006_bad.py"),
        ]
        serial = lint_paths(paths, LintConfig())
        parallel = lint_paths(paths, LintConfig(), jobs=2)
        assert parallel.findings == serial.findings
        assert parallel.files_checked == serial.files_checked


class TestCli:
    def test_repo_lints_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src", "tests"]) == 0

    def test_rfprotect_lint_subcommand(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert cli_main(["lint", "src", "tests"]) == 0

    def test_json_format_and_exit_code(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        exit_code = lint_main(
            ["--format", "json", "tests/fixtures/rflint/rfp006_bad.py"]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["files_reanalyzed"] == 1
        assert {f["rule"] for f in payload["findings"]} == {"RFP006"}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["no/such/dir"]) == 2
        assert "error" in capsys.readouterr().err

    def test_python_m_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "RFP001" in completed.stdout
        assert "RFP014" in completed.stdout


class TestEnvRegistry:
    def test_nn_dtype_registered(self):
        assert "RF_PROTECT_NN_DTYPE" in ENV_REGISTRY

    def test_lint_cache_knob_registered(self):
        assert "RF_PROTECT_LINT_CACHE" in ENV_REGISTRY

    def test_default_and_explicit(self):
        assert get_nn_dtype({}) == "float64"
        assert get_nn_dtype({"RF_PROTECT_NN_DTYPE": " Float32 "}) == "float32"

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigurationError, match="RF_PROTECT_NN_DTYPE"):
            get_nn_dtype({"RF_PROTECT_NN_DTYPE": "float16"})


class TestTypingGate:
    def test_mypy_strict_packages(self):
        pytest.importorskip("mypy", reason="mypy not installed")
        completed = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
