"""Tests for the AST invariant checkers (repro.lint).

Fixture snippets are written into a temporary tree whose layout mirrors
the repo (``repro/engine/loop.py`` …) because rule scoping matches path
suffixes — so a snippet lands exactly in the scope the production file
would.  Each rule gets positive, negative, suppressed and aliased-import
cases; on top of that the linter must be byte-deterministic across runs
and path orderings, and must run clean over the real ``src/repro`` tree
(the self-lint gate that ``make lint`` enforces in CI).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lint import RULES, collect_files, run_lint


def _write(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _findings(root: Path, rel: str, source: str, rule=None):
    path = _write(root, rel, source)
    report = run_lint(paths=[path], rules=[rule] if rule else None)
    return report.findings


#: repo-relative location of the real source tree (for self-lint)
SRC = Path(repro.__file__).resolve().parent


# ---------------------------------------------------------------------------
# Registry / framework
# ---------------------------------------------------------------------------


class TestFramework:
    def test_all_five_rules_registered(self):
        assert set(RULES) == {
            "hotpath-exact", "exact-no-float", "derived-identity",
            "worker-safe", "observer-threaded",
        }
        for rule in RULES.values():
            assert rule.description

    def test_unknown_rule_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown lint rule"):
            run_lint(paths=[tmp_path], rules=["nope"])

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            run_lint(paths=[tmp_path / "ghost"])

    def test_non_python_file_raises(self, tmp_path):
        path = tmp_path / "notes.md"
        path.write_text("hello")
        with pytest.raises(ValueError, match="not a Python file"):
            run_lint(paths=[path])

    def test_caches_are_skipped(self, tmp_path):
        _write(tmp_path, "pkg/good.py", "x = 1\n")
        _write(tmp_path, "pkg/__pycache__/bad.py", "import fractions\n")
        _write(tmp_path, ".repro-cache/sweeps/bad.py", "import uuid\n")
        files = collect_files([tmp_path])
        assert [p.name for p in files] == ["good.py"]

    def test_syntax_error_is_a_finding(self, tmp_path):
        findings = _findings(tmp_path, "broken.py", "def f(:\n")
        assert len(findings) == 1
        assert findings[0].rule == "syntax"
        assert findings[0].line == 1

    def test_dedupe_overlapping_paths(self, tmp_path):
        path = _write(tmp_path, "repro/engine/loop.py", "import fractions\n")
        report = run_lint(paths=[tmp_path, path, tmp_path])
        assert len(report.findings) == 1


# ---------------------------------------------------------------------------
# hotpath-exact
# ---------------------------------------------------------------------------


class TestHotpathExact:
    def test_plain_import_caught(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/engine/loop.py", "import fractions\n",
            rule="hotpath-exact",
        )
        assert [f.line for f in findings] == [1]
        assert "fractions" in findings[0].message

    def test_aliased_and_from_imports_caught(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/engine/state.py",
            """\
            import fractions as fr
            from fractions import Fraction as F
            from decimal import Decimal
            """,
            rule="hotpath-exact",
        )
        assert [f.line for f in findings] == [1, 2, 3]

    def test_bare_name_and_attribute_caught(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/engine/policies.py",
            """\
            def f(ctx):
                return ctx.Fraction(1, 2)

            def g(Fraction):
                return Fraction(1)
            """,
            rule="hotpath-exact",
        )
        assert [f.line for f in findings] == [2, 5]

    def test_comments_and_docstrings_ignored(self, tmp_path):
        # the old grep false-positived on exactly this
        findings = _findings(
            tmp_path, "repro/engine/loop.py",
            '''\
            """Backend-generic: no Fraction arithmetic in here."""
            # Fraction work belongs in the fractions backend
            x = 1
            ''',
            rule="hotpath-exact",
        )
        assert findings == []

    def test_out_of_scope_file_ignored(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/engine/backends/fraction.py",
            "from fractions import Fraction\n",
            rule="hotpath-exact",
        )
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/engine/loop.py",
            "import fractions  # lint: ok-hotpath-exact justified here\n",
            rule="hotpath-exact",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# exact-no-float
# ---------------------------------------------------------------------------


class TestExactNoFloat:
    def test_literals_conversions_and_math(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/core/residual.py",
            """\
            import math
            x = 0.5
            y = float(x)
            z = math.sqrt(2)
            eps = 1e-9
            """,
            rule="exact-no-float",
        )
        assert [f.line for f in findings] == [2, 3, 4, 5]

    def test_from_math_import_floating(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/engine/backends/newint.py",
            "from math import ceil\n",
            rule="exact-no-float",
        )
        assert [f.line for f in findings] == [1]

    def test_integer_math_allowed(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/engine/backends/newint.py",
            """\
            import math
            d = math.lcm(4, 6)
            g = math.gcd(d, 9)
            n = 10 ** 6
            """,
            rule="exact-no-float",
        )
        assert findings == []

    def test_out_of_scope_file_ignored(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/analysis/tables.py", "x = 0.5\n",
            rule="exact-no-float",
        )
        assert findings == []

    def test_file_level_suppression(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/core/lp.py",
            """\
            # lint: ok-exact-no-float file — float LP by design
            x = 0.5
            y = float(x)
            """,
            rule="exact-no-float",
        )
        assert findings == []

    def test_float_annotation_is_not_a_finding(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/core/typed.py",
            "def f(x: float) -> float:\n    return x\n",
            rule="exact-no-float",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# derived-identity
# ---------------------------------------------------------------------------


class TestDerivedIdentity:
    def test_clock_pid_uuid_random_id(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/obs/spans.py",
            """\
            import os
            import random
            import time
            import uuid

            def span_id(obj):
                return (
                    time.time(),
                    os.getpid(),
                    uuid.uuid4(),
                    random.random(),
                    id(obj),
                )
            """,
            rule="derived-identity",
        )
        assert [f.line for f in findings] == [4, 8, 9, 10, 11, 12]

    def test_aliased_clock_caught(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/sweep/spec.py",
            """\
            import time as clock
            t = clock.monotonic()
            """,
            rule="derived-identity",
        )
        assert [f.line for f in findings] == [2]

    def test_from_import_clock_caught(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/sweep/store.py",
            """\
            from time import perf_counter
            t = perf_counter()
            """,
            rule="derived-identity",
        )
        assert [f.line for f in findings] == [1, 2]

    def test_datetime_now_caught(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/obs/spans.py",
            """\
            import datetime
            from datetime import datetime as dt
            a = datetime.datetime.now()
            b = dt.utcnow()
            """,
            rule="derived-identity",
        )
        assert [f.line for f in findings] == [3, 4]

    def test_seeded_random_and_hashing_allowed(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/sweep/spec.py",
            """\
            import hashlib
            from random import Random

            def key(text, seed):
                rng = Random(seed)
                return hashlib.sha256(text.encode()).hexdigest(), rng
            """,
            rule="derived-identity",
        )
        assert findings == []

    def test_out_of_scope_file_ignored(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/perf/faultsweep.py",
            "import time\nt = time.time()\n",
            rule="derived-identity",
        )
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/sweep/store.py",
            "import os\np = os.getpid()  # lint: ok-derived-identity tmp name\n",
            rule="derived-identity",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# worker-safe
# ---------------------------------------------------------------------------


class TestWorkerSafe:
    def test_lambda_direct(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/analysis/newsweep.py",
            "out = parallel_map(lambda x: x * 2, items)\n",
            rule="worker-safe",
        )
        assert [f.line for f in findings] == [1]
        assert "lambda" in findings[0].message

    def test_lambda_assigned_name(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/analysis/newsweep.py",
            """\
            double = lambda x: x * 2
            out = parallel_map(double, items)
            """,
            rule="worker-safe",
        )
        assert [f.line for f in findings] == [2]

    def test_local_def_passed(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/analysis/newsweep.py",
            """\
            def sweep(items):
                def worker(item):
                    return item * 2
                return parallel_map(worker, items)
            """,
            rule="worker-safe",
        )
        assert [f.line for f in findings] == [4]
        assert "'worker'" in findings[0].message

    def test_run_point_positional_and_keyword(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/perf/newbench.py",
            """\
            a = SweepSpec.from_points("s", lambda p: p, [{"x": 1}])
            b = SweepSpec.from_axes("s", run_point=lambda p: p, axes={})
            c = SweepSpec(name="s", run_point=lambda p: p)
            """,
            rule="worker-safe",
        )
        assert [f.line for f in findings] == [1, 2, 3]

    def test_pool_map_checked_builtin_map_not(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/service/newdaemon.py",
            """\
            def worker(item):
                return item

            class Daemon:
                def start(self):
                    self._pool = WorkerPool(2)

                def handle(self, items):
                    return self._pool.map(lambda x: x, items)

            def sweep(items, shared: WorkerPool):
                def local(item):
                    return item
                with open_pool(len(items)) as pool:
                    pool.map(local, items)
                    pool.map(worker, items)
                shared.map(fn=lambda x: x, items=items)
                WorkerPool(1).map(local, items)
                squares = list(map(lambda x: x * x, items))
                return executor.map(lambda x: x, items)
            """,
            rule="worker-safe",
        )
        assert [f.line for f in findings] == [9, 15, 17, 18]
        assert "map()" in findings[0].message

    def test_module_level_function_ok(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/analysis/newsweep.py",
            """\
            def worker(item):
                return item * 2

            def sweep(items):
                return parallel_map(worker, items)

            spec = SweepSpec.from_points("s", worker, [{"x": 1}])
            """,
            rule="worker-safe",
        )
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/analysis/newsweep.py",
            """\
            def sweep(items):
                def worker(item):
                    return item
                return parallel_map(worker, items)  # lint: ok-worker-safe serial
            """,
            rule="worker-safe",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# observer-threaded
# ---------------------------------------------------------------------------


class TestObserverThreaded:
    def test_missing_observer_param(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/tasks/baselines.py",
            """\
            def schedule_tasks_fifo(instance):
                return run(instance)
            """,
            rule="observer-threaded",
        )
        assert [f.line for f in findings] == [1]
        assert "must accept observer=" in findings[0].message

    def test_accepts_but_never_forwards(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/online/scheduler.py",
            """\
            def solve_online(instance, observer=None):
                return run(instance)
            """,
            rule="observer-threaded",
        )
        assert [f.line for f in findings] == [1]
        assert "never forwards" in findings[0].message

    def test_threaded_entry_point_ok(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/assigned/scheduler.py",
            """\
            def schedule_assigned(instance, observer=None):
                return run(instance, observer=observer)

            def solve_assigned(instance, *, observer=None):
                obs = setup_observer(observer)
                return run(instance, obs)
            """,
            rule="observer-threaded",
        )
        assert findings == []

    def test_private_and_unrelated_functions_ignored(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/tasks/scheduler.py",
            """\
            def _schedule_half(tasks):
                return tasks

            def make_taskset(seed):
                return seed

            def render_schedule(schedule):
                return str(schedule)
            """,
            rule="observer-threaded",
        )
        assert findings == []

    def test_out_of_scope_file_ignored(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/exact/milp.py",
            "def solve_exact(instance):\n    return 0\n",
            rule="observer-threaded",
        )
        assert findings == []

    def test_suppression_on_def_line(self, tmp_path):
        findings = _findings(
            tmp_path, "repro/tasks/baselines.py",
            """\
            def schedule_tasks_offline(instance):  # lint: ok-observer-threaded no engine
                return instance
            """,
            rule="observer-threaded",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def _violation_tree(root: Path):
    a = _write(root, "repro/engine/loop.py", "import fractions\n")
    b = _write(root, "repro/obs/spans.py", "import time\nt = time.time()\n")
    c = _write(
        root, "repro/core/resid.py", "x = 0.5\ny = float(x)\n"
    )
    return [a, b, c]


class TestDeterminism:
    def test_byte_identical_across_runs_and_orderings(self, tmp_path):
        paths = _violation_tree(tmp_path)
        first = run_lint(paths=paths).render_text()
        again = run_lint(paths=list(reversed(paths))).render_text()
        third = run_lint(paths=[tmp_path]).render_text()
        assert first == again == third
        assert first.count("\n") >= 3

    def test_json_report_is_canonical(self, tmp_path):
        paths = _violation_tree(tmp_path)
        one = json.dumps(
            run_lint(paths=paths).to_jsonable(), sort_keys=True
        )
        two = json.dumps(
            run_lint(paths=list(reversed(paths))).to_jsonable(),
            sort_keys=True,
        )
        assert one == two

    def test_findings_sorted(self, tmp_path):
        findings = run_lint(paths=[tmp_path]) if False else run_lint(
            paths=_violation_tree(tmp_path)
        ).findings
        assert findings == sorted(findings, key=lambda f: f.sort_key())


# ---------------------------------------------------------------------------
# Self-lint and seeded violations on the real tree (acceptance criteria)
# ---------------------------------------------------------------------------


class TestSelfLint:
    def test_real_tree_is_clean(self):
        report = run_lint(paths=[SRC])
        assert report.ok, report.render_text()
        assert report.n_files > 100

    def test_seeded_violations_in_real_modules(self, tmp_path):
        """Copy real hot-path/identity modules, seed one violation each,
        and require a correct file:line finding plus exit 1 via the CLI."""
        seeded = {
            "repro/engine/loop.py": "from fractions import Fraction\n",
            "repro/obs/spans.py": "import time\nNOW = time.time()\n",
            "repro/core/state.py": "EPS = 1e-9\n",
            "repro/sweep/runner.py":
                "rows = parallel_map(lambda p: p, [1, 2, 3])\n",
            "repro/tasks/scheduler.py":
                "def schedule_tasks_new(instance):\n    return instance\n",
        }
        expected_rules = {
            "repro/engine/loop.py": "hotpath-exact",
            "repro/obs/spans.py": "derived-identity",
            "repro/core/state.py": "exact-no-float",
            "repro/sweep/runner.py": "worker-safe",
            "repro/tasks/scheduler.py": "observer-threaded",
        }
        for rel, extra in seeded.items():
            original = (SRC.parent / rel).read_text(encoding="utf-8")
            lines = original.count("\n")
            path = _write(tmp_path, rel, "")
            path.write_text(original + extra, encoding="utf-8")
            report = run_lint(paths=[path])
            assert not report.ok, rel
            rules = {f.rule for f in report.findings}
            assert expected_rules[rel] in rules, (rel, rules)
            # the seeded line is after the original content
            assert all(f.line > lines for f in report.findings), rel
            assert main(["lint", str(path)]) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_exit_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "repro/clean.py", "x = 1\n")
        assert main(["lint", str(path)]) == 0
        assert "lint: OK" in capsys.readouterr().out

    def test_findings_exit_one_with_location(self, tmp_path, capsys):
        path = _write(tmp_path, "repro/engine/loop.py", "import fractions\n")
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path.resolve()}" in out or "loop.py:1:1" in out
        assert "hotpath-exact" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rule", "bogus"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "definitely/not/here"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        path = _write(tmp_path, "repro/engine/loop.py", "import fractions\n")
        assert main(["lint", "--json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files"] == 1
        assert payload["findings"][0]["rule"] == "hotpath-exact"
        assert payload["findings"][0]["line"] == 1

    def test_rule_filter(self, tmp_path, capsys):
        path = _write(
            tmp_path, "repro/engine/loop.py",
            "import fractions\nimport time\nt = time.time()\n",
        )
        assert main(["lint", "--rule", "derived-identity", str(path)]) == 0
        capsys.readouterr()

    def test_default_paths_from_repo_root(self, monkeypatch, capsys):
        repo_root = SRC.parent.parent
        assert (repo_root / "src" / "repro").is_dir()
        monkeypatch.chdir(repo_root)
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "lint: OK" in out
