"""schedlint: the determinism/contract static-analysis pass.

Per-rule fixture snippets (positive, suppressed, allowlisted), the
suppression/allowlist machinery, the SchedClass contract checker
against a deliberately incomplete subclass, the FreeBSD API mapping
checker, the CLI exit codes, and the cleanliness of the shipped tree.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.lint import (RULES, check_freebsd_api,
                                 check_sched_class, lint_paths,
                                 lint_source, main)
from repro.analysis.lint.contract import registered_sched_classes
from repro.sched.base import SchedClass

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def rules_of(findings):
    return sorted({f.rule for f in findings})


def lint(snippet, path="repro/somewhere/code.py", **kwargs):
    return lint_source(textwrap.dedent(snippet), path=path, **kwargs)


#: path a fixture must pretend to live at for its rule to apply
#: (missing-slots only fires on hot-path directories)
FIXTURE_PATH = {"missing-slots": "repro/core/code.py"}

#: a second path where the rule still applies (for allowlist tests)
FIXTURE_OTHER_PATH = {"missing-slots": "repro/cfs/code.py"}


def fixture_path(rule):
    return FIXTURE_PATH.get(rule, "repro/somewhere/code.py")


def fixture_other_path(rule):
    return FIXTURE_OTHER_PATH.get(rule, "repro/elsewhere/code.py")


# ----------------------------------------------------------------------
# rule fixtures: positive / suppressed / allowlisted
# ----------------------------------------------------------------------

#: per-rule (violating snippet, allowlist path that excuses it)
FIXTURES = {
    "wall-clock": """
        import time
        def f():
            return time.time()
        """,
    "unseeded-random": """
        import random
        def f():
            return random.randint(0, 10)
        """,
    "id-ordering": """
        def f(threads):
            return sorted(threads, key=id)
        """,
    "set-iteration": """
        def f():
            for x in {1, 2, 3}:
                print(x)
        """,
    "float-ns-clock": """
        def f(delta_ns):
            return delta_ns / 1000
        """,
    "missing-slots": """
        class HotThing:
            def __init__(self):
                self.x = 1
        """,
    "hot-loop-attr": """
        def run(self, until):
            while True:
                self.profiler.tick()
        """,
}


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_rule_positive(rule):
    findings = lint(FIXTURES[rule], path=fixture_path(rule))
    assert rules_of(findings) == [rule]
    finding = findings[0]
    assert finding.line > 0
    assert rule in finding.format()


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_rule_suppressed_inline(rule):
    snippet = textwrap.dedent(FIXTURES[rule])
    path = fixture_path(rule)
    lines = snippet.splitlines()
    # find the violating line from an unsuppressed run, mark it
    target = lint_source(snippet, path=path)[0].line
    lines[target - 1] += f"  # schedlint: ignore[{rule}] -- test"
    assert lint_source("\n".join(lines), path=path) == []


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_rule_allowlisted(rule):
    snippet = textwrap.dedent(FIXTURES[rule])
    path = fixture_path(rule)
    allow = {rule: (path,)}
    assert lint_source(snippet, path=path, allowlist=allow) == []
    # a different file is still flagged
    assert lint_source(snippet, path=fixture_other_path(rule),
                       allowlist=allow) != []


def test_every_rule_has_a_fixture():
    assert sorted(FIXTURES) == sorted(RULES)


# ----------------------------------------------------------------------
# individual rule details
# ----------------------------------------------------------------------

def test_wall_clock_variants_flagged():
    findings = lint("""
        import time
        from datetime import datetime
        def f():
            a = time.monotonic()
            b = time.perf_counter_ns()
            c = datetime.now()
            return a, b, c
        """)
    assert rules_of(findings) == ["wall-clock"]
    assert len(findings) == 3


def test_wall_clock_local_attribute_not_flagged():
    # attribute access on local objects must not resolve via the
    # import table ("self.time" is not the time module)
    assert lint("""
        def f(self):
            return self.time()
        """) == []


def test_engine_now_not_flagged():
    assert lint("""
        def f(engine):
            return engine.now
        """) == []


def test_random_random_instance_allowed():
    findings = lint("""
        import random
        def f(seed):
            rng = random.Random(seed)
            return rng.random() + random.random()
        """)
    # the module-level call is flagged, the seeded instance is not
    assert len(findings) == 1
    assert findings[0].rule == "unseeded-random"


def test_id_ordering_lambda_key_and_set_comp():
    findings = lint("""
        def f(threads):
            seen = {id(t) for t in threads}
            worst = max(threads, key=lambda t: id(t))
            return seen, worst
        """)
    assert rules_of(findings) == ["id-ordering"]
    assert len(findings) == 2


def test_stable_key_not_flagged():
    assert lint("""
        def f(threads):
            seen = {t.tid for t in threads}
            return sorted(threads, key=lambda t: t.tid)
        """) == []


def test_set_iteration_call_and_comprehension():
    findings = lint("""
        def f(xs):
            out = [x for x in set(xs)]
            for y in {x + 1 for x in xs}:
                out.append(y)
            return out
        """)
    assert rules_of(findings) == ["set-iteration"]
    assert len(findings) == 2


def test_sorted_set_not_flagged():
    assert lint("""
        def f(xs):
            for x in sorted(set(xs)):
                print(x)
        """) == []


def test_float_ns_floor_division_not_flagged():
    assert lint("""
        def f(delta_ns):
            return delta_ns // 1000
        """) == []


def test_float_cast_of_clock_flagged():
    findings = lint("""
        def f(now):
            return float(now)
        """)
    assert rules_of(findings) == ["float-ns-clock"]


def test_missing_slots_only_fires_on_hot_paths():
    snippet = """
        class Thing:
            def __init__(self):
                self.x = 1
        """
    assert lint(snippet, path="repro/workloads/code.py") == []
    assert rules_of(lint(snippet, path="repro/ule/code.py")) == \
        ["missing-slots"]


def test_missing_slots_satisfied_by_slots():
    assert lint("""
        class Thing:
            __slots__ = ("x",)

            def __init__(self):
                self.x = 1
        """, path="repro/core/code.py") == []


def test_missing_slots_exemptions():
    # exception types, enums, and dataclasses are dict-backed on
    # purpose and must not be flagged
    assert lint("""
        import enum
        from dataclasses import dataclass

        class BadThing(Exception):
            pass

        class WorseThing(TimelineError):
            pass

        class Mode(enum.Enum):
            A = 1

        @dataclass
        class Record:
            x: int = 0
        """, path="repro/core/code.py") == []


def test_hot_loop_attr_condition_and_body_both_flagged():
    # the while-condition re-evaluates per iteration just like the
    # body; engine.<field> receivers count the same as self.<field>
    findings = lint("""
        def run(engine, until):
            while engine.events:
                engine.profiler.account(1)
        """)
    assert rules_of(findings) == ["hot-loop-attr"]
    assert len(findings) == 2


def test_hot_loop_attr_hoisted_loop_is_clean():
    # the shape the engine's own run loops use: bind once, loop on
    # the local — nothing to flag
    assert lint("""
        def run(self, until):
            events = self.events
            profiler = self.profiler
            while events:
                profiler.account(events.pop())
        """) == []


def test_hot_loop_attr_only_in_run_named_functions():
    assert lint("""
        def drain(self):
            while self.events:
                self.events.pop()
        """) == []
    assert rules_of(lint("""
        def _run_loop(self):
            while self.events:
                pass
        """)) == ["hot-loop-attr"]


def test_hot_loop_attr_for_iterable_and_stores_exempt():
    # a for statement's iterable is evaluated once (not per
    # iteration) and rebinding the field is a store, not a lookup
    assert lint("""
        def run(self):
            for event in self.events:
                self.now = event.time
            while True:
                self.scheduler = None
        """) == []


def test_hot_loop_attr_nested_function_resets_scope():
    # a closure defined inside run() is not itself a run loop, and a
    # run() nested deeper is scoped to its own loops only
    assert lint("""
        def run(self):
            def behavior(ctx):
                while True:
                    yield ctx.self_check(self.events)
            return behavior
        """) == []


def test_hot_loop_attr_mutable_fields_not_flagged():
    # per-event engine state legitimately re-reads inside the loop
    assert lint("""
        def run(self, until):
            while not self._stopped:
                self.events_processed += 1
                t = self.now
        """) == []


def test_comment_line_marker_covers_next_line():
    assert lint("""
        import time
        def f():
            # schedlint: ignore[wall-clock] -- reason
            return time.time()
        """) == []


def test_suppression_wrong_rule_does_not_hide():
    findings = lint("""
        import time
        def f():
            return time.time()  # schedlint: ignore[set-iteration]
        """)
    assert rules_of(findings) == ["wall-clock"]


def test_bare_ignore_suppresses_all_rules():
    assert lint("""
        import time
        def f():
            return time.time()  # schedlint: ignore
        """) == []


def test_parse_error_reported_as_finding():
    findings = lint("def f(:\n")
    assert rules_of(findings) == ["parse-error"]


# ----------------------------------------------------------------------
# contract checker
# ----------------------------------------------------------------------

class IncompleteScheduler(SchedClass):
    """Deliberately broken: missing hooks, wrong signature, no name."""

    # note: no `name` override
    def init_core(self, core):
        return []

    def enqueue_task(self, core, thread):  # missing `flags`
        pass

    def pick_next(self, core):
        return None

    # dequeue_task / select_task_rq / runnable_threads not overridden


class CompleteScheduler(SchedClass):
    """Minimal but contract-clean scheduler."""

    name = "test-complete"

    def init_core(self, core):
        return []

    def enqueue_task(self, core, thread, flags):
        core.rq.append(thread)

    def dequeue_task(self, core, thread, flags):
        core.rq.remove(thread)

    def pick_next(self, core):
        return core.rq[0] if core.rq else None

    def select_task_rq(self, thread, flags, waker=None):
        return 0

    def runnable_threads(self, core):
        return list(core.rq)


def test_incomplete_scheduler_flagged():
    findings = check_sched_class(IncompleteScheduler)
    by_rule = {}
    for f in findings:
        by_rule.setdefault(f.rule, []).append(f)
    # three abstract hooks not overridden
    missing = " ".join(f.message for f in by_rule["contract-missing-hook"])
    for hook in ("dequeue_task", "select_task_rq", "runnable_threads"):
        assert hook in missing
    # enqueue_task dropped the flags parameter
    assert any("enqueue_task" in f.message
               for f in by_rule["contract-signature"])
    assert "contract-name" in by_rule


def test_complete_scheduler_clean():
    assert check_sched_class(CompleteScheduler) == []


def test_extra_defaulted_params_are_compatible():
    class Extended(CompleteScheduler):
        name = "test-extended"

        def enqueue_task(self, core, thread, flags, boost=False):
            pass

    assert check_sched_class(Extended) == []


def test_registered_classes_exclude_test_fixtures():
    classes = registered_sched_classes()
    assert classes, "builtin schedulers must be registered"
    assert all(c.__module__.startswith("repro.") for c in classes)
    assert IncompleteScheduler not in classes


def test_registered_builtin_schedulers_are_contract_clean():
    for cls in registered_sched_classes():
        assert check_sched_class(cls) == [], cls


# ----------------------------------------------------------------------
# FreeBSD API mapping checker
# ----------------------------------------------------------------------

def test_shipped_freebsd_api_clean():
    assert check_freebsd_api() == []


def test_freebsd_api_wrong_hook_detected():
    source = textwrap.dedent("""
        class FreeBSDSchedAdapter:
            def __init__(self, sched):
                self._sched = sched

            def sched_add(self, core, thread):
                self._sched.enqueue_task(core, thread, 0)

            def sched_wakeup(self, core, thread):
                self._sched.enqueue_task(core, thread, 1)

            def sched_rem(self, core, thread):
                self._sched.enqueue_task(core, thread, 0)  # wrong hook

            def sched_relinquish(self, core):
                self._sched.yield_task(core)

            def sched_choose(self, core):
                return self._sched.pick_next(core)

            def sched_switch(self, core, thread, delta_ns=0):
                self._sched.update_curr(core, thread, delta_ns)

            def sched_pickcpu(self, thread, waking=True, waker=None):
                return self._sched.select_task_rq(thread, 0, waker)
        """)
    findings = check_freebsd_api(source=source, path="fixture.py")
    assert any(f.rule == "freebsd-api-mapping"
               and "sched_rem" in f.message for f in findings)


def test_freebsd_api_missing_and_unmapped_detected():
    source = textwrap.dedent("""
        class FreeBSDSchedAdapter:
            def __init__(self, sched):
                self._sched = sched

            def sched_preempt(self, core):
                self._sched.pick_next(core)
        """)
    findings = check_freebsd_api(source=source, path="fixture.py")
    rules = rules_of(findings)
    assert "freebsd-api-missing" in rules
    assert "freebsd-api-unmapped" in rules


# ----------------------------------------------------------------------
# CLI: exit codes, JSON report, repo cleanliness
# ----------------------------------------------------------------------

def test_repo_tree_is_clean():
    """The shipped src/repro tree must lint clean (exit code 0)."""
    assert main([os.path.join(SRC_ROOT, "repro")]) == 0


def test_fixture_tree_with_all_rules_fails(tmp_path, capsys):
    """A tree with one violation of each rule exits nonzero and
    reports every rule."""
    tree = tmp_path / "pkg"
    tree.mkdir()
    for rule, snippet in FIXTURES.items():
        name = rule.replace("-", "_") + ".py"
        # path-gated rules need their fixture under a matching subdir
        subdir = tree / os.path.dirname(fixture_path(rule))
        subdir.mkdir(parents=True, exist_ok=True)
        (subdir / name).write_text(textwrap.dedent(snippet))
    code = main(["--no-contract", str(tree)])
    assert code == 1
    out = capsys.readouterr().out
    for rule in FIXTURES:
        assert rule in out


def test_json_report(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "bad.py").write_text("import time\nt = time.time()\n")
    report_file = tmp_path / "report.json"
    code = main(["--no-contract", "--json", str(report_file),
                 str(tree)])
    assert code == 1
    report = json.loads(report_file.read_text())
    assert report["tool"] == "schedlint"
    assert report["clean"] is False
    assert report["counts"] == {"wall-clock": 1}
    (entry,) = report["findings"]
    assert entry["rule"] == "wall-clock"
    assert entry["line"] == 2


def test_unknown_rule_is_usage_error(capsys):
    assert main(["--rules", "no-such-rule"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_module_entry_point():
    """`python -m repro.analysis.lint` works and exits 0 on the repo."""
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_lint_paths_walks_directories(tmp_path):
    pkg = tmp_path / "pkg"
    sub = pkg / "sub"
    sub.mkdir(parents=True)
    (pkg / "ok.py").write_text("x = 1\n")
    (sub / "bad.py").write_text("import time\nt = time.time()\n")
    findings = lint_paths([str(pkg)])
    assert len(findings) == 1
    assert findings[0].path.endswith("bad.py")


# ----------------------------------------------------------------------
# suppression v2: file scope + unused-marker hygiene
# ----------------------------------------------------------------------

WALL_CLOCK_MOD = (
    '"""doc."""\n'
    '{marker}'
    'import time\n'
    'def f():\n'
    '    return time.time()\n')


def test_file_ignore_suppresses_named_rule_across_module():
    src = WALL_CLOCK_MOD.format(
        marker="# schedlint: file-ignore[wall-clock] -- test\n")
    assert lint_source(src, path="repro/x.py") == []


def test_file_ignore_below_docstring_region_is_inert():
    src = ('"""doc."""\n'
           'import time\n'
           '# schedlint: file-ignore[wall-clock] -- too late\n'
           'def f():\n'
           '    return time.time()\n')
    assert rules_of(lint_source(src, path="repro/x.py")) == \
        ["wall-clock"]
    # ... and the dataflow tier calls the misplacement out
    flagged = lint_source(src, path="repro/x.py", dataflow=True)
    assert any(f.rule == "unused-suppression"
               and "outside the module docstring region" in f.message
               for f in flagged)


def test_bare_file_ignore_is_never_honored():
    src = WALL_CLOCK_MOD.format(
        marker="# schedlint: file-ignore -- blanket\n")
    assert rules_of(lint_source(src, path="repro/x.py")) == \
        ["wall-clock"]
    flagged = lint_source(src, path="repro/x.py", dataflow=True)
    assert any(f.rule == "unused-suppression"
               and "explicit rules" in f.message for f in flagged)


def test_unused_line_marker_flagged_only_in_dataflow_tier():
    src = ('"""doc."""\n'
           'X = 1  # schedlint: ignore[set-iteration] -- stale\n')
    assert lint_source(src, path="repro/x.py") == []
    flagged = lint_source(src, path="repro/x.py", dataflow=True)
    assert rules_of(flagged) == ["unused-suppression"]
    assert "suppressed nothing" in flagged[0].message


def test_other_tier_markers_not_flagged_as_unused():
    # wall-clock is replaced (disabled) under --dataflow: a marker
    # naming it may be load-bearing for the basic tier and must
    # survive a dataflow run untouched
    src = ('"""doc."""\n'
           'import time\n'
           'def f():\n'
           '    return time.time()  '
           '# schedlint: ignore[wall-clock] -- intentional\n')
    assert lint_source(src, path="repro/x.py") == []
    assert lint_source(src, path="repro/x.py", dataflow=True) == []


def test_used_marker_not_flagged_in_dataflow_tier():
    src = ('"""doc."""\n'
           'def f():\n'
           '    for x in {1, 2}:  '
           '# schedlint: ignore[set-iteration] -- bounded\n'
           '        print(x)\n')
    assert lint_source(src, path="repro/x.py", dataflow=True) == []


def test_marker_text_inside_docstring_is_inert():
    # marker *examples* in documentation must neither suppress nor
    # count as stale markers (they are strings, not comments)
    src = ('"""Suppress with\n'
           '# schedlint: ignore[wall-clock] -- reason\n'
           'or file-wide with\n'
           '# schedlint: file-ignore[wall-clock] -- reason\n'
           '"""\n'
           'import time\n'
           'def f():\n'
           '    return time.time()\n')
    assert rules_of(lint_source(src, path="repro/x.py")) == \
        ["wall-clock"]
    flagged = lint_source(src, path="repro/x.py", dataflow=True)
    assert "unused-suppression" not in rules_of(flagged)


# ----------------------------------------------------------------------
# hot-loop-attr regressions: async loops and chained receivers
# ----------------------------------------------------------------------

def test_hot_loop_attr_async_for_flagged():
    findings = lint("""
        async def run(self):
            async for item in self.inbox:
                self.profiler.tick()
        """)
    assert rules_of(findings) == ["hot-loop-attr"]


def test_hot_loop_attr_chained_engine_receiver_flagged():
    findings = lint("""
        def run(self, until):
            while True:
                self.engine.events.pop()
        """)
    assert rules_of(findings) == ["hot-loop-attr"]
    assert "self.engine.events" in findings[0].message


def test_hot_loop_attr_unrelated_chain_not_flagged():
    findings = lint("""
        def run(self, until):
            while True:
                self.core.events.pop()
        """)
    assert findings == []
