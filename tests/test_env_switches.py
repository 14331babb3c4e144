"""The ``REPRO_*`` environment switches.

* Every on/off switch parses the same way (``repro.core.engine
  .env_flag``): unset or blank gives the switch's default, ``0`` /
  ``false`` / ``no`` / ``off`` in any case and with surrounding
  whitespace turn it off, anything else turns it on.
* Every switch the program reads has a row in the "Environment
  switches" table of docs/performance.md saying what it selects and
  what justifies it, and the table lists no switch that is gone.
"""

import ast
import re
import warnings
from pathlib import Path

import pytest

from repro.core.engine import Engine
from repro.core.errors import SchedulerError
from repro.core.topology import smp
from repro.experiments import base
from repro.sched import scheduler_factory
from repro.sched.registry import register_scheduler, unregister_scheduler

ROOT = Path(__file__).resolve().parents[1]

#: (raw value, on?) — None means "the switch's default"
VALUES = [("", None), ("0", False), ("off", False), ("OFF", False),
          (" 0 ", False), ("no", False), ("false", False), ("1", True),
          ("yes", True)]


def _engine():
    return Engine(smp(1), scheduler_factory("fifo"))


def _strict():
    register_scheduler("env-switch-probe", lambda engine: None)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            register_scheduler("env-switch-probe", lambda engine: None)
    except SchedulerError:
        return True
    finally:
        unregister_scheduler("env-switch-probe")
    return False


#: switch -> (default, probe returning whether it is on)
SWITCHES = {
    "REPRO_SANITIZE": (False, lambda: _engine().sanitizer is not None),
    "REPRO_PROFILE": (False, lambda: _engine().profiler is not None),
    "REPRO_TICK_LANE": (True, lambda: _engine()._lane is not None),
    "REPRO_WARM_ENGINES": (False, base._warm_enabled),
    "REPRO_SCHED_STRICT": (False, _strict),
}


@pytest.mark.parametrize("value,on", VALUES,
                         ids=[repr(v) for v, _ in VALUES])
@pytest.mark.parametrize("name", sorted(SWITCHES))
def test_switch_parsing(monkeypatch, name, value, on):
    default, probe = SWITCHES[name]
    monkeypatch.setenv(name, value)
    assert probe() is (default if on is None else on)


def _switches_read():
    """Every ``REPRO_*`` name that appears as a string literal in the
    program (the names ``os.environ`` / ``env_flag`` are called with)."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and re.fullmatch(r"REPRO_[A-Z_]+", node.value):
                names.add(node.value)
    return names


def _documented_switches():
    """``{name: row cells}`` from the Environment switches table."""
    text = (ROOT / "docs" / "performance.md").read_text(encoding="utf-8")
    section = text.split("## Environment switches", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"\|\s*`(REPRO_[A-Z_]+)`\s*\|(.*)\|\s*$", line)
        if match:
            rows[match.group(1)] = [cell.strip()
                                    for cell in match.group(2).split("|")]
    return rows


def test_every_switch_read_is_documented_and_justified():
    read = _switches_read()
    rows = _documented_switches()
    assert read, "no REPRO_* switch found; is the scan broken?"
    assert sorted(read - set(rows)) == [], \
        "switches read but missing from docs/performance.md"
    assert sorted(set(rows) - read) == [], \
        "docs/performance.md lists switches nothing reads"
    for name, cells in rows.items():
        assert len(cells) == 3 and all(cells), \
            f"{name}: need default, what it selects, and its justification"
