"""The schedlint determinism rules (stdlib ``ast`` only).

Every rule guards the simulator's central fidelity claim: a run is a
pure function of (workload, scheduler, seed).  Wall-clock reads,
process-global RNG state, ``id()``-keyed ordering and bare-``set``
iteration all leak host nondeterminism into the schedule; float
arithmetic on the integer-nanosecond clock trades exactness for
rounding that differs across platforms.

Rules
-----
``wall-clock``
    Call to ``time.time()`` / ``time.monotonic()`` /
    ``datetime.datetime.now()`` and friends.  Simulation code must use
    ``engine.now`` (virtual time).
``unseeded-random``
    Call into the process-global ``random`` module.  Use
    ``repro.core.rng.RandomSource`` streams (or an explicit
    ``random.Random(seed)`` instance, which is allowed).
``id-ordering``
    ``id()`` used as a sort/min/max key or as a set/dict-comprehension
    element: CPython ``id``s are allocation addresses and vary run to
    run, so any ordering or dedup built on them is nondeterministic.
``set-iteration``
    Iterating directly over a ``set`` literal / comprehension /
    ``set(...)`` call: set iteration order depends on insertion and
    hash randomization for str keys.  Sort first, or use a list/dict.
``float-ns-clock``
    Division involving an integer-nanosecond quantity (name matching
    ``*_ns``/``*nsec``/``now``), or ``float()`` applied to one.  Clock
    arithmetic must stay integral; convert to seconds only at the
    presentation layer.
``missing-slots``
    A class defined in a hot-path package (``repro/core``,
    ``repro/cfs``, ``repro/ule``, ``repro/sync``) without a
    ``__slots__`` declaration: every instance then carries a
    ``__dict__`` the engine loop allocates and hashes through
    millions of times per simulated second.  Exception/enum/Protocol
    subclasses and ``@dataclass``-decorated classes are exempt; a
    deliberately dict-backed class takes the usual
    ``# schedlint: ignore[missing-slots] -- reason`` marker or an
    allowlist entry.
``hot-loop-attr``
    A per-iteration ``self.<field>`` / ``engine.<field>`` load inside
    a loop in a ``run``-named function, where the field is one the
    engine binds once at construction (``events``, ``profiler``,
    ``scheduler``, ...).  Attribute lookup costs a dict probe per
    event; the run loop hoists these to locals before the loop, and
    this rule keeps new loop code from regressing that.  Loads in a
    ``for`` statement's iterable are evaluated once and exempt; a
    deliberate re-read (e.g. a field rebound mid-loop) takes the
    usual suppression marker.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .findings import Finding, UNUSED_SUPPRESSION, apply_markers, markers_in

#: rule id -> one-line description (the ``--list-rules`` catalog)
RULES: Dict[str, str] = {
    "wall-clock":
        "wall-clock read (time.time/monotonic/perf_counter, "
        "datetime.now) in simulation code; use engine.now",
    "unseeded-random":
        "process-global random.* call; use repro.core.rng streams "
        "or an explicit random.Random(seed)",
    "id-ordering":
        "id() used as an ordering key or set/dict element; ids are "
        "allocation addresses and vary run to run",
    "set-iteration":
        "iteration over a bare set; order depends on hash "
        "randomization — sort first or use a list/dict",
    "float-ns-clock":
        "float arithmetic on the integer-ns clock; keep clock math "
        "integral, convert to seconds only for presentation",
    "missing-slots":
        "hot-path class without __slots__; per-instance dicts cost "
        "the engine loop allocation and lookup time",
    "hot-loop-attr":
        "per-event lookup of a construction-bound engine field "
        "inside a run() loop; hoist it to a local before the loop",
}

#: the ``--dataflow`` tier rules (CFG + fixed-point analysis; see
#: the ``dataflow`` package).  The taint rules are the flow-aware
#: replacements for the three syntactic rules in
#: :data:`REPLACED_BY_DATAFLOW`.
DATAFLOW_RULES: Dict[str, str] = {
    "taint-wall-clock":
        "a host-clock read flows into an event timestamp, sort key, "
        "digest input, or RNG seed (tracked through locals, "
        "containers, and helper functions)",
    "taint-random":
        "a process-global random value flows into a "
        "schedule-affecting sink",
    "taint-env":
        "an environment read (os.environ, pid, hostname) flows into "
        "a schedule-affecting sink",
    "taint-id-order":
        "an id() value flows into an ordering sink; ids are "
        "allocation addresses and vary run to run",
    "taint-set-order":
        "set-iteration or directory-listing order flows into a "
        "schedule-affecting sink (sorted() sanitizes it)",
    "tickhook-parity":
        "a fused make_tick_hook closure is missing an accounting/"
        "parking statement from the generic Engine tick chain",
    "nonatomic-write":
        "a file write in experiments/ bypasses the tmp-write+rename "
        "idiom in repro.core.artifacts",
    "cache-rmw":
        "read-modify-write of a shared cache path without a "
        "generation/fingerprint check",
    UNUSED_SUPPRESSION:
        "a schedlint suppression marker that suppressed nothing "
        "(all rules it names were enabled in this run)",
}

#: syntactic rules the dataflow tier replaces with flow-aware versions
REPLACED_BY_DATAFLOW: Tuple[str, ...] = (
    "wall-clock", "unseeded-random", "id-ordering",
)

#: dataflow rules reported per-file by lint_source
_TAINT_RULES = ("taint-wall-clock", "taint-random", "taint-env",
                "taint-id-order", "taint-set-order")
_ATOMICITY_RULES = ("nonatomic-write", "cache-rmw")
#: dataflow rules computed across the whole file set by lint_paths
_PARITY_RULES = ("tickhook-parity",)


def effective_rules(rules: Optional[Sequence[str]],
                    dataflow: bool) -> Tuple[str, ...]:
    """The rule set a run enables.

    With ``--dataflow`` and no explicit ``--rules``, the three
    syntactic rules that have flow-aware replacements are dropped and
    the dataflow rules added; their existing per-line suppressions
    (which name the *disabled* rules) are deliberately not flagged as
    unused, so one tree stays clean under both tiers.
    """
    if rules is not None:
        return tuple(rules)
    if not dataflow:
        return tuple(RULES)
    return tuple(r for r in RULES if r not in REPLACED_BY_DATAFLOW) \
        + tuple(DATAFLOW_RULES)

#: packages whose classes live on the engine's per-event hot path —
#: the only places the missing-slots rule applies
HOT_PATH_DIRS: Tuple[str, ...] = (
    "repro/core/", "repro/cfs/", "repro/ule/", "repro/sync/",
)

#: base-class names that make __slots__ pointless or harmful:
#: exceptions carry traceback state, enums are class-level singletons,
#: Protocol/ABC are never instantiated on the hot path
_SLOTS_EXEMPT_BASES = frozenset({
    "Exception", "BaseException", "Warning", "Enum", "IntEnum",
    "Flag", "IntFlag", "StrEnum", "Protocol", "NamedTuple", "ABC",
    "TypedDict",
})

#: wall-clock entry points, fully qualified
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: paths (posix-suffix matched) where a rule is expected and allowed
DEFAULT_ALLOWLIST: Dict[str, Tuple[str, ...]] = {
    # clock.py IS the presentation-layer ns->seconds converter
    "float-ns-clock": ("repro/core/clock.py",),
    # rng.py wraps random.Random behind seeded named streams;
    # faults/plan.py derives fault plans from an explicit
    # random.Random(f"repro.faults.plan:{seed}") stream — the fault
    # RNG is seeded and private, never the process-global state
    "unseeded-random": ("repro/core/rng.py", "repro/faults/plan.py"),
    # the checkpoint journal appends one flushed line per finished
    # cell ON PURPOSE (O(1) put); a torn tail is recovered — each
    # line carries a sha256 and load() skips+compacts corrupt lines
    "nonatomic-write": ("repro/experiments/checkpoint.py",),
    # host-side process orchestration, not simulation: lease
    # heartbeat deadlines and SIGKILL/waitpid loops time *real*
    # processes — there is no engine.now to use
    "wall-clock": ("repro/experiments/shard.py",
                   "repro/faults/__main__.py"),
}

_CLOCKISH_RE = re.compile(r"(^|_)(ns|nsec)$", re.IGNORECASE)
_CLOCKISH_NAMES = frozenset({"now", "time_ns"})

#: engine fields bound once at construction and never rebound — a
#: per-iteration ``self.X``/``engine.X`` read of one of these inside
#: a run loop is a dict probe the loop pays per event for nothing.
#: Mutable per-event state (``now``, ``live_threads``, ``_stopped``,
#: ``events_processed``) is deliberately NOT here.
_HOISTABLE_FIELDS = frozenset({
    "events", "profiler", "sanitizer", "scheduler", "machine",
    "tracer", "faults", "tunables", "topology",
})

#: receiver names the hot-loop-attr rule watches
_HOISTABLE_BASES = frozenset({"self", "engine"})


def _is_run_name(name: str) -> bool:
    """Does ``name`` denote a run-loop function (``run``, ``run_*``,
    ``_run*``)?"""
    return name == "run" or name.startswith("run_") \
        or name.startswith("_run")


def _identifier(node: ast.AST) -> Optional[str]:
    """Trailing identifier of a Name/Attribute, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_clockish(node: ast.AST) -> bool:
    """Heuristic: does this expression denote an integer-ns time?"""
    name = _identifier(node)
    if name is None:
        return False
    return bool(_CLOCKISH_RE.search(name)) or name in _CLOCKISH_NAMES


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor emitting findings for all enabled rules."""

    def __init__(self, path: str, rules: Sequence[str]):
        self.path = path
        self.rules = frozenset(rules)
        self.findings: List[Finding] = []
        #: local name -> fully qualified module/attr it refers to
        self.imports: Dict[str, str] = {}
        #: per-enclosing-function state for hot-loop-attr: is the
        #: function run-named, and how many loops deep are we in it
        self._run_func: List[bool] = []
        self._loop_depth: List[int] = []

    # -- helpers -------------------------------------------------------

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if rule not in self.rules:
            return
        self.findings.append(Finding(
            path=self.path, line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0), rule=rule,
            message=message))

    def _qualified(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain through the import table.

        Only resolves when the base name was imported — attribute
        access on local objects (``self.time`` etc.) never matches.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    # -- import table --------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            qualified = alias.asname and alias.name or \
                alias.name.split(".")[0]
            self.imports[local] = qualified
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                self.imports[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    # -- missing-slots -------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._on_hot_path() and not _has_slots(node) \
                and not _slots_exempt(node):
            self._emit(node, "missing-slots",
                       f"class {node.name} has no __slots__; "
                       f"hot-path instances should not carry a "
                       f"__dict__ (add __slots__, or suppress with "
                       f"a reason if dict-backed on purpose)")
        self.generic_visit(node)

    def _on_hot_path(self) -> bool:
        posix = self.path.replace(os.sep, "/")
        return any(f"/{d}" in posix or posix.startswith(d)
                   for d in HOT_PATH_DIRS)

    # -- wall-clock / unseeded-random ----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_float_cast(node)
        qualified = self._qualified(node.func)
        if qualified is not None:
            if qualified in WALL_CLOCK_CALLS:
                self._emit(node, "wall-clock",
                           f"call to {qualified}(); simulation code "
                           f"must use engine.now")
            elif (qualified.startswith("random.")
                    and qualified != "random.Random"):
                self._emit(node, "unseeded-random",
                           f"call to {qualified}() uses process-global "
                           f"RNG state; use repro.core.rng streams")
        # id() as an explicit key= argument to sorted/min/max
        func_name = node.func.id if isinstance(node.func, ast.Name) \
            else None
        if func_name in ("sorted", "min", "max"):
            for kw in node.keywords:
                if kw.arg == "key" and self._is_id_key(kw.value):
                    self._emit(kw.value, "id-ordering",
                               f"id() used as {func_name}() key; ids "
                               f"vary run to run — key on a stable "
                               f"field (e.g. .tid)")
        # set(...)/frozenset(...) handled at iteration sites
        self.generic_visit(node)

    @staticmethod
    def _is_id_key(node: ast.AST) -> bool:
        """``key=id`` or ``key=lambda t: id(t)`` (possibly in a tuple)."""
        if isinstance(node, ast.Name) and node.id == "id":
            return True
        if isinstance(node, ast.Lambda):
            return _contains_id_call(node.body)
        return False

    # -- id-ordering in set/dict construction --------------------------

    def visit_Set(self, node: ast.Set) -> None:
        for elt in node.elts:
            if _contains_id_call(elt):
                self._emit(elt, "id-ordering",
                           "id() as a set element; dedup by a stable "
                           "field (e.g. .tid) instead")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        if _contains_id_call(node.elt):
            self._emit(node.elt, "id-ordering",
                       "id() as a set-comprehension element; dedup by "
                       "a stable field (e.g. .tid) instead")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        if _contains_id_call(node.key):
            self._emit(node.key, "id-ordering",
                       "id() as a dict-comprehension key; key on a "
                       "stable field (e.g. .tid) instead")
        self.generic_visit(node)

    # -- set-iteration -------------------------------------------------

    def _check_iter(self, iter_node: ast.AST) -> None:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            self._emit(iter_node, "set-iteration",
                       "iterating over a set literal/comprehension; "
                       "order is hash-dependent — sort first")
        elif (isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Name)
                and iter_node.func.id in ("set", "frozenset")):
            self._emit(iter_node, "set-iteration",
                       f"iterating over {iter_node.func.id}(...); "
                       f"order is hash-dependent — sort first")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        # the iterable is evaluated once, before the first iteration —
        # visit it (and the target) outside the loop-depth window
        self.visit(node.target)
        self.visit(node.iter)
        self._visit_loop_body(node.body + node.orelse)

    # async drain loops pay the same per-iteration probes; without
    # this alias their bodies were visited at loop depth 0 and
    # hot-loop-attr never fired inside them
    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    # -- hot-loop-attr -------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._run_func.append(_is_run_name(node.name))
        self._loop_depth.append(0)
        self.generic_visit(node)
        self._run_func.pop()
        self._loop_depth.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_While(self, node: ast.While) -> None:
        # the condition re-evaluates every iteration: include it
        self._visit_loop_body([node.test] + node.body + node.orelse)

    def _visit_loop_body(self, nodes: Sequence[ast.AST]) -> None:
        if self._loop_depth:
            self._loop_depth[-1] += 1
        for child in nodes:
            self.visit(child)
        if self._loop_depth:
            self._loop_depth[-1] -= 1

    @staticmethod
    def _hoistable_receiver(node: ast.AST) -> Optional[str]:
        """``self`` / ``engine`` / ``self.engine`` receivers — the
        chained form reads two dict probes per iteration, not one."""
        if isinstance(node, ast.Name) and node.id in _HOISTABLE_BASES:
            return node.id
        if (isinstance(node, ast.Attribute)
                and node.attr == "engine"
                and isinstance(node.value, ast.Name)
                and node.value.id in _HOISTABLE_BASES):
            return f"{node.value.id}.engine"
        return None

    def visit_Attribute(self, node: ast.Attribute) -> None:
        receiver = self._hoistable_receiver(node.value)
        if (self._run_func and self._run_func[-1]
                and self._loop_depth[-1] > 0
                and isinstance(node.ctx, ast.Load)
                and receiver is not None
                and node.attr in _HOISTABLE_FIELDS):
            self._emit(node, "hot-loop-attr",
                       f"{receiver}.{node.attr} read per "
                       f"iteration inside a run() loop; the field is "
                       f"bound once at construction — hoist it to a "
                       f"local before the loop")
        self.generic_visit(node)

    # -- float-ns-clock ------------------------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div):
            for side in (node.left, node.right):
                if _is_clockish(side):
                    self._emit(node, "float-ns-clock",
                               f"true division on "
                               f"'{_identifier(side)}'; use // (or "
                               f"convert at the presentation layer)")
                    break
        self.generic_visit(node)

    def _check_float_cast(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name) and node.func.id == "float"
                and node.args and _is_clockish(node.args[0])):
            self._emit(node, "float-ns-clock",
                       f"float() applied to "
                       f"'{_identifier(node.args[0])}'; keep clock "
                       f"values integral")


def _has_slots(node: ast.ClassDef) -> bool:
    """Does the class body assign ``__slots__``?"""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) \
                    and stmt.target.id == "__slots__":
                return True
    return False


def _slots_exempt(node: ast.ClassDef) -> bool:
    """Exception / enum / Protocol / NamedTuple subclasses and
    ``@dataclass`` classes are out of the rule's scope."""
    for base in node.bases:
        name = _identifier(base)
        if name is None:
            continue
        if name in _SLOTS_EXEMPT_BASES or name.endswith("Error") \
                or name.endswith("Exception") or name.endswith("Warning"):
            return True
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _identifier(target) == "dataclass":
            return True
    return False


def _contains_id_call(node: ast.AST) -> bool:
    """Does any sub-expression call the builtin ``id``?"""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"):
            return True
    return False


def _allowlisted(path: str, rule: str,
                 allowlist: Dict[str, Tuple[str, ...]]) -> bool:
    posix = path.replace(os.sep, "/")
    return any(posix.endswith(suffix)
               for suffix in allowlist.get(rule, ()))


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Sequence[str]] = None,
                allowlist: Optional[Dict[str, Tuple[str, ...]]] = None,
                dataflow: bool = False,
                extra_findings: Sequence[Finding] = (),
                ) -> List[Finding]:
    """Lint one source string; returns surviving findings, sorted.

    This is the single choke point every finding flows through:
    syntactic visitor rules, the per-file dataflow families (taint,
    atomicity), and any project-level ``extra_findings`` the caller
    computed for this file (parity, contract) — so suppression
    markers, usage tracking, and the allowlist apply uniformly.
    """
    enabled = effective_rules(rules, dataflow)
    if allowlist is None:
        allowlist = DEFAULT_ALLOWLIST
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 0,
                        col=exc.offset or 0, rule="parse-error",
                        message=f"cannot parse: {exc.msg}")]
    visitor = _RuleVisitor(path, enabled)
    visitor.visit(tree)
    findings: List[Finding] = list(visitor.findings)
    if dataflow:
        if any(r in enabled for r in _TAINT_RULES):
            from .dataflow.taint import analyze_module
            findings.extend(f for f in analyze_module(tree, path)
                            if f.rule in enabled)
        if any(r in enabled for r in _ATOMICITY_RULES):
            from .dataflow.atomicity import check_module
            findings.extend(f for f in check_module(tree, path)
                            if f.rule in enabled)
    findings.extend(f for f in extra_findings if f.rule in enabled)
    markers = markers_in(source)
    flag_unused = dataflow and UNUSED_SUPPRESSION in enabled
    filtered = apply_markers(findings, markers, frozenset(enabled),
                             path, flag_unused)
    return sorted(
        f for f in filtered
        if not _allowlisted(path, f.rule, allowlist))


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [d for d in dirnames
                               if d != "__pycache__"]
                out.extend(os.path.join(dirpath, name)
                           for name in sorted(filenames)
                           if name.endswith(".py"))
        else:
            out.append(path)
    return sorted(set(out))


def lint_paths(paths: Iterable[str],
               rules: Optional[Sequence[str]] = None,
               allowlist: Optional[Dict[str, Tuple[str, ...]]] = None,
               dataflow: bool = False,
               ) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``.

    In the dataflow tier the parity family runs here (it needs the
    whole file set: the engine's ``_tick``/``_update_curr`` define the
    contract the scheduler hooks are checked against); its findings are
    handed to ``lint_source`` per file so suppressions apply normally.
    """
    files: Dict[str, str] = {}
    for filename in iter_python_files(paths):
        with open(filename, "r") as fh:
            files[filename] = fh.read()
    enabled = effective_rules(rules, dataflow)
    parity_by_path: Dict[str, List[Finding]] = {}
    if dataflow and any(r in enabled for r in _PARITY_RULES):
        from .dataflow.parity import check_parity
        for finding in check_parity(files):
            parity_by_path.setdefault(finding.path, []).append(finding)
    findings: List[Finding] = []
    for filename, source in files.items():
        findings.extend(lint_source(
            source, path=filename, rules=rules, allowlist=allowlist,
            dataflow=dataflow,
            extra_findings=parity_by_path.get(filename, ())))
    return sorted(findings)
