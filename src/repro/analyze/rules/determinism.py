"""Determinism rules for record-producing code.

The sweep engine promises byte-identical records for the same job across
every backend (serial, process pool, remote worker, fleet) -- that is
what makes the artifact cache content-addressable and cross-run
comparisons meaningful.  Anything executed while *producing* a record
therefore must not observe the host: no wall clocks, no process-global
RNG, no ``id()``-keyed maps or set-iteration ordering in serialized
output, no environment reads outside the documented ``REPRO_*`` knobs.

Scope: ``explore/runner.py`` (the job executor), everything transitively
imported by it (the whole simulator core a job can reach), plus
``explore/engine.py``, ``sim/statistics.py`` and the trace tier's step
loop generator (``core/tracegen.py`` -- generated code must be bit-exact
with the interpreter, so the generator is held to the same standard)
explicitly.

Rules:

- **DT001** wall-clock read (``time.time``/``monotonic``/...,
  ``datetime.now``/``utcnow``/``today``)
- **DT002** process-global ``random`` module use (a seeded
  ``random.Random(seed)`` instance is fine)
- **DT003** ``id()`` used as a mapping key (addresses differ across
  processes; membership tests against an ``id()`` *set* are fine --
  that's dedup, not ordering)
- **DT004** iteration over a set display / ``set()`` call (unordered)
- **DT005** ``os.environ`` / ``os.getenv`` read outside the ``REPRO_*``
  allowlist
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analyze import astutil
from repro.analyze.baseline import Baseline
from repro.analyze.engine import Rule
from repro.analyze.findings import Finding
from repro.analyze.project import Project

#: the job executor: everything it can reach runs while records are made
ENTRY_MODULE = "repro.explore.runner"

#: record-adjacent modules checked even when not imported by the entry;
#: the trace tier generates the record-producing hot loop, so the
#: generator itself is held to determinism discipline
EXPLICIT_MODULES = ("repro.explore.engine", "repro.sim.statistics",
                    "repro.core.tracegen")

ENV_PREFIX = "REPRO_"

_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
}

#: bare names banned when imported via ``from time import ...`` etc.
_WALL_CLOCK_FROM = {
    "time": ("time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "process_time",
             "process_time_ns"),
}


class DeterminismRule(Rule):
    name = "determinism"

    def __init__(self, entry: str = ENTRY_MODULE,
                 explicit: tuple = EXPLICIT_MODULES):
        self.entry = entry
        self.explicit = explicit

    def scope(self, project: Project) -> Set[str]:
        names = set(project.reachable_from(self.entry))
        names.update(n for n in self.explicit if n in project.modules)
        return names

    def run(self, project: Project, baseline: Baseline) -> List[Finding]:
        findings: List[Finding] = []
        for name in sorted(self.scope(project)):
            module = project.get(name)
            if module is not None:
                findings.extend(self._check_module(module))
        return findings

    # ------------------------------------------------------------------
    def _check_module(self, module) -> List[Finding]:
        findings: List[Finding] = []
        rel = module.rel
        banned_bare = self._from_import_bans(module.tree)
        id_keys = self._id_key_nodes(module.tree)
        constants = self._module_str_constants(module.tree)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(rel, node, banned_bare))
            if id(node) in id_keys:
                findings.append(Finding(
                    rule="DT003", file=rel, line=node.lineno,
                    message=("id() used as a mapping key (addresses are "
                             "not stable across processes)")))
            iter_expr = self._set_iteration(node)
            if iter_expr is not None:
                findings.append(Finding(
                    rule="DT004", file=rel, line=iter_expr.lineno,
                    message=("iteration over an unordered set (order "
                             "varies run to run; sort first)")))
            findings.extend(self._check_env(rel, node, constants))
        return findings

    def _module_str_constants(self, tree: ast.Module) -> dict:
        """Top-level ``NAME = "literal"`` bindings (env-key constants)."""
        out = {}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out[target.id] = node.value.value
        return out

    # -- DT001 / DT002 --------------------------------------------------
    def _from_import_bans(self, tree: ast.Module) -> Set[str]:
        banned: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = _WALL_CLOCK_FROM.get(node.module or "")
                if names:
                    for alias in node.names:
                        if alias.name in names:
                            banned.add(alias.asname or alias.name)
        return banned

    def _check_call(self, rel: str, node: ast.Call,
                    banned_bare: Set[str]) -> List[Finding]:
        dotted = astutil.dotted_name(node.func)
        if dotted is None:
            return []
        if dotted in _WALL_CLOCK_CALLS or dotted in banned_bare:
            return [Finding(
                rule="DT001", file=rel, line=node.lineno,
                message=(f"wall-clock read {dotted}() in a "
                         f"record-producing path"))]
        if dotted.startswith("random."):
            leaf = dotted.split(".", 1)[1]
            if leaf == "Random" and node.args:
                return []   # seeded instance: allowed
            return [Finding(
                rule="DT002", file=rel, line=node.lineno,
                message=(f"process-global {dotted}() (use a seeded "
                         f"random.Random instance carried in the job "
                         f"payload)"))]
        return []

    # -- DT003 ----------------------------------------------------------
    def _id_key_nodes(self, tree: ast.Module) -> Set[int]:
        """ast node ids of ``id(...)`` calls used as mapping keys."""
        out: Set[int] = set()

        def is_id_call(expr: ast.AST) -> bool:
            return (isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Name)
                    and expr.func.id == "id")

        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript):
                key = node.slice
                keys = key.elts if isinstance(key, ast.Tuple) else [key]
                for k in keys:
                    if is_id_call(k):
                        out.add(id(k))
            elif isinstance(node, ast.Dict):
                for k in node.keys:
                    if k is not None and is_id_call(k):
                        out.add(id(k))
            elif isinstance(node, ast.DictComp):
                if is_id_call(node.key):
                    out.add(id(node.key))
        return out

    # -- DT004 ----------------------------------------------------------
    def _set_iteration(self, node: ast.AST) -> Optional[ast.expr]:
        def is_set_expr(expr: ast.AST) -> bool:
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return True
            return (isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Name)
                    and expr.func.id in ("set", "frozenset"))

        if isinstance(node, ast.For) and is_set_expr(node.iter):
            return node.iter
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for gen in node.generators:
                if is_set_expr(gen.iter):
                    return gen.iter
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and node.args and is_set_expr(node.args[0])):
            return node.args[0]
        return None

    # -- DT005 ----------------------------------------------------------
    def _check_env(self, rel: str, node: ast.AST,
                   constants: dict) -> List[Finding]:
        key_expr: Optional[ast.AST] = None
        if isinstance(node, ast.Subscript):
            if astutil.dotted_name(node.value) == "os.environ":
                key_expr = node.slice
        elif isinstance(node, ast.Call):
            dotted = astutil.dotted_name(node.func)
            if dotted in ("os.getenv", "os.environ.get") and node.args:
                key_expr = node.args[0]
        if key_expr is None:
            return []
        key = None
        if isinstance(key_expr, ast.Constant) and isinstance(
                key_expr.value, str):
            key = key_expr.value
        elif isinstance(key_expr, ast.Name):
            key = constants.get(key_expr.id)
        if key is not None and key.startswith(ENV_PREFIX):
            return []
        if key is None:
            key = "<dynamic>"
        return [Finding(
            rule="DT005", file=rel, line=node.lineno,
            message=(f"environment read {key!r} outside the "
                     f"{ENV_PREFIX}* allowlist in a record-producing "
                     f"path"))]
