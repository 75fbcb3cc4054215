"""Lock-discipline rules for the concurrent modules.

- **LD001** -- within each lock-bearing class, the set of private
  ``self._*`` attributes accessed inside ``with self._lock:`` blocks is
  inferred to be *guarded*; any access to a guarded attribute outside a
  lock context (and outside ``__init__`` / ``*_locked`` helpers, which
  are held-by-convention) is flagged.
- **LD002** -- ``with`` blocks acquiring one lock inside another define a
  lock-ordering edge; a pair of opposing edges (A taken under B *and* B
  taken under A) is a lock-order inversion, i.e. a latent ABBA deadlock.
  Re-acquiring a non-reentrant ``threading.Lock`` under itself is
  reported through the same check (a self-inversion).

``threading.Condition(self._lock)`` aliases (``_wake``, ``_work_ready``)
are canonicalised onto the underlying lock, so waiting on the condition
counts as holding the lock and never reports a spurious inversion.

The rule only examines the modules listed in :data:`LOCK_MODULES` -- the
parts of the tree that own threads; the simulator core is single-threaded
by design and stays out of scope.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analyze import astutil
from repro.analyze.baseline import Baseline
from repro.analyze.engine import Rule
from repro.analyze.findings import Finding
from repro.analyze.project import Project

#: repo-relative paths of the lock-bearing modules under the rule
LOCK_MODULES = (
    "src/repro/explore/pool.py",
    "src/repro/explore/service.py",
    "src/repro/explore/artifacts.py",
    "src/repro/explore/backend.py",
    "src/repro/explore/warehouse.py",
    "src/repro/fleet/registry.py",
    "src/repro/fleet/cancel.py",
    "src/repro/server/session.py",
    "src/repro/obs/metrics.py",
)

#: attribute names accepted as lock objects when the owning class does not
#: construct them itself (e.g. inherited from a base in another module, or
#: reached through a chain like ``self.backend._lock``)
LOCK_NAME_HINTS = ("lock", "_lock", "_wake", "_work_ready", "_cond",
                   "_condition")

_LOCK_FACTORIES = {"Lock": "lock", "RLock": "rlock", "Condition": "condition",
                   "Semaphore": "semaphore",
                   "BoundedSemaphore": "semaphore"}


def _is_lockish_name(attr: str) -> bool:
    return attr in LOCK_NAME_HINTS or "lock" in attr.lower()


class _ClassLocks:
    """Lock attributes of one class: kinds + condition aliasing."""

    def __init__(self) -> None:
        self.kinds: Dict[str, str] = {}    # attr -> lock/rlock/condition/...
        self.alias: Dict[str, str] = {}    # condition attr -> lock attr

    def canonical(self, attr: str) -> str:
        return self.alias.get(attr, attr)

    @property
    def attrs(self) -> Set[str]:
        return set(self.kinds)

    def primary(self) -> Optional[str]:
        """The lock assumed held inside ``*_locked`` helper methods."""
        for preferred in ("_lock", "lock"):
            if preferred in self.kinds:
                return self.canonical(preferred)
        return self.canonical(next(iter(sorted(self.kinds))))  \
            if self.kinds else None


class LockDisciplineRule(Rule):
    name = "lock-discipline"

    def __init__(self, modules: Tuple[str, ...] = LOCK_MODULES):
        self.modules = modules

    def run(self, project: Project, baseline: Baseline) -> List[Finding]:
        findings: List[Finding] = []
        # (holder, acquired) -> (file, line) of first observation
        edges: Dict[Tuple[str, str], Tuple[str, int]] = {}
        kinds: Dict[str, str] = {}   # lock identity -> kind (if known)
        for rel in self.modules:
            module = project.by_rel(rel)
            if module is None:
                continue
            for class_node in astutil.iter_classes(module.tree):
                findings.extend(self._check_class(
                    rel, class_node, edges, kinds))
        findings.extend(self._inversions(edges, kinds))
        return findings

    # -- per-class analysis ---------------------------------------------
    def _check_class(self, rel: str, class_node: ast.ClassDef,
                     edges: Dict[Tuple[str, str], Tuple[str, int]],
                     kinds: Dict[str, str]) -> List[Finding]:
        locks = self._collect_locks(class_node)
        if not locks.kinds:
            return []
        for attr in locks.kinds:
            canon = locks.canonical(attr)
            kinds[self._identity(class_node, canon)] = \
                locks.kinds.get(canon, "unknown")

        # pass 1: guarded set = private attrs accessed while a lock is held
        guarded: Dict[str, str] = {}   # attr -> lock identity guarding it
        accesses: List[Tuple[str, bool, str, int]] = []
        #          (attr, held, method, line)
        method_names = {f.name for f in astutil.iter_functions(class_node)}
        for method in astutil.iter_functions(class_node):
            self._scan(rel, class_node, method, locks, method_names, edges,
                       guarded, accesses)

        # pass 2: guarded attrs touched without the lock
        findings: List[Finding] = []
        reported: Set[Tuple[str, str]] = set()
        for attr, held, method, line in accesses:
            if held or attr not in guarded:
                continue
            if method == "__init__" or method.endswith("_locked"):
                continue
            if (attr, method) in reported:
                continue
            reported.add((attr, method))
            findings.append(Finding(
                rule="LD001", file=rel, line=line,
                message=(f"{class_node.name}.{attr} is guarded by "
                         f"{guarded[attr]} but accessed outside it "
                         f"in {method}()")))
        return findings

    def _collect_locks(self, class_node: ast.ClassDef) -> _ClassLocks:
        locks = _ClassLocks()
        init = next((f for f in astutil.iter_functions(class_node)
                     if f.name == "__init__"), None)
        if init is not None:
            for node in ast.walk(init):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                dotted = astutil.dotted_name(node.value.func) or ""
                factory = dotted.rsplit(".", 1)[-1]
                kind = _LOCK_FACTORIES.get(factory)
                if kind is None:
                    continue
                for target in node.targets:
                    attr = astutil.self_attr(target)
                    if attr is None:
                        continue
                    locks.kinds[attr] = kind
                    if kind == "condition" and node.value.args:
                        underlying = astutil.self_attr(node.value.args[0])
                        if underlying is not None:
                            locks.alias[attr] = underlying
        # locks used but not constructed here (inherited / chained)
        for node in ast.walk(class_node):
            if isinstance(node, ast.With):
                for item in node.items:
                    attr = astutil.self_attr(item.context_expr)
                    if (attr is not None and attr not in locks.kinds
                            and _is_lockish_name(attr)):
                        locks.kinds[attr] = "unknown"
        return locks

    # -- lexical lock-context scan --------------------------------------
    def _identity(self, class_node: ast.ClassDef, name: str) -> str:
        return f"{class_node.name}.{name}"

    def _lock_expr(self, class_node: ast.ClassDef, locks: _ClassLocks,
                   expr: ast.expr) -> Optional[str]:
        """Lock identity when *expr* is a lock acquisition, else None."""
        attr = astutil.self_attr(expr)
        if attr is not None:
            if attr in locks.kinds:
                return self._identity(class_node, locks.canonical(attr))
            return None
        dotted = astutil.dotted_name(expr)
        if dotted and dotted.startswith("self."):
            leaf = dotted.rsplit(".", 1)[-1]
            if _is_lockish_name(leaf):
                # chained lock (e.g. self.backend._lock): identity carries
                # the chain so different targets stay distinct
                return f"{class_node.name}.{dotted[len('self.'):]}"
        return None

    def _scan(self, rel: str, class_node: ast.ClassDef,
              method: ast.FunctionDef,
              locks: _ClassLocks, method_names: Set[str],
              edges: Dict[Tuple[str, str], Tuple[str, int]],
              guarded: Dict[str, str],
              accesses: List[Tuple[str, bool, str, int]]) -> None:
        rel_holder = []
        primary = locks.primary()
        if method.name.endswith("_locked") and primary is not None:
            rel_holder.append(self._identity(class_node, primary))
        own_identities = {self._identity(class_node, locks.canonical(a))
                         for a in locks.kinds}

        def visit(node: ast.AST, held: List[str]) -> None:
            if isinstance(node, ast.With):
                acquired: List[str] = []
                for item in node.items:
                    identity = self._lock_expr(class_node, locks,
                                               item.context_expr)
                    if identity is None:
                        continue
                    for holder in held + acquired:
                        edges.setdefault((holder, identity),
                                         (rel, node.lineno))
                    acquired.append(identity)
                for item in node.items:
                    visit(item.context_expr, held)
                    if item.optional_vars is not None:
                        visit(item.optional_vars, held)
                inner = held + acquired
                for stmt in node.body:
                    visit(stmt, inner)
                return
            if isinstance(node, ast.Attribute):
                attr = astutil.self_attr(node)
                if (attr is not None and attr.startswith("_")
                        and not attr.startswith("__")
                        and attr not in locks.kinds
                        and attr not in method_names):
                    holding = any(h in own_identities for h in held)
                    if holding:
                        guarded.setdefault(attr, held[-1])
                    accesses.append(
                        (attr, holding, method.name, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in method.body:
            visit(stmt, rel_holder)

    # -- inversion detection --------------------------------------------
    def _inversions(self, edges: Dict[Tuple[str, str], Tuple[str, int]],
                    kinds: Dict[str, str]) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[Tuple[str, str]] = set()
        for (holder, acquired), (file, line) in sorted(edges.items()):
            if holder == acquired:
                # re-entrant acquisition: fatal for a plain Lock
                if kinds.get(holder) in ("lock", "condition"):
                    findings.append(Finding(
                        rule="LD002", file=file, line=line,
                        message=(f"non-reentrant lock {holder} acquired "
                                 f"while already held (self-deadlock)")))
                continue
            pair = tuple(sorted((holder, acquired)))
            if pair in seen:
                continue
            if (acquired, holder) in edges:
                seen.add(pair)
                findings.append(Finding(
                    rule="LD002", file=file, line=line,
                    message=(f"lock-order inversion: {holder} -> "
                             f"{acquired} here, but {acquired} -> "
                             f"{holder} elsewhere (ABBA deadlock)")))
        return findings
