"""Protocol-completeness rules for the HTTP surface.

The server routes (``server/protocol.py``) and the :class:`SimClient`
wrappers (``server/client.py``) are two halves of one contract; a route
without a wrapper is untestable from the load tests, and a wrapper no
test exercises is dead weight that can silently rot.

- **PC001** -- a ``ROUTES`` entry in ``protocol.py`` has no ``SimClient``
  wrapper whose body mentions the route path.
- **PC002** -- a wrapper for a route is never referenced by any test
  under ``tests/``.
- **PC003** -- the route set differs from the baseline-pinned set but
  ``PROTOCOL_VERSION`` was not bumped.

Routes are read from the ``ROUTES`` table literal in ``protocol.py`` --
each entry's first two positional arguments, a method (or a tuple of
methods) and a path -- so only served routes count: route-like tuples in
documentation or comparisons do not.  The code is parsed, never imported.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analyze import astutil
from repro.analyze.baseline import Baseline
from repro.analyze.engine import Rule
from repro.analyze.findings import Finding
from repro.analyze.project import Project

PROTOCOL_MODULE = "src/repro/server/protocol.py"
CLIENT_MODULE = "src/repro/server/client.py"
CLIENT_CLASS = "SimClient"
ROUTES_TABLE = "ROUTES"
TESTS_DIR = "tests"

_METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH", "HEAD")

#: client plumbing that is not a route wrapper
_NON_WRAPPERS = ("__init__", "request", "close", "_connection")


def _methods(node: ast.AST) -> List[str]:
    """``"GET"`` or ``("GET", "POST")`` constants -> method names."""
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    names = [elt.value for elt in elts
             if isinstance(elt, ast.Constant) and elt.value in _METHODS]
    return names if len(names) == len(elts) else []


def extract_routes(tree: ast.Module) -> Dict[Tuple[str, str], int]:
    """``ROUTES`` table entries -> (method, path) -> entry line."""
    routes: Dict[Tuple[str, str], int] = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == ROUTES_TABLE
                        for target in node.targets)
                and isinstance(node.value, (ast.Tuple, ast.List))):
            continue
        for entry in node.value.elts:
            if not (isinstance(entry, ast.Call) and len(entry.args) >= 2):
                continue
            path = entry.args[1]
            if not (isinstance(path, ast.Constant)
                    and isinstance(path.value, str)
                    and path.value.startswith("/")):
                continue
            for method in _methods(entry.args[0]):
                routes.setdefault((method, path.value), entry.lineno)
    return routes


def extract_protocol_version(
        tree: ast.Module) -> Tuple[Optional[int], int]:
    """(PROTOCOL_VERSION value, assignment line) from the module."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Name)
                        and target.id == "PROTOCOL_VERSION"
                        and isinstance(node.value, ast.Constant)):
                    return node.value.value, node.lineno
    return None, 1


def extract_protocol(project: Project):
    """(version, sorted route strings) for baseline pinning; None when the
    protocol module is absent (fixture projects)."""
    module = project.by_rel(PROTOCOL_MODULE)
    if module is None:
        return None, None
    version, _ = extract_protocol_version(module.tree)
    routes = extract_routes(module.tree)
    return version, sorted(f"{m} {p}" for (m, p) in routes)


class ProtocolCompletenessRule(Rule):
    name = "protocol-completeness"

    def run(self, project: Project, baseline: Baseline) -> List[Finding]:
        protocol = project.by_rel(PROTOCOL_MODULE)
        client = project.by_rel(CLIENT_MODULE)
        if protocol is None or client is None:
            return []
        findings: List[Finding] = []
        routes = extract_routes(protocol.tree)
        wrappers = self._client_wrappers(client.tree)

        # PC001: every route needs a wrapper mentioning its path
        path_to_wrappers: Dict[str, List[str]] = {}
        for wrapper, (paths, _) in wrappers.items():
            for path in paths:
                path_to_wrappers.setdefault(path, []).append(wrapper)
        for (method, path), line in sorted(routes.items()):
            if path not in path_to_wrappers:
                findings.append(Finding(
                    rule="PC001", file=protocol.rel, line=line,
                    message=(f"route {method} {path} has no SimClient "
                             f"wrapper in server/client.py")))

        # PC002: every route wrapper needs at least one test reference
        test_text = self._tests_text(project)
        route_paths = {path for (_, path) in routes}
        for wrapper in sorted(wrappers):
            paths, line = wrappers[wrapper]
            if not (paths & route_paths):
                continue
            if f".{wrapper}(" not in test_text:
                findings.append(Finding(
                    rule="PC002", file=client.rel, line=line,
                    message=(f"SimClient.{wrapper} (route wrapper) is "
                             f"not referenced by any test under "
                             f"{TESTS_DIR}/")))

        # PC003: route-set change requires a PROTOCOL_VERSION bump
        version, version_line = extract_protocol_version(protocol.tree)
        if (baseline.protocol_routes is not None
                and baseline.protocol_version is not None):
            current = sorted(f"{m} {p}" for (m, p) in routes)
            if (current != sorted(baseline.protocol_routes)
                    and version == baseline.protocol_version):
                added = sorted(set(current) - set(baseline.protocol_routes))
                removed = sorted(
                    set(baseline.protocol_routes) - set(current))
                detail = "; ".join(
                    part for part in (
                        f"added: {', '.join(added)}" if added else "",
                        f"removed: {', '.join(removed)}" if removed else "")
                    if part)
                findings.append(Finding(
                    rule="PC003", file=protocol.rel, line=version_line,
                    message=(f"route set changed ({detail}) but "
                             f"PROTOCOL_VERSION is still {version}; bump "
                             f"it and refresh the lint baseline")))
        return findings

    # ------------------------------------------------------------------
    def _client_wrappers(
            self, tree: ast.Module) -> Dict[str, Tuple[Set[str], int]]:
        """SimClient method -> (route paths mentioned, def line)."""
        wrappers: Dict[str, Tuple[Set[str], int]] = {}
        for class_node in astutil.iter_classes(tree):
            if class_node.name != CLIENT_CLASS:
                continue
            for method in astutil.iter_functions(class_node):
                if method.name in _NON_WRAPPERS:
                    continue
                paths: Set[str] = set()
                for text, _ in astutil.string_constants(method):
                    if text.startswith("/"):
                        paths.add(text.split("?")[0])
                wrappers[method.name] = (paths, method.lineno)
        return wrappers

    def _tests_text(self, project: Project) -> str:
        tests_dir = project.root / TESTS_DIR
        if not tests_dir.is_dir():
            return ""
        chunks = []
        for path in sorted(tests_dir.rglob("*.py")):
            try:
                chunks.append(path.read_text(encoding="utf-8"))
            except OSError:   # pragma: no cover - unreadable test file
                continue
        return "\n".join(chunks)
