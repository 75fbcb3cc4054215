"""PC001-PC003: route/wrapper/test completeness of the HTTP surface."""

from repro.analyze.baseline import Baseline
from repro.analyze.rules.protocol import (ProtocolCompletenessRule,
                                          extract_protocol)

from tests.analyze.conftest import rules_of

PROTOCOL = """
    PROTOCOL_VERSION = %d

    class Api:
        def compile(self, payload):
            return {}

        def health(self, payload):
            return {}

    ROUTES = (
        Route("POST", "/compile", Api.compile, body={"code": "C source"}),
        Route(("GET", "POST"), "/health", Api.health),
        %s
    )
"""

SIMULATE_ROUTE = 'Route("POST", "/simulate", Api.compile),'

CLIENT = """
    class SimClient:
        def request(self, method, path, payload=None):
            return {}

        def compile(self, code):
            return self.request("POST", "/compile", {"code": code})

        def health(self):
            return self.request("GET", "/health")
        %s
"""

TEST_REFS = """
    def test_compile(client):
        assert client.compile("int main(){}")

    def test_health(client):
        assert client.health()
"""


def build(builder, version=3, extra_route="", extra_wrapper="",
          tests=TEST_REFS):
    builder.write("server/protocol.py", PROTOCOL % (version, extra_route))
    builder.write("server/client.py", CLIENT % extra_wrapper)
    builder.write_test("test_api.py", tests)
    return builder


def run_rule(builder, baseline=None):
    return ProtocolCompletenessRule().run(
        builder.load(), baseline if baseline is not None else Baseline())


class TestPC001Wrappers:
    def test_route_without_wrapper_fires(self, builder):
        build(builder, extra_route=SIMULATE_ROUTE)
        findings = rules_of(run_rule(builder), "PC001")
        assert len(findings) == 1
        assert "POST /simulate" in findings[0].message

    def test_covered_routes_are_clean(self, builder):
        build(builder)
        assert rules_of(run_rule(builder), "PC001") == []


class TestPC002TestCoverage:
    def test_untested_wrapper_fires(self, builder):
        build(builder,
              extra_route=SIMULATE_ROUTE,
              extra_wrapper=(
                  '\n        def simulate(self, code):\n'
                  '            return self.request("POST", "/simulate", '
                  '{"code": code})'))
        findings = rules_of(run_rule(builder), "PC002")
        assert len(findings) == 1
        assert "SimClient.simulate" in findings[0].message

    def test_referenced_wrapper_is_clean(self, builder):
        build(builder,
              extra_route=SIMULATE_ROUTE,
              extra_wrapper=(
                  '\n        def simulate(self, code):\n'
                  '            return self.request("POST", "/simulate", '
                  '{"code": code})'),
              tests=TEST_REFS + """
    def test_simulate(client):
        assert client.simulate("nop")
""")
        assert rules_of(run_rule(builder), "PC002") == []


class TestPC003VersionPin:
    def pinned_baseline(self, version, routes):
        return Baseline(protocol_version=version, protocol_routes=routes)

    def test_route_change_without_bump_fires(self, builder):
        build(builder, version=3,
              extra_route=SIMULATE_ROUTE,
              extra_wrapper=(
                  '\n        def simulate(self, code):\n'
                  '            return self.request("POST", "/simulate", '
                  '{"code": code})'),
              tests=TEST_REFS + "\n    def test_s(c):\n"
                                "        c.simulate('x')\n")
        baseline = self.pinned_baseline(
            3, ["POST /compile", "GET /health", "POST /health"])
        findings = rules_of(run_rule(builder, baseline), "PC003")
        assert len(findings) == 1
        assert "POST /simulate" in findings[0].message
        assert "PROTOCOL_VERSION is still 3" in findings[0].message

    def test_route_change_with_bump_is_clean(self, builder):
        build(builder, version=4,
              extra_route=SIMULATE_ROUTE,
              extra_wrapper=(
                  '\n        def simulate(self, code):\n'
                  '            return self.request("POST", "/simulate", '
                  '{"code": code})'),
              tests=TEST_REFS + "\n    def test_s(c):\n"
                                "        c.simulate('x')\n")
        baseline = self.pinned_baseline(
            3, ["POST /compile", "GET /health", "POST /health"])
        assert rules_of(run_rule(builder, baseline), "PC003") == []

    def test_unchanged_routes_are_clean(self, builder):
        build(builder, version=3)
        baseline = self.pinned_baseline(
            3, ["POST /compile", "GET /health", "POST /health"])
        assert rules_of(run_rule(builder, baseline), "PC003") == []


class TestExtraction:
    def test_extract_protocol_reads_version_and_routes(self, builder):
        build(builder, version=7)
        version, routes = extract_protocol(builder.load())
        assert version == 7
        assert routes == ["GET /health", "POST /compile", "POST /health"]

    def test_extraction_ignores_non_dispatch_tuples(self, builder):
        # route-like tuples in documentation or comparisons, and Route
        # calls outside the table, are not served routes
        builder.write("server/protocol.py", """
            PROTOCOL_VERSION = 1
            DOCS = [("POST", "/imaginary")]
            SPARE = Route("POST", "/spare", None)

            def handle(method, path):
                if (method, path) == ("GET", "/compared"):
                    return {}
                if (method, path) in (("POST", "/listed"),):
                    return {}

            ROUTES = (
                Route("GET", "/health", None),
            )
        """)
        builder.write("server/client.py", CLIENT % "")
        version, routes = extract_protocol(builder.load())
        assert routes == ["GET /health"]

    def test_entry_lines_point_at_the_table_row(self, builder):
        build(builder, extra_route=SIMULATE_ROUTE)
        findings = rules_of(run_rule(builder), "PC001")
        source = (builder.root / "src/repro/server/protocol.py").read_text()
        line = source.splitlines()[findings[0].line - 1]
        assert '"/simulate"' in line
