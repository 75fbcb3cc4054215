"""Trace spans: JobTracer with an injected clock, rebasing, tree
assembly, and the structural validator the server tests rely on."""

from repro.obs.trace import (JobTracer, make_span, rebase, span_tree,
                             validate_tree)


def fake_clock(*readings):
    return iter(readings).__next__


class TestJobTracer:
    def test_spans_are_relative_to_creation(self):
        tracer = JobTracer("t", "t.j0",
                           time_fn=fake_clock(100.0, 100.0, 100.5,
                                              100.5, 101.75))
        with tracer.span("compile"):
            pass
        with tracer.span("simulate", tierUsed=True):
            pass
        assert tracer.export() == [
            {"traceId": "t", "spanId": "t.j0.s1", "parentId": "t.j0",
             "name": "compile", "startS": 0.0, "endS": 0.5, "tags": {}},
            {"traceId": "t", "spanId": "t.j0.s2", "parentId": "t.j0",
             "name": "simulate", "startS": 0.5, "endS": 1.75,
             "tags": {"tierUsed": True}},
        ]

    def test_span_recorded_even_when_body_raises(self):
        tracer = JobTracer("t", "t.j0",
                           time_fn=fake_clock(0.0, 0.0, 1.0))
        try:
            with tracer.span("compile"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [span["name"] for span in tracer.export()] == ["compile"]

    def test_export_returns_a_copy(self):
        tracer = JobTracer("t", "t.j0", time_fn=fake_clock(0.0, 0.0, 1.0))
        with tracer.span("x"):
            pass
        exported = tracer.export()
        exported.clear()
        assert len(tracer.export()) == 1


class TestRebase:
    def test_shifts_both_ends_and_copies(self):
        spans = [make_span("t", "a", None, "x", 0.25, 1.0)]
        shifted = rebase(spans, 10.0)
        assert shifted[0]["startS"] == 10.25
        assert shifted[0]["endS"] == 11.0
        assert spans[0]["startS"] == 0.25      # original untouched


class TestSpanTree:
    def test_orders_siblings_by_start_time(self):
        spans = [
            make_span("t", "root", None, "sweep", 0.0, 5.0),
            make_span("t", "late", "root", "job", 2.0, 3.0),
            make_span("t", "early", "root", "job", 1.0, 2.0),
        ]
        roots, children = span_tree(spans)
        assert [span["spanId"] for span in roots] == ["root"]
        assert [span["spanId"] for span in children["root"]] \
            == ["early", "late"]

    def test_orphan_becomes_a_root(self):
        spans = [make_span("t", "a", "missing-parent", "x", 0.0, 1.0)]
        roots, _ = span_tree(spans)
        assert [span["spanId"] for span in roots] == ["a"]


class TestValidateTree:
    def good(self):
        return [
            make_span("t", "root", None, "sweep", 0.0, 2.0),
            make_span("t", "root.j0", "root", "job", 0.5, 1.5),
        ]

    def test_accepts_a_connected_tree(self):
        assert validate_tree(self.good()) == []

    def test_empty(self):
        assert validate_tree([]) == ["no spans"]

    def test_flags_mixed_trace_ids(self):
        spans = self.good()
        spans[1]["traceId"] = "other"
        assert any("traceIds" in problem
                   for problem in validate_tree(spans))

    def test_flags_duplicate_span_ids(self):
        spans = self.good()
        spans[1]["spanId"] = "root"
        assert any("duplicate" in problem
                   for problem in validate_tree(spans))

    def test_flags_disconnected_forest(self):
        spans = self.good() + [
            make_span("t", "stray", "nowhere", "x", 0.0, 1.0)]
        assert any("single root" in problem
                   for problem in validate_tree(spans))

    def test_flags_negative_duration(self):
        spans = self.good()
        spans[1]["endS"] = 0.1
        assert any("ends before" in problem
                   for problem in validate_tree(spans))
