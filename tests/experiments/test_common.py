"""Tests for the experiment-harness helpers."""

from repro.experiments.common import Comparison, format_table


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == ""

    def test_alignment(self):
        text = format_table([["a", "long header"], ["1000", "2"]])
        lines = text.splitlines()
        assert len(lines) == 3  # header, rule, one row
        assert len(set(len(line) for line in lines)) == 1
        assert lines[1].replace(" ", "").startswith("-")

    def test_right_justified(self):
        text = format_table([["x", "y"], ["1", "22"]])
        row = text.splitlines()[2]
        assert row.endswith("22")


class TestComparison:
    def make(self):
        c = Comparison("title", "metric", baseline="current", improved="new")
        for n, cur, new in ((2, 20.0, 10.0), (4, 60.0, 15.0)):
            c.record("current", n, cur)
            c.record("new", n, new)
        return c

    def test_nprocs_union(self):
        c = self.make()
        c.record("current", 8, 100.0)
        assert c.nprocs_list() == [2, 4, 8]

    def test_factor(self):
        c = self.make()
        assert [c.factor(n) for n in c.nprocs_list()] == [2.0, 4.0]

    def test_render_contains_everything(self):
        c = self.make()
        c.notes.append("a note")
        text = c.render()
        assert "title" in text and "metric" in text
        assert "note: a note" in text
        assert "2.00" in text and "4.00" in text

    def test_rows_shape(self):
        rows = self.make().to_rows()
        assert rows[0] == ["procs", "current (us)", "new (us)", "factor"]
        assert rows[1][0] == "2"
        assert len(rows) == 3
