"""``--topo`` spec parsing: grammar, inheritance, and rejection."""

from __future__ import annotations

import pytest

from repro.topo import parse_topo_spec


class TestGoodSpecs:
    def test_minimal(self):
        h = parse_topo_spec("switch:8")
        assert len(h.levels) == 1
        assert h.levels[0].name == "switch"
        assert h.levels[0].arity == 8
        assert h.levels[0].latency_us is None

    def test_full_fields(self):
        h = parse_topo_spec("switch:8:26.0:0.008:2.0")
        lv = h.levels[0]
        assert (lv.latency_us, lv.per_byte_us, lv.contention) == (26.0, 0.008, 2.0)

    def test_empty_fields_inherit(self):
        h = parse_topo_spec("switch:8::0.008")
        lv = h.levels[0]
        assert lv.latency_us is None
        assert lv.per_byte_us == 0.008
        assert lv.contention == 1.0

    def test_multi_level_innermost_first(self):
        h = parse_topo_spec("switch:8:26,spine:512:48::2.0")
        assert [lv.name for lv in h.levels] == ["switch", "spine"]
        assert h.caps == (8, 4096)
        assert h.levels[1].contention == 2.0

    def test_whitespace_tolerated(self):
        h = parse_topo_spec(" switch:4 , rack:8 ")
        assert h.caps == (4, 32)


class TestBadSpecs:
    @pytest.mark.parametrize(
        "spec, match",
        [
            ("", "empty"),
            ("   ", "empty"),
            ("bogus", "must be NAME:ARITY"),
            ("switch:8:1:2:3:4", "must be NAME:ARITY"),
            (":8", "needs a name"),
            ("switch:eight", "arity must be an int"),
            ("switch:1", "arity must be >= 2"),
            ("switch:8:abc", "latency_us must be a number"),
            ("switch:8::xyz", "per_byte_us must be a number"),
            ("switch:8:::0.5", "contention must be >= 1"),
            ("switch:8,", "empty level entry"),
            ("switch:8,switch:4", "duplicate level names"),
            ("switch:8:-1", "latency_us must be non-negative"),
        ],
    )
    def test_rejected_with_one_line_message(self, spec, match):
        with pytest.raises(ValueError, match=match) as excinfo:
            parse_topo_spec(spec)
        assert "\n" not in str(excinfo.value)
