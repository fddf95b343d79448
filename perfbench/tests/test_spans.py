"""Span bookkeeping: self time, the tail-percentile rule, and the recorder."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spans import END, NAME, PARENT, START, Recorder, self_ns, tail, union_ns  # noqa: E402


def span(start, end, parent=-1, name="s"):
    return [name, start, end, parent, None]


def test_union_merges_overlaps_and_keeps_gaps():
    assert union_ns([(0, 10), (5, 15), (20, 30)]) == 25
    assert union_ns([(20, 30), (0, 10), (10, 12)]) == 22
    assert union_ns([]) == 0


def test_self_time_is_duration_minus_union_of_children():
    parent = span(0, 100)
    children = [span(10, 30), span(20, 40), span(60, 70)]
    # children cover [10, 40) and [60, 70): 40 of 100
    assert self_ns(parent, children) == 60


def test_self_time_clips_children_to_the_parent():
    parent = span(100, 200)
    children = [span(50, 120), span(190, 250), span(300, 400)]
    assert self_ns(parent, children) == 100 - 20 - 10


def test_self_time_without_children_is_the_duration():
    assert self_ns(span(5, 17), []) == 12


def test_tail_keeps_ten_samples_beyond_and_records_the_count():
    values = list(range(1, 31))  # 30 samples
    t = tail(values)
    assert t["n"] == 30
    assert t["percentile"] == 66
    assert t["beyond"] >= 10
    assert sum(v > t["value"] for v in values) >= 10
    assert t["value"] == 20


def test_tail_with_many_samples_stops_at_p99():
    values = list(range(5000))
    t = tail(values)
    assert t["percentile"] == 99
    assert sum(v > t["value"] for v in values) >= 10


def test_tail_is_never_below_the_median():
    assert tail(list(range(19))) is None
    t = tail(list(range(20)))
    assert t["percentile"] == 50
    assert sum(v > t["value"] for v in range(20)) == 10


def test_tail_rule_holds_for_every_sample_count():
    for n in range(20, 400):
        t = tail(list(range(n)))
        assert t["beyond"] >= 10, n
        assert n - 1 - t["value"] == t["beyond"], n


def test_recorder_links_nested_calls_to_their_parent():
    rec = Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [s[NAME] for s in rec.spans] == ["outer", "inner"]
    assert rec.spans[0][PARENT] == -1
    assert rec.spans[1][PARENT] == 0
    assert rec.spans[0][START] <= rec.spans[1][START] <= rec.spans[1][END] <= rec.spans[0][END]


def test_recorder_closes_spans_when_the_call_raises():
    rec = Recorder()

    def boom():
        raise KeyError("x")

    wrapped = rec.wrap("boom", boom)
    try:
        wrapped()
    except KeyError:
        pass
    after = rec.wrap("after", lambda: None)
    after()
    assert rec.spans[1][PARENT] == -1
    assert rec.spans[0][END] >= rec.spans[0][START]


def test_recorder_gives_generators_one_span_per_item():
    rec = Recorder()

    def items():
        yield from range(3)

    consumer = rec.wrap("consumer", lambda: list(rec.wrap("items", items)()))
    assert consumer() == [0, 1, 2]
    names = [s[NAME] for s in rec.spans]
    assert names == ["consumer", "items", "items", "items", "items"]  # 3 items + exhaustion
    assert all(s[PARENT] == 0 for s in rec.spans[1:])


def test_recorder_attrs_see_arguments_and_result():
    rec = Recorder()
    f = rec.wrap("f", lambda a, b: a + b, attrs=lambda args, result: {"n": result})
    f(2, 3)
    assert rec.spans[0][4] == {"n": 5}
