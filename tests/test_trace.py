from fractions import Fraction

import pytest

from fifosim import MmppParams, Trace, TraceError, gen_mmpp, read_trace, run, validate_trace, write_trace

from conftest import make_trace


def test_valid_trace_passes():
    assert validate_trace(make_trace([(1, [1, 2])], k=2)) == []


def test_nonpositive_work_rejected():
    errors = validate_trace(make_trace([(2, [0])], k=3))
    assert len(errors) == 1
    assert "non-positive work" in errors[0]


def test_decreasing_slots_rejected():
    errors = validate_trace(Trace(slots=[3, 2], works=[1, 1], k_declared=1))
    assert any("non-decreasing" in e for e in errors)


def test_slot_below_one_rejected():
    errors = validate_trace(Trace(slots=[0], works=[1], k_declared=1))
    assert any(">= 1" in e for e in errors)


def test_work_above_declared_k_rejected():
    errors = validate_trace(Trace(slots=[1], works=[5], k_declared=3))
    assert any("exceeds declared k" in e for e in errors)


def test_undeclared_k_skips_bound_check():
    assert validate_trace(Trace(slots=[1], works=[99], k_declared=0)) == []


def test_validation_collects_all_violations():
    trace = Trace(slots=[0, 5, 2], works=[0, 1, 7], k_declared=3)
    errors = validate_trace(trace)
    assert len(errors) == 4  # bad slot, bad work, decreasing, work > k


@pytest.mark.parametrize(
    "trace",
    [
        Trace(slots=[1], works=[2.5]),
        Trace(slots=[1.5], works=[2]),
        Trace(slots=[1], works=[True]),
        Trace(slots=[1], works=[float("nan")]),
        Trace(slots=[2.5], works=[2.9]),  # was written as slot 2, work 2
        Trace(slots=[1, 2], works=[1, 2], k_declared=-1),  # was one fault per packet
        Trace(slots=[1], works=[1], k_declared=2.5),  # was a header read_trace refuses
    ],
)
def test_non_integer_value_is_one_fault_and_never_written(trace, tmp_path):
    errors = validate_trace(trace)
    assert len(errors) == 1 and "integer" in errors[0]
    path = tmp_path / "t.jsonl"
    with pytest.raises(TraceError, match="integer"):
        write_trace(trace, path)
    assert not path.exists()


def _with_metadata(trace, metadata):
    trace.metadata = metadata
    return trace


@pytest.mark.parametrize(
    "trace",
    [
        gen_mmpp(MmppParams(k=3, lambda_off=Fraction(3, 10)), 50, 1),  # a valid trace: Fraction is a Real
        _with_metadata(make_trace([(1, [1])]), {"params": {"x": {1, 2}}}),
    ],
)
def test_header_json_cannot_hold_leaves_no_file(trace, tmp_path):
    assert validate_trace(trace) == []
    path = tmp_path / "t.jsonl"
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_trace(trace, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "trace",
    [Trace(slots=None, works=None), Trace(slots=iter([1]), works=[1]), Trace(slots=5, works=5)],
)
def test_column_that_is_not_a_list_or_tuple_is_one_fault(trace, tmp_path):
    errors = validate_trace(trace)
    assert len(errors) == 1 and "lists or tuples" in errors[0]
    with pytest.raises(TraceError, match="lists or tuples"):
        run(trace, "po", 2, 1)
    path = tmp_path / "t.jsonl"
    with pytest.raises(TraceError, match="lists or tuples"):
        write_trace(trace, path)
    assert not path.exists()


@pytest.mark.parametrize("metadata", [None, 5])
def test_metadata_that_is_not_a_dict_is_one_fault(metadata, tmp_path):
    trace = _with_metadata(make_trace([(1, [1])]), metadata)
    errors = validate_trace(trace)
    assert len(errors) == 1 and "metadata must be a dict" in errors[0]
    with pytest.raises(TraceError, match="metadata must be a dict"):
        run(trace, "po", 2, 1)
    path = tmp_path / "t.jsonl"
    with pytest.raises(TraceError, match="metadata must be a dict"):
        write_trace(trace, path)
    assert not path.exists()


def test_tuple_columns_are_accepted():
    trace = Trace(slots=(1, 1, 2), works=(2, 1, 1), k_declared=2)
    assert validate_trace(trace) == []
    as_lists = Trace(slots=[1, 1, 2], works=[2, 1, 1], k_declared=2)
    assert run(trace, "po", 2, 1) == run(as_lists, "po", 2, 1)


def test_unequal_column_lengths_rejected():
    trace = Trace(slots=[1, 2], works=[1], k_declared=1)
    assert any("equal length" in e for e in validate_trace(trace))
    with pytest.raises(TraceError, match="equal length"):
        run(trace, "po", 2, 1)


def test_packets_iteration_order():
    trace = make_trace([(1, [2, 3]), (5, [1])])
    assert trace.slots == [1, 1, 5]
    assert trace.works == [2, 3, 1]
    assert trace.packet_count == 3
    assert trace.k_declared == 3


def test_jsonl_round_trip(tmp_path):
    trace = make_trace([(1, [3, 1]), (2, [2]), (9, [1, 1, 1])], k=5)
    trace.metadata = {"generator": "test", "seed": 7, "params": {"x": 1}}
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    back = read_trace(path)
    assert (back.slots, back.works) == (trace.slots, trace.works)
    assert back.k_declared == 5
    assert back.metadata["generator"] == "test"
    assert back.metadata["seed"] == 7
    assert back.metadata["params"] == {"x": 1}


def test_jsonl_header_first_line(tmp_path):
    # empty metadata: every header field after k takes its default, in file order
    path = tmp_path / "trace.jsonl"
    write_trace(make_trace([(1, [1])]), path)
    first = path.read_text().splitlines()[0]
    assert first == '{"k": 1, "generator": "unknown", "params": {}, "seed": 0}'


def test_read_defaults_missing_header_fields(tmp_path):
    path = tmp_path / "bare.jsonl"
    path.write_text('{"k": 3}\n{"slot": 1, "work": 2}\n')
    first, second = read_trace(path), read_trace(path)
    assert first.metadata == {"generator": "unknown", "params": {}, "seed": 0}
    first.metadata["params"]["x"] = 1  # each read gets its own params dict
    assert second.metadata["params"] == {}


def test_read_rejects_headerless_file(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"slot": 1, "work": 2}\n')
    with pytest.raises(TraceError):
        read_trace(path)
    path.write_text("")
    with pytest.raises(TraceError, match="empty trace file"):
        read_trace(path)


def test_read_rejects_invalid_contents(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"k": 2, "generator": "g", "params": {}, "seed": 0}\n{"slot": 1, "work": 0}\n')
    with pytest.raises(TraceError):
        read_trace(path)


def test_read_rejects_malformed_records_naming_the_line(tmp_path):
    header = '{"k": 2, "generator": "g", "params": {}, "seed": 0}\n'
    cases = {
        header + '{"slot": 1, "work": 1}\n\n{"slot": 1}\n': "line 4",
        header + "[1, 2]\n": "line 2",
        header + "{not json\n": "line 2",
        header + '{"slot": null, "work": 1}\n': "line 2",
        header + '{"slot": 1.7, "work": 1}\n': "line 2",
        header + '{"slot": 1, "work": 2.2}\n': "line 2",
        header + '{"slot": true, "work": 1}\n': "line 2",
        header + '{"slot": 1, "work": true}\n': "line 2",
        "3\n": "line 1",
        '{"k": null}\n': "line 1",
        '{"k": 2.9}\n{"slot": 1, "work": 1}\n': "line 1",
        '{"k": true}\n': "line 1",
        '{"k": -1}\n': "line 1",
        '{"k": "2"}\n': "line 1",
    }
    path = tmp_path / "bad.jsonl"
    for text, where in cases.items():
        path.write_text(text)
        with pytest.raises(TraceError, match=where):
            read_trace(path)
