import copy
import io
import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import credentials_for, evidence_block, profile_examples
from trustmarket import eventlog, ratings
from trustmarket.cli import main
from trustmarket.errors import CorruptLog, UnknownAccount
from trustmarket.eventlog import (KIND_RATING, KIND_REGISTER, KINDS, EventLog,
                                  EventRecord, MarketState, apply_event,
                                  replay)
from trustmarket.identity import Registry
from trustmarket.ratings import Rating, RatingStore


def register_payload(tag, tier="high"):
    return {"credentials": credentials_for(tag, tier).to_dict()}


def rating_payload(rater, ratee, value=1, cost=100, at=1, scope="laptops"):
    return {"rater": rater, "ratee": ratee, "scope": scope,
            "value": value, "cost": cost, "at": at}


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def logged(path):
    """The records in the log file, read as plain JSON lines."""
    return [EventRecord(**json.loads(line))
            for line in path.read_text(encoding="utf-8").splitlines()]


def register(log, tag, at=None):
    return log.append(KIND_REGISTER, register_payload(tag), at=at)


# A well-formed rating line whose parties the log never registered: replay
# collects it as a rejection and reads on.
RATED = ('{"seq":1,"kind":"rating","at":1,"payload":'
         + json.dumps(rating_payload("A000002", "A000001"),
                      separators=(",", ":")) + "}")


# ------------------------------------------------------------------
# log structure
# ------------------------------------------------------------------

def test_append_and_scan_roundtrip(tmp_path):
    log = EventLog(tmp_path / "m.jsonl")
    first = register(log, "a")
    second = register(log, "b", at=9)
    assert (first.seq, first.at) == (1, 1)       # at defaults to seq
    assert (second.seq, second.at) == (2, 9)
    assert logged(log.path) == [first, second]
    assert log.last_seq == 2


def test_reopened_log_continues_sequence(tmp_path):
    path = tmp_path / "m.jsonl"
    register(EventLog(path), "a")
    log = EventLog(path)
    assert log.last_seq == 1
    assert register(log, "b").seq == 2


@pytest.mark.parametrize("kind", ["listing", "deal", "gossip"])
def test_append_rejects_unknown_kind(tmp_path, kind):
    with pytest.raises(ValueError):
        EventLog(tmp_path / "m.jsonl").append(kind, {})


def test_missing_file_scans_empty(tmp_path):
    path = tmp_path / "absent.jsonl"
    for read in (replay, lambda p: EventLog(p).read_state()):
        assert read(path).describe() == MarketState().describe()
    assert EventLog(path).last_seq == 0
    assert not path.exists()


def locked_state(path):
    with EventLog(path).locked() as state:
        return state


@pytest.mark.parametrize("lines,expected_line,fragment", [
    ([RATED, "{oops"], 2, "not valid JSON"),
    ([RATED, ""], 2, "blank"),
    (['{"seq":1,"kind":"rating","payload":{}}'], 1, "missing field 'at'"),
    (['{"seq":"one","kind":"rating","at":1,"payload":{}}'], 1, "integers"),
    (['{"seq":1,"kind":"gossip","at":1,"payload":{}}'], 1, "unknown kind"),
    (['{"seq":1,"kind":"rating","at":1,"payload":3}'], 1, "payload"),
    (['[1,2]'], 1, "not an object"),
    ([RATED.replace('"seq":1', '"seq":2')] * 2, 2, "not greater"),
    ([RATED, "[" * 100_000 + "]" * 100_000],
     2, "not valid JSON (nested too deeply)"),
    ([RATED,
      '{"seq":2,"kind":"rating","at":2,"payload":{"n":' + "7" * 5000 + "}}"],
     2, "not valid JSON (Exceeds the limit (4300 digits)"),
    ([RATED, '{"seq":2,"kind":"deal","at":2,"payload":{"price":10}}'],
     2, "unknown kind 'deal'"),
    ([RATED, '{"seq":2,"kind":"listing","at":2,"payload":{"scope":"cars"}}'],
     2, "unknown kind 'listing'"),
])
def test_structural_damage(tmp_path, lines, expected_line, fragment):
    path = write_lines(tmp_path / "m.jsonl", lines)
    for read in (replay, lambda p: EventLog(p).read_state(), locked_state):
        with pytest.raises(CorruptLog) as excinfo:
            read(path)
        assert excinfo.value.line_no == expected_line
        assert fragment in str(excinfo.value)
        assert f"line {expected_line}:" in str(excinfo.value)


def test_opening_a_handle_reads_nothing(tmp_path):
    path = write_lines(tmp_path / "m.jsonl", ["{oops"])
    log = EventLog(path)
    with pytest.raises(CorruptLog):
        log.last_seq


def test_two_handles_interleave_appends(tmp_path):
    path = tmp_path / "m.jsonl"
    first, second = EventLog(path), EventLog(path)
    for tag, log in enumerate((first, second, first, second)):
        register(log, f"t{tag}")
    assert [record.seq for record in logged(path)] == [1, 2, 3, 4]
    assert replay(path).last_seq == 4
    assert (first.last_seq, second.last_seq) == (3, 4)


def test_bare_append_rescans_only_after_a_foreign_write(tmp_path, monkeypatch):
    path = tmp_path / "m.jsonl"
    log = EventLog(path)
    register(log, "a")
    parsed = []
    parse = eventlog._parse_line
    monkeypatch.setattr(eventlog, "_parse_line",
                        lambda line, line_no: parsed.append(line_no)
                        or parse(line, line_no))
    for tag in "bcd":
        register(log, tag)
    assert parsed == []                  # the log is as this handle left it
    register(EventLog(path), "e")
    parsed.clear()
    assert register(log, "f").seq == 6
    assert parsed == [1, 2, 3, 4, 5]


def test_record_serialization_is_stable():
    record = EventRecord(seq=3, kind=KIND_RATING, at=7,
                         payload={"b": 1, "a": 2})
    assert record.to_json() \
        == '{"at":7,"kind":"rating","payload":{"a":2,"b":1},"seq":3}'


def test_record_is_an_immutable_value():
    record = EventRecord(3, KIND_RATING, 7, {"b": 1, "a": 2})
    assert record == EventRecord(seq=3, kind=KIND_RATING, at=7,
                                 payload={"a": 2, "b": 1})
    assert record == tuple(record)
    assert record != record._replace(at=8)
    assert (record.seq, record.kind, record.at, record.payload) \
        == (3, "rating", 7, {"a": 2, "b": 1})
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.seq = 4
    with pytest.raises(AttributeError):
        del record.payload
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    moved = record._replace(kind=KIND_REGISTER, payload={"scope": "cars"})
    assert moved == EventRecord(3, KIND_REGISTER, 7, {"scope": "cars"})
    assert moved.to_json() \
        == '{"at":7,"kind":"register","payload":{"scope":"cars"},"seq":3}'


def _oracle_parse_line(line, line_no):
    """The line parser as it was before the scanner fast path: one
    `json.loads` per line."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorruptLog(f"not valid JSON ({exc.msg})", line_no) from exc
    if not isinstance(data, dict):
        raise CorruptLog("record is not an object", line_no)
    try:
        seq = data["seq"]
        kind = data["kind"]
        at = data["at"]
        payload = data["payload"]
    except KeyError as exc:
        raise CorruptLog(f"missing field {exc.args[0]!r}", line_no) from exc
    if type(seq) is not int or type(at) is not int:
        raise CorruptLog("seq and at must be integers", line_no)
    if kind not in KINDS:
        raise CorruptLog(f"unknown kind {kind!r}", line_no)
    if not isinstance(payload, dict):
        raise CorruptLog("payload must be an object", line_no)
    return EventRecord(seq=seq, kind=kind, at=at, payload=payload)


def _outcome(parse, line):
    """What parsing `line` as line 7 gives: the record's JSON, or the
    error's type, message and line number."""
    try:
        return parse(line, 7).to_json()
    except CorruptLog as exc:
        return "CorruptLog", str(exc), exc.line_no
    except RecursionError:
        # the oracle's traceback, which the parser reports as damage
        return "CorruptLog", "line 7: not valid JSON (nested too deeply)", 7
    except ValueError as exc:
        return type(exc).__name__, str(exc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8)
RECORDS = st.fixed_dictionaries(
    {"seq": st.integers(-3, 10 ** 20) | JSON_VALUES,
     "kind": st.sampled_from(KINDS) | st.text(max_size=6),
     "at": st.integers(0, 99) | st.floats(),
     "payload": st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=4)
     | JSON_VALUES},
    optional={"extra": JSON_VALUES})
PADDING = st.text(alphabet=" \t\r", max_size=3)
LINE_DAMAGES = st.sampled_from([
    lambda text: text, lambda text: text + "x", lambda text: text + "} {}",
    lambda text: "\ufeff" + text, lambda text: "\x0c" + text,
    lambda text: text + "\x0c", lambda text: text[:len(text) // 2],
    lambda text: text[:-1] + ',"s":"open' + text[-1],
    lambda text: text.replace('"seq":', '"seq":NaN,"_":', 1),
    lambda text: text.replace('"at":', '"_at":', 1),
    lambda text: '{"seq":1,"kind":"rating","at":1,"payload":' + "[" * 100_000
    + "]" * 100_000 + "}",
    lambda text: "[" * 600 + "]" * 600,
])


def _no_value(text, index):
    """A scanner that finds no value, so that every line goes to
    `json.loads`."""
    raise StopIteration(index)


@settings(max_examples=300, deadline=None)
@given(record=RECORDS, left=PADDING, right=PADDING, damage=LINE_DAMAGES,
       noise=st.tuples(st.integers(0, 10 ** 6), st.text(max_size=2)))
@example(record={"seq": 1, "kind": "rating", "at": 1, "payload": {}},
         left=" ", right="\r", damage=lambda text: text, noise=(0, ""))
def test_line_parser_agrees_with_json_loads(record, left, right, damage,
                                            noise):
    text = damage(json.dumps(record, separators=(",", ":")))
    at, inserted = noise
    at %= len(text) + 1
    for line in (left + text + right + "\n",
                 left + text[:at] + inserted + text[at:] + right + "\n"):
        expected = _outcome(_oracle_parse_line, line)
        assert _outcome(eventlog._parse_line, line) == expected
        with pytest.MonkeyPatch.context() as patched:
            # json.loads alone, as for every line the scanner refuses
            patched.setattr(eventlog, "_scan_once", _no_value)
            assert _outcome(eventlog._parse_line, line) == expected


def test_valid_lines_never_reach_json_loads(tmp_path, monkeypatch):
    registered = EventRecord(2, KIND_REGISTER, 2, register_payload("cars"))
    path = write_lines(tmp_path / "m.jsonl",
                       [" \t" + RATED + "\r", registered.to_json() + " "])

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads parsed a valid line")
    monkeypatch.setattr(json, "loads", refuse)
    assert replay(path).last_seq == 2


def scan_reference(data, lines, last_seq, start):
    """What a scan of `data`, a log's bytes from byte `start` on, after
    `lines` lines ending in `last_seq`, yields and ends with, read from
    `bytes.split` and `json.loads`: ((line_no, record) pairs, (lines,
    last_seq, end, torn_line), (message, line) of the CorruptLog or
    None)."""
    *complete, rest = data.split(b"\n")
    pairs, end = [], start
    for line_no, raw in enumerate(complete, lines + 1):
        try:
            try:
                line = (raw + b"\n").decode("utf-8")
            except UnicodeDecodeError:
                raise CorruptLog("not valid UTF-8", line_no) from None
            if not line.strip():
                raise CorruptLog("blank line", line_no)
            record = _oracle_parse_line(line, line_no)
            if record.seq <= last_seq:
                raise CorruptLog(f"sequence {record.seq} not greater than "
                                 f"previous {last_seq}", line_no)
        except CorruptLog as exc:
            return pairs, (lines, last_seq, end, None), (str(exc), line_no)
        pairs.append((line_no, record))
        lines, last_seq, end = line_no, record.seq, end + len(raw) + 1
    return pairs, (lines, last_seq, end, lines + 1 if rest else None), None


def scanned(data, lines, last_seq, start):
    """The same, from `_Scan` over a handle on `data` at byte `start`."""
    handle = io.BytesIO(data)
    handle.seek(start)
    scan = eventlog._Scan(handle, lines, last_seq)
    pairs, error = [], None
    try:
        for pair in scan:
            pairs.append(pair)
    except CorruptLog as exc:
        error = str(exc), exc.line_no
    return (pairs, (scan.lines, scan.last_seq, scan.end, scan.torn_line),
            error)


# Text with characters of one, two and three UTF-8 bytes and the two that
# JSON escapes, so that a line's length in bytes is not its length in
# characters.
SCAN_TEXT = st.text(alphabet='a é日"\\', max_size=6)
SCAN_DAMAGES = st.sampled_from([
    lambda raw, seq: b"\n", lambda raw, seq: b" \t\r\n",
    lambda raw, seq: "\u3000\n".encode(), lambda raw, seq: b"\xff\n",
    lambda raw, seq: raw[:len(raw) // 2] + b"\n",
    lambda raw, seq: raw.replace(b'"seq":%d' % seq, b'"seq":%d' % (seq - 1)),
    lambda raw, seq: raw.replace(b'"seq":%d' % seq, b'"seq":0')])
SCAN_TAILS = st.sampled_from([b"", b'{"seq":99,"kind":"rat', "é".encode(),
                              b"\xe6\x97"])


@st.composite
def scan_logs(draw):
    """(log bytes, line count and last seq before the scan, its start):
    lines of rising seq, each ending in LF or CR LF, maybe one damaged at
    a drawn position, maybe a torn last line, scanned from a drawn line
    on."""
    seqs = sorted(draw(st.sets(st.integers(1, 60), max_size=8)))
    raws = [json.dumps({"seq": seq, "kind": draw(st.sampled_from(KINDS)),
                        "at": seq, "payload": {"note": draw(SCAN_TEXT)}},
                       ensure_ascii=False, separators=(",", ":"))
            .encode("utf-8")
            + draw(st.sampled_from([b"\n", b"\r\n"])) for seq in seqs]
    if raws and draw(st.booleans()):
        at = draw(st.integers(0, len(raws) - 1))
        raws[at] = draw(SCAN_DAMAGES)(raws[at], seqs[at])
    skip = draw(st.integers(0, len(raws)))
    last_seq = seqs[skip - 1] if skip else 0
    return (b"".join(raws) + draw(SCAN_TAILS), skip, last_seq,
            len(b"".join(raws[:skip])))


@settings(max_examples=profile_examples(300, 1200), deadline=None)
@given(scan_logs())
# one valid line holding characters of two and three bytes
@example((json.dumps({"seq": 1, "kind": "rating", "at": 1,
                      "payload": {"note": "é日"}}, ensure_ascii=False)
          .encode("utf-8") + b"\n", 0, 0, 0))
def test_scan_bookkeeping_agrees_with_a_split_reference(log):
    data, lines, last_seq, start = log
    assert scanned(data, lines, last_seq, start) \
        == scan_reference(data[start:], lines, last_seq, start)


# ------------------------------------------------------------------
# replay
# ------------------------------------------------------------------

def build_log(tmp_path):
    log = EventLog(tmp_path / "m.jsonl")
    log.append(KIND_REGISTER, register_payload("seller"))
    log.append(KIND_REGISTER, register_payload("buyer", tier="medium"))
    return log


def test_replay_keeps_only_latest_per_key(tmp_path):
    log = build_log(tmp_path)
    for at, value in ((1, 1), (2, -1), (3, 0)):
        log.append(KIND_RATING,
                   rating_payload("A000002", "A000001", value=value, at=at))
    state = replay(log.path)
    snapshot = state.store.snapshot()
    assert len(snapshot) == 1
    ((_, rating),) = snapshot.items()
    assert (rating.value, rating.at) == (0, 3)
    assert state.rejections == []
    assert state.last_seq == 5


def test_replay_collects_duplicate_registration(tmp_path):
    log = build_log(tmp_path)
    log.append(KIND_REGISTER, register_payload("seller"))
    state = replay(log.path)
    assert len(state.registry.accounts) == 2
    assert len(state.rejections) == 1
    line_no, seq, message = state.rejections[0]
    assert (line_no, seq) == (3, 3)
    assert "already registered" in message


def test_replay_collects_stale_rating(tmp_path):
    log = build_log(tmp_path)
    log.append(KIND_RATING, rating_payload("A000002", "A000001", at=5))
    log.append(KIND_RATING, rating_payload("A000002", "A000001", at=5))
    state = replay(log.path)
    assert len(state.store.snapshot()) == 1
    assert len(state.rejections) == 1
    assert state.rejections[0][0] == 4


def test_replay_matches_live_state(tmp_path):
    log = build_log(tmp_path)
    log.append(KIND_RATING, rating_payload("A000002", "A000001", at=1))
    log.append(KIND_RATING,
               rating_payload("A000002", "A000001", at=1, scope="phones"))
    log.append(KIND_RATING,
               rating_payload("A000001", "A000002", value=-1, at=2))

    live = MarketState()
    for record in logged(log.path):
        apply_event(record, live)

    assert replay(log.path).describe() == live.describe()


def test_replay_writes_every_line_through_the_patched_probes(tmp_path,
                                                              monkeypatch):
    # The tracer and the benchmark's checks count these calls; a fast path
    # that went around one would hide events from both.
    log = build_log(tmp_path)
    register(log, "seller")                       # a duplicate identity
    for at in (1, 2, 2):                          # the last one is stale
        log.append(KIND_RATING, rating_payload("A000002", "A000001", at=at))
    log.append(KIND_RATING, rating_payload("A000002", "A000009", at=3))
    kinds = [record.kind for record in logged(log.path)]
    calls = {}

    def counted(owner, name):
        original = getattr(owner, name)

        def count(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, count)

    counted(eventlog, "_parse_line")
    counted(eventlog, "apply_event")
    counted(Registry, "register")
    counted(RatingStore, "record")
    counted(ratings, "_set_rater")
    state = replay(log.path)
    assert len(state.rejections) == 3
    assert calls == {"_parse_line": len(kinds), "apply_event": len(kinds),
                     "register": kinds.count(KIND_REGISTER),
                     "record": kinds.count(KIND_RATING),
                     "_set_rater": kinds.count(KIND_RATING)}


def test_describe_flattens_keys(tmp_path):
    log = build_log(tmp_path)
    log.append(KIND_RATING, rating_payload("A000002", "A000001", at=1))
    description = replay(log.path).describe()
    assert description["accounts"] == {"A000001": "high", "A000002": "medium"}
    assert description["ratings"] == {"A000002|A000001|laptops": (1, 100, 1)}
    assert description["revision"] == 1


REGISTRATIONS = [EventRecord(seq, KIND_REGISTER, seq, register_payload(tag))
                 for seq, tag in ((1, "a"), (2, "b"))]


def replayed_line_3(tmp_path, record):
    """The CorruptLog that `replay` raises for a log of two registrations
    with `record` as line 3."""
    path = write_lines(tmp_path / "m.jsonl",
                       [line.to_json() for line in (*REGISTRATIONS, record)])
    with pytest.raises(CorruptLog) as replayed:
        replay(path)
    return replayed.value


def replayed_damage(tmp_path, kind, payload):
    """(replay's error, apply_event's error) for an event of `kind` with
    `payload` written as line 3, after two registrations; the direct
    apply, on the state of those two, must write nothing."""
    record = EventRecord(3, kind, 3, payload)
    replayed = replayed_line_3(tmp_path, record)
    state = MarketState()
    for registration in REGISTRATIONS:
        apply_event(registration, state)
    before = state.describe()
    with pytest.raises((KeyError, TypeError, ValueError)) as applied:
        apply_event(record, state)
    assert state.describe() == before
    return replayed, applied.value


@pytest.mark.parametrize("payload", [
    {},                                        # no credentials at all
    {"credentials": {"personal": "nope"}},     # wrong shape
    {"credentials": {**credentials_for("typo", "medium").to_dict(),
                     "evidense": vars(evidence_block("typo"))}},  # misspelt
    {"credentials": []},                       # not an object
])
def test_malformed_register_payload(tmp_path, payload):
    replayed, applied = replayed_damage(tmp_path, KIND_REGISTER, payload)
    assert replayed.line_no == 3
    assert str(replayed) == f"line 3: malformed register payload: {applied}"


def test_malformed_rating_payload(tmp_path):
    replayed, applied = replayed_damage(tmp_path, KIND_RATING,
                                        {"rater": "A000001"})
    assert type(applied) is KeyError
    assert str(replayed) == "line 3: malformed rating payload: 'ratee'"


@pytest.mark.parametrize("fields", ['"value":1,"cost":NaN',
                                    '"value":true,"cost":100'],
                         ids=["nan-cost", "bool-value"])
def test_replay_refuses_hostile_rating_values(tmp_path, fields):
    path = tmp_path / "m.jsonl"
    log = EventLog(path)
    for tag in ("a", "b"):
        log.append(KIND_REGISTER, register_payload(tag))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"seq":3,"kind":"rating","at":3,"payload":'
                     '{"rater":"A000002","ratee":"A000001","scope":"laptops",'
                     + fields + '}}\n')
    with pytest.raises(CorruptLog) as excinfo:
        replay(path)
    assert excinfo.value.line_no == 3


def with_credential(tag, block, name, value):
    payload = register_payload(tag)
    payload["credentials"][block][name] = value
    return payload


# A third line that no ledger command may read past.
HOSTILE_LINES = {
    "cost beyond float range": (KIND_RATING, {
        **rating_payload("A000002", "A000001", at=3), "cost": 10**400}),
    "scope not a string": (KIND_RATING, rating_payload(
        "A000002", "A000001", at=3, scope=5)),
    "credential field not a string": (KIND_REGISTER, with_credential(
        "c", "personal", "full_name", 5)),
    "declaration not a bool": (KIND_REGISTER, with_credential(
        "c", "evidence", "signed_declaration", "no")),
    "business field not a string after a blank one": (KIND_REGISTER, {
        "credentials": {**credentials_for("c", "low").to_dict(),
                        "business": {"national_id": "", "bank_or_card": "x",
                                     "business_phone": 5,
                                     "business_address": [1]}}}),
}


@pytest.mark.parametrize("command", ["replay", "opinion", "rate"])
@pytest.mark.parametrize("line", sorted(HOSTILE_LINES))
def test_a_hostile_line_is_damage_to_every_command(capsys, tmp_path, line,
                                                   command):
    path = tmp_path / "m.jsonl"
    kind, payload = HOSTILE_LINES[line]
    write_lines(path, [
        *(EventRecord(seq, KIND_REGISTER, seq, register_payload(tag)).to_json()
          for seq, tag in ((1, "a"), (2, "b"))),
        EventRecord(3, kind, 3, payload).to_json()])
    before = path.read_bytes()
    log = ["--log", str(path)]
    argv = {"replay": ["replay", str(path)],
            "opinion": ["opinion", *log, "--buyer", "A000002", "--seller",
                        "A000001", "--scope", "laptops", "--price", "10"],
            "rate": ["rate", *log, "--rater", "A000002", "--ratee",
                     "A000001", "--scope", "laptops", "--value", "1"]}[command]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: line 3: malformed {kind} payload: ")
    assert err.count("\n") == 1
    assert path.read_bytes() == before
    assert not path.with_name(path.name + ".ckpt").exists()


def test_apply_event_refuses_other_kinds():
    state = MarketState()
    for kind in ("listing", "deal", "gossip"):
        record = EventRecord(seq=1, kind=kind, at=1, payload={"anything": 1})
        with pytest.raises(ValueError) as excinfo:
            apply_event(record, state)
        assert str(excinfo.value) == f"unknown event kind {kind!r}"
    assert state.describe() == MarketState().describe()


@pytest.mark.parametrize("kind", ["listing", "deal", "gossip"])
def test_replay_refuses_other_kinds_at_their_line(tmp_path, kind):
    replayed = replayed_line_3(tmp_path, EventRecord(3, kind, 3, {"x": 1}))
    assert replayed.line_no == 3
    assert str(replayed) == f"line 3: unknown kind {kind!r}"


# ------------------------------------------------------------------
# locked cycle and torn tail
# ------------------------------------------------------------------

def test_locked_numbers_on_from_the_replayed_state(tmp_path):
    log = build_log(tmp_path)
    with log.locked() as state:
        assert state.last_seq == 2
        assert len(state.registry.accounts) == 2
        assert register(log, "c").seq == 3
        assert register(log, "d").seq == 4
        assert log.path.read_text().count("\n") == 2    # written on exit
    assert [record.seq for record in logged(log.path)] == [1, 2, 3, 4]
    assert register(log, "e").seq == 5


def test_error_inside_locked_writes_nothing(tmp_path):
    log = build_log(tmp_path)
    before = log.path.read_bytes()
    with pytest.raises(UnknownAccount):
        with log.locked() as state:
            register(log, "c")
            state.store.record(
                Rating("A000009", "A000001", "laptops", 1, 10, 3),
                registry=state.registry)
    assert log.path.read_bytes() == before
    assert register(log, "c").seq == 3


TORN = '{"seq":3,"kind":"rating","at":3,"payload":{"rater":"A0'


def torn_log(tmp_path):
    log = build_log(tmp_path)
    clean = log.path.read_bytes()
    with open(log.path, "a", encoding="utf-8") as handle:
        handle.write(TORN)                # a crash mid-append
    return log.path, clean


def test_replay_skips_and_reports_a_torn_tail(tmp_path):
    path, _ = torn_log(tmp_path)
    state = replay(path)
    assert state.torn_line == 3
    assert state.last_seq == 2
    assert len(state.registry.accounts) == 2
    assert "torn_line" not in state.describe()
    read = EventLog(path).read_state()
    assert (read.torn_line, read.last_seq) == (3, 2)
    assert EventLog(path).last_seq == 2


@pytest.mark.parametrize("locked", [True, False], ids=["locked", "bare"])
def test_next_append_cuts_off_a_torn_tail(tmp_path, locked):
    path, clean = torn_log(tmp_path)
    log = EventLog(path)
    if locked:
        with log.locked() as state:
            assert state.torn_line == 3
            record = register(log, "c")
    else:
        record = register(log, "c")
    assert record.seq == 3
    assert path.read_bytes() == clean + (record.to_json() + "\n").encode()
    assert replay(path).torn_line is None


def test_locked_without_append_leaves_a_torn_tail_alone(tmp_path):
    path, clean = torn_log(tmp_path)
    with EventLog(path).locked():
        pass
    assert path.read_bytes() == clean + TORN.encode()
