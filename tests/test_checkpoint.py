"""The ledger checkpoint: checkpoint plus tail equals a full replay, and a
checkpoint that is stale or damaged is ignored without a trace in the
output."""

import copy
import hashlib
import io
import json
import math
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import credentials_for
from trustmarket import eventlog
from trustmarket.cli import main
from trustmarket.engine import ListingContext, compute_opinion
from trustmarket.eventlog import (KIND_RATING, KIND_REGISTER, EventLog,
                                  EventRecord, replay)
from trustmarket.identity import CredentialSet, PersonalDetails


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


class counted_parse:
    """Collects the line numbers the log's line parser is handed."""

    def __enter__(self):
        self.lines = []
        parse = eventlog._parse_line
        self._patch = mock.patch.object(
            eventlog, "_parse_line",
            lambda line, line_no: self.lines.append(line_no)
            or parse(line, line_no))
        self._patch.start()
        return self.lines

    def __exit__(self, *exc):
        self._patch.stop()


def checkpoint_of(path):
    return path.with_name(path.name + ".ckpt")


def same_state(state, full):
    assert state.describe() == full.describe()
    assert state.registry.accounts == full.registry.accounts
    assert state.store.snapshot() == full.store.snapshot()
    assert (state.last_seq, state.torn_line) == (full.last_seq, full.torn_line)


# ------------------------------------------------------------------
# checkpoint plus tail equals a full replay
# ------------------------------------------------------------------

ACCOUNTS = ["A000001", "A000002", "A000003", "A000099"]   # last: unknown
INCOMPLETE = CredentialSet(personal=PersonalDetails()).to_dict()
OPENING = [(KIND_REGISTER, {"credentials": credentials_for(tag).to_dict()})
           for tag in "abc"]

# Logs written before the account role flags were dropped still carry them.
legacy_roles = st.one_of(st.just({}), st.fixed_dictionaries(
    {"is_seller": st.booleans(), "is_buyer": st.booleans()}))
registrations = st.builds(
    lambda tag, tier, roles: (KIND_REGISTER, {
        "credentials": (INCOMPLETE if tier == "none"
                        else credentials_for(tag, tier).to_dict()),
        **roles}),
    st.sampled_from("abcd"), st.sampled_from(["low", "medium", "high", "none"]),
    legacy_roles)
PAIRS = sorted(((rater, ratee) for rater in ACCOUNTS for ratee in ACCOUNTS),
               key=lambda pair: (pair[0] == pair[1], "A000099" in pair))


def rating_event(pair, scope, value, cost, at):
    payload = {"rater": pair[0], "ratee": pair[1], "scope": scope,
               "value": value, "cost": cost}
    if at is not None:                  # else the record's own, rising at
        payload["at"] = at
    return KIND_RATING, payload


ratings = st.builds(
    rating_event, st.sampled_from(PAIRS),
    st.sampled_from(["books", "Books ", "garden"]), st.sampled_from([1, 0, -1]),
    st.one_of(st.integers(0, 500), st.floats(0, 500)),
    st.one_of(st.none(), st.integers(1, 12)))


@settings(deadline=None)
@given(events=st.lists(st.one_of(registrations, ratings, ratings, ratings),
                       max_size=40),
       cut=st.floats(0, 1), torn=st.booleans(),
       buyer=st.sampled_from(ACCOUNTS), seller=st.sampled_from(ACCOUNTS))
def test_checkpoint_plus_tail_equals_full_replay(events, cut, torn, buyer,
                                                 seller):
    lines = [EventRecord(seq=seq, kind=kind, at=seq, payload=payload)
             .to_json() + "\n"
             for seq, (kind, payload) in enumerate(OPENING + events, 1)]
    covered = int(cut * len(lines))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.jsonl"
        log = EventLog(path)
        path.write_text("".join(lines[:covered]), encoding="utf-8")
        with log.locked():
            pass                                 # checkpoints the prefix
        assert checkpoint_of(path).exists() == (covered > 0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(lines[covered:]))
            if torn:
                handle.write('{"seq":99,"kind":"de')
        full = replay(path)
        with counted_parse() as parsed:
            same_state(log.read_state(), full)
        assert parsed == list(range(covered + 1, len(lines) + 1))

        opinion = ["opinion", "--log", path, "--buyer", buyer,
                   "--seller", seller, "--scope", "books", "--price", "50",
                   "--format", "json"]
        with_checkpoint = run(*opinion)
        checkpoint_of(path).unlink(missing_ok=True)
        assert run(*opinion) == with_checkpoint

        with log.locked() as state:              # full replay, checkpoints
            same_state(state, full)
        with counted_parse() as parsed, log.locked() as state:
            same_state(state, full)
        assert parsed == []


# ------------------------------------------------------------------
# a bad checkpoint is ignored
# ------------------------------------------------------------------

def register_args(log, tag):
    return ["register", "--log", log, "--full-name", f"{tag} holder",
            "--address", f"1 {tag} way", "--phone", f"tel-{tag}",
            "--city", "Lund", "--country", "SE", "--national-id", f"nid-{tag}",
            "--bank-or-card", f"card-{tag}", "--business-phone", f"biz-{tag}",
            "--business-address", f"2 {tag} way"]


def rate_args(log, rater, ratee, value, cost=120):
    return ["rate", "--log", log, "--rater", rater, "--ratee", ratee,
            "--scope", "laptops", "--value", value, "--cost", cost,
            "--format", "json"]


def opinion_args(log, buyer):
    return ["opinion", "--log", log, "--buyer", buyer, "--seller", "A000001",
            "--scope", "laptops", "--price", "100", "--format", "json"]


@pytest.fixture
def ledger(tmp_path):
    """A five-account ledger whose checkpoint covers all but its last line,
    and a copy of it from before the last two ratings."""
    log = tmp_path / "live" / "market.jsonl"
    log.parent.mkdir()
    for tag in ("seller", "b2", "b3", "b4", "b5"):
        assert run(*register_args(log, tag))[0] == 0
    for rater, value in (("A000002", 1), ("A000003", -1), ("A000004", 1)):
        assert run(*rate_args(log, rater, "A000001", value))[0] == 0
    shutil.copyfile(log, tmp_path / "early.jsonl")
    assert run(*rate_args(log, "A000001", "A000002", 1))[0] == 0
    checkpoint_of(log).unlink()          # so the last rate saves lines 1-9
    assert run(*rate_args(log, "A000005", "A000001", 0))[0] == 0
    assert json.loads(checkpoint_of(log).read_text())["lines"] == 9
    return log


def edit_checkpoint(change):
    def damage(log, early):
        data = json.loads(checkpoint_of(log).read_text())
        change(data)
        checkpoint_of(log).write_text(json.dumps(data))
    return damage


def write_checkpoint(text):
    def damage(log, early):
        checkpoint_of(log).write_text(text(checkpoint_of(log).read_text()))
    return damage


def edit_one_byte(log, early):
    # the second rating's -1 becomes -0, which reads as 0: a new history
    data = log.read_bytes()
    at = data.index(b'"value":-1') + len(b'"value":-')
    log.write_bytes(data[:at] + b"0" + data[at + 1:])


# The ledger's checkpoint holds two buckets: A000001 rated in laptops by
# A000002, A000003 and A000004, and A000002 rated in laptops by A000001.

def set_rating_field(name, value):
    # the last rating, or the last bucket, which a min() or max() over a
    # column with a NaN before it would not see
    def change(data):
        data["ratings"][name][-1] = value
    return change


def self_rating(bucket):
    # the bucket's first rater made its ratee, which keeps its raters rising
    def change(data):
        columns = data["ratings"]
        start = sum(columns["count"][:bucket])
        columns["rater"][start] = columns["ratee"][bucket]
    return change


def add_bucket(ratee, scope, *ratings):
    # a bucket of (rater, value, cost, at) ratings after the others
    def change(data):
        columns = data["ratings"]
        columns["ratee"].append(ratee)
        columns["scope"].append(scope)
        columns["count"].append(len(ratings))
        for rating in ratings:
            for name, value in zip(("rater", "value", "cost", "at"), rating):
                columns[name].append(value)
    return change


def repeated_rater(data):
    # the first bucket's second rater made its first: A000002 twice
    raters = data["ratings"]["rater"]
    raters[1] = raters[0]


def count_short_of_the_ratings(data):
    # the first bucket one rating short, so that its last rating would
    # fall to the second bucket's ratee
    data["ratings"]["count"][0] -= 1


def set_block(index, edit):
    # edit the second account's credential block `index`
    def change(data):
        blocks = data["accounts"]["credentials"][1]
        blocks[index] = edit(blocks[index])
    return change


def same_national_id(data):
    # the second account's national id, written as the first's in other
    # case, which `normalize_identity` reads as the same
    first, second = data["accounts"]["credentials"][:2]
    second[1][0] = first[1][0].upper()


def orphan_evidence(data):
    # the ledger's accounts are medium: the second gets an evidence block
    # that would make it high, in place of its business block
    data["accounts"]["credentials"][1][1:] = [None, ["ref", "scan", "cert",
                                                     True]]


DAMAGES = {
    "log overwritten by a shorter copy":
        lambda log, early: shutil.copyfile(early, log),
    "one byte of the prefix edited": edit_one_byte,
    "checkpoint truncated": write_checkpoint(lambda text: text[:len(text) // 2]),
    "checkpoint not JSON": write_checkpoint(lambda text: "checkpoint"),
    "checkpoint nested too deeply": write_checkpoint(
        lambda text: "[" * 100_000 + "]" * 100_000),
    "wrong version": edit_checkpoint(lambda data: data.update(version=1)),
    "offset past the end": edit_checkpoint(lambda data: data.update(offset=10**15)),
    "rating value true": edit_checkpoint(set_rating_field("value", True)),
    "rating at not an int": edit_checkpoint(set_rating_field("at", "noon")),
    "rating cost NaN": edit_checkpoint(set_rating_field("cost", float("nan"))),
    "rating cost too large for a float": edit_checkpoint(
        set_rating_field("cost", 10**400)),
    "self-rating": edit_checkpoint(self_rating(0)),
    "rating from an unknown account": edit_checkpoint(
        set_rating_field("rater", "A000099")),
    "account id out of order": edit_checkpoint(
        lambda data: data["accounts"]["ids"].reverse()),
    "account entry one block short": edit_checkpoint(
        lambda data: data["accounts"]["credentials"][1].pop()),
    "credential block given as a string": edit_checkpoint(
        set_block(0, lambda block: "".join(value[0] for value in block))),
    "credential block one field short": edit_checkpoint(
        set_block(1, lambda block: block[:-1])),
    "credential block one field long": edit_checkpoint(
        set_block(1, lambda block: [*block, "x"])),
    "credential field not a string": edit_checkpoint(
        set_block(0, lambda block: [5, *block[1:]])),
    "credential field not a string after a blank one": edit_checkpoint(
        set_block(1, lambda block: ["", block[1], 5, block[3]])),
    "credential declaration not a bool": edit_checkpoint(
        set_block(2, lambda block: ["ref", "scan", "cert", "no"])),
    "two national ids that normalize alike": edit_checkpoint(
        same_national_id),
    "evidence block with a null business block": edit_checkpoint(
        orphan_evidence),
    "null personal block": edit_checkpoint(set_block(0, lambda block: None)),
    "blank personal field": edit_checkpoint(
        set_block(0, lambda block: [block[0], " ", *block[2:]])),
    "credential field names differ": edit_checkpoint(
        lambda data: data["accounts"]["fields"][0].reverse()),
    # a later rating on the first one's key, which replaying the ratings
    # one by one would have taken as a replacement
    "repeated rating key": edit_checkpoint(
        add_bucket("A000001", "laptops", ("A000002", -1, 5, 99))),
    "rating column one short": edit_checkpoint(
        lambda data: data["ratings"]["at"].pop()),
    "rating columns with a seventh key": edit_checkpoint(
        lambda data: data["ratings"].update(extra=data["ratings"]["at"])),
    "rating column not a list": edit_checkpoint(
        lambda data: data["ratings"].update(
            at="9" * len(data["ratings"]["at"]))),
    "rating value 1.0": edit_checkpoint(set_rating_field("value", 1.0)),
    "rating cost -1": edit_checkpoint(set_rating_field("cost", -1)),
    "rating cost inf": edit_checkpoint(set_rating_field("cost", float("inf"))),
    "rating cost true": edit_checkpoint(set_rating_field("cost", True)),
    "rating scope blank": edit_checkpoint(set_rating_field("scope", " ")),
    "rating scope not a string": edit_checkpoint(set_rating_field("scope", 7)),
    "rating of an unknown account": edit_checkpoint(
        set_rating_field("ratee", "A000099")),
    "bucket count of 0": edit_checkpoint(add_bucket("A000003", "garden")),
    "bucket counts short of the ratings": edit_checkpoint(
        count_short_of_the_ratings),
    "two equal raters in one bucket": edit_checkpoint(repeated_rater),
    "two buckets whose scopes normalize alike": edit_checkpoint(
        add_bucket("A000001", " Laptops", ("A000005", 0, 5, 99))),
    "self-rating in a later bucket": edit_checkpoint(self_rating(1)),
    "first bucket's ratee an unknown account": edit_checkpoint(
        lambda data: data["ratings"]["ratee"].__setitem__(0, "A000099")),
}


@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_bad_checkpoint_falls_back_to_a_full_replay(ledger, tmp_path, damage):
    DAMAGES[damage](ledger, tmp_path / "early.jsonl")
    reference = tmp_path / "reference" / "market.jsonl"
    reference.parent.mkdir()
    shutil.copyfile(ledger, reference)           # the same log, no checkpoint
    lines = len(ledger.read_text().splitlines())
    outputs = {}
    for log in (ledger, reference):
        with counted_parse() as parsed:
            first = run(*opinion_args(log, "A000002"))
        assert parsed == list(range(1, lines + 1))
        outputs[log] = [first,
                        run(*rate_args(log, "A000003", "A000001", 1)),
                        run(*opinion_args(log, "A000003")),
                        run("replay", log, "--format", "json")]
        assert first[0] == 0
    assert outputs[ledger] == outputs[reference]
    assert ledger.read_bytes() == reference.read_bytes()
    assert checkpoint_of(ledger).read_bytes() \
        == checkpoint_of(reference).read_bytes()


def test_a_rating_at_that_is_not_an_int_is_damage(tmp_path):
    log = tmp_path / "market.jsonl"
    for tag in ("seller", "b2"):
        assert run(*register_args(log, tag))[0] == 0
    for scope, at in (("laptops", "noon"), ("cars", 5)):    # hand-written
        EventLog(log).append(KIND_RATING, {
            "rater": "A000002", "ratee": "A000001", "scope": scope,
            "value": 1, "cost": 10, "at": at})
    kept = log.read_bytes(), checkpoint_of(log).read_bytes()
    for argv in (["replay", log],
                 ["opinion", "--log", log, "--buyer", "A000002", "--seller",
                  "A000001", "--scope", "garden", "--price", "5"],
                 rate_args(log, "A000001", "A000002", 1)):
        code, out, err = run(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: line 3: malformed rating payload: ")
        assert err.count("\n") == 1
    assert (log.read_bytes(), checkpoint_of(log).read_bytes()) == kept


def test_unwritable_checkpoint_is_not_an_error(tmp_path):
    log = tmp_path / "market.jsonl"
    checkpoint_of(log).mkdir()                   # cannot be read or replaced
    for tag in ("seller", "buyer"):
        assert run(*register_args(log, tag))[0] == 0
    assert run(*rate_args(log, "A000002", "A000001", 1))[0] == 0
    code, out, _ = run(*opinion_args(log, "A000002"))
    assert code == 0 and json.loads(out)["recommended"] == 1.0
    assert checkpoint_of(log).is_dir()
    assert not log.with_name(log.name + ".ckpt.tmp").exists()


# ------------------------------------------------------------------
# what gets written, and when
# ------------------------------------------------------------------

def test_replay_ignores_the_checkpoint(ledger):
    full = replay(ledger)
    checkpoint_of(ledger).write_text("checkpoint")
    with counted_parse() as parsed:
        same_state(replay(ledger), full)
    assert parsed == list(range(1, full.last_seq + 1))


def live_items(state):
    return len(state.store) + len(state.registry)


@pytest.mark.parametrize("damage", ["missing", "damaged"])
def test_without_a_valid_checkpoint_any_non_empty_tail_saves(ledger, damage):
    log = EventLog(ledger)
    assert eventlog._save_interval(live_items(log.read_state())) > 1
    if damage == "missing":
        checkpoint_of(ledger).unlink()
    else:
        checkpoint_of(ledger).write_text("checkpoint")
    with log.locked():
        pass
    assert json.loads(checkpoint_of(ledger).read_text())["lines"] == 10

    empty = EventLog(ledger.with_name("empty.jsonl"))
    with empty.locked():
        pass
    assert not checkpoint_of(empty.path).exists()


def grown_ledger(path, ratings):
    """A ledger of 12 accounts and `ratings` ratings among them, with a
    checkpoint that covers all of it."""
    log = EventLog(path)
    for tag in range(12):
        log.append(KIND_REGISTER,
                   {"credentials": credentials_for(f"g{tag}").to_dict()})
    rng = random.Random(ratings)
    for _ in range(ratings):
        rater, ratee = rng.sample(range(1, 13), 2)
        log.append(KIND_RATING, {
            "rater": f"A{rater:06d}", "ratee": f"A{ratee:06d}",
            "scope": rng.choice(["books", "garden", "tools"]),
            "value": rng.choice([1, 0, -1]), "cost": rng.randint(1, 500)})
    with log.locked():
        pass
    return log


def refused(log):
    """Append a rating by an account the log never registered, which
    replay collects as a rejection."""
    log.append(KIND_RATING, {"rater": "A000099", "ratee": "A000001",
                             "scope": "books", "value": 1, "cost": 5})


@pytest.mark.parametrize("ratings", [0, 40, 300])
def test_checkpoint_is_saved_once_the_tail_reaches_the_interval(tmp_path,
                                                                ratings):
    log = grown_ledger(tmp_path / "market.jsonl", ratings)
    covered = json.loads(checkpoint_of(log.path).read_text())["lines"]
    due = math.ceil(eventlog._save_interval(live_items(log.read_state())))
    assert covered == 12 + ratings and due >= 1
    for _ in range(due - 1):                     # refusals leave N unchanged
        refused(log)
    saved = checkpoint_of(log.path).stat()
    with log.locked():                           # a tail of due - 1 lines
        pass
    log.read_state()
    assert checkpoint_of(log.path).stat().st_ino == saved.st_ino
    refused(log)
    with log.locked():                           # a tail of due lines
        pass
    assert checkpoint_of(log.path).stat().st_ino != saved.st_ino
    assert json.loads(checkpoint_of(log.path).read_text())["lines"] \
        == covered + due
    saved = checkpoint_of(log.path).stat()
    with log.locked():                           # an empty tail
        pass
    assert checkpoint_of(log.path).stat().st_ino == saved.st_ino


def test_an_opinion_builds_only_the_sellers_ratings(tmp_path):
    log = grown_ledger(tmp_path / "market.jsonl", 300)  # each rating its own at
    saved = checkpoint_of(log.path).read_bytes()        # by a full replay
    full = replay(log.path)
    buyer, seller = "A000003", "A000007"
    listing = ListingContext(scope="garden", price=50.0)

    def unbuilt_after_opinion(state):
        received = state.store.received
        assert all(ratee.rows is not None for ratee in received.values())
        assert compute_opinion(buyer, seller, listing, state.store,
                               state.registry) \
            == compute_opinion(buyer, seller, listing, full.store,
                               full.registry)
        return {(ratee, scope) for ratee, ratings in received.items()
                if ratings.rows is not None for scope in ratings.rows}

    # the opinion builds the seller's bucket in the listing's scope and
    # each of the seller's buckets that holds a rating by the buyer
    buckets = {(ratee, scope) for ratee, ratings in full.store.received.items()
               for scope in ratings.scopes}
    read = {(seller, "garden")} | {
        (seller, rating.scope)
        for rating in full.store.ratings_between(buyer, seller)}
    assert any(bucket[0] == seller for bucket in buckets - read)
    assert unbuilt_after_opinion(log.read_state()) == buckets - read
    with open(log.path, "rb") as handle:        # what read_state restores
        state, scan, prefix = eventlog._replay(handle, checkpoint_of(log.path))
    assert unbuilt_after_opinion(state) == buckets - read
    again = tmp_path / "again.ckpt"
    eventlog._save_checkpoint(again, state, scan, prefix)
    assert again.read_bytes() == saved
    same_state(state, full)


def test_a_tail_rating_builds_only_its_own_bucket(tmp_path):
    # A000001 is rated in books, then in laptops, each bucket's raters
    # logged out of order, so a save that kept the order its buckets were
    # built in would differ from a full replay's
    log = EventLog(tmp_path / "market.jsonl")
    for tag in ("seller", "b2", "b3", "b4"):
        log.append(KIND_REGISTER,
                   {"credentials": credentials_for(tag).to_dict()})
    for scope in ("books", "laptops"):
        for rater in ("A000003", "A000002"):
            log.append(KIND_RATING, {"rater": rater, "ratee": "A000001",
                                     "scope": scope, "value": 1, "cost": 5})
    with log.locked():                           # a full replay saves
        pass
    assert run(*rate_args(log.path, "A000004", "A000001", -1))[0] == 0
    with open(log.path, "rb") as handle:        # what read_state restores
        state, scan, prefix = eventlog._replay(handle, checkpoint_of(log.path))
        assert scan.lines - scan.start_line == 1     # the rate, in laptops
        assert list(state.store.received["A000001"].rows) == ["books"]
        handle.seek(scan.start)                     # as locked() saves it
        eventlog._hash_next(prefix, handle, scan.end - scan.start)
    eventlog._save_checkpoint(tmp_path / "again.ckpt", state, scan, prefix)
    checkpoint_of(log.path).unlink()
    with log.locked() as full:                   # a full replay saves
        same_state(state, full)
    assert (tmp_path / "again.ckpt").read_bytes() \
        == checkpoint_of(log.path).read_bytes()


def test_a_restore_builds_credentials_only_when_read(tmp_path):
    log = grown_ledger(tmp_path / "market.jsonl", 300)
    saved = checkpoint_of(log.path).read_bytes()        # by a full replay
    full = replay(log.path)
    built = []
    post_init = CredentialSet.__post_init__
    with mock.patch.object(CredentialSet, "__post_init__",
                           lambda self: built.append(self) or post_init(self)):
        state = log.read_state()
        with open(log.path, "rb") as handle:        # what read_state restores
            again, scan, prefix = eventlog._replay(handle,
                                                   checkpoint_of(log.path))
        assert run(*opinion_args(log.path, "A000002"))[0] == 0
        assert run(*rate_args(log.path, "A000003", "A000001", 1))[0] == 0
        eventlog._save_checkpoint(tmp_path / "again.ckpt", again, scan,
                                  prefix)
    assert built == []
    same_state(copy.deepcopy(state), full)
    assert {account_id: account.credentials
            for account_id, account in state.registry.accounts.items()} \
        == {account_id: account.credentials
            for account_id, account in full.registry.accounts.items()}
    assert (tmp_path / "again.ckpt").read_bytes() == saved


def test_a_command_mix_replays_a_bounded_tail(tmp_path):
    log = grown_ledger(tmp_path / "market.jsonl", 60)
    full = replay(log.path)
    start = live_items(full)
    rng = random.Random(7)
    accounts, commands, saves = 12, 300, []
    save = eventlog._save_checkpoint
    with mock.patch.object(eventlog, "_save_checkpoint",
                           lambda *args: saves.append(args) or save(*args)):
        for number in range(commands):
            rater, ratee = (f"A{rng.randint(1, accounts):06d}"
                            for _ in range(2))
            kind = rng.choices(["rate", "opinion", "register"], [6, 3, 1])[0]
            if kind == "rate":
                argv = rate_args(log.path, rater, ratee,
                                 rng.choice([1, 0, -1]), rng.randint(1, 500))
            elif kind == "opinion":
                argv = ["opinion", "--log", log.path, "--buyer", rater,
                        "--seller", ratee, "--scope", "laptops",
                        "--price", "50", "--format", "json"]
            else:
                argv = register_args(log.path, f"mix{number}")
            with counted_parse() as parsed:
                code, _, err = run(*argv)
            assert code == (kind != "register" and rater == ratee), err
            accounts += kind == "register"
            assert len(parsed) <= eventlog._save_interval(live_items(full)) + 1
            full = replay(log.path)
            same_state(log.read_state(), full)
    assert saves and len(saves) <= commands / eventlog._save_interval(start) + 2


def test_checkpoint_is_the_log_not_the_callers_state(ledger):
    checkpoint_of(ledger).unlink()
    log = EventLog(ledger)
    with log.locked() as state:                 # saves before it yields
        state.registry.register(credentials_for("ghost"))
        log.append(KIND_RATING, {"rater": "A000003", "ratee": "A000001",
                                 "scope": "laptops", "value": 1, "cost": 5})
    with pytest.raises(RuntimeError):
        with log.locked() as state:
            state.registry.register(credentials_for("phantom"))
            raise RuntimeError("abandon the block")
    same_state(log.read_state(), replay(ledger))
    assert len(log.read_state().registry) == 5


def test_checkpoint_does_not_cover_a_torn_tail(ledger):
    with open(ledger, "a", encoding="utf-8") as handle:
        handle.write('{"seq":11,"kind":"rat')
    checkpoint_of(ledger).unlink()               # a full replay saves
    log = EventLog(ledger)
    with log.locked() as state:
        assert state.torn_line == 11
    data = json.loads(checkpoint_of(ledger).read_text())
    assert (data["lines"], data["last_seq"]) == (10, 10)
    assert data["offset"] == len(ledger.read_bytes()) - len('{"seq":11,"kind":"rat')
    same_state(log.read_state(), replay(ledger))


# ------------------------------------------------------------------
# logs that carry the old account role flags, and checkpoints of versions 1
# and 2
# ------------------------------------------------------------------

DATA = Path(__file__).resolve().parent / "data"
ROLE_FLAGS = ("is_seller", "is_buyer")


@pytest.fixture
def flagged(tmp_path):
    """An 8-line log and its checkpoint over lines 1-6, as written by a CLI
    that stored `is_seller`/`is_buyer` with each account; A000002 and
    A000004 were registered `--buyer-only`, A000003 `--seller-only`."""
    log = tmp_path / "flagged" / "market.jsonl"
    log.parent.mkdir()
    shutil.copyfile(DATA / "role_flags.jsonl", log)
    shutil.copyfile(DATA / "role_flags.ckpt.json", checkpoint_of(log))
    return log


def test_a_log_with_role_flags_replays_as_without_them(flagged, tmp_path):
    records = [EventRecord(**json.loads(line))
               for line in flagged.read_text(encoding="utf-8").splitlines()]
    assert [tuple(record.payload[key] for key in ROLE_FLAGS)
            for record in records if record.kind == KIND_REGISTER] \
        == [(True, True), (False, True), (True, False), (False, True)]
    stripped = tmp_path / "stripped" / "market.jsonl"
    stripped.parent.mkdir()
    stripped.write_text("".join(
        record._replace(payload={key: value for key, value
                                 in record.payload.items()
                                 if key not in ROLE_FLAGS}).to_json() + "\n"
        for record in records), encoding="utf-8")
    same_state(replay(flagged), replay(stripped))

    outputs = {}
    for log in (flagged, stripped):
        outputs[log] = [run(*rate_args(log, "A000004", "A000001", 1)),
                        run(*opinion_args(log, "A000004")),
                        run("replay", log, "--format", "json")]
    assert outputs[flagged] == outputs[stripped]
    rate, opinion, _ = outputs[flagged]
    assert rate[0] == 0 and json.loads(rate[1])["at"] == 9
    assert opinion[0] == 0
    assert json.loads(opinion[1])["direct"]["value"] == 1


def test_a_v1_checkpoint_with_role_flags_is_replaced(flagged, tmp_path):
    assert json.loads(checkpoint_of(flagged).read_text())["version"] == 1
    assert_replaced_after_a_full_replay(flagged, tmp_path)


def test_a_v2_checkpoint_is_replaced(flagged, tmp_path):
    # written by the version 2 save over the same lines 1-6, so valid for
    # the log in all but its version and its ratings in `at` order
    shutil.copyfile(DATA / "role_flags.v2.ckpt.json", checkpoint_of(flagged))
    data = json.loads(checkpoint_of(flagged).read_text())
    assert data["version"] == 2 and data["lines"] == 6
    assert hashlib.sha256(flagged.read_bytes()[:data["offset"]]).hexdigest() \
        == data["sha256"]
    assert_replaced_after_a_full_replay(flagged, tmp_path)


def test_a_v3_checkpoint_restores_and_saves_its_own_bytes(flagged, tmp_path):
    # written over the same lines 1-6 by the version 3 save of the code
    # before accounts kept their blocks, so it pins the layout across that
    # change
    fixture = DATA / "role_flags.v3.ckpt.json"
    shutil.copyfile(fixture, checkpoint_of(flagged))
    data = json.loads(fixture.read_text())
    assert data["version"] == eventlog.CHECKPOINT_VERSION == 3
    assert data["lines"] == 6
    assert hashlib.sha256(flagged.read_bytes()[:data["offset"]]).hexdigest() \
        == data["sha256"]
    with counted_parse() as parsed:
        state = EventLog(flagged).read_state()
    assert parsed == [7, 8]
    same_state(state, replay(flagged))
    with open(flagged, "rb") as handle:          # lines 1-6 and no tail
        state, prefix, lines = eventlog._restore(handle,
                                                 checkpoint_of(flagged))
        scan = eventlog._Scan(handle, lines, state.last_seq)
    eventlog._save_checkpoint(tmp_path / "again.ckpt", state, scan, prefix)
    assert (tmp_path / "again.ckpt").read_bytes() == fixture.read_bytes()


def assert_replaced_after_a_full_replay(flagged, tmp_path):
    # a checkpoint of an older version is ignored like a damaged one, and
    # the first writing command saves one of this version
    bare = tmp_path / "bare" / "market.jsonl"
    bare.parent.mkdir()
    shutil.copyfile(flagged, bare)               # the same log, no checkpoint
    full = replay(flagged)
    outputs = {}
    for log in (flagged, bare):
        with counted_parse() as parsed:
            same_state(EventLog(log).read_state(), full)
            outputs[log] = [run(*opinion_args(log, "A000004")),
                            run(*rate_args(log, "A000004", "A000001", 1))]
        assert parsed == list(range(1, 9)) * 3
        with counted_parse() as parsed:
            outputs[log] += [run(*opinion_args(log, "A000004")),
                             run("replay", log, "--format", "json")]
        assert parsed == [9, *range(1, 10)]
    assert outputs[flagged] == outputs[bare]
    assert outputs[flagged][1][0] == 0
    assert checkpoint_of(flagged).read_bytes() == checkpoint_of(bare).read_bytes()
    assert json.loads(checkpoint_of(flagged).read_text())["version"] \
        == eventlog.CHECKPOINT_VERSION


def test_a_v1_checkpoint_over_a_deal_line_is_not_read(tmp_path):
    # A version 1 checkpoint could cover a hand-written `deal` line, and
    # `opinion` then read a ledger that `replay` refuses.
    log = tmp_path / "market.jsonl"
    assert run(*register_args(log, "seller"))[0] == 0
    with open(log, "a", encoding="utf-8") as handle:
        handle.write('{"seq":2,"kind":"deal","at":2,"payload":{"price":10}}\n')
    prefix = log.read_bytes()
    seller = json.loads(prefix.splitlines()[0])["payload"]["credentials"]
    checkpoint_of(log).write_text(json.dumps({
        "version": 1, "offset": len(prefix), "lines": 2,
        "sha256": hashlib.sha256(prefix).hexdigest(), "last_seq": 2,
        "revision": 0, "rejections": [],
        "accounts": [{"id": "A000001", "credentials": seller}],
        "ratings": []}))
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(EventRecord(3, KIND_REGISTER, 3, {
            "credentials": credentials_for("buyer").to_dict()}).to_json()
            + "\n")
    damage = (1, "", "error: line 2: unknown kind 'deal'\n")
    assert run("replay", log) == damage
    assert run(*opinion_args(log, "A000002")) == damage


# ------------------------------------------------------------------
# the log's prefix is hashed a chunk at a time
# ------------------------------------------------------------------

def log_read_sizes(monkeypatch, log):
    """The list of sizes that each `read` on a handle the ledger opens on
    `log` asks for, from now on; other files open as usual."""
    sizes, opener = [], open

    def wrapped(path, *args, **kwargs):
        handle = opener(path, *args, **kwargs)
        return _SizedReads(handle, sizes) if Path(path) == log else handle
    monkeypatch.setattr(eventlog, "open", wrapped, raising=False)
    return sizes


class _SizedReads:
    def __init__(self, handle, sizes):
        self._handle, self._sizes = handle, sizes

    def read(self, size=-1):
        self._sizes.append(size)
        return self._handle.read(size)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __iter__(self):
        return iter(self._handle)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


def test_prefix_is_hashed_in_chunks(tmp_path, monkeypatch):
    log = grown_ledger(tmp_path / "market.jsonl", 40)
    full = replay(log.path)
    monkeypatch.setattr(eventlog, "_HASH_CHUNK", 512)
    sizes = log_read_sizes(monkeypatch, log.path)
    size = log.path.stat().st_size
    assert size > 4 * 512

    checkpoint_of(log.path).unlink()
    with log.locked() as state:             # a full replay, then a save
        same_state(state, full)
    assert json.loads(checkpoint_of(log.path).read_text())["offset"] == size
    with counted_parse() as parsed:         # restores through the hash
        same_state(log.read_state(), full)
    assert parsed == []
    assert len(sizes) >= 2 * size / 512
    assert all(0 < asked <= 512 for asked in sizes)
