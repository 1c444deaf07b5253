"""Append-only JSONL event log and deterministic state replay.

One JSON object per line, UTF-8, strictly increasing sequence numbers;
every line is a registration or a rating, and a line of any other kind
is damage.  Every command reads the log in one pass: replay takes a
shared lock, and a writing command holds an exclusive lock
(`EventLog.locked`) for the whole cycle of replay, apply, append and
fsync, so its checks and its sequence number come from the state it
appends to.  Replay, the simulator and the CLI's `register` and `rate`
all write state through `apply_event`, and a writer appends the event it
applied.  Only replay turns a malformed payload into `CorruptLog`: damage
stops the scan at its line, while domain rejections (duplicate identity,
stale rating and so on) are collected per event, as the writer saw them.
An unterminated last line is a torn write, for instance from a crash
mid-append: reads skip and report it, the next write cuts it off.

Each line is parsed by one call of the C scanner that `json.loads`
wraps, on the line stripped of JSON whitespace, which skips the Python
frames and whitespace matches around it.  `json.loads` still reads every
line the scanner does not take whole: it raises the error, with the
message and position, that a damaged line has always been reported
with, so it is the error path, not a second parser.  A value nested
too deeply for either is damage too.

A writing command also keeps a checkpoint beside the log, `<log>.ckpt`:
one JSON object holding the state that the replay of the log's first
`offset` bytes (`lines` complete lines) produced, with the sha256 of
those bytes, `last_seq`, the store revision and the rejections.  Its
layout (version 3) is built for a restore without a Python loop per
rating or a dict per account: `accounts` is what `Registry.columns`
writes, each account's credential blocks as lists, and `ratings` what
`RatingStore.columns` writes, the latest ratings as columns, bucket by
bucket in a canonical order, so a state saved, restored and saved again
gives the same bytes.  Keys it does not read are ignored.  `locked()` and
`EventLog.read_state()` hash the log's prefix, a chunk at a time, and,
when the hash and every field check out, rebuild that state and replay
only the lines past `offset`.  The accounts go back through
`Registry.restore`, which checks them under every rule of `register`
with one pass per column, and refuses the checkpoint unless they are
numbered as registering them would number them; the ratings through
`RatingStore.restore`, which checks them under the same rules as
`Rating` and `record` with one pass per column and refuses a key that
appears twice.  Each account's tier and each ratee's totals are set at
once, and each account keeps its checked blocks as they are, but a
bucket's `Rating` objects are built when a read or write first touches
that bucket; so an `opinion` builds only the seller's buckets, and each
rating line of the replayed tail builds only its own bucket.  Saving a
checkpoint builds neither a `Rating` nor a `CredentialSet`: it copies
each unbuilt bucket as slices of the restored columns, and each
account's blocks as they are.
`locked()` saves a new checkpoint only when no valid one was restored
or the tail it replayed has grown long enough that saving costs less
than replaying it again, which at a couple of thousand live ratings is
a few dozen lines; so the tail a command replays stays short without a
save on every write.  A missing, stale or damaged checkpoint, or one of
another version, is ignored and the whole log is replayed, so the file
is safe to delete.  It is derived data, trusted as far as the log's
directory is: the hash catches a changed log, not a forged checkpoint.
`replay()` never reads it.
"""

import fcntl
import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import CorruptLog, TrustMarketError
from .identity import CredentialSet, Registry
from .ratings import Rating, RatingStore

KIND_REGISTER = "register"
KIND_RATING = "rating"
KINDS = (KIND_REGISTER, KIND_RATING)


class EventRecord(NamedTuple):
    """One ledger line.  A named tuple, so immutable, with no `__dict__`,
    and cheap to build, as replay builds one per line; it compares equal
    to the plain tuple of its values, and `_replace` copies it."""

    seq: int
    kind: str
    at: int
    payload: dict

    def to_json(self) -> str:
        return json.dumps(
            {"seq": self.seq, "kind": self.kind, "at": self.at,
             "payload": self.payload},
            sort_keys=True, separators=(",", ":"))


def next_record(last_seq: int, kind: str, payload: dict,
                at: int | None = None) -> EventRecord:
    """The record that follows `last_seq`: its seq is `last_seq + 1`, and
    its `at` defaults to that seq."""
    seq = last_seq + 1
    return EventRecord(seq, kind, seq if at is None else at, payload)


# The C scanner that `json.loads` wraps; see the module docstring.
_scan_once = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"


def _parse_line(line: str, line_no: int) -> EventRecord:
    text = line.strip(_JSON_SPACE)
    try:
        try:
            data, end = _scan_once(text, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(text):
            data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorruptLog(f"not valid JSON ({exc.msg})", line_no) from exc
    except ValueError as exc:       # an integer too long to convert
        raise CorruptLog(f"not valid JSON ({exc})", line_no) from exc
    except RecursionError as exc:
        raise CorruptLog("not valid JSON (nested too deeply)", line_no) from exc
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
    return EventRecord(seq, kind, at, payload)


class _Scan:
    """One pass over a log file opened in binary mode, from its current
    position, which follows `lines` complete lines ending in `last_seq`.

    `start` and `start_line` are the byte offset and the line count the
    scan starts from.  Iterating yields (line_no, record) for every
    complete line and checks structure; `lines`, `last_seq` and `end`,
    the byte offset past the last complete line, follow the records.  An
    unterminated last line is a torn write: it is skipped, and afterwards
    `torn_line` names it.
    """

    def __init__(self, handle, lines=0, last_seq=0):
        self.handle = handle
        self.start = self.end = handle.tell()
        self.start_line = self.lines = lines
        self.last_seq = last_seq
        self.torn_line = None

    def __iter__(self):
        for line_no, raw in enumerate(self.handle, self.lines + 1):
            if not raw.endswith(b"\n"):
                self.torn_line = line_no
                return
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptLog("not valid UTF-8", line_no) from exc
            if not line.strip():
                raise CorruptLog("blank line", line_no)
            record = _parse_line(line, line_no)
            if record.seq <= self.last_seq:
                raise CorruptLog(
                    f"sequence {record.seq} not greater than previous "
                    f"{self.last_seq}", line_no)
            self.lines, self.last_seq = line_no, record.seq
            self.end += len(raw)
            yield line_no, record


def _scan_to_end(handle) -> _Scan:
    """The finished scan of an open binary log from byte 0."""
    handle.seek(0)
    scan = _Scan(handle)
    for _ in scan:
        pass
    return scan


class EventLog:
    """Reader/writer handle on one log file.

    Opening a handle reads nothing.  `locked()` holds the log for one
    replay-validate-append cycle and `read_state()` replays it for a
    reader, both from the checkpoint on.  A bare `append`, outside
    `locked()`, validates nothing: it takes the exclusive lock for its
    own write and scans the log's structure, as a first `last_seq` does,
    only when the file is not the size this handle last left it, so a
    second writer cannot make it reuse a sequence number.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.checkpoint = self.path.with_name(self.path.name + ".ckpt")
        self._last_seq = None    # unknown until the log is read
        self._size = None        # file size at which _last_seq is exact
        self._pending = None     # lines appended inside locked()

    @property
    def last_seq(self) -> int:
        """Read once, checking structure; 0 for a missing log."""
        if self._last_seq is None:
            try:
                with open(self.path, "rb") as handle:
                    self._last_seq = _scan_to_end(handle).last_seq
            except FileNotFoundError:
                self._last_seq = 0
        return self._last_seq

    def read_state(self) -> "MarketState":
        """The log's state, replayed once under a shared lock from the
        checkpoint on; a missing log is empty.  Writes nothing."""
        return _read(self.path, self.checkpoint)

    @contextmanager
    def locked(self):
        """Hold the log exclusively for one replay-validate-append cycle.

        Yields the MarketState replayed from the checkpoint on.  Appends
        inside the block number on from it and are written when the block
        exits cleanly, after a torn last line is cut off, with one write
        and one fsync.  An exception inside the block writes nothing.

        Before it yields, it saves a new checkpoint covering every
        complete line when the replayed tail is not empty and holds at
        least `T* = sqrt(2*s*N/c)` lines, with `N` the live ratings plus
        the accounts, `s` the save cost per live item and `c` the replay
        cost per tail line.  Saving after every `T` appended lines costs
        `s*N/T` per line for the saves plus, on average, `c*T/2` per line
        for the tail the next command replays; the sum is lowest at `T*`.
        On the ledger-cli bench ledger (2,000 events, 1,782 live ratings,
        120 accounts; Python 3.11 on a 2-core shared VM, the median of
        three sets of 11 runs of 21 calls) `_save_checkpoint` after a
        restore, which then built every restored rating, took 8.2 ms, so
        s = 4.3 us, and a full replay 21.5 ms, so c = 10.8 us: T* = 38.9
        lines there.  These are the figures of the version 1 layout; a
        save now builds neither ratings nor credentials, copying each
        unbuilt bucket as slices and each account's blocks as they are,
        so `s` is lower.  `_SAVE_RATIO` keeps the old figures all
        the same, since a new fit would change how often a command saves,
        and so what the ledger-cli benchmark measures.
        The rule keeps `2*s/c` as a constant and counts lines; it times
        nothing.  A full replay, after a missing or bad checkpoint,
        always saves: each live item comes from a line of its own, and
        `T* <= N` while `2*s/c <= N`.
        """
        with open(self.path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            state, scan, prefix = _replay(handle, self.checkpoint)
            tail = scan.lines - scan.start_line
            if tail and tail >= _save_interval(
                    len(state.store) + len(state.registry)):
                handle.seek(scan.start)
                _hash_next(prefix, handle, scan.end - scan.start)
                _save_checkpoint(self.checkpoint, state, scan, prefix)
            size = os.fstat(handle.fileno()).st_size
            self._last_seq, self._size, self._pending = state.last_seq, None, []
            try:
                yield state
            except BaseException:
                self._last_seq = None
                raise
            finally:
                lines, self._pending = self._pending, None
            if lines:
                self._write(handle, size, scan.end, "".join(lines))
                os.fsync(handle.fileno())

    def append(self, kind: str, payload: dict, at: int | None = None) -> EventRecord:
        if kind not in KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        if self._pending is not None:
            record = next_record(self._last_seq, kind, payload, at)
            self._pending.append(record.to_json() + "\n")
            self._last_seq = record.seq
            return record
        with open(self.path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            size = end = os.fstat(handle.fileno()).st_size
            if size != self._size:
                # Another writer appended, or a crash left a torn line.
                scan = _scan_to_end(handle)
                self._last_seq, end = scan.last_seq, scan.end
            record = next_record(self._last_seq, kind, payload, at)
            self._write(handle, size, end, record.to_json() + "\n")
            self._last_seq = record.seq
        return record

    def _write(self, handle, size, end, text):
        """Write text at byte `end` of the exclusively locked log, first
        cutting off the torn line that runs from there to `size`."""
        if end != size:
            handle.truncate(end)
        data = text.encode("utf-8")
        handle.write(data)
        handle.flush()
        self._size = end + len(data)


# ------------------------------------------------------------------
# replay
# ------------------------------------------------------------------

@dataclass
class MarketState:
    """Registry and store reconstructed from a log, plus what bounced."""

    registry: Registry = field(default_factory=Registry)
    store: RatingStore = field(default_factory=RatingStore)
    rejections: list = field(default_factory=list)   # (line_no, seq, message)
    last_seq: int = 0
    torn_line: int | None = None    # unterminated last line, skipped

    def describe(self) -> dict:
        """Canonical snapshot for state-equality comparisons."""
        ratings = {
            "|".join(key): (r.value, r.cost, r.at)
            for key, r in self.store.snapshot().items()}
        accounts = {
            account_id: account.tier.label
            for account_id, account in sorted(self.registry.accounts.items())}
        return {"accounts": accounts, "revision": self.store.revision,
                "ratings": dict(sorted(ratings.items())),
                "rejections": list(self.rejections)}


def apply_event(record: EventRecord, state: MarketState):
    """Write one event into the state, as replay, the simulator and the
    CLI's `register` and `rate` do; returns the new account on a
    successful registration, else None.  Raises domain errors for a
    refused event, and `KeyError`, `TypeError` or `ValueError` for a
    malformed payload or a kind outside `KINDS`; only replay reports a
    malformed payload as `CorruptLog`, at its line."""
    if record.kind == KIND_REGISTER:
        return state.registry.register(
            CredentialSet.from_dict(record.payload["credentials"]))
    if record.kind == KIND_RATING:
        payload = record.payload
        rating = Rating(payload["rater"], payload["ratee"], payload["scope"],
                        payload["value"], payload["cost"],
                        payload.get("at", record.at))
        state.store.record(rating, registry=state.registry)
        return None
    raise ValueError(f"unknown event kind {record.kind!r}")


def _replay(handle, checkpoint=None):
    """Replay an open binary log: (state, scan, prefix).

    Given the path of a checkpoint that is valid for this log, the state
    is restored from it and the scan starts at its offset; otherwise at
    byte 0.  `prefix` is the sha256 of the bytes before the scan.
    """
    restored = None if checkpoint is None else _restore(handle, checkpoint)
    if restored is None:
        handle.seek(0)
        state, prefix, lines = MarketState(), hashlib.sha256(), 0
    else:
        state, prefix, lines = restored
    scan = _Scan(handle, lines, state.last_seq)
    for line_no, record in scan:
        try:
            apply_event(record, state)
        except TrustMarketError as exc:
            state.rejections.append((line_no, record.seq, str(exc)))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptLog(f"malformed {record.kind} payload: {exc}",
                             line_no) from exc
    state.last_seq, state.torn_line = scan.last_seq, scan.torn_line
    return state, scan, prefix


# ------------------------------------------------------------------
# checkpoint
# ------------------------------------------------------------------

CHECKPOINT_VERSION = 3

# 2*s/c, save cost per live item over replay cost per line; see locked().
# At most 1, so that a full replay always reaches the interval.
_SAVE_RATIO = 2 * 4.3 / 10.8


# Bytes of the log read at a time to hash its prefix, so that hashing holds
# one chunk in memory however long the log grows.
_HASH_CHUNK = 1 << 20


def _hash_next(digest, handle, size):
    """Feed the next `size` bytes of `handle` into `digest`, a chunk at a
    time, stopping early at the end of the file; returns `digest`."""
    while size > 0:
        chunk = handle.read(min(size, _HASH_CHUNK))
        if not chunk:
            break
        digest.update(chunk)
        size -= len(chunk)
    return digest


def _save_interval(items: int) -> float:
    """T*, the tail length in lines at which saving a checkpoint of
    `items` live ratings and accounts pays for itself."""
    return math.sqrt(_SAVE_RATIO * items)


def _save_checkpoint(path, state, scan, prefix):
    """Write the state replayed from the log's first `scan.end` bytes.

    The accounts are the registry's own columns, `Registry.columns`,
    and the ratings the store's, `RatingStore.columns`, in their
    canonical order, so the save sorts nothing by `at` and builds no
    `CredentialSet`.  Goes through a temporary file and a rename, so a
    reader sees the old checkpoint or the new one; no fsync, since a
    lost checkpoint only costs a full replay.  Failing to write it is
    not an error.
    """
    data = {
        "version": CHECKPOINT_VERSION, "offset": scan.end,
        "lines": scan.lines, "sha256": prefix.hexdigest(),
        "last_seq": state.last_seq, "revision": state.store.revision,
        "rejections": state.rejections,
        "accounts": state.registry.columns(),
        "ratings": state.store.columns(),
    }
    temporary = path.with_name(path.name + ".tmp")
    try:
        temporary.write_text(json.dumps(data, separators=(",", ":")),
                             encoding="utf-8")
        os.replace(temporary, path)
    except OSError:
        temporary.unlink(missing_ok=True)


def _natural(value) -> bool:
    return type(value) is int and value >= 0


def _restore(handle, path):
    """(state, prefix hash, lines) from the checkpoint at `path` when it
    is valid for the open log, else None; leaves the handle at its
    offset.

    Valid means: it parses, has this version (one of another version,
    such as a version 1 file with a dict per account and a list per
    rating, or a version 2 file with its ratings in `at` order, is
    ignored like a damaged one), its sha256 is that of the log's first
    `offset` bytes, its accounts pass `Registry.restore` (the block
    field names of the credential dataclasses, every check of
    `register` run once per column, and the ids that registering them
    would give), and its bucket and rating columns pass every check of
    `Rating` and `RatingStore.record`, run once per column by
    `RatingStore.restore`, with no key twice.  Those checks all run
    here; only the building of each bucket's `Rating` objects waits for
    the first read or write of that bucket, and a save builds none.
    """
    try:
        with open(path, "rb") as source:
            data = json.loads(source.read())
        offset, lines = data["offset"], data["lines"]
        if (data["version"] != CHECKPOINT_VERSION or not _natural(offset)
                or not _natural(lines) or not _natural(data["last_seq"])
                or not _natural(data["revision"])):
            return None
        if offset > os.fstat(handle.fileno()).st_size:
            return None
        handle.seek(0)
        prefix = _hash_next(hashlib.sha256(), handle, offset)
        if prefix.hexdigest() != data["sha256"]:
            return None
        registry = Registry.restore(data["accounts"])
        state = MarketState(registry=registry, last_seq=data["last_seq"])
        state.store = RatingStore.restore(data["ratings"], registry)
        state.store.revision = data["revision"]
        state.rejections = [(line_no, seq, message)
                            for line_no, seq, message in data["rejections"]]
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            RecursionError, TrustMarketError):
        return None
    return state, prefix, lines


def _read(path, checkpoint=None) -> MarketState:
    """Replay the log once under a shared lock, from `checkpoint` on
    when one is given; a missing log is empty."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return MarketState()
    with handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_SH)
        return _replay(handle, checkpoint)[0]


def replay(path) -> MarketState:
    """Rebuild market state from the whole log, collecting domain
    rejections; reads no checkpoint."""
    return _read(path)


__all__ = [
    "EventRecord", "EventLog", "MarketState", "apply_event", "next_record",
    "replay", "KIND_REGISTER", "KIND_RATING", "KINDS",
]
