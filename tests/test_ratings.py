import copy
import json
import math
import pickle
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustmarket import ratings
from trustmarket.errors import (SelfRating, StaleTimestamp, TrustMarketError,
                                UnknownAccount)
from trustmarket.identity import Registry
from trustmarket.ratings import (RATING_VALUES, Rating, RatingStore,
                                 normalize_scope)

from conftest import credentials_for, record, totals_of


def rating(rater, ratee, value=1, cost=100.0, at=1, scope="laptops"):
    return Rating(rater=rater, ratee=ratee, scope=scope, value=value,
                  cost=cost, at=at)


# ------------------------------------------------------------------
# basic semantics
# ------------------------------------------------------------------

def test_scope_normalized():
    assert normalize_scope("  Laptops ") == "laptops"
    assert rating("a", "b", scope=" CARS ").scope == "cars"
    with pytest.raises(ValueError):
        normalize_scope("   ")


def test_value_must_be_tri_valued():
    with pytest.raises(ValueError):
        rating("a", "b", value=2)
    with pytest.raises(ValueError):
        rating("a", "b", cost=-1.0)


@pytest.mark.parametrize("value", [True, False, 1.0, -1.0])
def test_value_must_be_a_true_int(value):
    with pytest.raises(ValueError):
        rating("a", "b", value=value)


@pytest.mark.parametrize("cost", [math.nan, math.inf])
def test_cost_must_be_finite(cost):
    with pytest.raises(ValueError):
        rating("a", "b", cost=cost)


def test_rating_is_a_frozen_slotted_value():
    r = Rating("a", "b", " Books ", 1, 120.0, 7)
    assert r == Rating(rater="a", ratee="b", scope="books", value=1,
                       cost=120.0, at=7)
    assert hash(r) == hash(Rating("a", "b", "books", 1, 120.0, 7))
    assert r != replace(r, at=8)
    assert (r.rater, r.ratee, r.scope, r.value, r.cost, r.at) \
        == ("a", "b", "books", 1, 120.0, 7)
    assert not hasattr(r, "__dict__")
    with pytest.raises(FrozenInstanceError):
        r.value = -1
    with pytest.raises(FrozenInstanceError):
        del r.scope
    assert copy.deepcopy(r) == r and pickle.loads(pickle.dumps(r)) == r
    assert replace(r, scope=" Garden", value=-1) \
        == Rating("a", "b", "garden", -1, 120.0, 7)
    with pytest.raises(ValueError, match="got 2"):
        replace(r, value=2)


@pytest.mark.parametrize("field, bad, message", [
    ("value", True, "rating value must be the int +1, 0 or -1, got True"),
    ("value", 1.0, "rating value must be the int +1, 0 or -1, got 1.0"),
    ("value", 2, "rating value must be the int +1, 0 or -1, got 2"),
    ("cost", math.nan, "cost must lie in [0, inf), got nan"),
    ("cost", math.inf, "cost must lie in [0, inf), got inf"),
    ("cost", -1.0, "cost must lie in [0, inf), got -1.0"),
    ("scope", "  ", "scope must be a non-empty category name"),
    ("at", "noon", "rating at must be an int, got 'noon'"),
    ("at", 5.0, "rating at must be an int, got 5.0"),
    ("at", True, "rating at must be an int, got True"),
    ("at", None, "rating at must be an int, got None"),
])
def test_rating_refusals_keep_their_messages(field, bad, message):
    fields = dict(rater="a", ratee="b", scope="books", value=1, cost=1.0,
                  at=1)
    with pytest.raises(ValueError) as refused:
        Rating(**{**fields, field: bad})
    assert str(refused.value) == message


def test_latest_replaces_prior(store):
    store.record(rating("a", "b", value=1, at=1))
    store.record(rating("a", "b", value=-1, at=2))
    latest = store.latest_ratings_for("b", "laptops")
    assert len(store) == 1
    assert [r.value for r in latest] == [-1]


def test_distinct_raters_keep_distinct_entries(store):
    store.record(rating("a", "b", at=1))
    store.record(rating("c", "b", at=2))
    assert len(store.latest_ratings_for("b", "laptops")) == 2


def test_distinct_scopes_keep_distinct_entries(store):
    store.record(rating("a", "b", at=1, scope="laptops"))
    store.record(rating("a", "b", at=2, scope="cars"))
    assert set(store.snapshot()) == {("a", "b", "laptops"),
                                     ("a", "b", "cars")}
    assert len(store.latest_ratings_for("b", "cars")) == 1


def test_self_rating_rejected(store):
    with pytest.raises(SelfRating):
        store.record(rating("a", "a"))


def test_stale_timestamp_rejected(store):
    store.record(rating("a", "b", at=5))
    with pytest.raises(StaleTimestamp):
        store.record(rating("a", "b", at=5))
    with pytest.raises(StaleTimestamp):
        store.record(rating("a", "b", at=4))


def test_registry_enforcement(market):
    registry, store, ids = market
    record(store, registry, ids, "b1", "seller", 1, 100.0, 1)
    with pytest.raises(UnknownAccount):
        store.record(rating("ghost", ids["seller"], at=2), registry=registry)


def test_revision_counts_mutations(market):
    registry, store, ids = market
    seller, buyer = ids["seller"], ids["b1"]
    assert store.revision == 0
    store.record(rating(buyer, seller, at=1), registry=registry)
    store.record(rating(buyer, seller, at=2), registry=registry)
    assert store.revision == 2
    kept = (store.revision, len(store), store.snapshot(), totals_of(store))
    for refused, error in ((rating(buyer, buyer, at=3), SelfRating),
                           (rating("ghost", seller, at=3), UnknownAccount),
                           (rating(buyer, seller, at=2), StaleTimestamp)):
        with pytest.raises(error):
            store.record(refused, registry=registry)
        assert (store.revision, len(store), store.snapshot(),
                totals_of(store)) == kept


def test_unknown_ratee_queries_empty(store):
    assert store.latest_ratings_for("nobody", "cars") == []


# ------------------------------------------------------------------
# latest-only property against a brute-force oracle
# ------------------------------------------------------------------

event_strategy = st.lists(
    st.tuples(st.sampled_from("abcd"), st.sampled_from("efgh"),
              st.sampled_from(["laptops", "cars"]),
              st.sampled_from([1, 0, -1]),
              st.integers(min_value=1, max_value=60)),
    max_size=40)


def assert_index_matches(store, oracle):
    """Every read of the store agrees with a brute-force scan of the
    key -> rating oracle."""
    assert store.snapshot() == oracle
    assert len(store) == len(oracle)
    for ratee in "efgh":
        received = [r for r in oracle.values() if r.ratee == ratee]
        for scope in ("laptops", "cars"):
            assert store.latest_ratings_for(ratee, scope) == sorted(
                (r for r in received if r.scope == scope),
                key=lambda r: r.rater)
        # a ratee is in the mapping exactly when it holds a rating
        assert totals_of(store).get(ratee) == (
            (sum(r.value for r in received), len(received))
            if received else None)
        for rater in "abcd":
            assert store.ratings_between(rater, ratee) == sorted(
                (r for r in received if r.rater == rater),
                key=lambda r: r.scope)
            for scope in ("laptops", " Cars", "tools"):
                assert store.latest(rater, ratee, scope) \
                    == oracle.get((rater, ratee, scope.strip().lower()))


@given(event_strategy)
def test_store_matches_max_timestamp_oracle(events):
    # checked after every event, so a scope's kept rater order is read
    # both before and after a new rater joins the scope
    store = RatingStore()
    oracle: dict = {}
    for rater, ratee, scope, value, at in events:
        candidate = Rating(rater=rater, ratee=ratee, scope=scope,
                           value=value, cost=50.0, at=at)
        key = (rater, ratee, scope)
        try:
            store.record(candidate)
        except StaleTimestamp:
            assert key in oracle and oracle[key].at >= at
        else:
            oracle[key] = candidate
        assert_index_matches(store, oracle)


# ------------------------------------------------------------------
# bulk restore against recording the rows one by one
# ------------------------------------------------------------------

def registry_of(*tags):
    registry = Registry()
    for tag in tags:
        registry.register(credentials_for(tag))
    return registry


RESTORE_REGISTRY = registry_of("a", "b", "c", "d")
RESTORE_IDS = sorted(RESTORE_REGISTRY.accounts)
# what a checkpoint restore catches as a sign of a bad checkpoint
RESTORE_ERRORS = (OSError, ValueError, LookupError, TypeError, AttributeError,
                  TrustMarketError)

RESTORE_SCOPES = ["books", "Books ", "garden", "tools"]
valid_row = st.builds(
    lambda pair, *rest: [*pair, *rest],
    st.sampled_from([(rater, ratee) for rater in RESTORE_IDS
                     for ratee in RESTORE_IDS if rater != ratee]),
    st.sampled_from(RESTORE_SCOPES),
    st.sampled_from(RATING_VALUES),
    st.one_of(st.integers(0, 500), st.floats(0, 500)),
    st.integers(1, 20))
valid_rows = st.lists(valid_row, max_size=10)
# (field index, value) to write into a row, or an edit of the whole row
damages = st.one_of(
    st.sampled_from([
        (0, "A000099"), (0, 5), (0, None), (0, ["A000001"]),
        (1, "A000099"), (1, ""), (1, None),
        (2, ""), (2, "  "), (2, 7), (2, None), (2, ["books"]),
        (3, True), (3, False), (3, 1.0), (3, -1.0), (3, 2), (3, "1"),
        (3, None),
        (4, math.nan), (4, math.inf), (4, -math.inf), (4, -1), (4, -0.5),
        (4, 10**400), (4, "5"), (4, None),
        (5, "noon"), (5, 5.0), (5, True), (5, None)]),
    st.sampled_from(["self-rating", "5 fields", "7 fields"]))


def damage(row, edit):
    if edit == "self-rating":
        row[0] = row[1]
    elif edit == "5 fields":
        row.pop()
    elif edit == "7 fields":
        row.append(0)
    elif edit[0] < len(row):      # a shortened row has no field 5 to damage
        row[edit[0]] = edit[1]


def rater_order(row):
    # raters in their own order, and a damaged rater that is no string
    # after every string, by its repr
    rater = row[0]
    return (0, rater) if isinstance(rater, str) else (1, repr(rater))


def bucket_key(row):
    # a row's ratee and its scope, normalised where the scope allows it, so
    # that "books" and "Books " share a bucket as `record` files them
    try:
        scope = normalize_scope(row[2])
    except (TypeError, ValueError):
        scope = row[2]
    return repr(row[1]), repr(scope)


def layout(rows):
    """The rows in buckets: one per ratee and scope, in the order the rows
    first name them, each bucket's rows in rater order."""
    buckets = {}
    for row in rows:
        buckets.setdefault(bucket_key(row), []).append(row)
    return [sorted(bucket, key=rater_order) for bucket in buckets.values()]


def in_layout(rows):
    return [row for bucket in layout(rows) for row in bucket]


def columns_of(rows):
    """The rows as the columns `RatingStore.restore` reads, bucket by
    bucket as `layout` files them, each bucket's ratee and scope those of
    its first row.  A short row leaves the columns of its missing fields
    short, and a long row adds an eighth key."""
    buckets = layout(rows)
    columns = {"ratee": [bucket[0][1] for bucket in buckets],
               "scope": [bucket[0][2] for bucket in buckets],
               "count": list(map(len, buckets))}
    rows = in_layout(rows)
    width = max(map(len, rows), default=6)
    names = {0: "rater", 3: "value", 4: "cost", 5: "at"}
    for index in (0, 3, 4, *range(5, width)):
        columns[names.get(index, f"field {index}")] = [
            row[index] for row in rows if index < len(row)]
    return columns


def record_each(rows, registry):
    store = RatingStore()
    for row in rows:
        store.record(Rating(*row), registry=registry)
    return store


def key_of(row):
    return row[0], row[1], normalize_scope(row[2])


@settings(max_examples=300)
@given(rows=valid_rows,
       edits=st.lists(st.tuples(st.integers(0, 9), damages), max_size=2))
@example(rows=[["A000001", "A000002", "books", 1, 0, 1]],
         edits=[(0, "5 fields"), (0, (5, "noon"))])
@example(rows=[["A000001", "A000002", "books", 1, 0, 1],
               ["A000002", "A000001", "books", 1, 0, 2]],
         edits=[(1, (4, math.nan))])
@example(rows=[["A000002", "A000001", "books", 1, 0, 1],
               ["A000003", "A000002", "books", 1, 0, 2]],
         edits=[(1, "self-rating")])
@example(rows=[["A000003", "A000001", "books", 1, 0, 1],
               ["A000002", "A000001", "Books ", -1, 5, 2],
               ["A000002", "A000001", " BOOKS", 0, 5, 3]],
         edits=[])
def test_restore_matches_recording_each_row(rows, edits):
    for index, edit in edits:
        if rows:
            damage(rows[index % len(rows)], edit)
    try:
        expected = record_each(in_layout(rows), RESTORE_REGISTRY)
    except RESTORE_ERRORS:
        expected = None
    try:
        restored = RatingStore.restore(columns_of(rows), RESTORE_REGISTRY)
    except RESTORE_ERRORS:
        # it refuses whatever recording refuses, and beyond that only rows
        # that repeat a key, which recording takes as replacements
        assert expected is None or len(set(map(key_of, rows))) < len(rows)
        return
    assert expected is not None
    assert list(restored.snapshot().items()) \
        == list(expected.snapshot().items())
    assert len(restored) == len(expected) == restored.revision == len(rows)
    assert totals_of(restored) == totals_of(expected)
    columns = expected.columns()                # in the canonical order
    assert restored.columns() == columns
    assert RatingStore.restore(columns, RESTORE_REGISTRY).columns() == columns


def bucket_columns(**replaced):
    """Columns of three ratings in two buckets, with the lists of
    `replaced` in place of their columns."""
    return {"ratee": ["A000001", "A000002"], "scope": ["books", "books"],
            "count": [2, 1], "rater": ["A000002", "A000003", "A000001"],
            "value": [1, -1, 0], "cost": [10, 2.5, 0], "at": [1, 2, 3],
            **replaced}


@pytest.mark.parametrize("columns, error, message", [
    (bucket_columns(ratee=["A000001", "A000002", "A000003"],
                    scope=["books", "books", "garden"], count=[2, 1, 0]),
     ValueError, "bucket counts"),
    (bucket_columns(count=[2, 2]), ValueError, "bucket counts"),
    (bucket_columns(count=[1, 1]), ValueError, "bucket counts"),
    (bucket_columns(rater=["A000002", "A000002", "A000001"]),
     ValueError, "rise strictly"),
    (bucket_columns(rater=["A000003", "A000002", "A000001"]),
     ValueError, "rise strictly"),
    (bucket_columns(ratee=["A000001", "A000001"], scope=["books", " Books"],
                    rater=["A000002", "A000003", "A000004"]),
     ValueError, "two buckets"),
    (bucket_columns(rater=["A000002", "A000003", "A000002"]),
     SelfRating, "its rater as its ratee"),
    (bucket_columns(ratee=["A000099", "A000002"]),
     UnknownAccount, "A000099"),
    (bucket_columns(ratee=["A000001"]), ValueError, "one length per bucket"),
], ids=["count of 0", "counts sum past the ratings",
        "counts sum short of the ratings", "two equal raters in a bucket",
        "raters out of order in a bucket", "two scopes that normalise alike",
        "self-rating in a later bucket", "unknown ratee",
        "bucket columns of two lengths"])
def test_restore_refuses_a_bad_bucket(columns, error, message):
    assert RatingStore.restore(bucket_columns(), RESTORE_REGISTRY).columns() \
        == bucket_columns()
    with pytest.raises(error, match=message):
        RatingStore.restore(columns, RESTORE_REGISTRY)


def test_restore_refuses_a_repeated_key():
    a, b = RESTORE_IDS[:2]
    rows = [[a, b, "books", 1, 10, 1], [a, b, " Books", -1, 10, 2]]
    assert totals_of(record_each(rows, RESTORE_REGISTRY)) == {b: (-1, 1)}
    with pytest.raises(ValueError, match="rise strictly"):
        RatingStore.restore(columns_of(rows), RESTORE_REGISTRY)


# ------------------------------------------------------------------
# a restored bucket's ratings are built when a read or write first
# touches it
# ------------------------------------------------------------------

# rows a checkpoint can hold: no key twice
distinct_rows = st.lists(valid_row, max_size=12, unique_by=key_of)


def unbuilt(store):
    """The (ratee, scope) buckets, in store order, whose restored ratings
    no read or write has built yet."""
    return [(ratee, scope) for ratee, received in store.received.items()
            if received.rows is not None for scope in received.rows]


def buckets_of(rows):
    """The (ratee, scope) buckets that restoring `columns_of(rows)` leaves
    unbuilt, in store order: by ratee, each ratee's in layout order."""
    buckets = [(bucket[0][1], normalize_scope(bucket[0][2]))
               for bucket in layout(rows)]
    ratees = [ratee for ratee, _ in buckets]
    return sorted(buckets, key=lambda bucket: ratees.index(bucket[0]))


def assert_same_store(store, expected):
    # the same key -> rating map, and the same canonical columns; the
    # order in which a store's lazily built buckets entered it is no part
    # of what it holds
    assert store.snapshot() == expected.snapshot()
    assert store.columns() == expected.columns()
    assert (len(store), store.revision) == (len(expected), expected.revision)
    assert totals_of(store) == totals_of(expected)


def assert_clones_equal(store, expected):
    # a deep copy and a pickled copy hold the store's unbuilt buckets as
    # it does, and build them into what recording holds
    pending = unbuilt(store)
    for clone in (copy.deepcopy(store), pickle.loads(pickle.dumps(store))):
        assert unbuilt(clone) == pending
        assert_same_store(clone, expected)
        assert unbuilt(clone) == []
    assert unbuilt(store) == pending            # the clones built their own


def writes_on(row, rows, value):
    """(rating, refusal) for a newer rating of `row`'s key, a key new to
    its ratee, and a stale rating of its key."""
    rater, ratee, scope, _, cost, at = row
    keys = set(map(key_of, rows))
    new_keys = [(other, where)
                for where in (normalize_scope(scope), "kitchen")
                for other in RESTORE_IDS
                if other != ratee and (other, ratee, where) not in keys]
    other, where = new_keys[at % len(new_keys)]
    return [(Rating(rater, ratee, scope, value, cost, at + 1), None),
            (Rating(other, ratee, where, value, 7.0, 1), None),
            (Rating(rater, ratee, scope, value, cost, at), StaleTimestamp)]


READS = ("latest_ratings_for", "ratings_between", "latest")


@settings(max_examples=200)
@given(rows=distinct_rows,
       reads=st.lists(st.tuples(st.sampled_from(READS),
                                st.sampled_from(RESTORE_IDS),
                                st.sampled_from(RESTORE_IDS),
                                st.sampled_from(RESTORE_SCOPES)),
                      max_size=8),
       pick=st.integers(0, 99), value=st.sampled_from(RATING_VALUES))
def test_restored_store_reads_like_a_recorded_one(rows, reads, pick, value):
    restored = RatingStore.restore(columns_of(rows), RESTORE_REGISTRY)
    expected = record_each(in_layout(rows), RESTORE_REGISTRY)
    buckets = buckets_of(rows)
    assert unbuilt(restored) == buckets
    assert totals_of(restored) == totals_of(expected)   # from the totals alone
    assert unbuilt(restored) == buckets
    assert_clones_equal(restored, expected)

    built = set()
    keys = set(map(key_of, rows))
    for name, rater, ratee, scope in reads:
        args = {"latest_ratings_for": (ratee, scope),
                "ratings_between": (rater, ratee),
                "latest": (rater, ratee, scope)}[name]
        assert getattr(restored, name)(*args) \
            == getattr(expected, name)(*args)
        # a read builds its own bucket and no other; ratings_between builds
        # each bucket of its ratee that holds a rating by its rater
        built.update(bucket for bucket in buckets if bucket[0] == ratee and (
            (rater, *bucket) in keys if name == "ratings_between"
            else bucket[1] == normalize_scope(scope)))
        assert unbuilt(restored) == [bucket for bucket in buckets
                                     if bucket not in built]
    assert_clones_equal(restored, expected)

    if rows:
        for rating, refusal in writes_on(rows[pick % len(rows)], rows, value):
            store = RatingStore.restore(columns_of(rows), RESTORE_REGISTRY)
            oracle = record_each(in_layout(rows), RESTORE_REGISTRY)
            for target in (store, oracle):
                if refusal is None:
                    target.record(rating, registry=RESTORE_REGISTRY)
                else:
                    with pytest.raises(refusal):
                        target.record(rating, registry=RESTORE_REGISTRY)
            # a write builds its own bucket and no other
            assert unbuilt(store) == [bucket for bucket in buckets if bucket
                                      != (rating.ratee, rating.scope)]
            if refusal is not None:
                assert_same_store(store, RatingStore.restore(
                    columns_of(rows), RESTORE_REGISTRY))
            assert_same_store(store, oracle)

    assert_same_store(restored, expected)


@settings(max_examples=200)
@given(rows=distinct_rows,
       reads=st.lists(st.tuples(st.sampled_from(RESTORE_IDS),
                                st.sampled_from(RESTORE_SCOPES)), max_size=4))
def test_columns_of_a_restored_store_build_no_rating(rows, reads):
    # a save after a restore copies each pending bucket's span as it is
    restored = RatingStore.restore(columns_of(rows), RESTORE_REGISTRY)
    for ratee, scope in reads:          # some buckets built, others pending
        restored.latest_ratings_for(ratee, scope)
    pending = unbuilt(restored)
    set_rater, built = ratings._set_rater, []

    def counted(rating, rater):
        built.append(rater)
        set_rater(rating, rater)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(ratings, "_set_rater", counted)
        columns = restored.columns()
    assert built == [] and unbuilt(restored) == pending
    saved = json.dumps(columns)
    again = RatingStore.restore(json.loads(saved), RESTORE_REGISTRY)
    assert json.dumps(again.columns()) == saved
    for ratee, received in restored.received.items():
        received.build_all(ratee)
    assert unbuilt(restored) == []
    assert restored.columns() == columns
    assert columns == record_each(in_layout(rows), RESTORE_REGISTRY).columns()


@settings(max_examples=200)
@given(rows=distinct_rows.filter(bool), pick=st.integers(0, 99),
       value=st.sampled_from(RATING_VALUES))
def test_restored_scope_reads_a_rater_that_joins_it(rows, pick, value):
    # read a restored bucket, record a rater new to it, and read it again
    _, ratee, scope, _, _, at = rows[pick % len(rows)]
    scope = normalize_scope(scope)
    keys = set(map(key_of, rows))
    joining = [rater for rater in RESTORE_IDS
               if rater != ratee and (rater, ratee, scope) not in keys]
    restored = RatingStore.restore(columns_of(rows), RESTORE_REGISTRY)
    expected = record_each(in_layout(rows), RESTORE_REGISTRY)

    def scanned():
        return [rating for key, rating in sorted(expected.snapshot().items())
                if key[1:] == (ratee, scope)]
    for rater in joining:
        assert restored.latest_ratings_for(ratee, scope) == scanned()
        for store in (restored, expected):
            store.record(Rating(rater, ratee, scope, value, 1.0, at + 1),
                         registry=RESTORE_REGISTRY)
        assert restored.latest_ratings_for(ratee, scope) == scanned()
    assert_same_store(restored, expected)


# ------------------------------------------------------------------
# each ratee's credibility follows its totals through every write
# ------------------------------------------------------------------

STRANGER = "A000099"
# (rater, ratee, scope, value, at), or a cut: save the store to columns and
# restore it, so that the records after it land in pending buckets
credibility_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from([*RESTORE_IDS, STRANGER]),
                  st.sampled_from([*RESTORE_IDS, STRANGER]),
                  st.sampled_from(["books", "garden"]),
                  st.sampled_from(RATING_VALUES), st.integers(1, 12)),
        st.just("cut")),
    max_size=40)


def credibilities(store):
    return {ratee: received.credibility
            for ratee, received in store.received.items()}


def credibilities_of(snapshot):
    """{ratee: credibility} computed from a key -> rating map."""
    received = {}
    for rating in snapshot.values():
        received.setdefault(rating.ratee, []).append(rating.value)
    return {ratee: (sum(values) / len(values) + 1.0) / 2.0
            for ratee, values in received.items()}


def refusal_of(rating, oracle):
    """The error `record` must raise for `rating`, or None."""
    if rating.rater == rating.ratee:
        return SelfRating
    if STRANGER in (rating.rater, rating.ratee):
        return UnknownAccount
    prior = oracle.get((rating.rater, rating.ratee, rating.scope))
    if prior is not None and prior.at >= rating.at:
        return StaleTimestamp
    return None


@settings(max_examples=300)
@given(credibility_steps)
@example([(RESTORE_IDS[0], RESTORE_IDS[1], "books", 1, 1),
          (RESTORE_IDS[2], RESTORE_IDS[1], "books", -1, 2),
          "cut",
          (RESTORE_IDS[0], RESTORE_IDS[1], "books", -1, 3),    # replacement
          (RESTORE_IDS[0], RESTORE_IDS[1], "books", 1, 3),     # stale
          (RESTORE_IDS[1], RESTORE_IDS[1], "garden", 1, 4),    # self
          (STRANGER, RESTORE_IDS[1], "garden", 1, 4)])         # unknown
def test_credibility_follows_every_record_and_restore(steps):
    store, recorded, oracle = RatingStore(), RatingStore(), {}
    for step in steps:
        if step == "cut":
            store = RatingStore.restore(store.columns(), RESTORE_REGISTRY)
            assert all(received.rows is not None
                       for received in store.received.values())
        else:
            rating = Rating(*step[:3], step[3], 10.0, step[4])
            refusal = refusal_of(rating, oracle)
            kept = credibilities(store)
            for target in (store, recorded):
                if refusal is None:
                    target.record(rating, registry=RESTORE_REGISTRY)
                else:
                    with pytest.raises(refusal):
                        target.record(rating, registry=RESTORE_REGISTRY)
            if refusal is None:
                oracle[key_of(step)] = rating
            else:
                assert credibilities(store) == kept
        # the store under test builds no bucket here: its expected values
        # come from a twin that recorded every rating and was never cut
        expected = credibilities_of(recorded.snapshot())
        assert credibilities_of(oracle) == expected
        for target in (store, recorded):
            assert credibilities(target) == expected
            for received in target.received.values():
                assert received.credibility == (
                    received.total / received.count + 1.0) / 2.0
