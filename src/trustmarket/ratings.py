"""Latest-rating-only feedback store, partitioned by product scope.

Each (rater, ratee, scope) key holds at most one rating: recording a newer
one replaces the old outright, which is what lets a later deal repair a
bad mark.  Scopes partition reputation so a laptop seller starts from
scratch in the car category.
"""

import sys
from bisect import bisect_left
from dataclasses import dataclass, fields
from itertools import accumulate, chain, compress, islice, repeat
from operator import eq, ge

from .errors import SelfRating, StaleTimestamp, UnknownAccount

# A rating's value: positive, neutral or negative.
RATING_VALUES = (1, 0, -1)

# The largest cost: the largest finite float.  A cost lies in [0, MAX_COST],
# which the refusals call [0, inf), the finite float amounts: NaN and inf
# are refused, and so is an int above it, which `cost < inf` would pass and
# the float arithmetic of a cost weight would overflow on.
MAX_COST = sys.float_info.max


def normalize_scope(scope: str) -> str:
    if not isinstance(scope, str):
        raise TypeError(f"scope must be a string, got {scope!r}")
    normalized = scope.strip().lower()
    if not normalized:
        raise ValueError("scope must be a non-empty category name")
    return normalized


@dataclass(frozen=True, slots=True, init=False)
class Rating:
    """One party's latest feedback about another, within one scope.

    `cost` is the currency amount of the rated transaction and `at` an
    int logical timestamp (monotone simulation/ledger clock, not wall
    time).  Slotted, with the checks in a hand-written `__init__`,
    because replay builds one per rating event.
    """

    rater: str
    ratee: str
    scope: str
    value: int
    cost: float
    at: int

    def __init__(self, rater, ratee, scope, value, cost, at):
        # True and 1.0 equal 1, but the store's running sums need an int
        if type(value) is not int or value not in RATING_VALUES:
            raise ValueError(
                f"rating value must be the int +1, 0 or -1, got {value!r}")
        if type(cost) not in (int, float) or not 0 <= cost <= MAX_COST:
            raise ValueError(f"cost must lie in [0, inf), got {cost!r}")
        # readers order ratings by `at`: a str there would replay, then
        # fail the first comparison; a bool or float is refused alike
        if type(at) is not int:
            raise ValueError(f"rating at must be an int, got {at!r}")
        _set_rater(self, rater)
        _set_ratee(self, ratee)
        _set_scope(self, normalize_scope(scope))
        _set_value(self, value)
        _set_cost(self, cost)
        _set_at(self, at)


# The slots' own setters, past the frozen class's __setattr__: the one way
# both `Rating.__init__` and `_Received.build` fill in a rating.
_set_rater, _set_ratee, _set_scope, _set_value, _set_cost, _set_at = (
    Rating.__dict__[spec.name].__set__ for spec in fields(Rating))

# The keys of the columns that `RatingStore.restore` reads and
# `RatingStore.columns` writes: three with one item per bucket, a (ratee,
# scope) pair, then four with one item per rating.
_COLUMNS = ("ratee", "scope", "count", "rater", "value", "cost", "at")
_COLUMN_SET = frozenset(_COLUMNS)


class _Received:
    """One ratee's latest ratings, {scope: {rater: Rating}}, the running
    sum and count of their values, and the `credibility` they give it as a
    rater, set with them, so rater weights need no scan and no arithmetic.

    `orders` holds {scope: the bucket's raters, sorted}, so that repeated
    reads of a bucket do not sort it again.  For a recorded bucket the
    first `latest_ratings_for` fills the scope's list; for a restored one
    `build` fills it from the restored raters, which are sorted already.  A
    bucket never loses a rater, so its list is stale exactly when it is
    shorter than the bucket: when a new rater has entered the scope.  The
    next read then sorts it again; a rating that only replaces an older
    one of the same rater keeps it, and `record` itself never touches it.

    A ratee restored from columns keeps each bucket that no reader has
    needed yet as a span, already checked: `rows` maps the bucket's scope
    to the (start, end) of its ratings in `columns`, the restored (rater,
    value, cost, at) lists that every restored ratee shares.  The store's
    readers test `rows` and call `build` for the bucket they touch; `rows`
    is None once no bucket is pending.  The test is explicit because a
    `__getattr__` or property here would slow every slot read of every
    ratee.
    """

    __slots__ = ("scopes", "total", "count", "credibility", "rows",
                 "columns", "orders")

    def __init__(self):
        self.scopes: dict[str, dict[str, Rating]] = {}
        self.total = 0
        self.count = 0
        self.credibility = None
        self.rows = None
        self.columns = None
        self.orders = {}

    def build(self, ratee: str, scope: str) -> None:
        """Turn the pending bucket of `scope` into ratings, as recording
        them in rater order would have."""
        raters, values, costs, ats = self.columns
        start, end = self.rows.pop(scope)
        if not self.rows:
            self.rows = self.columns = None
        order = self.orders[scope] = raters[start:end]
        bucket = self.scopes[scope] = {}
        for rater, value, cost, at in zip(order, values[start:end],
                                          costs[start:end], ats[start:end]):
            rating = object.__new__(Rating)
            _set_rater(rating, rater)
            _set_ratee(rating, ratee)
            _set_scope(rating, scope)
            _set_value(rating, value)
            _set_cost(rating, cost)
            _set_at(rating, at)
            bucket[rater] = rating

    def build_all(self, ratee: str) -> None:
        """Build every pending bucket, in restored order."""
        while self.rows is not None:
            self.build(ratee, next(iter(self.rows)))


class RatingStore:
    """Holds the single latest rating per key, with a revision counter.

    Single-writer, many-reader: the revision counter identifies snapshots
    and drives cache invalidation in the trust engine.

    `received` maps each ratee to its `_Received` record, and is the one
    way to read a ratee's totals: its `total`, the sum of the values of
    its latest ratings, its `count`, how many there are, and its
    `credibility` as a rater.  A ratee is in it exactly when its count is
    at least 1.  All three are exact from `restore` on, also for a ratee
    whose `Rating` objects are not built yet.  It is read-only outside the
    store: readers touch those three and nothing else.
    """

    def __init__(self):
        self.received: dict[str, _Received] = {}
        self._size = 0
        self.revision = 0

    def __len__(self) -> int:
        return self._size

    @classmethod
    def restore(cls, columns, registry) -> "RatingStore":
        """The store that `record` builds through `registry` from the
        ratings that `columns` holds bucket by bucket, when no two share a
        key.

        `columns` maps each of seven keys to a list: `ratee`, `scope` and
        `count` hold one item per bucket, `rater`, `value`, `cost` and `at`
        one per rating, and bucket i owns the next `count[i]` ratings, its
        raters in strictly increasing order; recording the ratings one by
        one, in that order, gives this store.  `columns` writes this
        layout.  Each check of `Rating` and `record`
        runs as one pass over a column, with no Python loop per rating:
        the columns are lists under exactly those keys, of one length per
        bucket and one per rating, the counts ints of at least 1 that sum
        to the number of ratings, the values the int +1, 0 or -1, the
        costs ints or floats in [0, MAX_COST] (NaN is the one cost not
        equal to itself, and the bounds are compared before any float
        conversion, so a huge int is refused, never raised), the ats
        ints, both parties registered, the scopes non-blank strings,
        normalised, with no (ratee, scope) pair twice, no rater its
        bucket's ratee, and the raters rising strictly inside each bucket,
        so that no key appears twice.  A column that breaks one raises
        ValueError, TypeError or a TrustMarketError, as the per-rating
        path would; so do two ratings on one key, which `record` would
        have taken as a replacement.

        Each ratee's totals are summed at once, one slice of a running sum
        per bucket, but its `Rating` objects are built a bucket at a time,
        when a read first needs the bucket: `record`, `latest_ratings_for`
        and `latest` build the bucket they touch, `ratings_between` each of
        the ratee's that holds the rater, and `snapshot` every one;
        `columns` builds none.
        """
        if type(columns) is not dict or columns.keys() != _COLUMN_SET:
            raise ValueError(f"rating columns are keyed {_COLUMNS}")
        columns = list(map(columns.__getitem__, _COLUMNS))
        if set(map(type, columns)) != {list} \
                or len(set(map(len, columns[:3]))) != 1 \
                or len(set(map(len, columns[3:]))) != 1:
            raise ValueError("rating columns are lists of one length per "
                             "bucket and one per rating")
        ratees, scopes, counts, raters, values, costs, ats = columns
        if not (set(map(type, counts)) <= {int}
                and min(counts, default=1) >= 1
                and sum(counts) == len(raters)):
            raise ValueError("bucket counts are ints of at least 1 that sum "
                             "to the number of ratings")
        store = cls()
        if not raters:
            return store
        if not (set(map(type, values)) == {int}
                and set(values).issubset(RATING_VALUES)):
            raise ValueError("rating values must be the int +1, 0 or -1")
        if not (set(map(type, costs)) <= {int, float}
                and all(map(eq, costs, costs))
                and min(costs) >= 0 and max(costs) <= MAX_COST):
            raise ValueError("costs must lie in [0, inf)")
        if set(map(type, ats)) != {int}:
            raise ValueError("rating ats must be ints")
        unknown = (set(raters) | set(ratees)) - registry.accounts.keys()
        if unknown:
            raise UnknownAccount(f"no account {unknown.pop()!r}")
        normalized = {scope: normalize_scope(scope) for scope in set(scopes)}
        scopes = list(map(normalized.__getitem__, scopes))
        if len(set(zip(ratees, scopes))) != len(ratees):
            raise ValueError("two buckets share a ratee and scope")
        if any(map(eq, raters, chain.from_iterable(map(repeat, ratees,
                                                          counts)))):
            raise SelfRating("a rating names its rater as its ratee")
        ends = list(accumulate(counts))
        # a rater not above the one before it may only start a bucket
        if not set(compress(range(1, len(raters)),
                            map(ge, raters, islice(raters, 1, None)))
                   ).issubset(ends):
            raise ValueError("raters must rise strictly inside a bucket")
        sums = list(accumulate(values, initial=0))
        shared = raters, values, costs, ats
        received_of = store.received
        start = 0
        for ratee, scope, end in zip(ratees, scopes, ends):
            received = received_of.get(ratee)
            if received is None:
                received = received_of[ratee] = _Received()
                received.rows, received.columns = {}, shared
            received.rows[scope] = start, end
            received.total += sums[end] - sums[start]
            received.count += end - start
            start = end
        for totals in received_of.values():
            totals.credibility = (totals.total / totals.count + 1.0) / 2.0
        store._size = store.revision = len(raters)
        return store

    def columns(self) -> dict:
        """The columns that `restore` reads back into this store, in one
        canonical order: ratees in `received` order, each one's scopes
        sorted, each bucket's raters sorted.  So a store restored from
        them gives them again, whatever order its reads and writes built
        its buckets in.  A pending bucket's span is checked and its raters
        sorted already, so it is copied from the restored columns as
        slices, and no bucket is built."""
        ratees, scopes, counts = [], [], []
        out = raters, values, costs, ats = [], [], [], []
        for ratee, received in self.received.items():
            buckets, pending = received.scopes, received.rows or {}
            for scope in sorted((*buckets, *pending)):
                ratees.append(ratee)
                scopes.append(scope)
                span = pending.get(scope)
                if span is not None:
                    start, end = span
                    counts.append(end - start)
                    for column, restored in zip(out, received.columns):
                        column += restored[start:end]
                    continue
                bucket = buckets[scope]
                counts.append(len(bucket))
                for rating in map(bucket.__getitem__, sorted(bucket)):
                    raters.append(rating.rater)
                    values.append(rating.value)
                    costs.append(rating.cost)
                    ats.append(rating.at)
        return {"ratee": ratees, "scope": scopes, "count": counts,
                "rater": raters, "value": values, "cost": costs, "at": ats}

    def record(self, rating: Rating, registry=None) -> None:
        """Insert or replace the latest rating for the rating's key.

        With a registry supplied, both parties must be registered.  The
        timestamp must be strictly newer than the key's current rating.
        """
        if rating.rater == rating.ratee:
            raise SelfRating(f"{rating.rater} cannot rate itself")
        if registry is not None:
            accounts = registry.accounts
            if rating.rater not in accounts:
                raise UnknownAccount(f"no account {rating.rater!r}")
            if rating.ratee not in accounts:
                raise UnknownAccount(f"no account {rating.ratee!r}")
        received = self.received.get(rating.ratee)
        if received is None:
            received = self.received[rating.ratee] = _Received()
        elif received.rows is not None and rating.scope in received.rows:
            received.build(rating.ratee, rating.scope)
        bucket = received.scopes.setdefault(rating.scope, {})
        prior = bucket.get(rating.rater)
        if prior is None:
            received.count += 1
            self._size += 1
        elif prior.at >= rating.at:
            raise StaleTimestamp(
                f"rating at t={rating.at} not newer than stored t={prior.at} "
                f"for key {(rating.rater, rating.ratee, rating.scope)}")
        else:
            received.total -= prior.value
        received.total += rating.value
        received.credibility = (received.total / received.count + 1.0) / 2.0
        bucket[rating.rater] = rating
        self.revision += 1

    def latest_ratings_for(self, ratee: str, scope: str) -> list:
        """Latest rating per rater for `ratee` in `scope`, sorted by rater
        so iteration order is deterministic.

        The scope's sorted raters are kept in the ratee's `orders` from the
        first read, or from the restored bucket's build, until a new rater
        enters the scope."""
        received = self.received.get(ratee)
        if received is None:
            return []
        scope = normalize_scope(scope)
        if received.rows is not None and scope in received.rows:
            received.build(ratee, scope)
        bucket = received.scopes.get(scope)
        if bucket is None:
            return []
        orders = received.orders
        order = orders.get(scope)
        if order is None or len(order) != len(bucket):
            order = orders[scope] = sorted(bucket)
        return list(map(bucket.__getitem__, order))

    def ratings_between(self, rater: str, ratee: str) -> list:
        """The rater's latest rating of the ratee in each scope, by scope.

        Of a restored ratee's pending buckets it builds only those that
        hold the rater, found by bisecting each span's sorted raters."""
        received = self.received.get(ratee)
        if received is None:
            return []
        if received.rows is not None:
            raters = received.columns[0]
            for scope, (start, end) in list(received.rows.items()):
                index = bisect_left(raters, rater, start, end)
                if index < end and raters[index] == rater:
                    received.build(ratee, scope)
        scopes = received.scopes
        return [scopes[scope][rater] for scope in sorted(scopes)
                if rater in scopes[scope]]

    def latest(self, rater: str, ratee: str, scope: str) -> Rating | None:
        """The rater's latest rating of the ratee in `scope`, or None."""
        received = self.received.get(ratee)
        if received is None:
            return None
        scope = normalize_scope(scope)
        if received.rows is not None and scope in received.rows:
            received.build(ratee, scope)
        bucket = received.scopes.get(scope)
        return None if bucket is None else bucket.get(rater)

    def snapshot(self) -> dict:
        """Copy of the key -> rating map, for comparison and replay checks."""
        for ratee, received in self.received.items():
            if received.rows is not None:
                received.build_all(ratee)
        return {(rater, ratee, scope): rating
                for ratee, received in self.received.items()
                for scope, bucket in received.scopes.items()
                for rater, rating in bucket.items()}


__all__ = ["MAX_COST", "RATING_VALUES", "Rating", "RatingStore",
           "normalize_scope"]
