import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustmarket.engine import (ADVISORY_AVOID_DELIVERY, ADVISORY_NEW_IN_SCOPE,
                                ADVISORY_NEW_SELLER, DEFAULT_ENGINE,
                                EngineConfig, ListingContext, TrustEngine,
                                SOURCE_INITIAL_TRUST, SOURCE_RATINGS,
                                compute_opinion, cost_weight, direct_trust,
                                label_for, rater_weight, scope_view,
                                weighted_reputation)
from trustmarket.errors import (SelfQuery, SelfRating, StaleTimestamp,
                                UnknownAccount)
from trustmarket.identity import PolicyConfig, ProfileTier, Registry
from trustmarket.ratings import MAX_COST, Rating, RatingStore

from conftest import credentials_for, record, totals_of


def listing(scope="laptops", price=100.0, days=3.0, deliverable=True):
    return ListingContext(scope=scope, price=price, delivery_days=days,
                          deliverable=deliverable)


# ------------------------------------------------------------------
# weight primitives
# ------------------------------------------------------------------

def test_cost_weight_floor_and_midpoint():
    assert cost_weight(0.0) == DEFAULT_ENGINE.w_min == 0.1
    assert cost_weight(DEFAULT_ENGINE.c_half) == 0.5
    assert cost_weight(9 * DEFAULT_ENGINE.c_half) == pytest.approx(0.9)


def test_cost_weight_monotone_above_floor():
    weights = [cost_weight(c) for c in (0, 10, 50, 100, 400, 10_000)]
    assert weights == sorted(weights)
    assert all(0.1 <= w < 1.0 for w in weights)


@pytest.mark.parametrize("cost", [-1.0, math.nan, math.inf])
def test_cost_weight_rejects_negative(cost):
    with pytest.raises(ValueError):
        cost_weight(cost)


def test_cost_weight_and_rating_share_the_largest_cost():
    # an int beyond float range passes `cost < inf`, then overflows
    largest = int(MAX_COST)
    assert cost_weight(largest) == cost_weight(MAX_COST) \
        == cost_weight(Rating("a", "b", "books", 1, largest, 1).cost)
    for cost in (largest + 1, 10**400):
        with pytest.raises(ValueError, match=r"cost must lie in \[0, inf\)"):
            cost_weight(cost)
        with pytest.raises(ValueError, match=r"cost must lie in \[0, inf\)"):
            Rating("a", "b", "books", 1, cost, 1)


@pytest.mark.parametrize("kwargs", [
    {"price": math.nan}, {"price": math.inf},
    {"delivery_days": math.nan}, {"delivery_days": math.inf},
])
def test_listing_rejects_non_finite(kwargs):
    with pytest.raises(ValueError):
        ListingContext(**{"scope": "laptops", "price": 100.0, **kwargs})


def test_rater_weight_from_received_ratings(market):
    registry, store, ids = market
    record(store, registry, ids, "b2", "b1", 1, 100.0, 1)
    record(store, registry, ids, "b3", "b1", 1, 100.0, 2)
    assert rater_weight(ids["b1"], store, registry) == 1.0
    record(store, registry, ids, "b2", "b4", 1, 100.0, 3)
    record(store, registry, ids, "b3", "b4", -1, 100.0, 4)
    assert rater_weight(ids["b4"], store, registry) == 0.5


def test_unrated_rater_bootstraps_from_tier(registry, store):
    low = registry.register(credentials_for("low", "low")).account_id
    high = registry.register(credentials_for("high", "high")).account_id
    # low tier initial trust 0.0 floors at epsilon
    assert rater_weight(low, store, registry) == DEFAULT_ENGINE.epsilon == 0.1
    assert rater_weight(high, store, registry) == 0.30


def test_rater_weight_unknown_account(registry, store):
    with pytest.raises(UnknownAccount):
        rater_weight("A999999", store, registry)


@pytest.mark.parametrize("rated", [False, True])
def test_reputation_refuses_an_unregistered_rater(market, rated):
    # a store recorded without a registry may hold a rater nobody registered
    registry, store, ids = market
    store.record(Rating(rater="A999999", ratee=ids["seller"], scope="laptops",
                        value=1, cost=50.0, at=1))
    if rated:
        store.record(Rating(rater=ids["b1"], ratee="A999999",
                            scope="laptops", value=1, cost=50.0, at=2))
    with pytest.raises(UnknownAccount):
        weighted_reputation(ids["seller"], "laptops", store, registry)


# ------------------------------------------------------------------
# weighted reputation
# ------------------------------------------------------------------

def test_single_full_weight_rating(market):
    registry, store, ids = market
    record(store, registry, ids, "b1", "seller", 1, 10_000.0, 1)
    score = weighted_reputation(ids["seller"], "laptops", store, registry)
    assert score == pytest.approx(1.0)


def test_symmetric_ratings_cancel(market):
    registry, store, ids = market
    record(store, registry, ids, "b1", "seller", 1, 300.0, 1)
    record(store, registry, ids, "b2", "seller", -1, 300.0, 2)
    score = weighted_reputation(ids["seller"], "laptops", store, registry)
    assert score == pytest.approx(0.0)


def test_hand_summed_weighted_case(market):
    # rater weights: b1 -> 1.0 (two +1 received), b2 = b3 -> 0.5 (split)
    # cost weights: 900 -> 0.9, 150 -> 0.6
    # score = (0.9 + 0.3 - 0.3) / (0.9 + 0.3 + 0.3) = 0.6
    registry, store, ids = market
    record(store, registry, ids, "b2", "b1", 1, 100.0, 1)
    record(store, registry, ids, "b3", "b1", 1, 100.0, 2)
    for i, rater in enumerate(("b2", "b3")):
        record(store, registry, ids, "b1", rater, 1, 100.0, 3 + 2 * i)
        record(store, registry, ids, "b4", rater, -1, 100.0, 4 + 2 * i)
    record(store, registry, ids, "b1", "seller", 1, 900.0, 10)
    record(store, registry, ids, "b2", "seller", 1, 150.0, 11)
    record(store, registry, ids, "b3", "seller", -1, 150.0, 12)
    score = weighted_reputation(ids["seller"], "laptops", store, registry)
    assert score == pytest.approx(0.6, abs=1e-12)


def test_empty_scope_returns_none(market):
    registry, store, ids = market
    assert weighted_reputation(ids["seller"], "cars", store, registry) is None


def test_unweighted_config_is_plain_mean(market):
    registry, store, ids = market
    record(store, registry, ids, "b1", "seller", 1, 900.0, 1)
    record(store, registry, ids, "b2", "seller", -1, 10.0, 2)
    record(store, registry, ids, "b3", "seller", -1, 10.0, 3)
    config = dataclasses.replace(DEFAULT_ENGINE, use_weights=False)
    score = weighted_reputation(ids["seller"], "laptops", store, registry,
                                config)
    assert score == pytest.approx(-1 / 3)


# ------------------------------------------------------------------
# direct trust
# ------------------------------------------------------------------

def test_direct_trust_latest_in_scope(market):
    registry, store, ids = market
    record(store, registry, ids, "b1", "seller", -1, 100.0, 1)
    record(store, registry, ids, "b1", "seller", 1, 100.0, 2)
    direct = direct_trust(ids["b1"], ids["seller"], "laptops", store)
    assert direct.value == 1 and not direct.cross_scope


def test_direct_trust_absent(market):
    registry, store, ids = market
    assert direct_trust(ids["b1"], ids["seller"], "laptops", store) is None


def test_direct_trust_cross_scope_fallback(market):
    registry, store, ids = market
    record(store, registry, ids, "b1", "seller", 1, 100.0, 1, scope="cars")
    direct = direct_trust(ids["b1"], ids["seller"], "laptops", store)
    assert direct.value == 1 and direct.cross_scope and direct.scope == "cars"


def test_direct_trust_cross_scope_picks_most_recent(market):
    registry, store, ids = market
    record(store, registry, ids, "b1", "seller", -1, 100.0, 1, scope="cars")
    record(store, registry, ids, "b1", "seller", 1, 100.0, 2, scope="books")
    direct = direct_trust(ids["b1"], ids["seller"], "phones", store)
    assert (direct.value, direct.scope) == (1, "books")


def test_direct_trust_cross_scope_tie_takes_first_scope(market):
    registry, store, ids = market
    record(store, registry, ids, "b1", "seller", -1, 100.0, 5, scope="cars")
    record(store, registry, ids, "b1", "seller", 1, 100.0, 5, scope="boats")
    direct = direct_trust(ids["b1"], ids["seller"], "laptops", store)
    assert (direct.value, direct.scope, direct.cross_scope) == (1, "boats", True)


# ------------------------------------------------------------------
# opinions
# ------------------------------------------------------------------

def test_new_high_tier_seller_gets_fallback(market):
    registry, store, ids = market
    opinion = compute_opinion(ids["b1"], ids["seller"], listing(),
                              store, registry)
    assert opinion.recommended == pytest.approx(0.30)
    assert opinion.recommended_source == SOURCE_INITIAL_TRUST
    assert opinion.advisories == {ADVISORY_NEW_SELLER}
    assert opinion.display_score == 30
    assert opinion.label == "medium"
    assert opinion.tier is ProfileTier.HIGH


def test_rated_elsewhere_flags_new_in_scope(market):
    registry, store, ids = market
    record(store, registry, ids, "b2", "seller", 1, 100.0, 1, scope="cars")
    opinion = compute_opinion(ids["b1"], ids["seller"], listing(),
                              store, registry)
    assert opinion.recommended_source == SOURCE_INITIAL_TRUST
    assert opinion.advisories == {ADVISORY_NEW_IN_SCOPE}


def test_slow_delivery_advises_avoidance(market):
    registry, store, ids = market
    record(store, registry, ids, "b2", "seller", 1, 500.0, 1)
    opinion = compute_opinion(ids["b1"], ids["seller"],
                              listing(days=30.0), store, registry)
    assert opinion.recommended_source == SOURCE_RATINGS
    assert ADVISORY_AVOID_DELIVERY in opinion.advisories
    assert opinion.unit_score > 0.9   # advisory is a flag, not a penalty


def test_undeliverable_advises_avoidance(market):
    registry, store, ids = market
    opinion = compute_opinion(ids["b1"], ids["seller"],
                              listing(deliverable=False), store, registry)
    assert ADVISORY_AVOID_DELIVERY in opinion.advisories


def test_self_query_rejected(market):
    registry, store, ids = market
    with pytest.raises(SelfQuery):
        compute_opinion(ids["seller"], ids["seller"], listing(),
                        store, registry)


def test_unknown_party_rejected(market):
    registry, store, ids = market
    with pytest.raises(UnknownAccount):
        compute_opinion("A999999", ids["seller"], listing(), store, registry)


def test_display_score_rounds_unit_interval(market):
    registry, store, ids = market
    record(store, registry, ids, "b2", "seller", -1, 10_000.0, 1)
    opinion = compute_opinion(ids["b1"], ids["seller"], listing(),
                              store, registry)
    # score near -1 maps to a unit score near 0, never negative display
    assert 0 <= opinion.display_score <= 100
    assert opinion.label == "low"


def test_label_thresholds():
    assert label_for(0.15) == "low"
    assert label_for(0.16) == "medium"
    assert label_for(0.5) == "medium"
    assert label_for(0.51) == "high"


def test_latest_only_removes_bad_image(market):
    registry, store, ids = market
    record(store, registry, ids, "b1", "seller", -1, 200.0, 1)
    before = weighted_reputation(ids["seller"], "laptops", store, registry)
    record(store, registry, ids, "b1", "seller", 1, 200.0, 2)
    after = weighted_reputation(ids["seller"], "laptops", store, registry)
    assert before == pytest.approx(-1.0)
    assert after == pytest.approx(1.0)


# ------------------------------------------------------------------
# cached opinions
# ------------------------------------------------------------------

def test_atc_serves_stale_until_invalidated(market):
    registry, store, ids = market
    engine = TrustEngine(registry, store)
    first = engine.opinion(ids["b1"], ids["seller"], listing())
    assert first.recommended_source == SOURCE_INITIAL_TRUST
    record(store, registry, ids, "b2", "seller", 1, 500.0, 1)
    stale = engine.opinion(ids["b1"], ids["seller"], listing())
    assert stale == first               # cache still answering
    engine.invalidate(store.revision)
    fresh = engine.opinion(ids["b1"], ids["seller"], listing())
    assert fresh.recommended_source == SOURCE_RATINGS


def test_invalidate_on_empty_cache_is_noop(market):
    registry, store, ids = market
    engine = TrustEngine(registry, store)
    engine.invalidate(5)
    assert engine.cache_size == 0


def test_invalidate_keeps_current_entries(market):
    registry, store, ids = market
    engine = TrustEngine(registry, store)
    engine.opinion(ids["b1"], ids["seller"], listing())
    engine.invalidate(store.revision)   # cached at current revision
    assert engine.cache_size == 1


# ------------------------------------------------------------------
# config validation
# ------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"epsilon": 0.0}, {"epsilon": 1.0}, {"c_half": 0.0},
    {"w_min": 1.5}, {"low_max": 0.6, "med_max": 0.5},
    {"max_delivery_days": -1.0},
    {"c_half": math.nan}, {"c_half": math.inf},
    {"max_delivery_days": math.nan}, {"max_delivery_days": math.inf},
    {"epsilon": 5e-324, "w_min": 0.1},      # the product rounds to 0
])
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        EngineConfig(**kwargs)


# ------------------------------------------------------------------
# properties
# ------------------------------------------------------------------

rating_batch = st.lists(
    st.tuples(st.sampled_from(["b1", "b2", "b3", "b4"]),
              st.sampled_from([1, 0, -1]),
              st.floats(min_value=0.0, max_value=1_000.0,
                        allow_nan=False)),
    min_size=1, max_size=8, unique_by=lambda t: t[0])


@settings(max_examples=60, deadline=None)
@given(rating_batch, rating_batch)
def test_scope_isolation(in_scope, out_of_scope):
    registry = Registry()
    ids = {tag: registry.register(credentials_for(tag)).account_id
           for tag in ("seller", "b1", "b2", "b3", "b4")}
    store = RatingStore()
    at = 0
    for rater, value, cost in in_scope:
        at += 1
        store.record(Rating(rater=ids[rater], ratee=ids["seller"],
                            scope="laptops", value=value, cost=cost, at=at))
    before = weighted_reputation(ids["seller"], "laptops", store, registry)
    for rater, value, cost in out_of_scope:
        at += 1
        store.record(Rating(rater=ids[rater], ratee=ids["seller"],
                            scope="cars", value=value, cost=cost, at=at))
    after = weighted_reputation(ids["seller"], "laptops", store, registry)
    assert before == after              # bit-identical


@settings(max_examples=60, deadline=None)
@given(rating_batch,
       st.floats(min_value=1.0, max_value=5_000.0, allow_nan=False))
def test_cost_monotone_for_positive_ratings(batch, bump):
    registry = Registry()
    ids = {tag: registry.register(credentials_for(tag)).account_id
           for tag in ("seller", "b1", "b2", "b3", "b4")}

    def build(extra):
        store = RatingStore()
        for at, (rater, value, cost) in enumerate(batch, start=1):
            store.record(Rating(rater=ids[rater], ratee=ids["seller"],
                                scope="laptops", value=value, cost=cost,
                                at=at))
        store.record(Rating(rater=ids["b4"], ratee=ids["seller"],
                            scope="laptops", value=1,
                            cost=100.0 + extra, at=len(batch) + 1))
        return weighted_reputation(ids["seller"], "laptops", store, registry)

    assert build(bump) >= build(0.0) - 1e-12


def test_cost_weight_ordering_scale_covariant():
    costs = [0.0, 5.0, 80.0, 100.0, 250.0, 4_000.0]
    for lam in (0.5, 3.0, 40.0):
        scaled = dataclasses.replace(DEFAULT_ENGINE,
                                     c_half=lam * DEFAULT_ENGINE.c_half)
        base_order = sorted(range(len(costs)),
                            key=lambda i: cost_weight(costs[i]))
        scaled_order = sorted(range(len(costs)),
                              key=lambda i: cost_weight(lam * costs[i], scaled))
        assert base_order == scaled_order


# ------------------------------------------------------------------
# the reputation loop against the weight functions, exactly
# ------------------------------------------------------------------

ORACLE_TIERS = ("high", "low", "low", "medium", "medium", "high", "high")
ORACLE_REGISTRY = Registry()
ORACLE_IDS = [ORACLE_REGISTRY.register(credentials_for(f"o{i}", tier))
              .account_id for i, tier in enumerate(ORACLE_TIERS)]
ORACLE_SELLER = ORACLE_IDS[0]
ORACLE_SCOPES = ("laptops", "cars")

# Floors that tie with a weight: epsilon 0.15 and 0.3 with the medium and
# high tier trust, epsilon 0.5 with a rater whose mean rating is 0, and
# w_min 0.5 with a cost of c_half.  The second policy has int trust values.
oracle_configs = st.builds(
    EngineConfig,
    policy=st.sampled_from([
        PolicyConfig(),
        PolicyConfig({ProfileTier.LOW: 0, ProfileTier.MEDIUM: 0.5,
                      ProfileTier.HIGH: 1})]),
    epsilon=st.sampled_from([0.1, 0.15, 0.3, 0.5, 0.75]),
    w_min=st.sampled_from([0.1, 0.5]),
    use_weights=st.booleans())
oracle_costs = st.one_of(
    st.sampled_from([0, 0.0, 100, 100.0, math.nextafter(100.0, 0.0),
                     math.nextafter(100.0, math.inf), 99.5, 100.5]),
    st.integers(0, 2_000),
    st.floats(0.0, 2_000.0))
oracle_events = st.lists(
    st.tuples(st.sampled_from(ORACLE_IDS), st.sampled_from(ORACLE_IDS),
              st.sampled_from(ORACLE_SCOPES), st.sampled_from([1, 0, -1]),
              oracle_costs).filter(lambda event: event[0] != event[1]),
    max_size=30)


def max_rater_weight(rater, snapshot, config, registry=ORACLE_REGISTRY):
    """rater_weight written with max(), from a store snapshot."""
    received = [r.value for r in snapshot.values() if r.ratee == rater]
    if received:
        credibility = (sum(received) / len(received) + 1.0) / 2.0
    else:
        credibility = config.policy.initial_trust[registry.get(rater).tier]
    return max(config.epsilon, credibility)


def max_cost_weight(cost, config):
    """cost_weight written with max()."""
    return max(config.w_min, cost / (cost + config.c_half))


def reference_reputation(scope, store, config):
    """Σ rater_weight·cost_weight·v / Σ rater_weight·cost_weight over the
    seller's latest ratings in `scope`, summed in rater order."""
    ratings = sorted((r for r in store.snapshot().values()
                      if r.ratee == ORACLE_SELLER and r.scope == scope),
                     key=lambda r: r.rater)
    if not ratings:
        return None
    if not config.use_weights:
        return sum(r.value for r in ratings) / len(ratings)
    numerator = denominator = 0.0
    for rating in ratings:
        weight = (rater_weight(rating.rater, store, ORACLE_REGISTRY, config)
                  * cost_weight(rating.cost, config))
        numerator += weight * rating.value
        denominator += weight
    return numerator / denominator


@settings(max_examples=150, deadline=None)
@given(oracle_events, oracle_configs)
def test_reputation_equals_the_weight_functions_exactly(events, config):
    # a read after every event, so each scope's kept rater order is read,
    # replaced into and joined by new raters
    store = RatingStore()
    for at, (rater, ratee, scope, value, cost) in enumerate(events, start=1):
        store.record(Rating(rater, ratee, scope, value, cost, at),
                     registry=ORACLE_REGISTRY)
        snapshot = store.snapshot()
        for account in ORACLE_IDS:
            assert rater_weight(account, store, ORACLE_REGISTRY, config) \
                == max_rater_weight(account, snapshot, config)
        assert cost_weight(cost, config) == max_cost_weight(cost, config)
        for where in ORACLE_SCOPES:
            got = weighted_reputation(ORACLE_SELLER, where, store,
                                      ORACLE_REGISTRY, config)
            want = reference_reputation(where, store, config)
            assert got == want and type(got) is type(want)


def assert_reads_agree(restored, recorded, config):
    """Rater weights, reputations and scope views read from a restored
    store equal those of the recorded one and the references, with the
    same type."""
    snapshot = recorded.snapshot()
    for account in ORACLE_IDS:
        got = rater_weight(account, restored, ORACLE_REGISTRY, config)
        want = max_rater_weight(account, snapshot, config)
        assert got == rater_weight(account, recorded, ORACLE_REGISTRY,
                                   config) == want
        assert type(got) is type(want)
    for where in ORACLE_SCOPES:
        got = weighted_reputation(ORACLE_SELLER, where, restored,
                                  ORACLE_REGISTRY, config)
        want = reference_reputation(where, recorded, config)
        assert got == want and type(got) is type(want)
        view = scope_view(ORACLE_SELLER, where, restored, ORACLE_REGISTRY,
                          config)
        kept = scope_view(ORACLE_SELLER, where, recorded, ORACLE_REGISTRY,
                          config)
        assert view == kept and list(map(type, view)) == list(map(type, kept))
        if want is not None:
            assert view[0] == want and type(view[0]) is type(want)
        elif any(r.ratee == ORACLE_SELLER for r in snapshot.values()):
            assert view[3] == {ADVISORY_NEW_IN_SCOPE}
        else:
            assert view[3] == {ADVISORY_NEW_SELLER}


@settings(max_examples=100, deadline=None)
@given(oracle_events, st.integers(0, 30), oracle_configs)
def test_a_restored_store_weighs_raters_as_a_recorded_one(events, cut,
                                                          config):
    recorded = RatingStore()
    for at, (rater, ratee, scope, value, cost) in enumerate(events[:cut],
                                                            start=1):
        recorded.record(Rating(rater, ratee, scope, value, cost, at),
                        registry=ORACLE_REGISTRY)
    restored = RatingStore.restore(recorded.columns(), ORACLE_REGISTRY)
    assert all(received.rows is not None
               for received in restored.received.values())
    assert_reads_agree(restored, recorded, config)
    # raters are weighed by their totals alone, with no rating built
    assert {ratee for ratee, received in restored.received.items()
            if received.rows is None} <= {ORACLE_SELLER}

    def write(rating, refusal=None):
        kept = totals_of(recorded)
        for store in (recorded, restored):
            if refusal is None:
                store.record(rating, registry=ORACLE_REGISTRY)
            else:
                with pytest.raises(refusal):
                    store.record(rating, registry=ORACLE_REGISTRY)
                assert totals_of(store) == kept
        assert totals_of(restored) == totals_of(recorded)
        assert_reads_agree(restored, recorded, config)

    at = min(cut, len(events))
    for rater, ratee, scope, value, cost in events[cut:]:
        at += 1
        write(Rating(rater, ratee, scope, value, cost, at))
    # a replacement, a rater new to a bucket already read, and each refusal
    seller, rater = ORACLE_SELLER, ORACLE_IDS[1]
    write(Rating(rater, seller, "laptops", 1, 100.0, at + 1))
    write(Rating(rater, seller, "laptops", -1, 250.0, at + 2))
    raters = {r.rater for r in recorded.latest_ratings_for(seller, "laptops")}
    for newcomer in ORACLE_IDS[2:]:
        if newcomer not in raters:
            write(Rating(newcomer, seller, "laptops", 0, 60.0, at + 3))
            break
    write(Rating(rater, seller, "laptops", 1, 100.0, at + 2), StaleTimestamp)
    write(Rating(seller, seller, "laptops", 1, 100.0, at + 4), SelfRating)
    for stranger in (Rating("A999999", seller, "laptops", 1, 100.0, at + 4),
                     Rating(rater, "A999999", "laptops", 1, 100.0, at + 4)):
        write(stranger, UnknownAccount)


# ------------------------------------------------------------------
# the same, at the fan-in the dense-opinions benchmark times
# ------------------------------------------------------------------

FANIN_TIERS = ("high", "low", "medium")
FANIN_REGISTRY = Registry()
FANIN_IDS = [FANIN_REGISTRY.register(credentials_for(f"fan{i}", tier))
             .account_id for i, tier in enumerate(FANIN_TIERS * 334)]
FANIN_CONFIGS = [
    DEFAULT_ENGINE,
    # floors that tie: epsilon with a mean of 0, w_min with a cost of c_half
    EngineConfig(epsilon=0.5, w_min=0.5),
    # int tier trust values
    EngineConfig(policy=PolicyConfig({ProfileTier.LOW: 0,
                                      ProfileTier.MEDIUM: 0.5,
                                      ProfileTier.HIGH: 1}), epsilon=0.15)]


def fanin_store(raters, seed):
    """A seller whose "laptops" bucket holds one rating from each of
    `raters` raters, recorded in a shuffled order with some replaced, and
    nine raters in ten rated themselves, in other scopes."""
    draw = random.Random(seed)
    seller, *pool = FANIN_IDS[:raters + 1]
    ratings = []
    for ratee in pool:
        if draw.random() < 0.9:
            for rater in draw.sample([seller, *pool], draw.randint(1, 4)):
                if rater != ratee:
                    ratings.append((rater, ratee, draw.choice(["cars",
                                                               "books"])))
    ratings += [(rater, seller, "laptops") for rater in pool]
    ratings += draw.sample(ratings, len(ratings) // 10)     # replacements
    draw.shuffle(ratings)
    store = RatingStore()
    for at, (rater, ratee, scope) in enumerate(ratings, start=1):
        cost = draw.choice([0, 100, 100.0, draw.randint(0, 2_000),
                            draw.uniform(0.0, 2_000.0)])
        store.record(Rating(rater, ratee, scope, draw.choice([1, 0, -1]),
                            cost, at), registry=FANIN_REGISTRY)
    return seller, pool, store


@pytest.mark.parametrize("raters, seed", [(200, 1), (500, 2), (1_000, 3)])
def test_reputation_at_bench_fan_in_equals_the_weight_functions(raters,
                                                                 seed):
    seller, pool, store = fanin_store(raters, seed)
    snapshot = store.snapshot()
    unrated = [rater for rater in pool if rater not in store.received]
    assert 0 < len(unrated) < raters // 5      # some take the tier fallback
    bucket = sorted((r for r in snapshot.values()
                     if r.ratee == seller and r.scope == "laptops"),
                    key=lambda r: r.rater)
    assert len(bucket) == raters
    for config in FANIN_CONFIGS:
        numerator = denominator = 0.0
        for rating in bucket:
            weight = (max_rater_weight(rating.rater, snapshot, config,
                                       FANIN_REGISTRY)
                      * max_cost_weight(rating.cost, config))
            numerator += weight * rating.value
            denominator += weight
        got = weighted_reputation(seller, "laptops", store, FANIN_REGISTRY,
                                  config)
        assert got == numerator / denominator and type(got) is float
