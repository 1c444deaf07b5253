import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import profile_examples
from trustmarket import sim
from trustmarket.engine import (ADVISORY_AVOID_DELIVERY, ADVISORY_NEW_IN_SCOPE,
                                ADVISORY_NEW_SELLER, DEFAULT_ENGINE,
                                EngineConfig, ListingContext, compute_opinion,
                                rater_weight, scope_view)
from trustmarket.errors import DuplicateIdentity, InvalidScenario
from trustmarket.eventlog import (KIND_RATING, KIND_REGISTER, MarketState,
                                  apply_event)
from trustmarket.identity import PolicyConfig, ProfileTier, Registry
from trustmarket.ratings import Rating, RatingStore, normalize_scope
from trustmarket.sim import (STRATEGY_KINDS, VARIANT_EBAY, VARIANT_INTEGRATED,
                             VARIANT_UNWEIGHTED, VARIANTS, BallotStuffing,
                             BuyerPolicy, BuyerSpec, Honest, IdentityReset,
                             Scenario, SellerSpec, ValueImbalance,
                             build_world, compare_variants, run_scenario,
                             step, unit_draw)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "data" / "scenarios"


def honest_seller(name, quality=0.95):
    return SellerSpec(name=name, strategy=Honest(quality=quality),
                      tier="high")


def buyer(name, threshold=0.2, **over):
    return BuyerSpec(name=name, policy=BuyerPolicy(threshold=threshold, **over))


def basic_scenario(seed=1, horizon=12, variant=VARIANT_INTEGRATED, **over):
    defaults = dict(
        seed=seed, horizon=horizon, variant=variant,
        sellers=(honest_seller("s1"), honest_seller("s2", quality=0.7)),
        buyers=(buyer("b1"), buyer("b2"), buyer("b3")))
    defaults.update(over)
    return Scenario(**defaults)


# ------------------------------------------------------------------
# draws
# ------------------------------------------------------------------

def test_unit_draw_stable_and_bounded():
    a = unit_draw(9, "k", 1)
    assert a == unit_draw(9, "k", 1)
    assert 0.0 <= a < 1.0
    assert a != unit_draw(9, "k", 2)
    assert a != unit_draw(10, "k", 1)


@pytest.mark.parametrize("seed, key, golden", [
    (0, ("outcome", 1, "s1", "b1"), "0x1.ccf242e234986p-1"),
    (42, ("arrival", 7, "b03"), "0x1.83a2b82c7188ep-2"),
    (-3, ("price", 12, "s00-honest-high"), "0x1.84d89ac1c3cf2p-1"),
])
def test_unit_draw_golden_values(seed, key, golden):
    # the hashed material is "seed:part:part..."; every report depends on it
    assert unit_draw(seed, *key).hex() == golden


def test_unit_draw_keys_split_at_a_colon_differ():
    # each part escapes its colons and backslashes, so no two keys join
    # to one material, whatever their lengths
    assert unit_draw(1, "outcome", 3, "x:y", "z") \
        != unit_draw(1, "outcome", 3, "x", "y:z")
    parts = ["".join(chars) for size in range(3)
             for chars in itertools.product("a:\\", repeat=size)]
    keys = [key for size in (1, 2) for key in itertools.product(parts,
                                                                repeat=size)]
    assert len({unit_draw(1, *key) for key in keys}) == len(keys) == 182


def test_int_draw_covers_inclusive_range():
    seen = {sim._in_range(unit_draw(3, "x", i), 1, 4) for i in range(300)}
    assert seen == {1, 2, 3, 4}
    assert sim._in_range(unit_draw(3, "y"), 7, 7) == 7


# ------------------------------------------------------------------
# scenario validation and serialization
# ------------------------------------------------------------------

@pytest.mark.parametrize("override", [
    {"horizon": 0},
    {"sellers": ()},
    {"variant": "closed-form"},
    {"scopes": ()},
    {"price_range": (100, 50)},
    {"delivery_range": (-1, 3)},
    {"price_range": (float("nan"), 300)},
    {"price_range": (50.0, 200)},
    {"price_range": (50, float("inf"))},
    {"price_range": (True, 200)},
    {"price_range": (50, 100, 200)},
    {"delivery_range": (1, float("nan"))},
    {"delivery_range": (1.5, 7)},
    {"horizon": True},
    {"horizon": 12.0},
    {"seed": True},
    {"seed": 1.5},
])
def test_invalid_scenarios(override):
    with pytest.raises(InvalidScenario):
        basic_scenario(**override)
    with pytest.raises(InvalidScenario):
        Scenario.from_dict({**basic_scenario().to_dict(), **override})


def test_duplicate_roster_names_rejected():
    # step's buyer loop relies on this: no buyer shares a seller's name
    with pytest.raises(InvalidScenario):
        basic_scenario(buyers=(buyer("s1"),))


def test_collusion_target_must_exist():
    bad = BuyerSpec(name="shill", policy=BuyerPolicy(),
                    colludes_with="nobody")
    with pytest.raises(InvalidScenario):
        basic_scenario(buyers=(bad,))


@pytest.mark.parametrize("strategy", [
    Honest(quality=0.9, marginal_rate=0.1),
    ValueImbalance(honest_phase=4, low_cost=10, defect_cost=900),
    IdentityReset(defect_after=3, fresh_ids=True),
    BallotStuffing(fake_raters=6, quality=0.4),
    Honest(),
])
def test_scenario_roundtrip(strategy):
    trust = {ProfileTier.LOW: 0.05, ProfileTier.MEDIUM: 0.2,
             ProfileTier.HIGH: 0.4}
    scenario = basic_scenario(
        sellers=(SellerSpec(name="s1", strategy=strategy, tier="medium"),),
        buyers=(buyer("b1", new_seller_discount=0.05),
                BuyerSpec(name="shill", policy=BuyerPolicy(),
                          colludes_with="s1")),
        engine=EngineConfig(epsilon=0.2, policy=PolicyConfig(trust)))
    data = scenario.to_dict()
    assert Scenario.from_dict(data) == scenario
    assert Scenario.from_dict(json.loads(json.dumps(data))) == scenario
    # a field equal to its default is left out, at every level
    assert set(data) == {"seed", "horizon", "sellers", "buyers", "engine",
                         "initial_trust"}
    [seller] = data["sellers"]
    written = seller.pop("strategy", None)
    assert seller == {"name": "s1", "tier": "medium"}
    assert (written is None) == (strategy == Honest())
    if written is not None:
        defaults = type(strategy)()
        assert all(getattr(defaults, key) != value
                   for key, value in written.items() if key != "kind")
    assert data["buyers"] == [{"name": "b1", "new_seller_discount": 0.05},
                              {"name": "shill", "colludes_with": "s1"}]
    assert data["engine"] == {"epsilon": 0.2}
    assert data["initial_trust"] == {"low": 0.05, "medium": 0.2, "high": 0.4}
    # a missing key takes its dataclass default, the strategy among them
    assert Scenario.from_dict({"seed": 1, "horizon": 1,
                               "sellers": [{"name": "s"}]}).sellers \
        == (SellerSpec(name="s"),)


def test_bundled_scenario_files_parse():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) >= 3
    for path in paths:
        scenario = Scenario.from_dict(json.loads(path.read_text()))
        events = []
        report = run_scenario(scenario, sink=events.append)
        assert sum(record.payload["cost"] for record in events
                   if record.kind == KIND_RATING) == 2 * report.total_spend


def test_tier_labels_are_the_scenario_file_spellings():
    assert sim.TIER_LABELS == ("low", "medium", "high")


@pytest.mark.parametrize("reset", [0, 1])
@pytest.mark.parametrize("label", sim.TIER_LABELS)
def test_roster_credentials_register_at_their_tier(label, reset):
    account = Registry().register(sim.make_credentials("s", label, reset))
    assert account.tier.label == label


# a float or bool in an int field is a TypeError, a value out of its range
# a ValueError; the ids keep each case's name from when it had no class
BAD_STRATEGY_PARAMETERS = [
    ({"quality": 1.5}, ValueError),
    ({"marginal_rate": -0.1}, ValueError),
    ({"kind": "value-imbalance", "low_cost": 20.0}, TypeError),
    ({"kind": "value-imbalance", "defect_cost": float("nan")}, TypeError),
    ({"kind": "value-imbalance", "defect_cost": float("inf")}, TypeError),
    ({"kind": "value-imbalance", "honest_phase": True}, TypeError),
    ({"kind": "value-imbalance", "low_cost": -1}, ValueError),
    ({"kind": "identity-reset", "defect_after": 2.5}, TypeError),
    ({"kind": "ballot-stuffing", "fake_raters": 2.5}, TypeError),
    ({"kind": "ballot-stuffing", "fake_raters": False}, TypeError),
    ({"kind": "ballot-stuffing", "quality": 1.5}, ValueError),
]


@pytest.mark.parametrize("kwargs, error", BAD_STRATEGY_PARAMETERS,
                         ids=[f"kwargs{i}" for i
                              in range(len(BAD_STRATEGY_PARAMETERS))])
def test_bad_strategy_parameters(kwargs, error):
    spec = {"kind": "honest", **kwargs}
    params = {k: v for k, v in spec.items() if k != "kind"}
    with pytest.raises(error):
        STRATEGY_KINDS[spec["kind"]](**params)
    data = basic_scenario().to_dict()
    data["sellers"][0]["strategy"] = spec
    with pytest.raises(InvalidScenario):
        Scenario.from_dict(data)


# ------------------------------------------------------------------
# determinism and conservation
# ------------------------------------------------------------------

def test_repeat_runs_byte_identical():
    scenario = basic_scenario(seed=42, horizon=20)
    assert run_scenario(scenario).to_json() == run_scenario(scenario).to_json()


def test_variants_share_market_randomness():
    # same seed, different variant: listings line up round for round
    base = basic_scenario(seed=5, horizon=8)
    reports = {variant: run_scenario(Scenario.from_dict(
        {**base.to_dict(), "variant": variant})) for variant in VARIANTS}
    listing_counts = {variant: [r["listings"] for r in report.rounds]
                      for variant, report in reports.items()}
    assert len({tuple(v) for v in listing_counts.values()}) == 1


@pytest.mark.parametrize("seed", range(8))
def test_money_conserved(seed):
    # the report's spend is its revenues' sum; the event stream checks it,
    # since both ratings of a deal carry the deal's price
    events = []
    report = run_scenario(basic_scenario(seed=seed, horizon=15),
                          sink=events.append)
    assert sum(record.payload["cost"] for record in events
               if record.kind == KIND_RATING) == 2 * report.total_spend
    assert report.fraud_gain >= 0
    assert report.honest_revenue >= 0


def test_ratings_follow_deals():
    events = []
    report = run_scenario(basic_scenario(seed=2, horizon=10),
                          sink=events.append)
    for entry in report.rounds:
        assert entry["ratings"] == 2 * entry["deals"]
    assert sum(record.kind == KIND_RATING for record in events) \
        == 2 * report.completed_deals > 0


def test_no_buyers_means_no_deals():
    report = run_scenario(basic_scenario(buyers=(), horizon=3))
    assert report.completed_deals == 0
    assert report.total_spend == 0
    # nobody ever sold, so onboarding time is censored past the horizon
    assert set(report.time_to_first_sale.values()) == {4}
    # both sellers sit at their tier's fallback score every round, so the
    # scores have no variance to rank
    assert report.trust_calibration is None


def test_trajectories_cover_every_round():
    scenario = basic_scenario(horizon=9)
    report = run_scenario(scenario)
    for name in ("s1", "s2"):
        assert len(report.trajectories[name]) == 9
        assert all(0.0 <= value <= 1.0 for value in report.trajectories[name])


# ------------------------------------------------------------------
# attacks
# ------------------------------------------------------------------

def test_fake_raters_all_blocked():
    scenario = basic_scenario(
        sellers=(SellerSpec(name="stuffer",
                            strategy=BallotStuffing(fake_raters=7),
                            tier="high"),
                 honest_seller("s2")),
        horizon=4)
    report = run_scenario(scenario)
    assert report.blocked_duplicate_registrations == 7
    assert report.rounds[0]["blocked_registrations"] == 7


def test_single_shill_counts_once():
    # latest-only storage: a colluding buyer holds exactly one live rating
    scenario = basic_scenario(
        sellers=(SellerSpec(name="target",
                            strategy=BallotStuffing(fake_raters=3,
                                                    quality=0.0),
                            tier="high"),),
        buyers=(BuyerSpec(name="shill", policy=BuyerPolicy(),
                          colludes_with="target"),),
        horizon=10)
    world = build_world(scenario)
    for _ in range(scenario.horizon):
        step(world)
    target_id = world.accounts["target"]
    live = [rating for (_, ratee, _), rating
            in world.state.store.snapshot().items() if ratee == target_id]
    assert len(live) == 1
    assert live[0].value == 1          # praised despite quality 0


def test_reregistration_blocked_without_fresh_ids():
    scenario = basic_scenario(
        sellers=(SellerSpec(name="shifty",
                            strategy=IdentityReset(defect_after=2),
                            tier="high"),
                 honest_seller("s2")),
        horizon=12)
    report = run_scenario(scenario)
    assert report.blocked_duplicate_registrations > 0


def test_fresh_ids_reset_history():
    scenario = basic_scenario(
        sellers=(SellerSpec(
            name="shifty",
            strategy=IdentityReset(defect_after=2, fresh_ids=True),
            tier="high"),),
        buyers=(buyer("b1", threshold=0.0), buyer("b2", threshold=0.0)),
        horizon=14)
    world = build_world(scenario)
    first_id = world.accounts["shifty"]
    for _ in range(scenario.horizon):
        step(world)
    assert world.state.rejections == []
    assert world.accounts["shifty"] != first_id
    # the replacement account starts with no ratings of its own
    assert world.sellers["shifty"].resets >= 1


@pytest.mark.parametrize("fresh_ids", [True, False])
def test_identity_reset_tries_to_register_the_round_after_its_first_failure(
        fresh_ids):
    # one listing a round and buyers that take any score: the seller sells
    # once a round, so its deal in round defect_after + 1 is its first to
    # fail, and its first registration attempt comes in the next round
    defect_after = 3
    scenario = basic_scenario(
        sellers=(SellerSpec(name="r", strategy=IdentityReset(
                     defect_after=defect_after, fresh_ids=fresh_ids),
                     tier="high"),),
        buyers=(buyer("b1", threshold=0.0), buyer("b2", threshold=0.0)),
        horizon=defect_after + 3)
    events = []
    world = build_world(scenario, sink=events.append)
    attempts = []       # per round, the registrations it wrote
    for _ in range(scenario.horizon):
        start = len(events)
        step(world)
        attempts.append(sum(event.kind == KIND_REGISTER
                            for event in events[start:]))
    failures = [r["failures"] for r in world.rounds]
    assert failures.index(1) == defect_after            # round defect_after + 1
    assert attempts[:defect_after + 1] == [0] * (defect_after + 1)
    assert attempts[defect_after + 1] == 1


def test_value_imbalance_prices_switch():
    strategy = ValueImbalance(honest_phase=3, low_cost=10, defect_cost=700)
    scenario = basic_scenario(
        sellers=(SellerSpec(name="patient", strategy=strategy, tier="high"),),
        buyers=(buyer("b1", threshold=0.0),),
        horizon=6)
    world = build_world(scenario)
    prices = []
    for _ in range(scenario.horizon):
        step(world)
        state = world.sellers["patient"]
        prices.append(10 if state.deals_done <= strategy.honest_phase else 700)
    assert 700 in prices


# ------------------------------------------------------------------
# cross-variant claims (spot checks; the wide ensembles live elsewhere)
# ------------------------------------------------------------------

def attack_scenario(seed, variant=VARIANT_INTEGRATED):
    return Scenario(
        seed=seed, horizon=40, variant=variant,
        sellers=(SellerSpec(name="patient",
                            strategy=ValueImbalance(honest_phase=10,
                                                    low_cost=20,
                                                    defect_cost=500),
                            tier="high"),
                 honest_seller("steady")),
        buyers=tuple(buyer(f"b{i}") for i in range(1, 5)))


def test_weighting_limits_cheap_rating_leverage():
    wins = 0
    for seed in range(12):
        integrated = run_scenario(attack_scenario(seed))
        unweighted = run_scenario(
            attack_scenario(seed, variant=VARIANT_UNWEIGHTED))
        assert integrated.fraud_gain <= unweighted.fraud_gain
        wins += integrated.fraud_gain < unweighted.fraud_gain
    assert wins > 0


def test_fallback_speeds_up_first_sale():
    scenario = Scenario.from_dict(json.loads(
        (SCENARIO_DIR / "onboarding.json").read_text()))
    totals = {VARIANT_INTEGRATED: 0.0, VARIANT_EBAY: 0.0}
    for variant in totals:
        for seed in range(10):
            report = run_scenario(Scenario.from_dict(
                {**scenario.to_dict(), "seed": seed, "variant": variant}))
            totals[variant] += report.mean_time_to_first_sale()
    assert totals[VARIANT_INTEGRATED] < totals[VARIANT_EBAY]


def test_calibration_orders_honest_above_cheats():
    values = []
    for seed in range(6):
        report = run_scenario(attack_scenario(seed))
        if report.trust_calibration is not None:
            values.append(report.trust_calibration)
    assert values and sum(values) / len(values) > 0.0


# ------------------------------------------------------------------
# comparisons
# ------------------------------------------------------------------

def test_identical_variants_zero_deltas():
    comparison = compare_variants(basic_scenario(seed=9, horizon=10),
                                  variants=(VARIANT_INTEGRATED,))
    assert comparison.deltas == {}


def test_comparison_deltas_match_reports():
    comparison = compare_variants(basic_scenario(seed=4, horizon=10))
    base = comparison.reports[comparison.baseline]
    for variant, deltas in comparison.deltas.items():
        other = comparison.reports[variant]
        assert deltas["fraud_gain"] == other.fraud_gain - base.fraud_gain
        assert deltas["completed_deals"] \
            == other.completed_deals - base.completed_deals


def test_comparison_requires_known_variants():
    with pytest.raises(InvalidScenario):
        compare_variants(basic_scenario(), variants=("bogus",))
    with pytest.raises(InvalidScenario):
        compare_variants(basic_scenario(), variants=())


def test_comparison_serializes():
    comparison = compare_variants(basic_scenario(seed=1, horizon=6))
    payload = json.loads(comparison.to_json())
    assert set(payload["reports"]) == set(VARIANTS)
    assert payload["baseline"] == VARIANT_INTEGRATED


# ------------------------------------------------------------------
# shared listing views equal a fresh opinion per buyer
# ------------------------------------------------------------------

def _fresh_choose(world, buyer, listings, best):
    """The threshold rule scored with a fresh compute_opinion for every
    (buyer, unsold listing), ignoring the world's kept views and the
    round's best listings: the first of the candidates sorted by
    (-effective, index)."""
    candidates = []
    for index, listing in enumerate(listings):
        if listing.sold:
            continue
        if buyer.colludes_with == listing.seller:
            effective = 2.0
        elif world.scenario.variant == VARIANT_EBAY:
            effective = sim.score_view(world, listing.seller, listing.scope)
        else:
            opinion = compute_opinion(
                world.accounts[buyer.name], world.accounts[listing.seller],
                ListingContext(scope=listing.scope, price=listing.price,
                               delivery_days=listing.delivery_days),
                world.state.store, world.state.registry, world.config)
            if buyer.policy.refuse_on_avoid_delivery \
                    and ADVISORY_AVOID_DELIVERY in opinion.advisories:
                continue
            effective = opinion.unit_score
            if opinion.advisories & {ADVISORY_NEW_SELLER,
                                     ADVISORY_NEW_IN_SCOPE}:
                effective -= buyer.policy.new_seller_discount
        if effective >= buyer.policy.threshold:
            candidates.append((-effective, index))
    return sorted(candidates)[0][1] if candidates else None


def _view_scenario(seed, scopes, max_delivery_days, sellers=6, buyers=7,
                   horizon=15):
    """Every strategy, a shill, buyers that ignore the delivery advisory
    or discount newcomers; delivery runs 3-8 days, so a maximum of 2
    flags every listing and 5 some of them."""
    rng = random.Random(seed)
    tiers = ("low", "medium", "high")
    strategies = (
        Honest(quality=0.9), Honest(quality=0.6, marginal_rate=0.2),
        ValueImbalance(honest_phase=3, low_cost=15, defect_cost=400),
        IdentityReset(defect_after=2, fresh_ids=True),
        IdentityReset(defect_after=2, fresh_ids=False),
        BallotStuffing(fake_raters=2, quality=0.4))
    sellers = tuple(SellerSpec(name=f"s{i}",
                               strategy=strategies[i % len(strategies)],
                               tier=rng.choice(tiers))
                    for i in range(sellers))
    buyers = tuple(
        BuyerSpec(name=f"b{i}", tier=rng.choice(tiers),
                  policy=BuyerPolicy(
                      threshold=rng.choice((0.0, 0.2, 0.5)),
                      refuse_on_avoid_delivery=rng.random() < 0.5,
                      new_seller_discount=rng.choice((0.0, 0.1, 0.3))))
        for i in range(buyers))
    buyers += (BuyerSpec(name="shill", colludes_with="s5"),)
    return Scenario(
        seed=seed, horizon=horizon, sellers=sellers, buyers=buyers,
        scopes=("books", "cars", "garden")[:scopes],
        delivery_range=(3, 8),
        engine=EngineConfig(max_delivery_days=max_delivery_days))


def _assert_kept_views_are_fresh(world):
    """Each view the world keeps equals the engine's fresh scope view."""
    state = world.state
    for (account, scope), view in world.views.items():
        assert view == scope_view(account, scope, state.store,
                                  state.registry, world.config)[2:]


def _world_with_history(scenario):
    """A world at round 0 whose buyers have two earlier deals each, rated
    -1, 0 or +1 both ways.

    In a plain run sellers always rate buyers +1, so every rater weight
    is 1 and a deal changes no open listing's view; here a deal moves
    the buyer's weight, and with it the view of every other seller the
    buyer rated before, so a view kept past a deal shows.
    """
    world = build_world(scenario)
    rng = random.Random(scenario.seed)
    store = world.state.store
    seller_ids = [world.accounts[name] for name in world.sellers]
    for spec in scenario.buyers:
        buyer_id = world.accounts[spec.name]
        for seller_id in rng.sample(seller_ids, 2):
            for rater, ratee in ((seller_id, buyer_id), (buyer_id, seller_id)):
                store.record(Rating(
                    rater=rater, ratee=ratee,
                    scope=rng.choice(scenario.scopes),
                    value=rng.choice((-1, 0, 1)),
                    cost=rng.randrange(10, 300), at=store.revision + 1),
                    registry=world.state.registry)
    return world


def _run_with_history(scenario):
    """Rounds, trajectories and store of a run from `_world_with_history`,
    its kept views checked after every step."""
    world = _world_with_history(scenario)
    for _ in range(scenario.horizon):
        step(world)
        _assert_kept_views_are_fresh(world)
    return world.rounds, world.trajectories, world.state.store.snapshot()


def _runs(scenario):
    return {variant: (run_scenario(replace(scenario, variant=variant))
                      .to_json(),
                      _run_with_history(replace(scenario, variant=variant)))
            for variant in VARIANTS}


@pytest.mark.parametrize("scopes, max_delivery_days",
                         itertools.product((1, 3), (2.0, 5.0)))
def test_shared_listing_views_equal_fresh_opinions(
        monkeypatch, scopes, max_delivery_days):
    for seed in range(3):
        scenario = _view_scenario(seed, scopes, max_delivery_days)
        shared = _runs(scenario)
        with monkeypatch.context() as patched:
            patched.setattr(sim, "_choose", _fresh_choose)
            fresh = _runs(scenario)
        for variant in VARIANTS:
            assert shared[variant] == fresh[variant], (seed, variant)


def test_rankings_kept_across_deals_choose_as_rankings_built_per_deal(
        monkeypatch):
    # with earlier ratings of its own, a buyer's weight moves at each deal
    # and drops the views of unsold listings it rated, so the rankings
    # must go too: the run equals one in which every deal reports a moved
    # weight and so ranks afresh
    record_deal = sim._record_deal
    for seed, scopes in itertools.product(range(30), (1, 3)):
        scenario = _view_scenario(seed, scopes, 5.0)
        kept = _run_with_history(scenario)
        with monkeypatch.context() as patched:
            patched.setattr(sim, "_record_deal",
                            lambda *args: record_deal(*args) or True)
            assert _run_with_history(scenario) == kept, (seed, scopes)


def test_a_ranking_is_built_again_only_after_a_deal_dropped_a_view(
        monkeypatch):
    # within a round, a buyer policy's ranking lasts until a deal drops a
    # kept view other than those of the sold seller; a deal that only
    # moves the buyer's weight, as its first deal does, keeps it
    choose, record_deal = sim._choose, sim._record_deal
    again = 0
    for name, scenario in _bundled_and_view_scenarios():
        for start, variant in itertools.product(
                (build_world, _world_with_history), VARIANTS):
            world = start(replace(scenario, variant=variant))
            ranked = {}     # round -> policies ranked since the last drop

            def counted(world, buyer, listings, rankings):
                known = set(rankings)
                index = choose(world, buyer, listings, rankings)
                policies = ranked.setdefault(world.round, set())
                for policy in rankings.keys() - known:
                    assert policy not in policies, (name, variant, policy)
                    policies.add(policy)
                return index

            def recorded(world, buyer, listing, outcome):
                nonlocal again
                seller = listing.key[0]
                first = seller not in world.state.store.received
                kept = {key for key in world.views if key[0] != seller
                        or not first and key != listing.key}
                result = record_deal(world, buyer, listing, outcome)
                if kept - world.views.keys():
                    again += bool(ranked.pop(world.round, None))
                return result
            monkeypatch.setattr(sim, "_choose", counted)
            monkeypatch.setattr(sim, "_record_deal", recorded)
            for _ in range(scenario.horizon):
                step(world)
    assert again


def _bundled_and_view_scenarios():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        yield path.stem, Scenario.from_dict(json.loads(path.read_text()))
    for seed in range(3):
        yield f"view-{seed}", _view_scenario(seed, 3, 5.0)


def _assert_ebay_scores_count_each_account(world, events):
    """On `ebay`, each seller's score is the share of positive among the
    non-neutral ratings its current account received, from 0/0."""
    if world.scenario.variant != VARIANT_EBAY:
        return
    for name in world.sellers:
        values = [record.payload["value"] for record in events
                  if record.kind == KIND_RATING
                  and record.payload["ratee"] == world.accounts[name]]
        pos, neg = values.count(1), values.count(-1)
        assert sim.score_view(world, name, world.scenario.scopes[0]) \
            == (pos / (pos + neg) if pos + neg else 0.0), name


def _stepped_world(scenario):
    """A world run to its horizon, every account its sellers held, fresh
    reset ids included, and the events it wrote, collected by its sink;
    its kept views and eBay scores are checked after every step."""
    events = []
    world = build_world(scenario, sink=events.append)
    seller_ids = set()
    for _ in range(scenario.horizon):
        step(world)
        seller_ids.update(world.accounts[name] for name in world.sellers)
        _assert_kept_views_are_fresh(world)
        _assert_ebay_scores_count_each_account(world, events)
    return world, seller_ids, events


def _assert_ratings_pair_a_buyer_with_a_seller(world, seller_ids, events):
    """Every rating of the run is between one buyer and one seller
    account, so no seller account rates a seller: the rule that lets a
    deal's moved seller weight leave every kept view alone."""
    buyer_ids = {world.accounts[spec.name] for spec in world.scenario.buyers}
    assert not buyer_ids & seller_ids
    for record in events:
        if record.kind == KIND_RATING:
            pair = {record.payload["rater"], record.payload["ratee"]}
            assert len(pair & buyer_ids) == len(pair & seller_ids) == 1


def test_only_buyers_rate_sellers():
    for name, scenario in _bundled_and_view_scenarios():
        world, seller_ids, events = _stepped_world(scenario)
        assert sim.world_report(world).completed_deals, name
        _assert_ratings_pair_a_buyer_with_a_seller(world, seller_ids, events)


def _reads(world, key):
    """What the view of `key` reads: its bucket, the weights of the
    bucket's raters and whether its seller has been rated at all."""
    account, scope = key
    store, registry = world.state.store, world.state.registry
    ratings = store.latest_ratings_for(account, scope)
    return (tuple(ratings),
            tuple(rater_weight(rating.rater, store, registry, world.config)
                  for rating in ratings),
            account in store.received)


@pytest.mark.parametrize("variant", (VARIANT_INTEGRATED, VARIANT_UNWEIGHTED))
def test_a_view_is_computed_again_only_after_a_deal_changed_its_reads(
        monkeypatch, variant):
    # a key's first view lasts, across rounds, until a deal writes its
    # bucket, rates its seller for the first time or moves the weight of
    # one of its raters
    record_deal = sim._record_deal
    for name, scenario in _bundled_and_view_scenarios():
        for start in (build_world, _world_with_history):
            world = start(replace(scenario, variant=variant))
            computed = Counter()
            changed = set()

            def counted(account, scope, *args):
                key = (account, normalize_scope(scope))
                assert not computed[key] or key in changed, (name, key)
                changed.discard(key)
                computed[key] += 1
                return scope_view(account, scope, *args)

            def recorded(world, *args):
                before = {key: _reads(world, key) for key in computed}
                moved = record_deal(world, *args)
                changed.update(key for key, reads in before.items()
                               if _reads(world, key) != reads)
                return moved
            monkeypatch.setattr(sim, "scope_view", counted)
            monkeypatch.setattr(sim, "_record_deal", recorded)
            for _ in range(scenario.horizon):
                step(world)
            assert computed, name


def test_deal_drops_only_views_its_ratings_reach(monkeypatch):
    scenario = basic_scenario(
        sellers=tuple(honest_seller(name) for name in ("s1", "s2", "s3")),
        buyers=(buyer("b"), buyer("b2")), scopes=("c", "d"))
    world = build_world(scenario)
    ids = world.accounts
    store, registry = world.state.store, world.state.registry
    for rater, ratee, scope, value in (
            ("b", "s2", "c", 1), ("b2", "s2", "c", -1),
            ("b2", "s2", "d", -1), ("b2", "s3", "c", 1),
            ("s2", "b", "c", -1)):
        store.record(Rating(rater=ids[rater], ratee=ids[ratee], scope=scope,
                            value=value, cost=100, at=store.revision + 1),
                     registry=registry)
    listings = [sim._Listing(seller=seller, scope=scope, price=100,
                             delivery_days=1, key=(ids[seller], scope),
                             late=False)
                for seller, scope in (("s1", "c"), ("s2", "c"), ("s2", "d"),
                                      ("s3", "c"))]
    views = world.views

    def fresh(key):
        return scope_view(*key, store, registry, world.config)[2:]
    calls = Counter()

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call
    monkeypatch.setattr(sim, "rater_weight",
                        counted("rater_weight", rater_weight))
    monkeypatch.setattr(RatingStore, "latest",
                        counted("latest", RatingStore.latest))

    def deal(buyer_spec, listing, outcome):
        """`_record_deal` of `buyer_spec` buying `listing`; its calls."""
        calls.clear()
        listing.sold = True
        sim._record_deal(world, buyer_spec, listing, outcome)
        return dict(calls)

    sim._choose(world, scenario.buyers[0], listings, {})
    before = dict(views)
    assert set(before) == {listing.key for listing in listings}

    # s1's first rating drops its view; b's weight moves from epsilon (one
    # -1 received) to 0.5, which drops the view of (s2, c), which b rated
    assert deal(scenario.buyers[0], listings[0],
                sim.OUTCOME_SUCCESS)["rater_weight"] == 2
    assert set(views) == {listings[2].key, listings[3].key}
    assert fresh(listings[1].key) != before[listings[1].key]
    for key, view in views.items():
        assert view == fresh(key)

    # b2, already rated +1, keeps its weight of 1 when s3 rates it +1, and
    # its -1 moves s3's weight; only buyers rate sellers, so no view reads
    # s3's weight: the deal drops only the view of its own bucket, (s3, c),
    # and looks up no rating
    store.record(Rating(rater=ids["s1"], ratee=ids["b2"], scope="d", value=1,
                        cost=100, at=store.revision + 1), registry=registry)
    views.clear()
    sim._choose(world, scenario.buyers[1], listings, {})
    kept = dict(views)
    assert set(kept) == {listing.key for listing in listings[1:]}
    weights = [rater_weight(ids[name], store, registry, world.config)
               for name in ("b2", "s3")]
    assert deal(scenario.buyers[1], listings[3],
                sim.OUTCOME_FAILURE) == {"rater_weight": 2}
    assert rater_weight(ids["b2"], store, registry,
                        world.config) == weights[0]
    assert rater_weight(ids["s3"], store, registry,
                        world.config) != weights[1]
    assert views == {key: kept[key]
                     for key in (listings[1].key, listings[2].key)}
    for key, view in views.items():
        assert view == fresh(key)


def test_scopes_that_normalise_alike_share_one_view():
    # an honest seller sells in "books" while the trajectories read
    # "Books": both name one bucket, so one view, which each deal drops
    scenario = basic_scenario(seed=3, horizon=12, scopes=("Books", "books"))
    events = []
    world = build_world(scenario, sink=events.append)
    for _ in range(scenario.horizon):
        step(world)
        _assert_kept_views_are_fresh(world)
        state = world.state
        for name in world.sellers:
            fresh = scope_view(world.accounts[name], "Books", state.store,
                               state.registry, world.config)[2]
            assert world.trajectories[name][-1] == round(fresh, 9)
    # a seller's second deal in "books" is the one a view kept under
    # the raw scope would miss; its first drops all of its views
    sellers = {world.accounts[name] for name in world.sellers}
    sold = Counter(record.payload["ratee"] for record in events
                   if record.kind == KIND_RATING
                   and record.payload["scope"] == "books"
                   and record.payload["ratee"] in sellers)
    assert max(sold.values()) >= 2


def test_ebay_scores_a_fresh_account_from_zero():
    # a whitewashed account starts from 0/0 feedback, not from the old
    # account's tally
    scenario = basic_scenario(
        seed=1, horizon=6, variant=VARIANT_EBAY,
        sellers=(SellerSpec(name="r", strategy=IdentityReset(
                     defect_after=2, fresh_ids=True), tier="high"),
                 honest_seller("h")),
        buyers=tuple(buyer(f"b{i}", threshold=0.0) for i in range(4)))
    events = []
    world = build_world(scenario, sink=events.append)
    first = world.accounts["r"]
    for _ in range(scenario.horizon):
        step(world)
        _assert_ebay_scores_count_each_account(world, events)
    assert world.accounts["r"] != first
    assert world.sellers["r"].resets >= 1


def test_a_comparison_hashes_each_shared_draw_once(monkeypatch):
    # arrival orders, listing terms and the outcomes of deals the variants
    # share are the same draws under every variant
    keys = Counter()

    def counted(*key):
        keys[key] += 1
        return unit_draw(*key)
    monkeypatch.setattr(sim, "unit_draw", counted)
    compare_variants(_view_scenario(1, 3, 5.0, sellers=20, buyers=40,
                                    horizon=50))
    assert len(keys) > 1000
    assert sum(keys.values()) == len(keys)


def test_a_single_run_keeps_no_draw_past_its_round(monkeypatch):
    # every draw key, (seed, purpose, round, ...), names its round, so a
    # run keeps none from an earlier round; nor does a comparison, whose
    # worlds step in lockstep and share one `draws`
    stepped = sim.step
    kept = []

    def checked(world):
        stepped(world)
        rounds = {key[2] for key in world.draws}
        assert rounds <= {world.round}, (world.round, sorted(rounds))
        kept.append(len(world.draws))
        return world
    monkeypatch.setattr(sim, "step", checked)
    scenario = _view_scenario(1, 3, 5.0)
    run_scenario(scenario)
    assert len(kept) == scenario.horizon and min(kept) > 0
    kept.clear()
    compare_variants(scenario)
    assert len(kept) == len(VARIANTS) * scenario.horizon and min(kept) > 0


def _compared_runs_match_single_runs(scenario, singles):
    variants = (VARIANT_EBAY, VARIANT_INTEGRATED, VARIANT_EBAY,
                VARIANT_UNWEIGHTED)
    comparison = compare_variants(scenario, variants)
    for variant in variants:
        assert comparison.reports[variant].to_json() == singles[variant]


def test_a_comparison_reports_what_single_runs_report():
    for _, scenario in _bundled_and_view_scenarios():
        _compared_runs_match_single_runs(scenario, {
            variant: run_scenario(replace(scenario, variant=variant))
            .to_json() for variant in VARIANTS})


def _fold(events):
    """The state a replay of `events` builds, a refused registration kept
    as a rejection."""
    folded = MarketState()
    for record in events:
        try:
            apply_event(record, folded)
        except DuplicateIdentity as exc:
            folded.rejections.append((record.seq, record.seq, str(exc)))
    return folded


@pytest.mark.parametrize("seed", range(3))
def test_world_state_is_the_fold_of_its_events(seed):
    scenario = _view_scenario(seed, 3, 5.0)
    events = []
    world = build_world(scenario, sink=events.append)
    for _ in range(scenario.horizon):
        step(world)
    assert [record.seq for record in events] == list(range(1, len(events) + 1))
    assert world.state.last_seq == len(events)
    report = sim.world_report(world)
    ratings = [record for record in events if record.kind == KIND_RATING]
    assert len(ratings) == 2 * report.completed_deals
    assert [record.at for record in ratings] \
        == list(range(1, world.state.store.revision + 1))
    folded = _fold(events)
    assert folded.describe() == world.state.describe()
    assert 0 < len(folded.rejections) == report.blocked_duplicate_registrations


# ------------------------------------------------------------------
# generated scenarios
# ------------------------------------------------------------------

UNIT = st.floats(0, 1)
OPEN_UNIT = st.floats(0, 1, exclude_min=True, exclude_max=True)
# "Books" and " books" normalise to "books": one bucket, so one kept view
SCOPES = ("books", "cars", "garden", "Books", " books")
# Roster names from case variants, separators, a space, fullwidth forms
# (U+FF29 U+FF24, "ID") and accented letters, which the registry's
# normalisation folds together, from the r and digit of a reset's name, and
# from the colon and backslash that `unit_draw` escapes.
NAMES = st.text(st.sampled_from("aAbB-. \uff29\uff24\u00e9\u00ebr1:\\"),
                min_size=1, max_size=4).filter(str.strip)


@st.composite
def scenarios(draw):
    """Every strategy kind and tier, colluders, 1-3 scopes, and initial
    trust and engine overrides, each also left at its default; at least
    two sellers, as `_run_with_history` needs, and horizons up to 8.  Only
    configs `EngineConfig` accepts: epsilon * w_min must not round to 0.
    Roster names are distinct `NAMES`, a buyer's perhaps a seller's name
    at a reset, `{seller}-r{n}` or `{seller}r{n}`."""
    tiers = st.sampled_from(sim.TIER_LABELS)
    strategies = st.one_of(
        st.just(Honest()),
        st.builds(Honest, quality=UNIT, marginal_rate=UNIT),
        st.builds(ValueImbalance, honest_phase=st.integers(0, 4),
                  low_cost=st.integers(0, 100),
                  defect_cost=st.integers(0, 900)),
        st.builds(IdentityReset, defect_after=st.integers(0, 4),
                  fresh_ids=st.booleans()),
        st.builds(BallotStuffing, fake_raters=st.integers(0, 3),
                  quality=UNIT))
    sellers = tuple(
        SellerSpec(name=name, strategy=draw(strategies), tier=draw(tiers))
        for name in draw(st.lists(NAMES, min_size=2, max_size=6,
                                  unique=True)))
    resets = [f"{seller.name}{dash}r{n}" for seller in sellers
              for dash in ("-", "") for n in (1, 2)]
    names = draw(st.lists(NAMES | st.sampled_from(resets), max_size=8,
                          unique=True))
    taken = {seller.name for seller in sellers}
    policies = st.one_of(st.just(BuyerPolicy()), st.builds(
        BuyerPolicy, threshold=UNIT, refuse_on_avoid_delivery=st.booleans(),
        new_seller_discount=UNIT))
    targets = st.one_of(st.none(), st.sampled_from([s.name for s in sellers]))
    buyers = tuple(
        BuyerSpec(name=name, policy=draw(policies), tier=draw(tiers),
                  colludes_with=draw(targets))
        for name in names if name not in taken)
    engine = draw(st.fixed_dictionaries({}, optional={
        "epsilon": OPEN_UNIT, "c_half": st.floats(1, 500), "w_min": OPEN_UNIT,
        "max_delivery_days": st.floats(0, 20)})
        .filter(lambda e: e.get("epsilon", DEFAULT_ENGINE.epsilon)
                * e.get("w_min", DEFAULT_ENGINE.w_min) > 0.0))
    labels = draw(st.none() | st.lists(UNIT, min_size=2, max_size=2,
                                       unique=True))
    if labels:
        engine["low_max"], engine["med_max"] = sorted(labels)
    trust = draw(st.none() | st.lists(UNIT, min_size=3, max_size=3))
    if trust:
        engine["policy"] = PolicyConfig(dict(zip(ProfileTier, sorted(trust))))
    low_price = draw(st.integers(0, 300))
    low_delivery = draw(st.integers(0, 8))
    return Scenario(
        seed=draw(st.integers(-100, 10 ** 6)),
        horizon=draw(st.integers(1, 8)),
        sellers=sellers, buyers=buyers,
        scopes=tuple(draw(st.lists(st.sampled_from(SCOPES), min_size=1,
                                   max_size=3, unique=True))),
        price_range=(low_price, draw(st.integers(low_price, 400))),
        delivery_range=(low_delivery, draw(st.integers(low_delivery, 16))),
        variant=draw(st.sampled_from(VARIANTS)),
        engine=EngineConfig(**engine))


def _reference_unit_draw(seed, *key):
    """`unit_draw` with no fast path: every part escaped, and the first 8
    bytes of the digest read by `int.from_bytes`."""
    material = ":".join(str(part).replace("\\", "\\\\").replace(":", "\\:")
                        for part in (seed, *key))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


class _FreshCredentials(dict):
    """Roster name -> tier, whose every lookup builds the name's
    credentials again."""

    def __getitem__(self, name):
        return sim.make_credentials(name, super().__getitem__(name))


def _world_with_fresh_credentials(scenario, *args):
    """`build_world`, with credentials built afresh for each registration
    attempt after the roster's own, blocked retries included."""
    world = build_world(scenario, *args)
    world.credentials = _FreshCredentials(
        {spec.name: spec.tier for spec in (*scenario.sellers,
                                           *scenario.buyers)})
    return world


def _drawn_terms(world, spec):
    """`sim._terms` uncached: each world reads a listing's price, scope
    and delivery days through its own `_draw`s, one key per term."""
    scenario, key = world.scenario, (world.round, spec.name)
    price = None
    if not isinstance(spec.strategy, ValueImbalance):
        price = sim._in_range(sim._draw(world, "price", *key),
                              *scenario.price_range)
    if not isinstance(spec.strategy, Honest):
        return price, scenario.scopes[0], scenario.delivery_range[0]
    scope = scenario.scopes[int(sim._draw(world, "scope", *key)
                                * len(scenario.scopes))]
    return price, scope, sim._in_range(sim._draw(world, "delivery", *key),
                                       *scenario.delivery_range)


@settings(max_examples=profile_examples(40, 200), deadline=None)
@given(scenario=scenarios())
def test_fast_paths_equal_their_references(scenario):
    # roster names hold colons, backslashes, fullwidth and accented
    # letters, so both of unit_draw's joins are hashed
    fast = compare_variants(scenario).to_json()
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(sim, "unit_draw", _reference_unit_draw)
        patched.setattr(sim, "build_world", _world_with_fresh_credentials)
        assert compare_variants(scenario).to_json() == fast
    # a deal that reports a moved weight drops every buyer policy's
    # ranking, so each choice after it ranks the unsold listings afresh
    record_deal = sim._record_deal
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(sim, "_record_deal",
                        lambda *args: record_deal(*args) or True)
        assert compare_variants(scenario).to_json() == fast
    # each world draws its listings' terms itself
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(sim, "_terms", _drawn_terms)
        assert compare_variants(scenario).to_json() == fast


# the exactness oracle of kept views: more examples on CI than in a local run
@settings(max_examples=profile_examples(40, 200), deadline=None)
@given(scenario=scenarios())
def test_generated_scenarios(scenario):
    # the file format round-trips through JSON
    data = json.loads(json.dumps(scenario.to_dict()))
    assert Scenario.from_dict(data) == scenario
    # kept listing views never go stale, and `_stepped_world` below checks
    # each kept view after every step
    shared = _runs(scenario)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(sim, "_choose", _fresh_choose)
        assert _runs(scenario) == shared
    # a comparison's shared draws change no variant's report
    _compared_runs_match_single_runs(
        scenario, {variant: shared[variant][0] for variant in VARIANTS})
    # the world's state is the fold of its event stream
    world, seller_ids, events = _stepped_world(scenario)
    assert _fold(events).describe() == world.state.describe()
    _assert_ratings_pair_a_buyer_with_a_seller(world, seller_ids, events)
