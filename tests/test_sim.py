import itertools
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from trustmarket import sim
from trustmarket.engine import (ADVISORY_AVOID_DELIVERY, ADVISORY_NEW_IN_SCOPE,
                                ADVISORY_NEW_SELLER, EngineConfig,
                                ListingContext, compute_opinion)
from trustmarket.errors import InvalidScenario
from trustmarket.ratings import Rating
from trustmarket.sim import (STRATEGY_KINDS, VARIANT_EBAY, VARIANT_INTEGRATED,
                             VARIANT_UNWEIGHTED, VARIANTS, BallotStuffing,
                             BuyerPolicy, BuyerSpec, Honest, IdentityReset,
                             Scenario, SellerSpec, ValueImbalance,
                             build_world, compare_variants, int_draw,
                             run_scenario, step, unit_draw)

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


def test_int_draw_covers_inclusive_range():
    seen = {int_draw(3, 1, 4, "x", i) for i in range(300)}
    assert seen == {1, 2, 3, 4}
    assert int_draw(3, 7, 7, "y") == 7


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
        basic_scenario(**override).validate()
    with pytest.raises(InvalidScenario):
        Scenario.from_dict({**basic_scenario().to_dict(), **override})


def test_duplicate_roster_names_rejected():
    with pytest.raises(InvalidScenario):
        basic_scenario(buyers=(buyer("s1"),)).validate()


def test_collusion_target_must_exist():
    bad = BuyerSpec(name="shill", policy=BuyerPolicy(),
                    colludes_with="nobody")
    with pytest.raises(InvalidScenario):
        basic_scenario(buyers=(bad,)).validate()


@pytest.mark.parametrize("strategy", [
    Honest(quality=0.9, marginal_rate=0.1),
    ValueImbalance(honest_phase=4, low_cost=10, defect_cost=900),
    IdentityReset(defect_after=3, fresh_ids=True),
    BallotStuffing(fake_raters=6, quality=0.4),
])
def test_scenario_roundtrip(strategy):
    scenario = basic_scenario(
        sellers=(SellerSpec(name="s1", strategy=strategy, tier="medium"),),
        buyers=(buyer("b1", new_seller_discount=0.05),
                BuyerSpec(name="shill", policy=BuyerPolicy(),
                          colludes_with="s1")))
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_bundled_scenario_files_parse():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) >= 3
    for path in paths:
        scenario = Scenario.from_dict(json.loads(path.read_text()))
        report = run_scenario(scenario)
        assert report.total_spend == report.fraud_gain + report.honest_revenue


@pytest.mark.parametrize("kwargs", [
    {"quality": 1.5},
    {"marginal_rate": -0.1},
    {"kind": "value-imbalance", "low_cost": 20.0},
    {"kind": "value-imbalance", "defect_cost": float("nan")},
    {"kind": "value-imbalance", "defect_cost": float("inf")},
    {"kind": "value-imbalance", "honest_phase": True},
    {"kind": "value-imbalance", "low_cost": -1},
    {"kind": "identity-reset", "defect_after": 2.5},
    {"kind": "ballot-stuffing", "fake_raters": 2.5},
    {"kind": "ballot-stuffing", "fake_raters": False},
])
def test_bad_strategy_parameters(kwargs):
    spec = {"kind": "honest", **kwargs}
    params = {k: v for k, v in spec.items() if k != "kind"}
    with pytest.raises(ValueError):
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
    report = run_scenario(basic_scenario(seed=seed, horizon=15))
    assert report.fraud_gain + report.honest_revenue == report.total_spend
    assert report.fraud_gain >= 0
    assert report.honest_revenue >= 0


def test_ratings_follow_deals():
    report = run_scenario(basic_scenario(seed=2, horizon=10))
    for entry in report.rounds:
        assert entry["ratings"] == 2 * entry["deals"]
    assert report.completed_deals == sum(r["deals"] for r in report.rounds)


def test_no_buyers_means_no_deals():
    report = run_scenario(basic_scenario(buyers=(), horizon=3))
    assert report.completed_deals == 0
    assert report.total_spend == 0
    # nobody ever sold, so onboarding time is censored past the horizon
    assert set(report.time_to_first_sale.values()) == {4}
    assert report.trust_calibration is None or True   # may be None


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
    live = world.store.latest_ratings_for(target_id)
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
    assert world.blocked_registrations == 0
    assert world.accounts["shifty"] != first_id
    # the replacement account starts with no ratings of its own
    assert world.sellers["shifty"].resets >= 1


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

def _fresh_consider(world, buyer, listing, views, index):
    """The threshold rule scored with a fresh compute_opinion for every
    (buyer, listing), ignoring the round's shared views."""
    if buyer.colludes_with == listing.seller:
        return 2.0
    if world.scenario.variant == VARIANT_EBAY:
        return sim.score_view(world, listing.seller, listing.scope)
    opinion = compute_opinion(
        world.accounts[buyer.name],
        world.sellers[listing.seller].account_id,
        ListingContext(scope=listing.scope, price=listing.price,
                       delivery_days=listing.delivery_days),
        world.store, world.registry, world.config)
    if buyer.policy.refuse_on_avoid_delivery \
            and ADVISORY_AVOID_DELIVERY in opinion.advisories:
        return None
    effective = opinion.unit_score
    if opinion.advisories & {ADVISORY_NEW_SELLER, ADVISORY_NEW_IN_SCOPE}:
        effective -= buyer.policy.new_seller_discount
    return effective


def _view_scenario(seed, scopes, pair_global, max_delivery_days):
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
    sellers = tuple(SellerSpec(name=f"s{i}", strategy=strategy,
                               tier=rng.choice(tiers))
                    for i, strategy in enumerate(strategies))
    buyers = tuple(
        BuyerSpec(name=f"b{i}", tier=rng.choice(tiers),
                  policy=BuyerPolicy(
                      threshold=rng.choice((0.0, 0.2, 0.5)),
                      refuse_on_avoid_delivery=rng.random() < 0.5,
                      new_seller_discount=rng.choice((0.0, 0.1, 0.3))))
        for i in range(7))
    buyers += (BuyerSpec(name="shill", colludes_with="s5"),)
    return Scenario(
        seed=seed, horizon=15, sellers=sellers, buyers=buyers,
        scopes=("books", "cars", "garden")[:scopes],
        delivery_range=(3, 8),
        engine=EngineConfig(pair_global_replacement=pair_global,
                            max_delivery_days=max_delivery_days))


def _run_with_history(scenario):
    """Rounds, trajectories and store of a run whose buyers start with
    two earlier deals each, rated -1, 0 or +1 both ways.

    In a plain run sellers always rate buyers +1, so every rater weight
    is 1 and a deal changes no open listing's view; here a deal moves
    the buyer's weight, and with it the view of every other seller the
    buyer rated before, so a view kept past a deal shows.
    """
    world = build_world(scenario)
    rng = random.Random(scenario.seed)
    seller_ids = [state.account_id for state in world.sellers.values()]
    for spec in scenario.buyers:
        buyer_id = world.accounts[spec.name]
        for seller_id in rng.sample(seller_ids, 2):
            for rater, ratee in ((seller_id, buyer_id), (buyer_id, seller_id)):
                world.clock += 1
                world.store.record(Rating(
                    rater=rater, ratee=ratee,
                    scope=rng.choice(scenario.scopes),
                    value=rng.choice((-1, 0, 1)),
                    cost=rng.randrange(10, 300), at=world.clock),
                    registry=world.registry)
    for _ in range(scenario.horizon):
        step(world)
    return world.rounds, world.trajectories, world.store.snapshot()


def _runs(scenario):
    return {variant: (run_scenario(replace(scenario, variant=variant))
                      .to_json(),
                      _run_with_history(replace(scenario, variant=variant)))
            for variant in VARIANTS}


@pytest.mark.parametrize("scopes, pair_global, max_delivery_days",
                         itertools.product((1, 3), (False, True), (2.0, 5.0)))
def test_shared_listing_views_equal_fresh_opinions(
        monkeypatch, scopes, pair_global, max_delivery_days):
    for seed in range(3):
        scenario = _view_scenario(seed, scopes, pair_global,
                                  max_delivery_days)
        shared = _runs(scenario)
        with monkeypatch.context() as patched:
            patched.setattr(sim, "_consider", _fresh_consider)
            fresh = _runs(scenario)
        for variant in VARIANTS:
            assert shared[variant] == fresh[variant], (seed, variant)
