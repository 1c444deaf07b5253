"""Shipping gate: one test per release criterion.

Each test prints an explicit PASS/FAIL line so the run reads as a
checklist (use ``pytest -sv tests/test_acceptance.py``).  Oracles here
are written from scratch so a defect in the library cannot hide inside
its own verification.
"""

import io
import json
import random
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout

from conftest import credentials_for
from trustmarket.engine import (ListingContext, TrustEngine, compute_opinion,
                                weighted_reputation)
from trustmarket.errors import (DuplicateIdentity, SelfRating,
                                StaleTimestamp)
from trustmarket.cli import main
from trustmarket.eventlog import replay
from trustmarket.identity import (BusinessDetails, CredentialSet,
                                  PersonalDetails, Registry,
                                  normalize_identity)
from trustmarket.ratings import Rating, RatingStore
from trustmarket.sim import (VARIANT_EBAY, VARIANT_INTEGRATED,
                             VARIANT_UNWEIGHTED, BallotStuffing, BuyerPolicy,
                             BuyerSpec, Honest, IdentityReset, Scenario,
                             SellerSpec, ValueImbalance, build_world,
                             compare_variants, run_scenario, step)
from trustmarket.stats import (REPORTED_NEW_SELLER_SUPPORT, compare_reported,
                               kruskal_wallis, new_seller_support_dataset,
                               summarize)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}",
              file=sys.__stdout__, flush=True)
        raise
    print(f"PASS criterion {number}: {title}",
          file=sys.__stdout__, flush=True)


# ------------------------------------------------------------------
# 1: descriptive summaries of the bundled survey data
# ------------------------------------------------------------------

def test_criterion_1_summary_reproduction():
    with criterion(1, "survey summaries exact to printed precision"):
        expected = {
            "integrated": (167, 4.175, 4, 0.455769231),
            "tradera": (89, 2.225, 2, 0.845512821),
            "ebay": (81, 2.025, 2, 0.486538462),
        }
        dataset = new_seller_support_dataset()
        started = time.perf_counter()
        summaries = {name: summarize(values)
                     for name, values in dataset.items()}
        elapsed = time.perf_counter() - started
        for name, (total, mean, median, variance) in expected.items():
            summary = summaries[name]
            assert summary["count"] == 40
            assert summary["sum"] == total
            assert abs(summary["mean"] - mean) <= 1e-9
            assert summary["median"] == median
            assert abs(summary["variance"] - variance) <= 1e-9
            # closed form from the raw responses, derived independently
            values = dataset[name]
            n = len(values)
            closed_mean = sum(values) / n
            closed_var = (sum(v * v for v in values)
                          - n * closed_mean ** 2) / (n - 1)
            assert abs(summary["mean"] - closed_mean) <= 1e-9
            assert abs(summary["variance"] - closed_var) <= 1e-9
        assert elapsed < 1.0


# ------------------------------------------------------------------
# 2: rank test decision on the same data
# ------------------------------------------------------------------

def _rank_sums_oracle(groups):
    pooled = sorted((value, name) for name, values in groups.items()
                    for value in values)
    sums = defaultdict(float)
    i = 0
    while i < len(pooled):
        j = i
        while j < len(pooled) and pooled[j][0] == pooled[i][0]:
            j += 1
        shared = (i + j + 1) / 2
        for k in range(i, j):
            sums[pooled[k][1]] += shared
        i = j
    return dict(sums)


def test_criterion_2_rank_test_decision():
    with criterion(2, "rank test rejects at the 5% level"):
        groups = new_seller_support_dataset()
        result = kruskal_wallis(groups, alpha=0.05)
        assert result.df == 2
        assert abs(result.critical - 5.99) <= 0.005
        assert result.reject

        n = result.n_total
        assert result.rank_sum_total == n * (n + 1) / 2 == 7260.0

        oracle_sums = _rank_sums_oracle(groups)
        oracle_h = (12.0 / (n * (n + 1))
                    * sum(total ** 2 / len(groups[name])
                          for name, total in oracle_sums.items())
                    - 3.0 * (n + 1))
        for name, total in oracle_sums.items():
            assert abs(result.rank_sums[name] - total) <= 1e-9
        assert abs(result.h - oracle_h) <= 1e-9
        assert result.h > 5.99

        notes = compare_reported(result, REPORTED_NEW_SELLER_SUPPORT)
        assert any("7133" in note and "7260" in note for note in notes)


# ------------------------------------------------------------------
# 3: latest-rating-only storage
# ------------------------------------------------------------------

def test_criterion_3_latest_only_storage():
    with criterion(3, "store equals max-timestamp oracle on 1000 sequences"):
        rng = random.Random(0xC3)
        parties = [f"P{i}" for i in range(5)]
        started = time.perf_counter()
        for _ in range(1000):
            store = RatingStore()
            oracle = {}
            for _ in range(rng.randrange(1, 16)):
                rating = Rating(
                    rater=rng.choice(parties),
                    ratee=rng.choice(parties),
                    scope=rng.choice(["a", "b"]),
                    value=rng.choice([-1, 0, 1]),
                    cost=rng.randrange(0, 400),
                    at=rng.randrange(1, 13))
                try:
                    store.record(rating)
                except (SelfRating, StaleTimestamp):
                    pass
                if rating.rater == rating.ratee:
                    continue
                key = (rating.rater, rating.ratee, rating.scope)
                held = oracle.get(key)
                if held is None or rating.at > held.at:
                    oracle[key] = rating
            assert store.snapshot() == oracle
        assert time.perf_counter() - started < 10.0


# ------------------------------------------------------------------
# 4: duplicate identities never accepted
# ------------------------------------------------------------------

def _fuzzed(core: str, rng: random.Random) -> str:
    out = []
    for ch in core:
        if rng.random() < 0.25:
            out.append(rng.choice(" -."))
        out.append(ch.upper() if rng.random() < 0.5 else ch.lower())
    return "".join(out)


def test_criterion_4_duplicate_identity_defense():
    with criterion(4, "1000 reuse-heavy sequences accept no duplicate ids"):
        rng = random.Random(0xD4)
        nid_cores = ["nid7301", "nid8812", "nid9923"]
        card_cores = ["card441", "card552", "card663"]
        for _ in range(1000):
            registry = Registry()
            for attempt in range(rng.randrange(4, 9)):
                business = BusinessDetails(
                    national_id=_fuzzed(rng.choice(nid_cores), rng),
                    bank_or_card=_fuzzed(rng.choice(card_cores), rng),
                    business_phone=("" if rng.random() < 0.2
                                    else f"bp{attempt}"),
                    business_address=f"ba{attempt}")
                credentials = CredentialSet(
                    personal=PersonalDetails(
                        full_name=f"h{attempt}", address=f"a{attempt}",
                        phone=f"p{attempt}", city="c", country="x"),
                    business=business)
                try:
                    registry.register(credentials)
                except DuplicateIdentity:
                    pass
            seen_nids = []
            seen_cards = []
            for account in registry.accounts.values():
                seen_nids.append(normalize_identity(
                    account.credentials.business.national_id))
                seen_cards.append(normalize_identity(
                    account.credentials.business.bank_or_card))
            assert len(seen_nids) == len(set(seen_nids))
            assert len(seen_cards) == len(set(seen_cards))


# ------------------------------------------------------------------
# 5: scope isolation and cost monotonicity
# ------------------------------------------------------------------

def _seeded_market(rng_tag: str):
    registry = Registry()
    ids = {}
    for tag in ("seller", "r1", "r2", "r3", "r4", "r5"):
        account = registry.register(credentials_for(f"{rng_tag}-{tag}"))
        ids[tag] = account.account_id
    return registry, ids


def test_criterion_5_scope_isolation_and_cost_monotonicity():
    with criterion(5, "out-of-scope inserts are inert; cost never hurts"):
        rng = random.Random(0xC5)
        raters = ("r1", "r2", "r3", "r4", "r5")
        for instance in range(100):
            registry, ids = _seeded_market(f"iso{instance}")
            store = RatingStore()
            at = 0
            for rater in rng.sample(raters, rng.randrange(1, 6)):
                at += 1
                store.record(Rating(
                    rater=ids[rater], ratee=ids["seller"], scope="a",
                    value=rng.choice([-1, 0, 1]),
                    cost=rng.randrange(0, 500), at=at),
                    registry=registry)
            before = weighted_reputation(ids["seller"], "a", store, registry)
            for rater in rng.sample(raters, rng.randrange(1, 6)):
                at += 1
                store.record(Rating(
                    rater=ids[rater], ratee=ids["seller"], scope="b",
                    value=rng.choice([-1, 0, 1]),
                    cost=rng.randrange(0, 500), at=at),
                    registry=registry)
            after = weighted_reputation(ids["seller"], "a", store, registry)
            assert after == before     # bit-identical, not approximately

        for instance in range(100):
            registry, ids = _seeded_market(f"cost{instance}")
            rows = []
            target = rng.randrange(0, len(raters))
            for index, rater in enumerate(raters):
                value = 1 if index == target else rng.choice([-1, 0, 1])
                rows.append([ids[rater], value, rng.randrange(0, 500)])
            bump = rng.randrange(1, 300)

            def score(extra):
                store = RatingStore()
                for at, (rater, value, cost) in enumerate(rows, 1):
                    cost = cost + (extra if rater == rows[target][0] else 0)
                    store.record(Rating(
                        rater=rater, ratee=ids["seller"], scope="a",
                        value=value, cost=cost, at=at), registry=registry)
                return weighted_reputation(ids["seller"], "a", store,
                                           registry)

            assert score(bump) >= score(0) - 1e-12


# ------------------------------------------------------------------
# 6: onboarding speed for a credentialed honest newcomer
# ------------------------------------------------------------------

def _onboarding_scenario(seed: int) -> Scenario:
    return Scenario(
        seed=seed, horizon=20, variant=VARIANT_INTEGRATED,
        sellers=(SellerSpec(name="fresh", strategy=Honest(quality=0.95),
                            tier="high"),),
        buyers=tuple(
            BuyerSpec(name=f"b{i}", policy=BuyerPolicy(threshold=0.2))
            for i in range(1, 4)))


def test_criterion_6_onboarding_speed():
    with criterion(6, "fallback trust speeds first sale over 30 seeds"):
        totals = {VARIANT_INTEGRATED: 0.0, VARIANT_EBAY: 0.0}
        for seed in range(30):
            comparison = compare_variants(
                _onboarding_scenario(seed),
                variants=(VARIANT_INTEGRATED, VARIANT_EBAY))
            for variant in totals:
                totals[variant] += comparison.reports[variant] \
                    .time_to_first_sale["fresh"]
        assert totals[VARIANT_INTEGRATED] / 30 <= totals[VARIANT_EBAY] / 30


# ------------------------------------------------------------------
# 7: cheap-then-expensive defection pays less under cost weighting
# ------------------------------------------------------------------

def _imbalance_scenario(seed: int) -> Scenario:
    return Scenario(
        seed=seed, horizon=40, variant=VARIANT_INTEGRATED,
        sellers=(SellerSpec(name="patient",
                            strategy=ValueImbalance(honest_phase=10,
                                                    low_cost=20,
                                                    defect_cost=500),
                            tier="high"),
                 SellerSpec(name="steady", strategy=Honest(quality=0.95),
                            tier="high")),
        buyers=tuple(
            BuyerSpec(name=f"b{i}", policy=BuyerPolicy(threshold=0.2))
            for i in range(1, 5)))


def test_criterion_7_value_imbalance_mitigation():
    with criterion(7, "weighted variant never out-frauded, 30 paired seeds"):
        weighted_total = unweighted_total = 0
        for seed in range(30):
            comparison = compare_variants(
                _imbalance_scenario(seed),
                variants=(VARIANT_INTEGRATED, VARIANT_UNWEIGHTED))
            weighted = comparison.reports[VARIANT_INTEGRATED].fraud_gain
            unweighted = comparison.reports[VARIANT_UNWEIGHTED].fraud_gain
            assert weighted <= unweighted
            weighted_total += weighted
            unweighted_total += unweighted
        assert weighted_total < unweighted_total   # effect is not vacuous


# ------------------------------------------------------------------
# 8: determinism and event-log round trip
# ------------------------------------------------------------------

def _blocked_scenario(seed: int) -> Scenario:
    """Sellers whose extra registrations the uniqueness indexes refuse."""
    return Scenario(
        seed=seed, horizon=20, variant=VARIANT_INTEGRATED,
        sellers=(SellerSpec(name="stuffer",
                            strategy=BallotStuffing(fake_raters=3)),
                 SellerSpec(name="shifty",
                            strategy=IdentityReset(defect_after=2)),
                 SellerSpec(name="steady", strategy=Honest(quality=0.95))),
        buyers=tuple(
            BuyerSpec(name=f"b{i}", policy=BuyerPolicy(threshold=0.2))
            for i in range(1, 5)))


def test_criterion_8_determinism_and_replay(tmp_path):
    with criterion(8, "byte-identical reruns; log replay rebuilds state"):
        for scenario in (_onboarding_scenario(13), _imbalance_scenario(13)):
            first = run_scenario(scenario).to_json()
            second = run_scenario(
                Scenario.from_dict(scenario.to_dict())).to_json()
            assert first == second

        rejected = []
        for scenario in (_imbalance_scenario(5), _blocked_scenario(5)):
            world = build_world(scenario)
            for _ in range(scenario.horizon):
                step(world)
            source = tmp_path / "scenario.json"
            source.write_text(json.dumps(scenario.to_dict()),
                              encoding="utf-8")
            trace = tmp_path / "trace.jsonl"
            with redirect_stdout(io.StringIO()) as out:
                assert main(["simulate", str(source), "--format", "json",
                             "--trace", str(trace)]) == 0
            blocked = json.loads(out.getvalue())[
                "blocked_duplicate_registrations"]
            state = replay(trace)
            accounts = world.state.registry.accounts
            assert set(state.registry.accounts) == set(accounts)
            for account_id, account in accounts.items():
                assert state.registry.get(account_id).tier == account.tier
            assert state.store.snapshot() == world.state.store.snapshot()
            assert state.describe() == world.state.describe()
            # each blocked registration is one replayed refusal of a
            # register event
            assert len(state.rejections) == blocked
            events = trace.read_text(encoding="utf-8").splitlines()
            for line_no, _, message in state.rejections:
                assert json.loads(events[line_no - 1])["kind"] == "register"
                assert "already registered" in message
            rejected.append(len(state.rejections))
        # the imbalance roster registers cleanly, the other one does not
        assert rejected[0] == 0 < rejected[1]



# ------------------------------------------------------------------
# 9: cached and fresh opinions agree under invalidation
# ------------------------------------------------------------------

def test_criterion_9_cached_equals_fresh():
    with criterion(9, "TrustEngine equals compute_opinion over 500 random "
                      "interleavings"):
        rng = random.Random(0xC9)
        for instance in range(500):
            registry = Registry()
            ids = {}
            for tag in ("seller", "b1", "b2", "b3"):
                ids[tag] = registry.register(
                    credentials_for(f"eq{instance}-{tag}")).account_id
            store = RatingStore()
            cached = TrustEngine(registry, store)
            clock = 0
            for _ in range(rng.randrange(4, 13)):
                if rng.random() < 0.5:
                    clock += 1
                    store.record(Rating(
                        rater=ids[rng.choice(("b1", "b2", "b3"))],
                        ratee=ids["seller"],
                        scope=rng.choice(("a", "b")),
                        value=rng.choice([-1, 0, 1]),
                        cost=rng.randrange(0, 300), at=clock),
                        registry=registry)
                    cached.invalidate(store.revision)
                else:
                    listing = ListingContext(
                        scope=rng.choice(("a", "b")),
                        price=rng.randrange(10, 300),
                        delivery_days=rng.choice((0.0, 3.0, 30.0)),
                        deliverable=rng.random() < 0.9)
                    buyer = ids[rng.choice(("b1", "b2", "b3"))]
                    assert cached.opinion(buyer, ids["seller"], listing) \
                        == compute_opinion(buyer, ids["seller"], listing,
                                           store, registry)
