"""Deterministic marketplace simulation for exercising trust variants.

Rounds alternate listing, purchasing and cross-rating.  Sellers follow
scripted strategies, honest or adversarial (cheap-then-defect value
imbalance, identity reset, ballot stuffing through fake raters), and
buyers follow threshold policies over whichever decision score the
chosen variant produces: the full engine, the same engine with weights
disabled, or a plain net-score baseline with no newcomer fallback.

All randomness is counter-based: every draw hashes (seed, purpose,
round, agent), so the same scenario under a different variant sees the
same random stream wherever the same question is asked.  Prices are
integers, which keeps the money conservation check exact.
"""

import hashlib
import json
import statistics
from dataclasses import dataclass, field, fields, replace

from .engine import (ADVISORY_AVOID_DELIVERY, ADVISORY_NEW_IN_SCOPE,
                     ADVISORY_NEW_SELLER, DEFAULT_ENGINE, EngineConfig,
                     ListingContext, listing_view)
# Unused here; perfbench's test_traced_run_restores_every_original still
# reads them as attributes of this module.
from .engine import compute_opinion, weighted_reputation  # noqa: F401
from .errors import DuplicateIdentity, InvalidScenario
from .identity import (BusinessDetails, CredentialSet, EvidenceDetails,
                       PersonalDetails, PolicyConfig, ProfileTier,
                       Registry)
from .ratings import Rating, RatingStore
from .stats import midranks

VARIANT_INTEGRATED = "integrated"
VARIANT_EBAY = "ebay"
VARIANT_UNWEIGHTED = "unweighted"
VARIANTS = (VARIANT_INTEGRATED, VARIANT_EBAY, VARIANT_UNWEIGHTED)

OUTCOME_SUCCESS = "success"
OUTCOME_MARGINAL = "marginal"
OUTCOME_FAILURE = "failure"

TIER_LABELS = ("low", "medium", "high")


# ------------------------------------------------------------------
# deterministic randomness
# ------------------------------------------------------------------

def unit_draw(seed: int, *key) -> float:
    """Uniform draw in [0, 1) from a hashed (seed, key) counter.

    Independent of call order, which is what makes the random numbers
    common across variants.
    """
    material = ":".join(str(part) for part in (seed,) + key)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


def int_draw(seed: int, low: int, high: int, *key) -> int:
    """Uniform integer in [low, high], inclusive."""
    return low + int(unit_draw(seed, *key) * (high - low + 1))


# ------------------------------------------------------------------
# strategies and rosters
# ------------------------------------------------------------------

def _is_int(value) -> bool:
    """True for a real int: bools and floats (NaN and inf among them)
    fail."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_counts(**counts) -> None:
    for name, value in counts.items():
        if not _is_int(value) or value < 0:
            raise ValueError(
                f"{name} must be a non-negative int, got {value!r}")


@dataclass(frozen=True)
class Honest:
    """Delivers with probability `quality`; a delivered deal is merely
    marginal (neutral rating) with probability `marginal_rate`."""

    quality: float = 0.95
    marginal_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError("quality must lie in [0, 1]")
        if not 0.0 <= self.marginal_rate <= 1.0:
            raise ValueError("marginal_rate must lie in [0, 1]")


@dataclass(frozen=True)
class ValueImbalance:
    """Builds reputation on cheap flawless deals, then lists at the
    high price and stops delivering."""

    honest_phase: int = 10
    low_cost: int = 20
    defect_cost: int = 500

    def __post_init__(self):
        _check_counts(honest_phase=self.honest_phase, low_cost=self.low_cost,
                      defect_cost=self.defect_cost)


@dataclass(frozen=True)
class IdentityReset:
    """Defects after `defect_after` deals, then tries to re-register.

    With fresh_ids=False the retry reuses the original credentials and
    is blocked by the uniqueness indexes; with fresh_ids=True the
    whitewash succeeds and the new identity starts with no history.
    """

    defect_after: int = 5
    fresh_ids: bool = False

    def __post_init__(self):
        _check_counts(defect_after=self.defect_after)


@dataclass(frozen=True)
class BallotStuffing:
    """Mediocre seller that tries to mint `fake_raters` extra rating
    identities from its own credentials (all rejected); any actual
    inflation has to come from a colluding buyer."""

    fake_raters: int = 5
    quality: float = 0.5

    def __post_init__(self):
        _check_counts(fake_raters=self.fake_raters)
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError("quality must lie in [0, 1]")


STRATEGY_KINDS = {
    "honest": Honest,
    "value-imbalance": ValueImbalance,
    "identity-reset": IdentityReset,
    "ballot-stuffing": BallotStuffing,
}


def strategy_to_dict(strategy) -> dict:
    for kind, cls in STRATEGY_KINDS.items():
        if isinstance(strategy, cls):
            out = {"kind": kind}
            for spec_field in fields(cls):
                out[spec_field.name] = getattr(strategy, spec_field.name)
            return out
    raise TypeError(f"unknown strategy {strategy!r}")


def strategy_from_dict(data: dict):
    kind = data.get("kind")
    cls = STRATEGY_KINDS.get(kind)
    if cls is None:
        raise InvalidScenario(f"unknown strategy kind {kind!r}")
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InvalidScenario(f"bad {kind} strategy: {exc}") from exc


@dataclass(frozen=True)
class BuyerPolicy:
    """Threshold rule over the decision score, plus advisory handling.

    The rating rule is fixed: +1 on delivery, 0 on a marginal delivery,
    -1 on failure.
    """

    threshold: float = 0.2
    refuse_on_avoid_delivery: bool = True
    new_seller_discount: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0.0 <= self.new_seller_discount <= 1.0:
            raise ValueError("new_seller_discount must lie in [0, 1]")


@dataclass(frozen=True)
class SellerSpec:
    name: str
    strategy: object = field(default_factory=Honest)
    tier: str = "high"

    def __post_init__(self):
        if self.tier not in TIER_LABELS:
            raise ValueError(f"tier must be one of {TIER_LABELS}")


@dataclass(frozen=True)
class BuyerSpec:
    name: str
    policy: BuyerPolicy = field(default_factory=BuyerPolicy)
    tier: str = "medium"
    colludes_with: str | None = None

    def __post_init__(self):
        if self.tier not in TIER_LABELS:
            raise ValueError(f"tier must be one of {TIER_LABELS}")


# ------------------------------------------------------------------
# scenario
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    seed: int
    horizon: int
    sellers: tuple
    buyers: tuple = ()
    scopes: tuple = ("general",)
    price_range: tuple = (50, 200)
    delivery_range: tuple = (1, 7)
    variant: str = VARIANT_INTEGRATED
    engine: EngineConfig = field(default_factory=lambda: DEFAULT_ENGINE)

    def validate(self) -> None:
        if not _is_int(self.seed):
            raise InvalidScenario(f"seed must be an int, got {self.seed!r}")
        if not _is_int(self.horizon) or self.horizon < 1:
            raise InvalidScenario(
                f"horizon must be an int >= 1, got {self.horizon!r}")
        if not self.sellers:
            raise InvalidScenario("roster needs at least one seller")
        if self.variant not in VARIANTS:
            raise InvalidScenario(
                f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.scopes:
            raise InvalidScenario("need at least one scope")
        names = [s.name for s in self.sellers] + [b.name for b in self.buyers]
        if len(set(names)) != len(names):
            raise InvalidScenario("roster names must be unique")
        seller_names = {s.name for s in self.sellers}
        for buyer in self.buyers:
            if buyer.colludes_with is not None \
                    and buyer.colludes_with not in seller_names:
                raise InvalidScenario(
                    f"buyer {buyer.name!r} colludes with unknown seller "
                    f"{buyer.colludes_with!r}")
        for bounds, label in ((self.price_range, "price_range"),
                              (self.delivery_range, "delivery_range")):
            if len(bounds) != 2 or not all(map(_is_int, bounds)) \
                    or bounds[0] < 0 or bounds[1] < bounds[0]:
                raise InvalidScenario(f"bad {label}: {bounds!r}, need two "
                                      f"ints with 0 <= low <= high")

    def to_dict(self) -> dict:
        engine_overrides = {}
        for spec_field in fields(EngineConfig):
            if spec_field.name == "policy":
                continue
            value = getattr(self.engine, spec_field.name)
            if value != getattr(DEFAULT_ENGINE, spec_field.name):
                engine_overrides[spec_field.name] = value
        out = {
            "seed": self.seed,
            "horizon": self.horizon,
            "variant": self.variant,
            "scopes": list(self.scopes),
            "price_range": list(self.price_range),
            "delivery_range": list(self.delivery_range),
            "sellers": [
                {"name": s.name, "tier": s.tier,
                 "strategy": strategy_to_dict(s.strategy)}
                for s in self.sellers],
            "buyers": [
                {"name": b.name, "tier": b.tier,
                 "threshold": b.policy.threshold,
                 "refuse_on_avoid_delivery": b.policy.refuse_on_avoid_delivery,
                 "new_seller_discount": b.policy.new_seller_discount,
                 **({"colludes_with": b.colludes_with}
                    if b.colludes_with else {})}
                for b in self.buyers],
        }
        if engine_overrides:
            out["engine"] = engine_overrides
        if self.engine.policy.initial_trust != PolicyConfig().initial_trust:
            out["initial_trust"] = {
                tier.label: value
                for tier, value in sorted(self.engine.policy.initial_trust.items())}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        try:
            sellers = tuple(
                SellerSpec(name=s["name"], tier=s.get("tier", "high"),
                           strategy=strategy_from_dict(s["strategy"]))
                for s in data.get("sellers", ()))
            buyers = tuple(
                BuyerSpec(
                    name=b["name"], tier=b.get("tier", "medium"),
                    colludes_with=b.get("colludes_with"),
                    policy=BuyerPolicy(
                        threshold=b.get("threshold", 0.2),
                        refuse_on_avoid_delivery=b.get(
                            "refuse_on_avoid_delivery", True),
                        new_seller_discount=b.get("new_seller_discount", 0.0)))
                for b in data.get("buyers", ()))
            engine_kwargs = dict(data.get("engine", {}))
            if "initial_trust" in data:
                table = {ProfileTier.from_label(label): value
                         for label, value in data["initial_trust"].items()}
                engine_kwargs["policy"] = PolicyConfig(initial_trust=table)
            scenario = cls(
                seed=data["seed"],
                horizon=data["horizon"],
                sellers=sellers,
                buyers=buyers,
                scopes=tuple(data.get("scopes", ("general",))),
                price_range=tuple(data.get("price_range", (50, 200))),
                delivery_range=tuple(data.get("delivery_range", (1, 7))),
                variant=data.get("variant", VARIANT_INTEGRATED),
                engine=EngineConfig(**engine_kwargs))
        except InvalidScenario:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidScenario(f"malformed scenario: {exc}") from exc
        scenario.validate()
        return scenario


# ------------------------------------------------------------------
# reports
# ------------------------------------------------------------------

@dataclass(frozen=True)
class SimReport:
    variant: str
    seed: int
    horizon: int
    rounds: tuple
    trajectories: dict
    fraud_gain: int
    honest_revenue: int
    total_spend: int
    completed_deals: int
    time_to_first_sale: dict
    trust_calibration: float | None
    blocked_duplicate_registrations: int

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "seed": self.seed,
            "horizon": self.horizon,
            "rounds": list(self.rounds),
            "trajectories": self.trajectories,
            "fraud_gain": self.fraud_gain,
            "honest_revenue": self.honest_revenue,
            "total_spend": self.total_spend,
            "completed_deals": self.completed_deals,
            "time_to_first_sale": self.time_to_first_sale,
            "trust_calibration": self.trust_calibration,
            "blocked_duplicate_registrations":
                self.blocked_duplicate_registrations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def mean_time_to_first_sale(self) -> float | None:
        if not self.time_to_first_sale:
            return None
        return statistics.fmean(self.time_to_first_sale.values())


_DELTA_METRICS = ("fraud_gain", "honest_revenue", "total_spend",
                  "completed_deals", "blocked_duplicate_registrations")


@dataclass(frozen=True)
class ComparisonReport:
    baseline: str
    reports: dict
    deltas: dict

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "reports": {name: report.to_dict()
                        for name, report in self.reports.items()},
            "deltas": self.deltas,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


# ------------------------------------------------------------------
# world state
# ------------------------------------------------------------------

def make_credentials(name: str, tier: str) -> CredentialSet:
    """Synthetic but well-formed credentials whose identifying values
    are a function of the roster name (so reuse collides)."""
    personal = PersonalDetails(
        full_name=f"{name} holder",
        address=f"1 {name} street",
        phone=f"tel-{name}",
        city="Springfield",
        country="US")
    business = None
    evidence = None
    if tier in ("medium", "high"):
        business = BusinessDetails(
            national_id=f"nid-{name}",
            bank_or_card=f"card-{name}",
            business_phone=f"biz-{name}",
            business_address=f"2 {name} road")
    if tier == "high":
        evidence = EvidenceDetails(
            reference_account=f"ref-{name}",
            id_document=f"iddoc-{name}",
            registration_document=f"regdoc-{name}",
            signed_declaration=True)
    return CredentialSet(personal=personal, business=business,
                         evidence=evidence)


@dataclass
class _SellerState:
    spec: SellerSpec
    account_id: str
    deals_done: int = 0
    defected: bool = False
    resets: int = 0


@dataclass
class _Listing:
    seller: str
    scope: str
    price: int
    delivery_days: int
    sold: bool = False


@dataclass
class World:
    scenario: Scenario
    config: EngineConfig
    registry: Registry
    store: RatingStore
    accounts: dict            # roster name -> current account id
    sellers: dict             # roster name -> _SellerState
    ebay_tally: dict          # roster name -> [pos, neg] over an append-only ledger
    round: int = 0
    clock: int = 0
    rounds: list = field(default_factory=list)
    trajectories: dict = field(default_factory=dict)
    fraud_gain: int = 0
    honest_revenue: int = 0
    total_spend: int = 0
    completed_deals: int = 0
    first_sale: dict = field(default_factory=dict)
    blocked_registrations: int = 0


def build_world(scenario: Scenario) -> World:
    scenario.validate()
    config = scenario.engine
    if scenario.variant == VARIANT_UNWEIGHTED:
        config = replace(config, use_weights=False)
    registry = Registry()
    store = RatingStore(
        pair_global_replacement=config.pair_global_replacement)
    accounts: dict = {}
    sellers: dict = {}
    for spec in scenario.sellers:
        account = registry.register(make_credentials(spec.name, spec.tier),
                                    is_buyer=False)
        accounts[spec.name] = account.account_id
        sellers[spec.name] = _SellerState(spec=spec,
                                          account_id=account.account_id)
    for spec in scenario.buyers:
        account = registry.register(make_credentials(spec.name, spec.tier),
                                    is_seller=False)
        accounts[spec.name] = account.account_id
    return World(scenario=scenario, config=config, registry=registry,
                 store=store, accounts=accounts, sellers=sellers,
                 ebay_tally={spec.name: [0, 0] for spec in scenario.sellers},
                 trajectories={spec.name: [] for spec in scenario.sellers})


# ------------------------------------------------------------------
# round mechanics
# ------------------------------------------------------------------

def _post_listing(world: World, state: _SellerState) -> _Listing:
    scenario = world.scenario
    spec = state.spec
    strategy = spec.strategy
    if isinstance(strategy, ValueImbalance):
        price = (strategy.low_cost if state.deals_done < strategy.honest_phase
                 else strategy.defect_cost)
        return _Listing(seller=spec.name, scope=scenario.scopes[0],
                        price=price,
                        delivery_days=scenario.delivery_range[0])
    if isinstance(strategy, (IdentityReset, BallotStuffing)):
        price = int_draw(scenario.seed, *scenario.price_range,
                         "price", world.round, spec.name)
        return _Listing(seller=spec.name, scope=scenario.scopes[0],
                        price=price,
                        delivery_days=scenario.delivery_range[0])
    scope_index = int(unit_draw(scenario.seed, "scope", world.round, spec.name)
                      * len(scenario.scopes))
    return _Listing(
        seller=spec.name,
        scope=scenario.scopes[scope_index],
        price=int_draw(scenario.seed, *scenario.price_range,
                       "price", world.round, spec.name),
        delivery_days=int_draw(scenario.seed, *scenario.delivery_range,
                               "delivery", world.round, spec.name))


def _attempt_fake_registrations(world: World, state: _SellerState) -> None:
    strategy = state.spec.strategy
    if isinstance(strategy, BallotStuffing) and world.round == 1:
        credentials = make_credentials(state.spec.name, state.spec.tier)
        for _ in range(strategy.fake_raters):
            try:
                world.registry.register(credentials, is_seller=False)
            except DuplicateIdentity:
                world.blocked_registrations += 1
    if isinstance(strategy, IdentityReset) and state.defected:
        if strategy.fresh_ids:
            fresh = make_credentials(
                f"{state.spec.name}-r{state.resets + 1}", state.spec.tier)
            account = world.registry.register(fresh, is_buyer=False)
            state.account_id = account.account_id
            world.accounts[state.spec.name] = account.account_id
            state.deals_done = 0
            state.defected = False
            state.resets += 1
        else:
            try:
                world.registry.register(
                    make_credentials(state.spec.name, state.spec.tier),
                    is_buyer=False)
            except DuplicateIdentity:
                world.blocked_registrations += 1


def score_view(world: World, seller_name: str, scope: str) -> float:
    """Unit-interval decision score a generic buyer would see."""
    if world.scenario.variant == VARIANT_EBAY:
        pos, neg = world.ebay_tally[seller_name]
        return pos / (pos + neg) if pos + neg else 0.0
    return listing_view(world.sellers[seller_name].account_id,
                        ListingContext(scope=scope, price=0),
                        world.store, world.registry, world.config)[2]


def _consider(world: World, buyer: BuyerSpec, listing: _Listing,
              views: dict, index: int):
    """Effective score for the threshold rule, or None to pass.

    `views` holds each listing's buyer-independent (unit score,
    advisories) by index; the caller empties it whenever the store
    changes.
    """
    if buyer.colludes_with == listing.seller:
        return 2.0     # shill buys from its partner unconditionally
    if world.scenario.variant == VARIANT_EBAY:
        return score_view(world, listing.seller, listing.scope)
    view = views.get(index)
    if view is None:
        view = views[index] = listing_view(
            world.sellers[listing.seller].account_id,
            ListingContext(scope=listing.scope, price=listing.price,
                           delivery_days=listing.delivery_days),
            world.store, world.registry, world.config)[2:]
    unit, advisories = view
    if buyer.policy.refuse_on_avoid_delivery \
            and ADVISORY_AVOID_DELIVERY in advisories:
        return None
    effective = unit
    if advisories & {ADVISORY_NEW_SELLER, ADVISORY_NEW_IN_SCOPE}:
        effective -= buyer.policy.new_seller_discount
    return effective


def _deal_outcome(world: World, state: _SellerState, buyer_name: str) -> str:
    strategy = state.spec.strategy
    seed = world.scenario.seed
    if isinstance(strategy, Honest):
        roll = unit_draw(seed, "outcome", world.round,
                         state.spec.name, buyer_name)
        if roll >= strategy.quality:
            return OUTCOME_FAILURE
        if strategy.marginal_rate and unit_draw(
                seed, "marginal", world.round,
                state.spec.name, buyer_name) < strategy.marginal_rate:
            return OUTCOME_MARGINAL
        return OUTCOME_SUCCESS
    if isinstance(strategy, ValueImbalance):
        return (OUTCOME_SUCCESS if state.deals_done < strategy.honest_phase
                else OUTCOME_FAILURE)
    if isinstance(strategy, IdentityReset):
        return (OUTCOME_SUCCESS if state.deals_done < strategy.defect_after
                else OUTCOME_FAILURE)
    roll = unit_draw(seed, "outcome", world.round,
                     state.spec.name, buyer_name)
    return OUTCOME_SUCCESS if roll < strategy.quality else OUTCOME_FAILURE


def _record_cross_ratings(world: World, buyer: BuyerSpec, state: _SellerState,
                          listing: _Listing, outcome: str) -> None:
    if buyer.colludes_with == listing.seller:
        buyer_value = 1        # the shill praises no matter what arrived
    elif outcome == OUTCOME_SUCCESS:
        buyer_value = 1
    elif outcome == OUTCOME_MARGINAL:
        buyer_value = 0
    else:
        buyer_value = -1
    buyer_id = world.accounts[buyer.name]
    world.clock += 1
    world.store.record(Rating(rater=buyer_id, ratee=state.account_id,
                              scope=listing.scope, value=buyer_value,
                              cost=listing.price, at=world.clock),
                       registry=world.registry)
    tally = world.ebay_tally[state.spec.name]
    if buyer_value > 0:
        tally[0] += 1
    elif buyer_value < 0:
        tally[1] += 1
    # payment arrived, so the seller has nothing to complain about
    world.clock += 1
    world.store.record(Rating(rater=state.account_id, ratee=buyer_id,
                              scope=listing.scope, value=1,
                              cost=listing.price, at=world.clock),
                       registry=world.registry)


def step(world: World) -> World:
    """Advance one round: list, register attacks, purchase, cross-rate."""
    world.round += 1
    listings = []
    for state in world.sellers.values():
        _attempt_fake_registrations(world, state)
        listings.append(_post_listing(world, state))

    deals = successes = failures = 0
    # Listing views hold until a deal's two ratings, the only writes to the
    # store or registry inside the buyer loop.
    views = {}
    # arrival order rotates so repeat business spreads over raters
    arrival = sorted(
        world.scenario.buyers,
        key=lambda b: (unit_draw(world.scenario.seed, "arrival",
                                 world.round, b.name), b.name))
    for buyer in arrival:
        candidates = []
        for index, listing in enumerate(listings):
            if listing.sold or listing.seller == buyer.name:
                continue
            effective = _consider(world, buyer, listing, views, index)
            if effective is None or effective < buyer.policy.threshold:
                continue
            candidates.append((-effective, index))
        if not candidates:
            continue
        candidates.sort()
        listing = listings[candidates[0][1]]
        listing.sold = True
        state = world.sellers[listing.seller]

        outcome = _deal_outcome(world, state, buyer.name)
        deals += 1
        world.completed_deals += 1
        world.total_spend += listing.price
        if outcome == OUTCOME_FAILURE:
            failures += 1
            world.fraud_gain += listing.price
            if not isinstance(state.spec.strategy, Honest):
                state.defected = True
        else:
            successes += 1
            world.honest_revenue += listing.price
        state.deals_done += 1
        world.first_sale.setdefault(listing.seller, world.round)
        _record_cross_ratings(world, buyer, state, listing, outcome)
        views.clear()

    for name in world.sellers:
        world.trajectories[name].append(
            round(score_view(world, name, world.scenario.scopes[0]), 9))
    world.rounds.append({
        "round": world.round,
        "listings": len(listings),
        "deals": deals,
        "successes": successes,
        "failures": failures,
        "ratings": 2 * deals,
        "blocked_registrations": world.blocked_registrations,
    })
    return world


def _honesty_index(strategy) -> float:
    if isinstance(strategy, Honest):
        return strategy.quality
    if isinstance(strategy, BallotStuffing):
        return strategy.quality
    return 0.0


def _spearman(xs, ys) -> float | None:
    if len(xs) < 2:
        return None
    rank_x = midranks(xs)
    rank_y = midranks(ys)
    try:
        return statistics.correlation([float(rank_x[x]) for x in xs],
                                      [float(rank_y[y]) for y in ys])
    except statistics.StatisticsError:
        return None            # zero variance on one side


def run_scenario(scenario: Scenario) -> SimReport:
    """Run to the horizon and report; deterministic in (scenario, seed)."""
    world = build_world(scenario)
    for _ in range(scenario.horizon):
        step(world)
    censored = scenario.horizon + 1
    ttfs = {name: world.first_sale.get(name, censored)
            for name in world.sellers}
    final_scores = [world.trajectories[name][-1] for name in world.sellers]
    honesty = [_honesty_index(state.spec.strategy)
               for state in world.sellers.values()]
    return SimReport(
        variant=scenario.variant,
        seed=scenario.seed,
        horizon=scenario.horizon,
        rounds=tuple(world.rounds),
        trajectories=world.trajectories,
        fraud_gain=world.fraud_gain,
        honest_revenue=world.honest_revenue,
        total_spend=world.total_spend,
        completed_deals=world.completed_deals,
        time_to_first_sale=ttfs,
        trust_calibration=_spearman(final_scores, honesty),
        blocked_duplicate_registrations=world.blocked_registrations)


def compare_variants(scenario: Scenario, variants=VARIANTS) -> ComparisonReport:
    """Run the same seeded scenario under each variant and diff metrics."""
    variants = tuple(variants)
    if not variants:
        raise InvalidScenario("need at least one variant to compare")
    for variant in variants:
        if variant not in VARIANTS:
            raise InvalidScenario(f"unknown variant {variant!r}")
    reports = {}
    for variant in variants:
        if variant not in reports:
            reports[variant] = run_scenario(replace(scenario, variant=variant))
    baseline = reports[variants[0]]
    deltas: dict = {}
    for variant in variants:
        if variant == variants[0]:
            continue
        report = reports[variant]
        delta = {metric: getattr(report, metric) - getattr(baseline, metric)
                 for metric in _DELTA_METRICS}
        ours, base = (report.mean_time_to_first_sale(),
                      baseline.mean_time_to_first_sale())
        if ours is not None and base is not None:
            delta["mean_time_to_first_sale"] = ours - base
        deltas[variant] = delta
    return ComparisonReport(baseline=variants[0], reports=reports,
                            deltas=deltas)


__all__ = [
    "Honest", "ValueImbalance", "IdentityReset", "BallotStuffing",
    "BuyerPolicy", "SellerSpec", "BuyerSpec", "Scenario",
    "SimReport", "ComparisonReport", "World",
    "build_world", "step", "run_scenario", "compare_variants",
    "score_view", "unit_draw", "int_draw", "make_credentials",
    "strategy_to_dict", "strategy_from_dict",
    "VARIANT_INTEGRATED", "VARIANT_EBAY", "VARIANT_UNWEIGHTED", "VARIANTS",
    "OUTCOME_SUCCESS", "OUTCOME_MARGINAL", "OUTCOME_FAILURE",
]
