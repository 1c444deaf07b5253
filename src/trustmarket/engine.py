"""Composite trust opinions over the rating store and identity registry.

The opinion shown to a buyer combines four ingredients: the seller's
profile tier, the buyer's own direct experience, a scoped cost-weighted
reputation aggregated from other raters, and a delivery advisory for the
listing at hand.  Sellers without ratings in the queried scope fall back
to the initial trust their tier earned at registration, which is what
lets a verified newcomer sell at all.

Two computation modes exist: DTC always reads fresh store state, ATC may
serve a cached opinion until `invalidate` drops it.
"""

import math
from dataclasses import dataclass, field

from .errors import SelfQuery
from .identity import DEFAULT_POLICY, PolicyConfig, ProfileTier, initial_trust
from .ratings import normalize_scope

MODE_ATC = "atc"
MODE_DTC = "dtc"

SOURCE_RATINGS = "ratings"
SOURCE_INITIAL_TRUST = "initial-trust"

ADVISORY_NEW_SELLER = "new-seller"
ADVISORY_NEW_IN_SCOPE = "new-in-scope"
ADVISORY_AVOID_DELIVERY = "avoid-delivery"

LABEL_LOW = "low"
LABEL_MEDIUM = "medium"
LABEL_HIGH = "high"


# ------------------------------------------------------------------
# configuration
# ------------------------------------------------------------------

@dataclass(frozen=True)
class EngineConfig:
    """Tunable parameters of the opinion calculation.

    epsilon floors rater weights, c_half is the transaction cost at
    which cost weight reaches one half, w_min floors cost weights.
    low_max and med_max split the unit score into the three labels.
    use_weights=False turns the reputation into a plain mean of rating
    values, the degraded variant the simulator compares against.
    """

    policy: PolicyConfig = field(default_factory=lambda: DEFAULT_POLICY)
    epsilon: float = 0.1
    c_half: float = 100.0
    w_min: float = 0.1
    low_max: float = 0.15
    med_max: float = 0.5
    max_delivery_days: float = 14.0
    pair_global_replacement: bool = False
    use_weights: bool = True

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.c_half < math.inf:
            raise ValueError(f"c_half must lie in (0, inf), got {self.c_half}")
        if not 0.0 < self.w_min < 1.0:
            raise ValueError(f"w_min must lie in (0, 1), got {self.w_min}")
        if not 0.0 <= self.low_max < self.med_max <= 1.0:
            raise ValueError(
                f"need 0 <= low_max < med_max <= 1, got "
                f"{self.low_max}, {self.med_max}")
        if not 0.0 <= self.max_delivery_days < math.inf:
            raise ValueError("max_delivery_days must lie in [0, inf)")


DEFAULT_ENGINE = EngineConfig()


@dataclass(frozen=True)
class ListingContext:
    """The listing a buyer is weighing up: scope, price, delivery terms."""

    scope: str
    price: float
    delivery_days: float = 0.0
    deliverable: bool = True

    def __post_init__(self):
        if not 0.0 <= self.price < math.inf:
            raise ValueError(f"price must lie in [0, inf), got {self.price}")
        if not 0.0 <= self.delivery_days < math.inf:
            raise ValueError("delivery_days must lie in [0, inf)")
        object.__setattr__(self, "scope", normalize_scope(self.scope))


@dataclass(frozen=True)
class DirectExperience:
    """The buyer's own latest rating of the seller, possibly from
    another scope (cross_scope then flags the weaker provenance)."""

    value: int
    scope: str
    at: int
    cross_scope: bool


@dataclass(frozen=True)
class TrustOpinion:
    """What a buyer gets to see about a seller for one listing.

    recommended is in [-1, 1] when sourced from ratings and the raw
    [0, 1] tier initial trust on fallback; unit_score is the common
    [0, 1] mapping of either, and feeds display_score and label.
    """

    seller: str
    scope: str
    recommended: float
    recommended_source: str
    unit_score: float
    display_score: int
    label: str
    tier: ProfileTier
    direct: DirectExperience | None
    advisories: frozenset
    revision: int

    @property
    def is_fallback(self) -> bool:
        return self.recommended_source == SOURCE_INITIAL_TRUST


# ------------------------------------------------------------------
# weight and score primitives
# ------------------------------------------------------------------

def cost_weight(cost: float, config: EngineConfig = DEFAULT_ENGINE) -> float:
    """Weight of a rating by the money at stake, in [w_min, 1).

    Saturating in cost: c/(c + c_half), floored at w_min so cheap deals
    still count a little.
    """
    if cost < 0:
        raise ValueError(f"cost must be non-negative, got {cost}")
    return max(config.w_min, cost / (cost + config.c_half))


def rater_weight(rater: str, store, registry,
                 config: EngineConfig = DEFAULT_ENGINE) -> float:
    """Credibility of a rater, in [epsilon, 1].

    Derived from the mean of the ratings the rater has itself received,
    mapped from [-1, 1] onto [0, 1].  A rater nobody has rated yet is
    weighted by its tier's initial trust so fresh markets can bootstrap.
    """
    account = registry.get(rater)
    total, count = store.received_totals(rater)
    if not count:
        return max(config.epsilon, initial_trust(account.tier, config.policy))
    global_rep = total / count
    return max(config.epsilon, (global_rep + 1.0) / 2.0)


def weighted_reputation(seller: str, scope: str, store, registry,
                        config: EngineConfig = DEFAULT_ENGINE):
    """Aggregate recommended score for a seller within one scope.

    Weighted mean of latest rating values, each weighted by rater
    credibility times transaction cost; None when the seller has no
    ratings in the scope (a newcomer there).
    """
    registry.get(seller)   # raises UnknownAccount
    ratings = store.latest_ratings_for(seller, scope)
    if not ratings:
        return None
    if not config.use_weights:
        return sum(r.value for r in ratings) / len(ratings)
    numerator = 0.0
    denominator = 0.0
    for rating in ratings:
        weight = (rater_weight(rating.rater, store, registry, config)
                  * cost_weight(rating.cost, config))
        numerator += weight * rating.value
        denominator += weight
    return numerator / denominator


def direct_trust(buyer: str, seller: str, scope: str, store):
    """The buyer's own latest rating of this seller, scope preferred.

    Falls back to the most recent rating from any other scope, flagged
    cross_scope; None when the two never dealt.
    """
    wanted = normalize_scope(scope)
    mine = store.ratings_between(buyer, seller)
    if not mine:
        return None
    for rating in mine:
        if rating.scope == wanted:
            return DirectExperience(rating.value, rating.scope, rating.at,
                                    cross_scope=False)
    freshest = max(mine, key=lambda r: r.at)
    return DirectExperience(freshest.value, freshest.scope, freshest.at,
                            cross_scope=True)


def label_for(unit_score: float, config: EngineConfig = DEFAULT_ENGINE) -> str:
    if unit_score <= config.low_max:
        return LABEL_LOW
    if unit_score <= config.med_max:
        return LABEL_MEDIUM
    return LABEL_HIGH


# ------------------------------------------------------------------
# opinion assembly
# ------------------------------------------------------------------

def listing_view(seller: str, listing: ListingContext, store, registry,
                 config: EngineConfig = DEFAULT_ENGINE):
    """The buyer-independent part of an opinion about one listing.

    Returns (recommended, source, unit_score, advisories): the scoped
    reputation, or the tier's initial trust flagged new-seller or
    new-in-scope, its [0, 1] unit score, and the delivery advisory.
    Every buyer sees the same view until the store or registry changes.
    """
    advisories = set()
    score = weighted_reputation(seller, listing.scope, store, registry, config)
    if score is None:
        if store.received_totals(seller)[1]:
            advisories.add(ADVISORY_NEW_IN_SCOPE)
        else:
            advisories.add(ADVISORY_NEW_SELLER)
        recommended = initial_trust(registry.get(seller).tier, config.policy)
        source = SOURCE_INITIAL_TRUST
        unit = recommended
    else:
        recommended = score
        source = SOURCE_RATINGS
        unit = (score + 1.0) / 2.0

    if listing.delivery_days > config.max_delivery_days or not listing.deliverable:
        advisories.add(ADVISORY_AVOID_DELIVERY)
    return recommended, source, unit, frozenset(advisories)


def compute_opinion(buyer: str, seller: str, listing: ListingContext,
                    store, registry,
                    config: EngineConfig = DEFAULT_ENGINE) -> TrustOpinion:
    """Fresh opinion straight from current store state (DTC path)."""
    if buyer == seller:
        raise SelfQuery(f"{buyer} cannot ask for an opinion about itself")
    registry.get(buyer)
    seller_account = registry.get(seller)
    revision = store.revision
    recommended, source, unit, advisories = listing_view(
        seller, listing, store, registry, config)
    return TrustOpinion(
        seller=seller,
        scope=listing.scope,
        recommended=recommended,
        recommended_source=source,
        unit_score=unit,
        display_score=round(100.0 * max(unit, 0.0)),
        label=label_for(unit, config),
        tier=seller_account.tier,
        direct=direct_trust(buyer, seller, listing.scope, store),
        advisories=advisories,
        revision=revision,
    )


class TrustEngine:
    """Opinion service bound to one registry and one rating store.

    DTC recomputes on every query.  ATC caches per query key and may
    serve entries computed against an older store revision until the
    owner calls invalidate(); invalidating at the store's current
    revision after every mutation makes ATC and DTC agree exactly.
    """

    def __init__(self, registry, store, config: EngineConfig = DEFAULT_ENGINE,
                 mode: str = MODE_DTC):
        if mode not in (MODE_ATC, MODE_DTC):
            raise ValueError(f"mode must be {MODE_ATC!r} or {MODE_DTC!r}")
        self.registry = registry
        self.store = store
        self.config = config
        self.mode = mode
        self._cache: dict[tuple, TrustOpinion] = {}

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def opinion(self, buyer: str, seller: str,
                listing: ListingContext) -> TrustOpinion:
        if self.mode == MODE_DTC:
            return compute_opinion(buyer, seller, listing,
                                   self.store, self.registry, self.config)
        key = (buyer, seller, listing.scope,
               listing.delivery_days, listing.deliverable)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        fresh = compute_opinion(buyer, seller, listing,
                                self.store, self.registry, self.config)
        self._cache[key] = fresh
        return fresh

    def invalidate(self, revision: int) -> None:
        """Drop every cached opinion computed before `revision`."""
        self._cache = {key: opinion for key, opinion in self._cache.items()
                       if opinion.revision >= revision}


__all__ = [
    "EngineConfig", "DEFAULT_ENGINE", "ListingContext", "DirectExperience",
    "TrustOpinion", "TrustEngine", "cost_weight", "rater_weight",
    "weighted_reputation", "direct_trust", "label_for", "listing_view",
    "compute_opinion",
    "MODE_ATC", "MODE_DTC", "SOURCE_RATINGS", "SOURCE_INITIAL_TRUST",
    "ADVISORY_NEW_SELLER", "ADVISORY_NEW_IN_SCOPE", "ADVISORY_AVOID_DELIVERY",
    "LABEL_LOW", "LABEL_MEDIUM", "LABEL_HIGH",
]
