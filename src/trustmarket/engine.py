"""Composite trust opinions over the rating store and identity registry.

The opinion shown to a buyer combines four ingredients: the seller's
profile tier, the buyer's own direct experience, a scoped cost-weighted
reputation aggregated from other raters, and a delivery advisory for the
listing at hand.  Sellers without ratings in the queried scope fall back
to the initial trust their tier earned at registration, which is what
lets a verified newcomer sell at all.

`compute_opinion` reads fresh store state on every call; `TrustEngine`
serves the opinion it cached for a query until `invalidate` drops it.
"""

from dataclasses import dataclass, field
from typing import Annotated

from .errors import SelfQuery
from .identity import (DEFAULT_POLICY, PolicyConfig, ProfileTier,
                       check_field_types, initial_trust)
from .ratings import MAX_COST, normalize_scope

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
    epsilon: Annotated[float, "(0, 1)"] = 0.1
    c_half: Annotated[float, "(0, inf)"] = 100.0
    w_min: Annotated[float, "(0, 1)"] = 0.1
    low_max: Annotated[float, "[0, 1]"] = 0.15
    med_max: Annotated[float, "[0, 1]"] = 0.5
    max_delivery_days: Annotated[float, "[0, inf)"] = 14.0
    use_weights: bool = True

    def __post_init__(self):
        check_field_types(self)
        # every weight is at least this product, so a reputation's
        # denominator stays positive only while it does not round to 0
        if self.epsilon * self.w_min == 0.0:
            raise ValueError(
                f"epsilon * w_min must not round to 0, got "
                f"{self.epsilon} * {self.w_min}")
        if not self.low_max < self.med_max:
            raise ValueError(
                f"need low_max < med_max, got {self.low_max}, {self.med_max}")


DEFAULT_ENGINE = EngineConfig()


@dataclass(frozen=True)
class ListingContext:
    """The listing a buyer is weighing up: scope, price, delivery terms."""

    scope: str
    price: Annotated[float, "[0, inf)"]
    delivery_days: Annotated[float, "[0, inf)"] = 0.0
    deliverable: bool = True

    def __post_init__(self):
        check_field_types(self)
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

# Each weight floor is written `x if x > floor else floor`.  A weight is
# never NaN or -0.0, so that is the builtin max's result bit for bit, and
# it saves the call, which in `weighted_reputation` is made per rating.

def cost_weight(cost: float, config: EngineConfig = DEFAULT_ENGINE) -> float:
    """Weight of a rating by the money at stake, in [w_min, 1).

    Saturating in cost: c/(c + c_half), floored at w_min so cheap deals
    still count a little.  A cost outside [0, MAX_COST] is refused, as
    `Rating` refuses it.
    """
    if not 0 <= cost <= MAX_COST:
        raise ValueError(f"cost must lie in [0, inf), got {cost}")
    share = cost / (cost + config.c_half)
    floor = config.w_min
    return share if share > floor else floor


def rater_weight(rater: str, store, registry,
                 config: EngineConfig = DEFAULT_ENGINE) -> float:
    """Credibility of a rater, in [epsilon, 1].

    The store's credibility of the rater: its received mean, mapped from
    [-1, 1] onto [0, 1].  A rater nobody has rated yet is weighted by its
    tier's initial trust so fresh markets can bootstrap.
    """
    account = registry.get(rater)
    received = store.received.get(rater)
    if received is None:
        credibility = initial_trust(account.tier, config.policy)
    else:
        credibility = received.credibility
    floor = config.epsilon
    return credibility if credibility > floor else floor


def weighted_reputation(seller: str, scope: str, store, registry,
                        config: EngineConfig = DEFAULT_ENGINE):
    """Aggregate recommended score for a seller within one scope.

    Weighted mean of latest rating values, each weighted by
    `rater_weight(rater) * cost_weight(cost)`; None when the seller has no
    ratings in the scope (a newcomer there).  Those two functions define
    the weights.  The loop inlines them, in the same conditional form, with
    each config field read once and no call per rating: a rater's
    credibility is the store's, one lookup in `store.received`.  It sums in
    rater order, so it equals the sum over the two functions bit for bit.
    """
    registry.get(seller)   # raises UnknownAccount
    ratings = store.latest_ratings_for(seller, scope)
    if not ratings:
        return None
    if not config.use_weights:
        return sum(r.value for r in ratings) / len(ratings)
    epsilon, w_min, c_half = config.epsilon, config.w_min, config.c_half
    trust = config.policy.initial_trust
    accounts = registry.accounts
    received_of = store.received.get
    numerator = 0.0
    denominator = 0.0
    for rating in ratings:
        rater = rating.rater
        if rater not in accounts:
            registry.get(rater)   # raises UnknownAccount
        received = received_of(rater)
        if received is None:
            credibility = trust[accounts[rater].tier]
        else:
            credibility = received.credibility
        cost = rating.cost
        share = cost / (cost + c_half)
        weight = ((credibility if credibility > epsilon else epsilon)
                  * (share if share > w_min else w_min))
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

_NEW_SELLER = frozenset({ADVISORY_NEW_SELLER})
_NEW_IN_SCOPE = frozenset({ADVISORY_NEW_IN_SCOPE})
_AVOID_DELIVERY = frozenset({ADVISORY_AVOID_DELIVERY})


def scope_view(seller: str, scope: str, store, registry,
               config: EngineConfig = DEFAULT_ENGINE):
    """The part of an opinion that reads only the seller and the scope.

    Returns (recommended, source, unit_score, advisories): the scoped
    reputation, or the tier's initial trust flagged new-seller or
    new-in-scope, and its [0, 1] unit score.  Every buyer sees the same
    view of every listing the seller has in the scope until the store or
    registry changes; `compute_opinion` adds the listing's delivery
    advisory.
    """
    score = weighted_reputation(seller, scope, store, registry, config)
    if score is None:
        trust = initial_trust(registry.get(seller).tier, config.policy)
        newcomer = _NEW_IN_SCOPE if seller in store.received else _NEW_SELLER
        return trust, SOURCE_INITIAL_TRUST, trust, newcomer
    return score, SOURCE_RATINGS, (score + 1.0) / 2.0, frozenset()


def avoids_delivery(delivery_days: float, deliverable: bool,
                    config: EngineConfig = DEFAULT_ENGINE) -> bool:
    """Whether a listing's delivery terms earn the avoid-delivery
    advisory: it cannot be delivered, or only in more than
    max_delivery_days."""
    return delivery_days > config.max_delivery_days or not deliverable


def compute_opinion(buyer: str, seller: str, listing: ListingContext,
                    store, registry,
                    config: EngineConfig = DEFAULT_ENGINE) -> TrustOpinion:
    """Fresh opinion straight from current store state."""
    if buyer == seller:
        raise SelfQuery(f"{buyer} cannot ask for an opinion about itself")
    registry.get(buyer)
    seller_account = registry.get(seller)
    revision = store.revision
    recommended, source, unit, advisories = scope_view(
        seller, listing.scope, store, registry, config)
    if avoids_delivery(listing.delivery_days, listing.deliverable, config):
        advisories |= _AVOID_DELIVERY
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
    """Cached opinions over one registry and one rating store.

    Each query key keeps the `compute_opinion` result of its first
    query, which may be stale against a newer store revision until the
    owner calls invalidate(); invalidating at the store's current
    revision after every mutation makes it equal `compute_opinion`
    exactly.
    """

    def __init__(self, registry, store, config: EngineConfig = DEFAULT_ENGINE):
        self.registry = registry
        self.store = store
        self.config = config
        self._cache: dict[tuple, TrustOpinion] = {}

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def opinion(self, buyer: str, seller: str,
                listing: ListingContext) -> TrustOpinion:
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
    "weighted_reputation", "direct_trust", "label_for", "scope_view",
    "avoids_delivery", "compute_opinion", "SOURCE_RATINGS",
    "SOURCE_INITIAL_TRUST", "ADVISORY_NEW_SELLER", "ADVISORY_NEW_IN_SCOPE",
    "ADVISORY_AVOID_DELIVERY", "LABEL_LOW", "LABEL_MEDIUM", "LABEL_HIGH",
]
