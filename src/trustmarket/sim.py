"""Deterministic marketplace simulation for exercising trust variants.

Rounds alternate listing, purchasing and cross-rating.  Sellers follow
scripted strategies, honest or adversarial (cheap-then-defect value
imbalance, identity reset, ballot stuffing through fake raters), and
buyers follow threshold policies over whichever decision score the
chosen variant produces: the full engine, the same engine with weights
disabled, or a plain net-score baseline with no newcomer fallback.

All randomness is counter-based: every draw hashes (seed, purpose,
round, agent), so the same scenario under a different variant sees the
same random stream wherever the same question is asked.  A comparison
steps its worlds round by round in lockstep, and they share one dict of
draws, so each shared draw is hashed once.  It holds each round's buyers
in arrival order, and each seller's listing terms, as one entry each.
Every key names its round, so a run, single or compared, empties the dict
after each round: draws live one round, always.  Prices are integers, so
money sums are exact.

Every state change a run makes, each registration attempt and both
ratings of each deal, is an `eventlog.EventRecord`, numbered from the
state's `last_seq` and written through `eventlog.apply_event`, as replay
and the CLI's `register` and `rate` write theirs, so the run's state is
the fold of its event stream.  A world keeps no copy of that stream: it
hands each record to its `sink`, if it has one, as `simulate --trace`
does.  A refused registration is kept as a rejection, as a replay
would; only replay reports a malformed payload as `CorruptLog`.

A world keeps each fact once: a rating's `at` is the store's revision
plus one, a seller's current account is `accounts[name]`, and a report
derives its deal count and spend from the rounds and revenues.  It builds
each constant once: a roster entry's credentials, which every blocked
retry reuses, and each scenario scope's normalised form.  A `Scenario`
and each roster entry check themselves as they are built.

A world also keeps the engine's view of each (seller account, normalised
scope) for the whole run, from its first read until a deal changes what
it reads; buyers' choices and the per-round trajectories both read it.
The eBay baseline scores a seller's current account on that account's
own feedback.
"""

import hashlib
import json
import statistics
import struct
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Annotated

from .engine import (DEFAULT_ENGINE, EngineConfig, avoids_delivery,
                     rater_weight, scope_view)
# Unused here; perfbench's test_traced_run_restores_every_original still
# reads them as attributes of this module.
from .engine import compute_opinion, weighted_reputation  # noqa: F401
from .errors import DuplicateIdentity, InvalidScenario
from .eventlog import (KIND_RATING, KIND_REGISTER, MarketState, apply_event,
                       next_record)
from .identity import (BusinessDetails, CredentialSet, EvidenceDetails,
                       PersonalDetails, PolicyConfig, ProfileTier,
                       check_field_types)
from .ratings import MAX_COST, normalize_scope
from .stats import midranks

VARIANT_INTEGRATED = "integrated"
VARIANT_EBAY = "ebay"
VARIANT_UNWEIGHTED = "unweighted"
VARIANTS = (VARIANT_INTEGRATED, VARIANT_EBAY, VARIANT_UNWEIGHTED)

OUTCOME_SUCCESS = "success"
OUTCOME_MARGINAL = "marginal"
OUTCOME_FAILURE = "failure"

TIER_LABELS = tuple(tier.label for tier in ProfileTier)


# ------------------------------------------------------------------
# deterministic randomness
# ------------------------------------------------------------------

_FIRST_WORD = struct.Struct(">Q").unpack_from


def unit_draw(seed: int, *key) -> float:
    """Uniform draw in [0, 1) from a hashed (seed, key) counter.

    Independent of call order, which is what makes the random numbers
    common across variants.  Each part escapes its backslashes and
    colons before the parts are joined by a colon, so no two keys join to
    one material; a part holding neither keeps its bytes, so only a plain
    join with a backslash, or more colons than separators, is redone.  The
    draw is the digest's first 8 bytes read big-endian, on any host.
    """
    material = ":".join(map(str, (seed, *key)))
    if "\\" in material or material.count(":") > len(key):
        material = ":".join(str(part).replace("\\", "\\\\").replace(":", "\\:")
                            for part in (seed, *key))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return _FIRST_WORD(digest)[0] / 2 ** 64


def _in_range(unit: float, low: int, high: int) -> int:
    """The integer in [low, high], inclusive, that a unit draw picks."""
    return low + int(unit * (high - low + 1))


# ------------------------------------------------------------------
# strategies and rosters
# ------------------------------------------------------------------

# A share, a count and a price, as field annotations.  A price above the
# float range would stop the run where it meets a float.
_UNIT = Annotated[float, "[0, 1]"]
_COUNT = Annotated[int, "[0, inf)"]
_PRICE = Annotated[int, f"[0, {MAX_COST!r}]"]


def _expect(value, kind, what: str):
    """`value`, refused unless it is a `kind`, dict or list, as JSON."""
    if not isinstance(value, kind):
        noun = "object" if kind is dict else "list"
        raise InvalidScenario(
            f"{what} must be a JSON {noun}, not {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Honest:
    """Delivers with probability `quality`; a delivered deal is merely
    marginal (neutral rating) with probability `marginal_rate`."""

    quality: _UNIT = 0.95
    marginal_rate: _UNIT = 0.0

    __post_init__ = check_field_types


@dataclass(frozen=True)
class ValueImbalance:
    """Builds reputation on cheap flawless deals, then lists at the
    high price and stops delivering."""

    honest_phase: _COUNT = 10
    low_cost: _PRICE = 20
    defect_cost: _PRICE = 500

    __post_init__ = check_field_types


@dataclass(frozen=True)
class IdentityReset:
    """Defects after `defect_after` deals, then tries to re-register.

    With fresh_ids=False the retry reuses the original credentials and
    is blocked by the uniqueness indexes; with fresh_ids=True the
    whitewash succeeds and the new identity starts with no history.
    """

    defect_after: _COUNT = 5
    fresh_ids: bool = False

    __post_init__ = check_field_types


@dataclass(frozen=True)
class BallotStuffing:
    """Mediocre seller that tries to mint `fake_raters` extra rating
    identities from its own credentials (all rejected); any actual
    inflation has to come from a colluding buyer."""

    fake_raters: _COUNT = 5
    quality: _UNIT = 0.5

    __post_init__ = check_field_types


STRATEGY_KINDS = {
    "honest": Honest,
    "value-imbalance": ValueImbalance,
    "identity-reset": IdentityReset,
    "ballot-stuffing": BallotStuffing,
}


@dataclass(frozen=True)
class BuyerPolicy:
    """Threshold rule over the decision score, plus advisory handling.

    The rating rule is fixed, as `_BUYER_RATING`: +1 on delivery, 0 on a
    marginal delivery, -1 on failure.
    """

    threshold: _UNIT = 0.2
    refuse_on_avoid_delivery: bool = True
    new_seller_discount: _UNIT = 0.0

    __post_init__ = check_field_types


def _check_entry(spec) -> None:
    """Refuse a roster entry with an unknown tier, or with a name that is
    blank or not UTF-8 text, as each of its draws and trace lines needs."""
    check_field_types(spec)
    try:
        spec.name.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"name {spec.name!r} is not UTF-8 text") from None
    if not spec.name.strip():
        raise ValueError(f"name must not be blank, got {spec.name!r}")
    if spec.tier not in TIER_LABELS:
        raise ValueError(f"tier must be one of {TIER_LABELS}")


@dataclass(frozen=True)
class SellerSpec:
    name: str
    strategy: Honest | ValueImbalance | IdentityReset | BallotStuffing = \
        field(default_factory=Honest)
    tier: str = "high"

    __post_init__ = _check_entry


@dataclass(frozen=True)
class BuyerSpec:
    name: str
    policy: BuyerPolicy = field(default_factory=BuyerPolicy)
    tier: str = "medium"
    colludes_with: str | None = None

    __post_init__ = _check_entry


# ------------------------------------------------------------------
# scenario
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    seed: int
    horizon: Annotated[int, "[1, inf)"]
    sellers: tuple
    buyers: tuple = ()
    scopes: tuple = ("general",)
    price_range: tuple = (50, 200)
    delivery_range: tuple = (1, 7)
    variant: str = VARIANT_INTEGRATED
    engine: EngineConfig = field(default_factory=lambda: DEFAULT_ENGINE)

    def __post_init__(self):
        try:
            check_field_types(self)
        except (TypeError, ValueError) as exc:
            raise InvalidScenario(str(exc)) from None
        if not self.sellers:
            raise InvalidScenario("roster needs at least one seller")
        if self.variant not in VARIANTS:
            raise InvalidScenario(
                f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.engine.use_weights:
            raise InvalidScenario('use_weights is false: weights are '
                                  'turned off by variant "unweighted" alone')
        if not self.scopes:
            raise InvalidScenario("need at least one scope")
        for scope in self.scopes:
            if not (isinstance(scope, str) and scope.strip()):
                raise InvalidScenario(
                    f"scopes must be non-empty strings, got {scope!r}")
        names = [s.name for s in self.sellers] + [b.name for b in self.buyers]
        if len(set(names)) != len(names):
            raise InvalidScenario("roster names must be unique")
        targets = {None, *(s.name for s in self.sellers)}
        for buyer in self.buyers:
            if buyer.colludes_with not in targets:
                raise InvalidScenario(
                    f"buyer {buyer.name!r} colludes with unknown seller "
                    f"{buyer.colludes_with!r}")
        for bounds, label in ((self.price_range, "price_range"),
                              (self.delivery_range, "delivery_range")):
            # a price or a day count above the float range would stop
            # the run where it meets a float
            if len(bounds) != 2 or set(map(type, bounds)) != {int} \
                    or not 0 <= bounds[0] <= bounds[1] <= MAX_COST:
                raise InvalidScenario(f"bad {label}: {bounds!r}, need two "
                                      f"ints with 0 <= low <= high <= "
                                      f"{MAX_COST!r}")

    def to_dict(self) -> dict:
        """JSON data that `from_dict` loads back to this scenario; a field
        equal to its default is left out."""
        out = _changed(self, self.engine.policy)
        for name in ("scopes", "price_range", "delivery_range"):
            if name in out:
                out[name] = list(out[name])
        out["sellers"] = [_changed(seller) for seller in self.sellers]
        for seller, entry in zip(self.sellers, out["sellers"]):
            if "strategy" in entry:
                entry["strategy"] = {"kind": _KINDS[type(seller.strategy)],
                                     **_changed(seller.strategy)}
        if self.buyers:
            out["buyers"] = [_changed(buyer, buyer.policy)
                             for buyer in self.buyers]
        out.pop("engine", None)     # written field by field, as overrides
        if engine := _changed(self.engine):
            out["engine"] = engine
        if "initial_trust" in out:
            out["initial_trust"] = {tier.label: value for tier, value
                                    in sorted(out["initial_trust"].items())}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The scenario a JSON object describes.  Its keys are the fields
        in `_FIELDS`, a missing key takes its field's default, and an
        unknown key is refused by its dotted path."""
        try:
            kwargs = dict(_expect(data, dict, "scenario"))
            trust = kwargs.pop("initial_trust", None)
            _known(kwargs, "", cls)
            for name in ("sellers", "buyers", "scopes", "price_range",
                         "delivery_range"):
                if name in kwargs:
                    kwargs[name] = tuple(
                        _expect(kwargs[name], (list, tuple), name))
            for name, load in (("sellers", _seller), ("buyers", _buyer)):
                if name in kwargs:
                    kwargs[name] = tuple(load(entry, f"{name}[{index}]")
                                         for index, entry
                                         in enumerate(kwargs[name]))
            engine = dict(_known(kwargs.get("engine", {}), "engine",
                                 EngineConfig))
            if "initial_trust" in data:
                table = _expect(trust, dict, "initial_trust")
                engine["policy"] = PolicyConfig(
                    {ProfileTier.from_label(label): value
                     for label, value in table.items()})
            kwargs["engine"] = _build(EngineConfig, engine, "engine")
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise InvalidScenario(f"malformed scenario: {exc}") from exc


# Field name -> default of each dataclass in a scenario file, built once.
# A `policy` is no key: a buyer's policy fields sit in the buyer, and the
# engine's `initial_trust` at the top level.
_FIELDS = {cls: {f.name: f.default if f.default_factory is MISSING
                 else f.default_factory()
                 for f in fields(cls) if f.name != "policy"}
           for cls in (Scenario, PolicyConfig, SellerSpec, BuyerSpec,
                       BuyerPolicy, EngineConfig, *STRATEGY_KINDS.values())}
_KINDS = {cls: kind for kind, cls in STRATEGY_KINDS.items()}


def _changed(*objs) -> dict:
    """The fields of `objs` that differ from their defaults, in one dict."""
    out = {}
    for obj in objs:
        for name, default in _FIELDS[type(obj)].items():
            value = getattr(obj, name)
            if value != default:
                out[name] = value
    return out


def _known(data, path: str, cls):
    """`data`, refused unless it is a JSON object whose keys all name
    fields of `cls`; the refusal names the key's dotted path."""
    table = _FIELDS[cls]
    if not isinstance(data, dict):
        _expect(data, dict, path or "scenario")
    if not data.keys() <= table.keys():
        key = next(key for key in data if key not in table)
        raise InvalidScenario(f"unknown key {path}{'.' if path else ''}{key}")
    return data


def _build(cls, kwargs: dict, path: str):
    """`cls(**kwargs)`, refused with the entry's path in front of the
    TypeError or ValueError it raises."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _seller(data, path: str) -> SellerSpec:
    if "strategy" in _known(data, path, SellerSpec):
        where = path + ".strategy"
        strategy = dict(_expect(data["strategy"], dict, where))
        kind = strategy.pop("kind", None)
        cls = STRATEGY_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise InvalidScenario(f"unknown kind {kind!r} at {where}.kind")
        data = {**data,
                "strategy": _build(cls, _known(strategy, where, cls), where)}
    return _build(SellerSpec, data, path)


def _buyer(data, path: str) -> BuyerSpec:
    kwargs = dict(_expect(data, dict, path))
    policy = {name: kwargs.pop(name)
              for name in kwargs.keys() & _FIELDS[BuyerPolicy].keys()}
    return _build(BuyerSpec, {**_known(kwargs, path, BuyerSpec),
                              "policy": _build(BuyerPolicy, policy, path)},
                  path)


# ------------------------------------------------------------------
# reports
# ------------------------------------------------------------------

def _to_json(report) -> str:
    """`report.to_dict()` as compact JSON with sorted keys."""
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))


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
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "rounds": list(self.rounds)}

    to_json = _to_json

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

    to_json = _to_json


# ------------------------------------------------------------------
# world state
# ------------------------------------------------------------------

def make_credentials(name: str, tier: str, reset: int = 0) -> CredentialSet:
    """Synthetic but well-formed credentials of roster name `name` after
    `reset` fresh-ids resets.

    The national id and bank/card hold the hex of the name's UTF-8 bytes,
    followed by `r{reset}` after a reset; `r` is no hex digit, so no
    normalisation merges two (name, reset) pairs, and an identity repeats
    only where the simulator repeats one on purpose: a blocked reset or a
    fake rater.  The other fields read `{name}`, or `{name}-r{reset}`.
    """
    label = f"{name}-r{reset}" if reset else name
    key = name.encode("utf-8").hex() + (f"r{reset}" if reset else "")
    personal = PersonalDetails(
        full_name=f"{label} holder",
        address=f"1 {label} street",
        phone=f"tel-{label}",
        city="Springfield",
        country="US")
    business = None
    evidence = None
    if tier in ("medium", "high"):
        business = BusinessDetails(
            national_id=f"nid-{key}",
            bank_or_card=f"card-{key}",
            business_phone=f"biz-{label}",
            business_address=f"2 {label} road")
    if tier == "high":
        evidence = EvidenceDetails(
            reference_account=f"ref-{label}",
            id_document=f"iddoc-{label}",
            registration_document=f"regdoc-{label}",
            signed_declaration=True)
    return CredentialSet(personal=personal, business=business,
                         evidence=evidence)


@dataclass
class _SellerState:
    spec: SellerSpec
    deals_done: int = 0
    resets: int = 0


@dataclass(slots=True)
class _Listing:
    seller: str
    scope: str
    price: int
    delivery_days: int
    key: tuple                # its view's key in `World.views`
    late: bool                # whether the engine's delivery rule flags it
    sold: bool = False


@dataclass
class World:
    """A run's state between rounds.

    `views` keeps the engine's `scope_view` of each (seller account id,
    normalised scope), as its unit score and newcomer advisories, from
    the first read until `_record_deal` drops it.  `_record_deal` is the
    run's only writer of ratings, and it drops each view its two ratings
    may change; so a test that writes to the store directly must do so
    before the first `step`.  `scopes` and `credentials` are built once.
    `draws` live one round: the run loop empties them after each round,
    which in a comparison is a round of every world.
    """

    scenario: Scenario
    config: EngineConfig
    state: MarketState        # registry, store (revision = ratings), refusals
    accounts: dict            # roster name -> current account id
    sellers: dict             # roster name -> _SellerState
    scopes: dict              # scenario scope -> its normalised form
    credentials: dict         # roster name -> credentials before any reset
    # seller account id -> [pos, neg] over an append-only ledger
    ebay_tally: dict = field(default_factory=dict)
    views: dict = field(default_factory=dict)
    round: int = 0
    rounds: list = field(default_factory=list)    # per round, its deals
    trajectories: dict = field(default_factory=dict)
    fraud_gain: int = 0       # the price of each failed deal, summed
    honest_revenue: int = 0   # and of each other deal: together, the spend
    first_sale: dict = field(default_factory=dict)
    # (seed, *key) -> unit draw, a round's buyers in arrival order, or a
    # seller's listing terms for a round
    draws: dict = field(default_factory=dict)
    sink: object = None       # None, or a callable given each EventRecord


def build_world(scenario: Scenario, draws: dict | None = None,
                sink=None) -> World:
    """A world at round 0, its roster registered with credentials built
    once per entry.  `draws` caches the world's unit draws by (seed, *key),
    each round's buyers in arrival order and each seller's listing terms;
    a new dict when not given, and one the worlds of a comparison, which
    share the scenario's buyer objects and step in lockstep, share.  The
    run loop empties it after each round.  `sink`, if given, is called
    with each event the world writes, the roster's first."""
    config = scenario.engine
    if scenario.variant == VARIANT_UNWEIGHTED:
        config = replace(config, use_weights=False)
    world = World(
        scenario=scenario, config=config,
        state=MarketState(),
        accounts={},
        sellers={spec.name: _SellerState(spec) for spec in scenario.sellers},
        scopes={scope: normalize_scope(scope) for scope in scenario.scopes},
        credentials={spec.name: make_credentials(spec.name, spec.tier)
                     for spec in (*scenario.sellers, *scenario.buyers)},
        trajectories={spec.name: [] for spec in scenario.sellers},
        draws=draws if draws is not None else {}, sink=sink)
    for name, credentials in world.credentials.items():
        world.accounts[name] = _register(world, credentials).account_id
    return world


def _apply(world: World, kind: str, payload: dict, at: int | None = None):
    """Number the next event, hand it to the world's sink and write it
    through `apply_event`; its domain errors propagate."""
    state = world.state
    record = next_record(state.last_seq, kind, payload, at)
    state.last_seq = record.seq
    if world.sink is not None:
        world.sink(record)
    return apply_event(record, state)


def _register(world: World, credentials: CredentialSet):
    return _apply(world, KIND_REGISTER, {"credentials": credentials.to_dict()})


def _attempt_blocked_registration(world: World,
                                  credentials: CredentialSet) -> None:
    """A registration the uniqueness indexes refuse; the refusal is kept
    as the rejection a replay of the stream reports, with the event's
    seq as its line number."""
    try:
        _register(world, credentials)
    except DuplicateIdentity as exc:
        seq = world.state.last_seq
        world.state.rejections.append((seq, seq, str(exc)))


# ------------------------------------------------------------------
# round mechanics
# ------------------------------------------------------------------

def _draw(world: World, *key) -> float:
    """`unit_draw(seed, *key)` for the world's seed, hashed once per
    `world.draws`, which a comparison's worlds share."""
    draws = world.draws
    key = (world.scenario.seed, *key)
    value = draws.get(key)
    if value is None:
        value = draws[key] = unit_draw(*key)
    return value


def _arrival(world: World) -> tuple:
    """The round's buyers in arrival order, which rotates so repeat
    business spreads over raters.  The world's `draws` keep each round's
    buyers themselves, in that order, under one key, rather than each
    buyer's draw."""
    scenario = world.scenario
    seed, round_ = scenario.seed, world.round
    draws = world.draws
    key = (seed, "arrival", round_)
    order = draws.get(key)
    if order is None:
        order = draws[key] = tuple(sorted(
            scenario.buyers,
            key=lambda buyer: (unit_draw(seed, "arrival", round_, buyer.name),
                               buyer.name)))
    return order


def _terms(world: World, spec: SellerSpec) -> tuple:
    """The (price, scope, delivery days) of `spec`'s listing this round,
    kept in the world's `draws` under one key, so only the first of a
    comparison's worlds to post the listing hashes its draws.  An honest
    seller draws all three; any other lists in the first scope at the
    shortest delivery, at a drawn price or, under `ValueImbalance`, None."""
    scenario = world.scenario
    key = (scenario.seed, "terms", world.round, spec.name)
    terms = world.draws.get(key)
    if terms is None:
        seed, _, round_, name = key
        strategy = spec.strategy
        price = None if isinstance(strategy, ValueImbalance) else _in_range(
            unit_draw(seed, "price", round_, name), *scenario.price_range)
        scope, delivery_days = scenario.scopes[0], scenario.delivery_range[0]
        if isinstance(strategy, Honest):
            scope = scenario.scopes[int(unit_draw(seed, "scope", round_, name)
                                        * len(scenario.scopes))]
            delivery_days = _in_range(
                unit_draw(seed, "delivery", round_, name),
                *scenario.delivery_range)
        terms = world.draws[key] = (price, scope, delivery_days)
    return terms


def _post_listing(world: World, state: _SellerState) -> _Listing:
    """The seller's listing this round, read from no view: an eBay
    listing is never late, an engine one by the delivery rule alone."""
    scenario = world.scenario
    spec = state.spec
    strategy = spec.strategy
    price, scope, delivery_days = _terms(world, spec)
    if isinstance(strategy, ValueImbalance):
        price = (strategy.low_cost if state.deals_done < strategy.honest_phase
                 else strategy.defect_cost)
    return _Listing(seller=spec.name, scope=scope, price=price,
                    delivery_days=delivery_days,
                    key=(world.accounts[spec.name], world.scopes[scope]),
                    late=scenario.variant != VARIANT_EBAY and avoids_delivery(
                        delivery_days, True, world.config))


def _attempt_fake_registrations(world: World, state: _SellerState) -> None:
    strategy = state.spec.strategy
    if isinstance(strategy, BallotStuffing) and world.round == 1:
        credentials = world.credentials[state.spec.name]
        for _ in range(strategy.fake_raters):
            _attempt_blocked_registration(world, credentials)
    # its deals fail from the one at `defect_after` on, and each deal is
    # counted, so the count first passes `defect_after` at its first failure
    if (isinstance(strategy, IdentityReset)
            and state.deals_done > strategy.defect_after):
        if strategy.fresh_ids:
            fresh = make_credentials(state.spec.name, state.spec.tier,
                                     state.resets + 1)
            account = _register(world, fresh)
            world.accounts[state.spec.name] = account.account_id
            state.deals_done = 0
            state.resets += 1
        else:
            _attempt_blocked_registration(
                world, world.credentials[state.spec.name])


def _view(world: World, seller: str, scope: str) -> tuple:
    """The buyer-independent (unit score, newcomer advisories) of
    `seller`'s listings in `scope`, a scenario scope or any other: the
    engine's scope view, kept in `world.views`, or the eBay baseline's
    percent-positive with no advisories."""
    account = world.accounts[seller]
    if world.scenario.variant == VARIANT_EBAY:
        pos, neg = world.ebay_tally.get(account, (0, 0))
        return pos / (pos + neg) if pos + neg else 0.0, frozenset()
    key = (account, world.scopes.get(scope) or normalize_scope(scope))
    view = world.views.get(key)
    if view is None:
        state = world.state
        view = world.views[key] = scope_view(
            account, scope, state.store, state.registry, world.config)[2:]
    return view


def score_view(world: World, seller_name: str, scope: str) -> float:
    """Unit-interval decision score a generic buyer would see."""
    return _view(world, seller_name, scope)[0]


def _choose(world: World, buyer: BuyerSpec, listings: list, rankings: dict):
    """Index of the unsold listing `buyer` buys, or None to pass.

    A colluder buys its partner's unsold listing outright.  Otherwise the
    buyer takes the highest effective score, lowest index on ties, if it
    meets the buyer's threshold.  An effective score is the view's unit
    score, less the buyer's discount where the view flags a newcomer, and
    a buyer that refuses the delivery advisory scores no late listing; so
    it reads the buyer only through those two policy fields.  A listing's
    view is its key's entry in `world.views`, or `_view`'s where there is
    none.  `rankings` keeps, per (refuse, discount), the eligible listings
    as (effective, -index) in ascending order, so the best is last.  A
    ranking is built on its first need and kept across deals: a sold
    listing is popped when it reaches the top, and the caller drops every
    ranking when a deal drops a view through the buyer's rater weight.
    """
    if buyer.colludes_with is not None:
        for index, listing in enumerate(listings):
            if listing.seller == buyer.colludes_with and not listing.sold:
                return index
    policy = buyer.policy
    key = (policy.refuse_on_avoid_delivery, policy.new_seller_discount)
    ranking = rankings.get(key)
    if ranking is None:
        refuse, discount = key
        views = world.views
        ranking = rankings[key] = []
        for index, listing in enumerate(listings):
            if listing.sold or refuse and listing.late:
                continue
            view = views.get(listing.key)
            if view is None:
                view = _view(world, listing.seller, listing.scope)
            unit, newcomer = view
            ranking.append((unit - discount if newcomer else unit, -index))
        ranking.sort()
    while ranking and listings[-ranking[-1][1]].sold:
        ranking.pop()
    if not ranking or ranking[-1][0] < policy.threshold:
        return None
    return -ranking[-1][1]


def _deal_outcome(world: World, state: _SellerState, buyer_name: str) -> str:
    strategy = state.spec.strategy
    if isinstance(strategy, ValueImbalance):
        return (OUTCOME_SUCCESS if state.deals_done < strategy.honest_phase
                else OUTCOME_FAILURE)
    if isinstance(strategy, IdentityReset):
        return (OUTCOME_SUCCESS if state.deals_done < strategy.defect_after
                else OUTCOME_FAILURE)
    # honest, or a ballot stuffer, whose deliveries are never marginal
    key = (world.round, state.spec.name, buyer_name)
    if _draw(world, "outcome", *key) >= strategy.quality:
        return OUTCOME_FAILURE
    marginal = getattr(strategy, "marginal_rate", 0.0)
    if marginal and _draw(world, "marginal", *key) < marginal:
        return OUTCOME_MARGINAL
    return OUTCOME_SUCCESS


# The buyer's rating of a deal by its outcome, unless the buyer colludes
# with the seller: the shill praises no matter what arrived.
_BUYER_RATING = {OUTCOME_SUCCESS: 1, OUTCOME_MARGINAL: 0, OUTCOME_FAILURE: -1}


def _record_deal(world: World, buyer: BuyerSpec, listing: _Listing,
                 outcome: str) -> bool:
    """Write the deal's two ratings and the buyer's eBay feedback, then
    drop each view in `world.views` they may change: the sold seller's in
    the listing's scope, all of the seller's at its first rating, where
    new-seller turns new-in-scope, and, if the ratings moved the buyer's
    rater weight, each view whose bucket holds a rating by the buyer;
    `step` says why that suffices.  Whether that last case dropped a
    view, the one way a deal drops the view of an unsold listing."""
    store, registry, views = (world.state.store, world.state.registry,
                              world.views)
    buyer_id = world.accounts[buyer.name]
    seller_id = listing.key[0]
    first = seller_id not in store.received
    before = rater_weight(buyer_id, store, registry, world.config)
    value = (1 if buyer.colludes_with == listing.seller
             else _BUYER_RATING[outcome])
    _rate(world, buyer_id, seller_id, listing, value)
    if value:       # the tally is [positive, negative]
        world.ebay_tally.setdefault(seller_id, [0, 0])[value < 0] += 1
    # payment arrived, so the seller has nothing to complain about
    _rate(world, seller_id, buyer_id, listing, 1)
    views.pop(listing.key, None)
    if first:
        for key in [key for key in views if key[0] == seller_id]:
            del views[key]
    if rater_weight(buyer_id, store, registry, world.config) == before:
        return False
    stale = [key for key in views if store.latest(buyer_id, *key) is not None]
    for key in stale:
        del views[key]
    return bool(stale)


def _rate(world: World, rater: str, ratee: str, listing: _Listing,
          value: int) -> None:
    at = world.state.store.revision + 1     # the run's rating count
    _apply(world, KIND_RATING,
           {"rater": rater, "ratee": ratee, "scope": listing.scope,
            "value": value, "cost": listing.price, "at": at}, at=at)


def step(world: World) -> World:
    """Advance one round: list, register attacks, purchase, cross-rate."""
    world.round += 1
    listings = []
    for state in world.sellers.values():
        _attempt_fake_registrations(world, state)
        listings.append(_post_listing(world, state))

    successes = failures = 0
    # A buyer's choice reads the views in `world.views` and which listings
    # are sold.  A view reads the seller's bucket in its scope, the weights
    # of the bucket's raters, whether the seller has been rated at all,
    # and its tier.  Ratings are written only at a deal: the buyer rates
    # the seller and the seller the buyer, both in the listing's scope, so
    # a deal changes the sold seller's bucket in that scope, the seller's
    # received count, and the two parties' rater weights.  Only buyers
    # rate sellers, so no view reads a seller's weight.  `_record_deal`
    # drops the sold seller's view in the scope, all of the seller's views
    # at its first rating, and, if the buyer's weight moved, each view
    # whose bucket the buyer has rated; every other view stays exact, from
    # round to round.  Each seller posts one listing a round, so a deal
    # that drops no view through the buyer's weight changes the view of no
    # unsold listing, and each buyer policy's ranking in `rankings` holds
    # but for the sold listing, which `_choose` pops; a deal that does
    # drops them all.  A deal drops none on `ebay`, whose scores are not
    # kept views, nor when its buyer has rated no other kept view's
    # bucket, as at its first deal.
    rankings = {}
    for buyer in _arrival(world):
        index = _choose(world, buyer, listings, rankings)
        if index is None:
            continue
        listing = listings[index]
        listing.sold = True
        state = world.sellers[listing.seller]

        outcome = _deal_outcome(world, state, buyer.name)
        if outcome == OUTCOME_FAILURE:
            failures += 1
            world.fraud_gain += listing.price
        else:
            successes += 1
            world.honest_revenue += listing.price
        state.deals_done += 1
        world.first_sale.setdefault(listing.seller, world.round)
        if _record_deal(world, buyer, listing, outcome):
            rankings.clear()

    for name in world.sellers:
        world.trajectories[name].append(
            round(score_view(world, name, world.scenario.scopes[0]), 9))
    world.rounds.append({
        "round": world.round,
        "listings": len(listings),
        "deals": successes + failures,
        "successes": successes,
        "failures": failures,
        "ratings": 2 * (successes + failures),
        "blocked_registrations": len(world.state.rejections),
    })
    return world


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


def _run(*worlds: World) -> None:
    """Step `worlds`, which share one `draws`, in lockstep to their
    horizon: each round steps every world, then empties the draws, since
    every draw key names its round and no later round reads it."""
    draws = worlds[0].draws
    for _ in range(worlds[0].scenario.horizon):
        for world in worlds:
            step(world)
        draws.clear()


def run_scenario(scenario: Scenario, sink=None) -> SimReport:
    """Run to the horizon and report; deterministic in (scenario, seed).
    `sink` is passed to `build_world`, and the world's draws live one
    round."""
    world = build_world(scenario, sink=sink)
    _run(world)
    return world_report(world)


def world_report(world: World) -> SimReport:
    """The report of a world stepped to its scenario's horizon."""
    scenario = world.scenario
    censored = scenario.horizon + 1
    ttfs = {name: world.first_sale.get(name, censored)
            for name in world.sellers}
    final_scores = [world.trajectories[name][-1] for name in world.sellers]
    # a seller's honesty is its strategy's delivery quality, 0 for a defector
    honesty = [getattr(state.spec.strategy, "quality", 0.0)
               for state in world.sellers.values()]
    return SimReport(
        variant=scenario.variant,
        seed=scenario.seed,
        horizon=scenario.horizon,
        rounds=tuple(world.rounds),
        trajectories=world.trajectories,
        fraud_gain=world.fraud_gain,
        honest_revenue=world.honest_revenue,
        total_spend=world.honest_revenue + world.fraud_gain,
        completed_deals=sum(r["deals"] for r in world.rounds),
        time_to_first_sale=ttfs,
        trust_calibration=_spearman(final_scores, honesty),
        blocked_duplicate_registrations=len(world.state.rejections))


def compare_variants(scenario: Scenario, variants=VARIANTS) -> ComparisonReport:
    """Run the same seeded scenario under each variant and diff metrics.

    The variants' worlds are built up front and stepped in lockstep by the
    loop `run_scenario` uses, sharing one round's draws: each common random
    number, listing terms included, is hashed once, and none outlives its
    round."""
    variants = tuple(variants)
    if not variants:
        raise InvalidScenario("need at least one variant to compare")
    draws = {}      # the variants' common random numbers, each hashed once
    worlds = {variant: build_world(replace(scenario, variant=variant), draws)
              for variant in dict.fromkeys(variants)}
    _run(*worlds.values())
    reports = {variant: world_report(world)
               for variant, world in worlds.items()}
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
    "build_world", "step", "run_scenario", "world_report", "compare_variants",
    "score_view", "unit_draw", "make_credentials",
    "VARIANT_INTEGRATED", "VARIANT_EBAY", "VARIANT_UNWEIGHTED", "VARIANTS",
    "OUTCOME_SUCCESS", "OUTCOME_MARGINAL", "OUTCOME_FAILURE",
]
