"""Trust-aware auction marketplace toolkit.

Tiered credential verification gives newcomers a starting trust level,
a latest-rating-only store accumulates scoped cross-ratings, and the
engine folds both into per-listing trust opinions with cost-weighted
reputation.  A deterministic simulator pits the mechanism against
scripted attacks, and the stats module covers the ordinal survey
arithmetic used to evaluate it.
"""

from .engine import (ADVISORY_AVOID_DELIVERY, ADVISORY_NEW_IN_SCOPE,
                     ADVISORY_NEW_SELLER, DEFAULT_ENGINE, EngineConfig,
                     ListingContext, TrustEngine, TrustOpinion, compute_opinion,
                     cost_weight, direct_trust, rater_weight,
                     weighted_reputation)
from .errors import (CorruptLog, DuplicateIdentity, EmptyGroup, GroupTooSmall,
                     IncompleteCredentials, InvalidScenario, SelfQuery,
                     SelfRating, StaleTimestamp, TooFewGroups, TooFewSamples,
                     TrustMarketError, UnknownAccount)
from .eventlog import EventLog, EventRecord, MarketState, replay
from .identity import (DEFAULT_POLICY, Account, BusinessDetails, CredentialSet,
                       EvidenceDetails, PersonalDetails, PolicyConfig,
                       ProfileTier, Registry, classify_profile, initial_trust,
                       normalize_identity)
from .ratings import Rating, RatingStore, normalize_scope
from .sim import (BallotStuffing, BuyerPolicy, BuyerSpec, ComparisonReport,
                  Honest, IdentityReset, Scenario, SellerSpec, SimReport,
                  ValueImbalance, compare_variants, run_scenario)
from .stats import (KruskalResult, chi_square_critical, compare_reported,
                    frequency_table, kruskal_wallis, summarize)

__version__ = "0.1.0"
