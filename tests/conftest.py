import pytest
from hypothesis import settings

from trustmarket.identity import (BusinessDetails, CredentialSet,
                                  EvidenceDetails, PersonalDetails, Registry)
from trustmarket.ratings import Rating, RatingStore

# CI runs with --hypothesis-profile=ci, so that a failing example, found on
# whatever seed that run drew, is printed as a blob that reproduces it.
settings.register_profile("ci", print_blob=True)


def profile_examples(default: int, ci: int) -> int:
    """A property test's example count: `ci` under the ci profile, else
    `default`.  The hypothesis plugin loads the profile before any test
    module is imported, so a decorator may call this."""
    return ci if settings.default is settings.get_profile("ci") else default


def personal_block(name="Ada Example", **over):
    fields = dict(full_name=name, address=f"1 {name} way",
                  phone=f"tel-{name}", city="Springfield", country="US")
    fields.update(over)
    return PersonalDetails(**fields)


def business_block(tag="b1", **over):
    fields = dict(national_id=f"nid-{tag}", bank_or_card=f"card-{tag}",
                  business_phone=f"biz-{tag}", business_address=f"2 {tag} rd")
    fields.update(over)
    return BusinessDetails(**fields)


def evidence_block(tag="e1", **over):
    fields = dict(reference_account=f"ref-{tag}", id_document=f"doc-{tag}",
                  registration_document=f"reg-{tag}",
                  signed_declaration=True)
    fields.update(over)
    return EvidenceDetails(**fields)


def credentials_for(tag, tier="high"):
    """Well-formed credential set whose identity values derive from tag."""
    business = evidence = None
    if tier in ("medium", "high"):
        business = business_block(tag)
    if tier == "high":
        evidence = evidence_block(tag)
    return CredentialSet(personal=personal_block(f"holder {tag}"),
                         business=business, evidence=evidence)


@pytest.fixture
def registry():
    return Registry()


@pytest.fixture
def store():
    return RatingStore()


@pytest.fixture
def market(registry, store):
    """Registry preloaded with a seller and four buyers, plus the store."""
    ids = {}
    for tag in ("seller", "b1", "b2", "b3", "b4"):
        ids[tag] = registry.register(credentials_for(tag)).account_id
    return registry, store, ids


def record(store, registry, ids, rater, ratee, value, cost, at, scope="laptops"):
    rating = Rating(rater=ids[rater], ratee=ids[ratee], scope=scope,
                    value=value, cost=cost, at=at)
    store.record(rating, registry=registry)
    return rating


def totals_of(store):
    """{ratee: (total, count)} as the store's `received` mapping holds them;
    reads no rating, so it builds no restored ratee."""
    return {ratee: (received.total, received.count)
            for ratee, received in store.received.items()}
