import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trustmarket.errors import (DuplicateIdentity, IncompleteCredentials,
                                TrustMarketError, UnknownAccount)
from trustmarket.identity import (BLOCK_FIELDS, BLOCK_KINDS, DEFAULT_POLICY,
                                  BusinessDetails, CredentialSet,
                                  EvidenceDetails, PersonalDetails,
                                  PolicyConfig, ProfileTier, Registry, _block,
                                  classify_profile, initial_trust,
                                  normalize_identity)

from conftest import (business_block, credentials_for, evidence_block,
                      personal_block)


# ------------------------------------------------------------------
# tier classification
# ------------------------------------------------------------------

def test_personal_only_is_low():
    creds = CredentialSet(personal=personal_block())
    assert classify_profile(creds) is ProfileTier.LOW


def test_complete_business_is_medium():
    creds = CredentialSet(personal=personal_block(), business=business_block())
    assert classify_profile(creds) is ProfileTier.MEDIUM


def test_all_three_blocks_is_high():
    assert classify_profile(credentials_for("x")) is ProfileTier.HIGH


def test_incomplete_personal_rejected():
    creds = CredentialSet(personal=personal_block(phone=""))
    with pytest.raises(IncompleteCredentials):
        classify_profile(creds)


def test_partial_business_stays_low():
    # a half-filled block earns nothing
    creds = CredentialSet(personal=personal_block(),
                          business=business_block(bank_or_card=""))
    assert classify_profile(creds) is ProfileTier.LOW


def test_unsigned_declaration_stays_medium():
    creds = CredentialSet(
        personal=personal_block(), business=business_block(),
        evidence=evidence_block(signed_declaration=False))
    assert classify_profile(creds) is ProfileTier.MEDIUM


def test_block_ordering_enforced():
    with pytest.raises(ValueError):
        CredentialSet(personal=personal_block(), evidence=evidence_block())
    with pytest.raises(ValueError):
        CredentialSet(business=business_block())


def test_credentials_roundtrip():
    creds = credentials_for("rt")
    assert CredentialSet.from_dict(creds.to_dict()) == creds


TEXT_FIELDS = [(make, name)
               for make, kind in ((personal_block, PersonalDetails),
                                  (business_block, BusinessDetails),
                                  (evidence_block, EvidenceDetails))
               for name in kind.__dataclass_fields__
               if name != "signed_declaration"]


@pytest.mark.parametrize("make, name", TEXT_FIELDS,
                         ids=[name for _, name in TEXT_FIELDS])
def test_a_text_field_that_is_not_a_string_is_refused(make, name):
    for value in (5, None, ["x"]):
        with pytest.raises(TypeError, match=f"{name} must be a string"):
            make(**{name: value})


def test_a_later_field_behind_a_blank_one_is_checked_too():
    # a blank field ends completeness, but not the type check of the rest
    with pytest.raises(TypeError, match="business_phone must be a string"):
        CredentialSet.from_dict({
            "personal": vars(personal_block()),
            "business": {"national_id": "", "bank_or_card": "x",
                         "business_phone": 5, "business_address": [1]},
            "evidence": {"reference_account": 7}})


# ------------------------------------------------------------------
# identity normalization and uniqueness
# ------------------------------------------------------------------

def test_normalize_identity_strips_noise():
    assert normalize_identity(" AB-12 34 ") == "ab1234"
    assert normalize_identity("ab.12.34") == normalize_identity("AB 1234")


def test_duplicate_national_id_blocked(registry):
    registry.register(credentials_for("one"))
    clone = CredentialSet(
        personal=personal_block("someone else"),
        business=business_block("clone", national_id="NID-ONE"))
    with pytest.raises(DuplicateIdentity):
        registry.register(clone)
    assert len(registry) == 1


def test_duplicate_bank_or_card_blocked(registry):
    registry.register(credentials_for("one"))
    clone = CredentialSet(
        personal=personal_block("someone else"),
        business=business_block("clone", bank_or_card="card one"))
    with pytest.raises(DuplicateIdentity):
        registry.register(clone)


def test_partial_block_cannot_smuggle_reused_id(registry):
    registry.register(credentials_for("one"))
    # business block incomplete (classifies LOW) but the reused id
    # still hits the index
    sneaky = CredentialSet(
        personal=personal_block("sneak"),
        business=business_block("s", national_id="nid one",
                                bank_or_card=""))
    with pytest.raises(DuplicateIdentity):
        registry.register(sneaky)


def test_rejected_registration_leaves_sequence_untouched(registry):
    registry.register(credentials_for("a"))
    with pytest.raises(DuplicateIdentity):
        registry.register(credentials_for("a"))
    account = registry.register(credentials_for("b"))
    assert account.account_id == "A000002"


def test_unknown_account_lookup(registry):
    with pytest.raises(UnknownAccount):
        registry.get("A999999")


# ------------------------------------------------------------------
# initial trust policy
# ------------------------------------------------------------------

def test_default_initial_trust_table():
    assert initial_trust(ProfileTier.LOW) == 0.0
    assert initial_trust(ProfileTier.MEDIUM) == 0.15
    assert initial_trust(ProfileTier.HIGH) == 0.30


def test_policy_rejects_out_of_range():
    with pytest.raises(ValueError):
        PolicyConfig(initial_trust={ProfileTier.LOW: -0.1,
                                    ProfileTier.MEDIUM: 0.2,
                                    ProfileTier.HIGH: 0.3})


def test_policy_rejects_non_monotone():
    with pytest.raises(ValueError):
        PolicyConfig(initial_trust={ProfileTier.LOW: 0.5,
                                    ProfileTier.MEDIUM: 0.2,
                                    ProfileTier.HIGH: 0.3})


def test_policy_is_configurable():
    custom = PolicyConfig(initial_trust={ProfileTier.LOW: 0.05,
                                         ProfileTier.MEDIUM: 0.25,
                                         ProfileTier.HIGH: 0.6})
    assert initial_trust(ProfileTier.HIGH, custom) == 0.6
    assert initial_trust(ProfileTier.HIGH, DEFAULT_POLICY) == 0.30


# ------------------------------------------------------------------
# properties
# ------------------------------------------------------------------

@given(st.permutations(["a", "b", "c", "d"]))
def test_registration_order_does_not_change_content(order):
    # ids are sequence-assigned; everything else is order-insensitive
    baseline = Registry()
    for tag in ("a", "b", "c", "d"):
        baseline.register(credentials_for(tag))
    shuffled = Registry()
    for tag in order:
        shuffled.register(credentials_for(tag))

    def content(registry):
        return {(a.credentials.business.national_id, a.tier)
                for a in registry.accounts.values()}

    assert content(baseline) == content(shuffled)


@given(st.sampled_from(["low", "medium", "high"]),
       st.booleans(), st.booleans())
def test_classification_matches_longest_prefix_oracle(tier, blank_biz, unsign):
    creds = credentials_for("p", tier)
    if blank_biz and creds.business is not None:
        creds = CredentialSet(
            personal=creds.personal,
            business=business_block("p", business_phone=""),
            evidence=creds.evidence)
    if unsign and creds.evidence is not None:
        creds = CredentialSet(
            personal=creds.personal, business=creds.business,
            evidence=evidence_block("p", signed_declaration=False))

    # the longest prefix of blocks that were drawn and left complete
    prefix = ["low", "medium", "high"].index(tier)
    if blank_biz:
        prefix = 0
    elif unsign:
        prefix = min(prefix, 1)
    assert classify_profile(creds) is ProfileTier(prefix + 1)


# A few values per field, so that blocks are often blank, incomplete or
# repeat an identity string; the blanks include Unicode whitespace, which
# `strip()` removes.
field_values = st.sampled_from(["", " ", "\t", "\u00a0", "\u3000", "Ada",
                                "nid-1", "NID 1", "card-2"])


def blocks(kind):
    return st.builds(kind, *(
        st.booleans() if name == "signed_declaration" else field_values
        for name in kind.__dataclass_fields__))


credential_sets = st.builds(
    lambda personal, business, evidence: CredentialSet(
        personal, business if personal else None,
        evidence if personal and business else None),
    st.none() | blocks(PersonalDetails), st.none() | blocks(BusinessDetails),
    st.none() | blocks(EvidenceDetails))


# Entries that `register` may refuse: each a well-formed entry with one
# edit, which nulls a block, makes it a field short or long, or sets a
# field to a value of another type, a blank, or an identity string that
# collides with another once normalized.
hostile_values = st.sampled_from(["", " ", "\t", "\u00a0", "\u3000", "NID-1",
                                  "nid 1", 5, None, True])


def hostile_entry(tag, tier, index, edit, field, value):
    entry = credentials_for(tag, tier).blocks()
    block = entry[index]
    if edit == "null" or block is None:
        entry[index] = None
    elif edit == "short":
        block.pop()
    elif edit == "long":
        block.append(value)
    else:
        block[field % len(block)] = value
    return entry


hostile_entries = st.builds(
    hostile_entry, st.sampled_from("ab"),
    st.sampled_from(["low", "medium", "high"]), st.integers(0, 2),
    st.sampled_from(["null", "short", "long", "field", "field"]),
    st.integers(0, 4), hostile_values)


def register_one_by_one(entries):
    """The reference for `Registry.restore`: each entry through
    `register`, in order, raising at the first it refuses."""
    registry = Registry()
    for entry in entries:
        registry.register(CredentialSet(*map(_block, BLOCK_KINDS, entry)))
    return registry


@given(st.lists(credential_sets, max_size=12),
       st.lists(st.tuples(st.integers(0, 12), hostile_entries), max_size=3),
       st.booleans())
# a blank business phone under a complete evidence block: tier low
@example([], [(0, hostile_entry("a", "high", 1, "field", 2, " "))], False)
# two national ids that normalize alike
@example([], [(0, hostile_entry("a", "medium", 1, "field", 0, "NID-1")),
              (1, hostile_entry("b", "medium", 1, "field", 0, "nid 1"))],
         False)
def test_restore_rebuilds_what_register_built(requests, hostile, reverse):
    registry = Registry()
    for credentials in requests:
        try:
            registry.register(credentials)
        except TrustMarketError:
            pass
    assert Registry.restore(json.loads(json.dumps(registry.columns()))) \
        .columns() == registry.columns()
    entries = registry.columns()["credentials"]
    for at, entry in hostile:
        entries.insert(at, entry)
    entries = json.loads(json.dumps(entries))
    ids = [f"A{number:06d}" for number in range(1, len(entries) + 1)]
    if reverse:
        ids.reverse()
    columns = {"fields": BLOCK_FIELDS, "ids": ids, "credentials": entries}
    try:
        reference = register_one_by_one(entries)
    except (TrustMarketError, TypeError, ValueError):
        reference = None
    if reference is None or list(reference.accounts) != ids:
        with pytest.raises((TrustMarketError, TypeError, ValueError)):
            Registry.restore(columns)
    else:
        restored = Registry.restore(columns)
        assert vars(restored) == vars(reference)  # ids, tiers, blocks, index


@pytest.mark.parametrize("edit", ["one block's names reversed",
                                  "one name missing"])
def test_restore_refuses_other_field_names(edit):
    registry = Registry()
    registry.register(credentials_for("a", "high"))
    columns = json.loads(json.dumps(registry.columns()))
    if edit == "one name missing":
        columns["fields"][1].pop()
    else:
        columns["fields"][0].reverse()
    with pytest.raises(ValueError, match="field names"):
        Registry.restore(columns)
