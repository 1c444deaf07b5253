"""Tiered credential classification and duplicate-proof registration.

A registration request carries up to three cumulative credential blocks
(personal, business, evidence).  The longest fully complete prefix decides
the profile tier: personal only is Low, personal+business is Medium, all
three is High.  Business identity strings (national id, bank/card number)
are normalized and held unique across all live accounts, so the same
person cannot operate parallel identities, and a verified tier earns a
configurable initial trust score that gives brand-new sellers a non-zero
starting point.  The one field rule, `check_field_types`, which reads
each field's type and range from its annotation, and the one
completeness rule, at `_TEXT_FIELDS`, for `register` and restore, are here.
"""

from dataclasses import dataclass, field, fields
from enum import IntEnum
from functools import cache
from itertools import compress, repeat
from operator import gt, is_not
import re
from types import UnionType
from typing import Annotated, get_args, get_origin

from .errors import DuplicateIdentity, IncompleteCredentials, UnknownAccount


class ProfileTier(IntEnum):
    """Low < Medium < High, by credential completeness."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, text: str) -> "ProfileTier":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown profile tier {text!r}") from None


# type(), not isinstance(): a bool is an int, and would pass as a number
_TYPE_RULES = {float: ((int, float), "a number"), int: ((int,), "an int"),
               bool: ((bool,), "true or false"), str: ((str,), "a string"),
               type(None): ((type(None),), "None")}


def _field_rule(hint) -> tuple:
    """(admitted types, noun, interval or None) of annotation `hint`: a
    class, which admits itself alone but as `_TYPE_RULES` says; a union
    of classes, `X | Y`; or a number class `Annotated` with an interval,
    as `Annotated[float, "[0, 1]"]` or `"(0, inf)"`, read as (low, high,
    open ends, text).  A number lies in it when low <= it <= high and it
    is no open end, so NaN lies in none."""
    if get_origin(hint) is Annotated:
        base, text = get_args(hint)
        low, high = map(float, text[1:-1].split(","))
        open_ends = (low,) * (text[0] == "(") + (high,) * (text[-1] == ")")
        return *_TYPE_RULES[base], (low, high, open_ends, text)
    if type(hint) is UnionType:
        admitted, nouns, _ = zip(*map(_field_rule, get_args(hint)))
        return sum(admitted, ()), " or ".join(nouns), None
    if not isinstance(hint, type):
        raise TypeError(f"no field rule reads the annotation {hint!r}")
    if hint not in _TYPE_RULES:
        article = "an" if hint.__name__[0] in "AEIOU" else "a"
        return (hint,), f"{article} {hint.__name__}", None
    return *_TYPE_RULES[hint], None


@cache
def field_type_table(cls) -> tuple:
    """(name, admitted types, noun, interval or None) of each field of
    dataclass `cls`, as `_field_rule` reads its annotation."""
    return tuple((spec.name, *_field_rule(spec.type)) for spec in fields(cls))


def _check_value(name: str, value, admitted, noun, interval) -> None:
    """Raise TypeError if `value`, called `name`, is of a type not
    admitted, or ValueError if it lies outside the interval."""
    if type(value) not in admitted:
        raise TypeError(f"{name} must be {noun}, got {value!r}")
    if interval is not None:
        low, high, open_ends, text = interval
        if not low <= value <= high or value in open_ends:
            raise ValueError(f"{name} must lie in {text}, got {value!r}")


def check_field_types(obj) -> None:
    """Raise TypeError at a field of dataclass `obj` of a type its
    annotation does not admit, or ValueError at one outside its interval."""
    for name, admitted, noun, interval in field_type_table(type(obj)):
        value = getattr(obj, name)
        if type(value) not in admitted or interval is not None:
            _check_value(name, value, admitted, noun, interval)


@dataclass(frozen=True)
class PersonalDetails:
    full_name: str = ""
    address: str = ""
    phone: str = ""
    city: str = ""
    country: str = ""

    __post_init__ = check_field_types


@dataclass(frozen=True)
class BusinessDetails:
    national_id: str = ""        # national id or driving licence number
    bank_or_card: str = ""       # bank account or credit card number
    business_phone: str = ""
    business_address: str = ""

    __post_init__ = check_field_types


@dataclass(frozen=True)
class EvidenceDetails:
    reference_account: str = ""       # reference marketplace account
    id_document: str = ""             # token for the scanned id/licence
    registration_document: str = ""   # token for the company registration scan
    signed_declaration: bool = False    # "no" is truthy: a bool only

    __post_init__ = check_field_types


# The credential blocks, in the cumulative order of the tiers.
BLOCK_KINDS = (PersonalDetails, BusinessDetails, EvidenceDetails)


@dataclass(frozen=True)
class CredentialSet:
    """Up to three cumulative blocks; later blocks require earlier ones."""

    personal: PersonalDetails | None = None
    business: BusinessDetails | None = None
    evidence: EvidenceDetails | None = None

    def __post_init__(self):
        if self.evidence is not None and self.business is None:
            raise ValueError("evidence block requires a business block")
        if self.business is not None and self.personal is None:
            raise ValueError("business block requires a personal block")

    def blocks(self) -> list:
        """[personal, business, evidence]: each block the list of its
        field values in field order, or None; the form in which an
        `Account` keeps its credentials."""
        return [None if block is None else list(vars(block).values())
                for block in (self.personal, self.business, self.evidence)]

    def to_dict(self) -> dict:
        return {name: dict(vars(block)) for name, block in vars(self).items()
                if block is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "CredentialSet":
        """The set that `to_dict` wrote as `data`: an object keyed by
        block names only, so a misspelt block is refused, not dropped.
        Equal to `cls(*(kind(**data[name]) ...))`, and raises as it does,
        but fills the set and each block as `_filled` does."""
        names = cls.__dataclass_fields__
        if type(data) is not dict or not data.keys() <= names.keys():
            raise ValueError(f"credentials are an object keyed by some of "
                             f"{', '.join(names)}")
        return _filled(cls, {name: _filled(kind, data[name])
                             for name, kind in zip(names, BLOCK_KINDS)
                             if name in data})


# {field name: default} of each class that `_filled` fills, in field order.
_DEFAULTS = {kind: {spec.name: spec.default for spec in fields(kind)}
             for kind in (*BLOCK_KINDS, CredentialSet)}


def _filled(kind, values):
    """What `kind(**values)` builds, for a frozen dataclass `kind` whose
    fields all have defaults: its `__dict__` is the defaults updated
    from `values`, a dict of field names, so the fields come in field
    order, and then its `__post_init__` runs, for a block the one field
    rule, `check_field_types`.  This skips the frozen `__init__`'s call
    per field.  Any other `values`, one not a dict or holding a name
    that is no field, goes to `kind(**values)`, so that it raises the
    dataclass's own error."""
    defaults = _DEFAULTS[kind]
    if type(values) is dict:
        filled = {**defaults, **values}
        if len(filled) == len(defaults):
            made = object.__new__(kind)
            object.__setattr__(made, "__dict__", filled)
            made.__post_init__()
            return made
    return kind(**values)


# Each credential block's field names, in order: a block kept as a list,
# as `CredentialSet.blocks` writes it and an `Account` holds it, holds its
# values in this order.  `Registry.columns` writes them beside the
# accounts, and `Registry.restore` refuses any other names.
BLOCK_FIELDS = tuple(tuple(spec.name for spec in fields(kind))
                     for kind in BLOCK_KINDS)


def _block(kind, values):
    """The `kind` block whose field values `values` lists in field order,
    or None for None."""
    if values is None:
        return None
    if type(values) is not list \
            or len(values) != len(kind.__dataclass_fields__):
        raise ValueError(f"a {kind.__name__} block is the list of its "
                         f"{len(kind.__dataclass_fields__)} field values")
    return kind(*values)


_NOT_ALNUM = re.compile(r"[^0-9a-z]+")


def normalize_identity(value: str) -> str:
    """Trim, case-fold and strip separators, so "AB-12 34" == "ab1234"."""
    return _NOT_ALNUM.sub("", str.strip(value).casefold())


# The one completeness rule: a block is complete when each of its fields
# counts, a text field when `strip()` leaves something and a flag when it
# is true; a None block is not.  This marks each block class's fields, in
# order, by type: True for a text field, False for a flag.
_TEXT_FIELDS = {kind: tuple(spec.type is str for spec in fields(kind))
                for kind in BLOCK_KINDS}


def _complete(block) -> bool:
    """Whether `block`, a credential block or None, is complete: its text
    fields, stripped, and then all its fields are true."""
    if block is None:
        return False
    values = block.__dict__.values()
    return all(map(str.strip, compress(values, _TEXT_FIELDS[type(block)]))) \
        and all(values)


class _TierTable(dict):
    """A dict whose missing key is a refused registration."""

    def __missing__(self, complete):
        raise IncompleteCredentials(
            "a complete personal-details block is the minimum to register")


# An account's tier, the longest complete prefix of its blocks, by whether
# its personal, business and evidence blocks are complete.  There is none
# without a complete personal block, the minimum needed to operate at all.
_TIER_BY_COMPLETE = _TierTable({(True, False, False): ProfileTier.LOW,
                                (True, False, True): ProfileTier.LOW,
                                (True, True, False): ProfileTier.MEDIUM,
                                (True, True, True): ProfileTier.HIGH})


def classify_profile(credentials: CredentialSet) -> ProfileTier:
    """Map a credential set to its profile tier, as `_TIER_BY_COMPLETE`
    says: the longest complete prefix of (personal, business, evidence),
    and IncompleteCredentials without a complete personal block."""
    return _TIER_BY_COMPLETE[_complete(credentials.personal),
                             _complete(credentials.business),
                             _complete(credentials.evidence)]


def _default_initial_trust() -> dict:
    return {ProfileTier.LOW: 0.0, ProfileTier.MEDIUM: 0.15, ProfileTier.HIGH: 0.30}


# The rule of each initial trust value: a number in [0, 1].
_TRUST_RULE = _field_rule(Annotated[float, "[0, 1]"])


@dataclass(frozen=True)
class PolicyConfig:
    """Initial trust granted per tier; must be monotone in the tier order."""

    initial_trust: dict = field(default_factory=_default_initial_trust)

    def __post_init__(self):
        table = self.initial_trust
        for tier in ProfileTier:
            if tier not in table:
                raise ValueError(f"initial_trust missing tier {tier.label}")
            _check_value(f"initial_trust[{tier.label}]", table[tier],
                         *_TRUST_RULE)
        if not (table[ProfileTier.LOW] <= table[ProfileTier.MEDIUM]
                <= table[ProfileTier.HIGH]):
            raise ValueError("initial_trust must be monotone Low <= Medium <= High")


DEFAULT_POLICY = PolicyConfig()


def initial_trust(tier: ProfileTier, config: PolicyConfig = DEFAULT_POLICY) -> float:
    """Starting trust score in [0,1] for a freshly verified account."""
    return config.initial_trust[tier]


@dataclass
class Account:
    """A registered account: its id, its credentials as the
    `[personal, business, evidence]` entry that `CredentialSet.blocks`
    writes, and its tier."""

    account_id: str
    blocks: list
    tier: ProfileTier

    @property
    def credentials(self) -> CredentialSet:
        """A new `CredentialSet`, equal to the registered one, built from
        `blocks` on each read."""
        return CredentialSet(*map(_block, BLOCK_KINDS, self.blocks))


def _block_columns(kind, blocks) -> tuple:
    """(present, values, complete) of `blocks`, each account's `kind`
    block: which blocks are not None, {field name: the blocks' values of
    that field}, and which blocks are complete by the rule at
    `_TEXT_FIELDS`, a None block reading as a blank one.

    Checks of each block what `_block` and `kind` check, with one pass
    per field: it is None or the list of its field values, each of a
    type that `field_type_table` admits."""
    width = len(kind.__dataclass_fields__)
    present = list(map(is_not, blocks, repeat(None)))
    blank = list(vars(kind()).values())
    blocks = [blank if block is None else block for block in blocks]
    if set(map(type, blocks)) != {list} or set(map(len, blocks)) != {width}:
        raise ValueError(f"a {kind.__name__} block is the list of its "
                         f"{width} field values")
    columns = list(zip(*blocks))
    values = dict(zip(kind.__dataclass_fields__, columns))
    for name, admitted, noun, _ in field_type_table(kind):
        column = values[name]
        if not set(map(type, column)).issubset(admitted):
            wrong = next(value for value in column
                         if type(value) not in admitted)
            raise TypeError(f"{name} must be {noun}, got {wrong!r}")
    counted = [map(str.strip, column) if text else column
               for text, column in zip(_TEXT_FIELDS[kind], columns)]
    return present, values, list(map(all, zip(*counted)))


def _identity_index(values, ids, noun) -> dict:
    """{normalized identity string: account id} over the non-empty keys
    of `values`, the i-th value held by the i-th id; they must differ."""
    keys = list(map(normalize_identity, values))
    index = dict(zip(keys, ids))
    index.pop("", None)
    if len(index) != len(keys) - keys.count(""):
        raise DuplicateIdentity(f"{noun} registered to two accounts")
    return index


# The id of the n-th account registered.
_account_id = "A{:06d}".format

class Registry:
    """Account registry with uniqueness indexes over identity strings.

    Single-writer, many-reader: all mutations go through one writer;
    concurrent readers see a consistent snapshot between writes.
    """

    def __init__(self):
        self.accounts: dict[str, Account] = {}
        self._by_national_id: dict[str, str] = {}
        self._by_bank_or_card: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self.accounts)

    def get(self, account_id: str) -> Account:
        try:
            return self.accounts[account_id]
        except KeyError:
            raise UnknownAccount(f"no account {account_id!r}") from None

    def columns(self) -> dict:
        """What `restore` reads back into this registry: the blocks'
        field names once, under `fields`, the account ids in registration
        order, under `ids`, and each account's `blocks`, under
        `credentials`.  The entries are the accounts' own lists, not
        copies, and no `CredentialSet` is built."""
        accounts = self.accounts
        return {"fields": BLOCK_FIELDS, "ids": list(accounts),
                "credentials": [account.blocks
                                for account in accounts.values()]}

    @classmethod
    def restore(cls, columns) -> "Registry":
        """The registry that `columns`, laid out as `columns` writes it,
        holds: the one that registering its entries in order builds, when
        that gives its accounts exactly the ids it lists, in order.

        Its `fields` must be `BLOCK_FIELDS`, so that a change of the
        block classes' fields cannot shift a value into another field.
        Each entry of its `credentials` is the list [personal, business,
        evidence], as `CredentialSet.blocks` writes it: each block None
        or the list of exactly its fields' values, in the order of
        `BLOCK_FIELDS`, so a string cannot be spread over a block's
        fields.  This is the column form of `register`: each of its
        checks runs as one pass over a column of blocks or fields, with
        no `register` call and no `CredentialSet` built.  The blocks are
        shaped and typed as `_block` and the block classes require; no
        evidence block comes without a business block; every personal
        block is complete, by the one rule at `_TEXT_FIELDS`, and each
        account's tier is read from `_TIER_BY_COMPLETE`; the non-empty
        normalized national ids are unique, and so are the bank/card
        numbers; and the ids are A000001 on, in order.  A check that
        fails raises an error `register` raises (DuplicateIdentity,
        IncompleteCredentials, TypeError), though with several faults
        not always the one that registering in order meets first, or
        ValueError for a shape, for field names or for ids that differ.

        Each account keeps its checked entry as its `blocks`, not copied.
        """
        if tuple(map(tuple, columns["fields"])) != BLOCK_FIELDS:
            raise ValueError("the credential blocks' field names differ")
        ids, entries = columns["ids"], columns["credentials"]
        if type(entries) is not list \
                or set(map(type, entries)) - {list} \
                or set(map(len, entries)) - {len(BLOCK_KINDS)}:
            raise ValueError("an account entry is the list of its blocks")
        names = list(map(_account_id, range(1, len(entries) + 1)))
        if ids != names:
            raise ValueError("registering the entries gives other account ids")
        registry = cls()
        if not entries:
            return registry
        ((_, _, personal_complete),
         (has_business, business, business_complete),
         (has_evidence, _, evidence_complete)) = map(
            _block_columns, BLOCK_KINDS, zip(*entries))
        if any(map(gt, has_evidence, has_business)):     # True > False
            raise ValueError("evidence block requires a business block")
        tiers = list(map(_TIER_BY_COMPLETE.__getitem__,
                         zip(personal_complete, business_complete,
                             evidence_complete)))
        registry._by_national_id = _identity_index(
            business["national_id"], names, "national id")
        registry._by_bank_or_card = _identity_index(
            business["bank_or_card"], names, "bank/card")
        registry.accounts = dict(zip(names, map(Account, names, entries,
                                                tiers)))
        return registry

    def register(self, credentials: CredentialSet) -> Account:
        """Classify, enforce identity uniqueness, and append a new account.

        The account is its id, its credentials' blocks and its tier; it
        carries no role, since buyer and seller of a deal each rate the
        other.  Identity strings are indexed even when the business block
        is incomplete, so a half-filled block cannot smuggle a reused id
        past the duplicate check.  Rejected requests leave the registry
        untouched.  Accounts are never removed, so the registry's size
        numbers the next id.
        """
        tier = classify_profile(credentials)
        nid = bank = None
        if credentials.business is not None:
            nid = normalize_identity(credentials.business.national_id) or None
            bank = normalize_identity(credentials.business.bank_or_card) or None
        if nid is not None and nid in self._by_national_id:
            raise DuplicateIdentity(
                f"national id already registered to {self._by_national_id[nid]}")
        if bank is not None and bank in self._by_bank_or_card:
            raise DuplicateIdentity(
                f"bank/card already registered to {self._by_bank_or_card[bank]}")
        account = Account(
            account_id=_account_id(len(self.accounts) + 1),
            blocks=credentials.blocks(),
            tier=tier,
        )
        self.accounts[account.account_id] = account
        if nid is not None:
            self._by_national_id[nid] = account.account_id
        if bank is not None:
            self._by_bank_or_card[bank] = account.account_id
        return account


__all__ = [
    "ProfileTier", "PersonalDetails", "BusinessDetails", "EvidenceDetails",
    "BLOCK_KINDS", "BLOCK_FIELDS", "check_field_types", "field_type_table",
    "CredentialSet", "PolicyConfig", "DEFAULT_POLICY", "Account", "Registry",
    "classify_profile", "initial_trust", "normalize_identity",
]
