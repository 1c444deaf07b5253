"""Hostile values at every input boundary.

A substitution fuzzer replaces one leaf of a valid document (a scenario
file, a register or rating line of a ledger, or the reported figures of
`stats kruskal --reference`) by a hostile JSON value.  The reader either
refuses the document with one `error:` line and exit 1, or accepts it
with every field's type kept: no bool in a number field, and a scenario
that writes back to itself.  It never gives a traceback.
Besides: the one type rule covers every annotated field of each checked
class, and roster names whose synthetic identities collide are refused.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import credentials_for, profile_examples
from test_sim import scenarios
from trustmarket import cli
from trustmarket.cli import main
from trustmarket.engine import EngineConfig
from trustmarket.eventlog import KIND_RATING, KIND_REGISTER, replay
from trustmarket.identity import (BusinessDetails, CredentialSet,
                                  EvidenceDetails, PersonalDetails,
                                  field_type_table)
from trustmarket.sim import (BallotStuffing, BuyerPolicy, Honest,
                             IdentityReset, Scenario, ValueImbalance,
                             run_scenario)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
SCENARIO_DIR = DATA_DIR / "scenarios"
BUNDLED = [json.loads(path.read_text())
           for path in sorted(SCENARIO_DIR.glob("*.json"))]
REFERENCE = json.loads(
    (DATA_DIR / "new_seller_support.reference.json").read_text())

# The hostile values, as JSON text; 1e999 reads as inf.
HOSTILE = ("true", "false", "null", "1e999", "NaN", "1" + "0" * 400, "-0.0",
           '""', '"1"', "[]", "{}")

# The annotations the type rule covers.
RULED = (float, int, bool, str)


def _leaves(doc, path=()):
    """The path of each leaf of JSON value `doc`: each scalar and each
    empty list or object."""
    if isinstance(doc, (dict, list)) and doc:
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from _leaves(value, (*path, key))
    else:
        yield path


def _put(doc, path, value):
    """A copy of `doc` with `value` at `path`."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _put(doc[path[0]], path[1:], value)
    return copy


_MARK = "\x00leaf\x00"


@st.composite
def substituted(draw, docs):
    """The JSON text of a document from `docs` with one leaf replaced by
    the text of a hostile value."""
    doc = draw(docs)
    path = draw(st.sampled_from(list(_leaves(doc))))
    return json.dumps(_put(doc, path, _MARK)).replace(
        json.dumps(_MARK), draw(st.sampled_from(HOSTILE)))


def _assert_typed(value, hint=None):
    """No bool outside a bool field, and each ruled field of each
    dataclass within `value` of its annotation's type."""
    if is_dataclass(value):
        for name, field_hint in get_type_hints(type(value)).items():
            _assert_typed(getattr(value, name), field_hint)
    elif isinstance(value, (tuple, list, dict)):
        for item in (value.values() if isinstance(value, dict) else value):
            _assert_typed(item)
    else:
        assert type(value) is not bool or hint is bool, (hint, value)
        if hint in RULED:
            assert type(value) in ((int, float) if hint is float
                                   else (hint,)), (hint, value)


def _main(*argv):
    """(exit code, stderr) of the CLI."""
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


def _assert_refused(code, err, named=""):
    assert code == 1
    assert err.startswith(f"error: {named}") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("substituted")


class _Loaded(Exception):
    """Raised, in place of building its world, with a scenario the CLI
    accepted; a horizon such as 10**400 loads but would never finish."""


def _loaded(scenario, *args, **kwargs):
    raise _Loaded(scenario)


@settings(max_examples=profile_examples(150, 600), deadline=None)
@given(text=substituted(st.sampled_from(BUNDLED) | scenarios().map(
    lambda scenario: json.loads(json.dumps(scenario.to_dict())))))
def test_a_substituted_scenario_is_refused_or_kept(scratch, text):
    path = scratch / "scenario.json"
    path.write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(cli, "build_world", _loaded)
        try:
            code, err = _main("simulate", str(path))
        except _Loaded as loaded:
            scenario = loaded.args[0]
            data = json.loads(json.dumps(scenario.to_dict()))
            assert Scenario.from_dict(data) == scenario
            _assert_typed(scenario)
            return
    _assert_refused(code, err)


def _rating_line(seq):
    return {"seq": seq, "kind": KIND_RATING, "at": seq, "payload": {
        "rater": "A000002", "ratee": "A000001", "scope": "books",
        "value": 1, "cost": 20, "at": seq}}


def _register_line(seq, tag):
    return {"seq": seq, "kind": KIND_REGISTER, "at": seq,
            "payload": {"credentials": credentials_for(tag).to_dict()}}


SELLER = json.dumps(_register_line(1, "seller"))


@settings(max_examples=profile_examples(150, 600), deadline=None)
@given(lines=st.tuples(
    substituted(st.just(_register_line(2, "buyer"))),
    st.just(json.dumps(_rating_line(3)))) | st.tuples(
    st.just(json.dumps(_register_line(2, "buyer"))),
    substituted(st.just(_rating_line(3)))))
def test_a_substituted_ledger_line_is_refused_or_kept(scratch, lines):
    path = scratch / "ledger.jsonl"
    path.write_text("".join(line + "\n" for line in (SELLER, *lines)),
                    encoding="utf-8")
    code, err = _main("replay", str(path))
    if code != 0:
        _assert_refused(code, err, "line ")
        return
    state = replay(path)
    for account in state.registry.accounts.values():
        credentials = account.credentials
        assert CredentialSet.from_dict(credentials.to_dict()) == credentials
        _assert_typed(credentials)
    for rating in state.store.snapshot().values():
        _assert_typed(rating)


@settings(max_examples=profile_examples(150, 600), deadline=None)
@given(text=substituted(st.just(REFERENCE)))
def test_a_substituted_reference_is_refused_or_compared(scratch, text):
    # the reported figures are compared with the bundled survey's
    path = scratch / "reference.json"
    path.write_text(text, encoding="utf-8")
    code, err = _main("stats", "kruskal", "--reference", str(path))
    if code != 0:
        _assert_refused(code, err, "reported ")


# ------------------------------------------------------------------
# the one type rule
# ------------------------------------------------------------------

CHECKED = (PersonalDetails, BusinessDetails, EvidenceDetails, Honest,
           ValueImbalance, IdentityReset, BallotStuffing, BuyerPolicy,
           EngineConfig)


def _ruled_fields(cls) -> dict:
    return {name: hint for name, hint in get_type_hints(cls).items()
            if hint in RULED}


@pytest.mark.parametrize("cls", (*CHECKED, Scenario),
                         ids=lambda cls: cls.__name__)
def test_the_type_table_lists_every_ruled_field(cls):
    # spec.type is a string under `from __future__ import annotations`,
    # which would leave the table empty and every field unchecked
    assert [name for name, *_ in field_type_table(cls)] \
        == list(_ruled_fields(cls))


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_each_ruled_field_refuses_another_type(cls):
    # True passes every range test of a number field, and 1 is truthy
    for name, hint in _ruled_fields(cls).items():
        with pytest.raises(TypeError, match=f"^{name} must be "):
            cls(**{name: 1 if hint is bool else True})


# ------------------------------------------------------------------
# roster identities
# ------------------------------------------------------------------

FRESH_RESET = {"kind": "identity-reset", "defect_after": 0,
               "fresh_ids": True}


def _roster(sellers, buyers):
    return {"seed": 1, "horizon": 6, "sellers": sellers, "buyers": buyers}


@pytest.mark.parametrize("roster, named", [
    (_roster([{"name": "a-b"}], [{"name": "ab"}]),
     "roster names 'a-b' and 'ab' give one identity"),
    (_roster([{"name": "s0", "strategy": FRESH_RESET}], [{"name": "s0r1"}]),
     "roster names 's0' and 's0r1' give one identity, at reset 1 of 's0'"),
    (_roster([{"name": "s0r2"}, {"name": "s0", "strategy": FRESH_RESET}],
             [{"name": "b"}]),
     "roster names 's0r2' and 's0' give one identity, at reset 2 of 's0'"),
], ids=["normalised_names", "reset_name", "reset_name_first"])
def test_roster_names_with_one_identity_are_refused(scratch, roster, named):
    # the registry would refuse the second identity of each pair mid-run
    # (DuplicateIdentity); the pair is named in roster order, sellers first
    path = scratch / "roster.json"
    path.write_text(json.dumps(roster), encoding="utf-8")
    code, err = _main("simulate", str(path))
    assert (code, err) == (1, f"error: {named}\n")


@pytest.mark.parametrize("roster", [
    _roster([{"name": "a-b", "tier": "low"}],
            [{"name": "ab", "threshold": 0.0}]),
    _roster([{"name": "s0", "strategy": FRESH_RESET}],
            [{"name": "s0r01", "threshold": 0.0},
             {"name": "s0r1", "tier": "low", "threshold": 0.0}]),
    _roster([{"name": "s0", "tier": "low", "strategy": FRESH_RESET}],
            [{"name": "s0r1", "threshold": 0.0}]),
], ids=["low_tier", "no_such_reset", "low_tier_reset"])
def test_roster_names_with_distinct_identities_run(roster):
    # a low tier holds no business block, and no reset is numbered 01
    report = run_scenario(Scenario.from_dict(roster))
    assert report.completed_deals > 0
    assert report.blocked_duplicate_registrations == 0
