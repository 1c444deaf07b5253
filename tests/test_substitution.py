"""Hostile values at every input boundary.

A substitution fuzzer replaces one leaf of a valid document (a scenario
file, a register or rating line of a ledger, the reported figures of
`stats kruskal --reference`, or a cell of a survey CSV) by a hostile JSON
value.  The reader either refuses the document with one `error:` line
and exit 1, or accepts it with every field's type kept: no bool in a
number field, and a scenario that writes back to itself.  It never gives
a traceback.
Besides: the one type rule covers every annotated field of each checked
class, and distinct roster names never share a synthetic identity.
"""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import credentials_for, profile_examples
from test_sim import scenarios
from trustmarket import cli
from trustmarket.cli import main
from trustmarket.engine import EngineConfig, ListingContext
from trustmarket.eventlog import KIND_RATING, KIND_REGISTER, replay
from trustmarket.identity import (BusinessDetails, CredentialSet,
                                  EvidenceDetails, PersonalDetails,
                                  field_type_table)
from trustmarket.sim import (BallotStuffing, BuyerPolicy, BuyerSpec, Honest,
                             IdentityReset, Scenario, SellerSpec,
                             ValueImbalance, build_world, step, world_report)

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
    """Raised, in place of running it, with a scenario the CLI accepted; a
    horizon such as 10**400 loads but would never finish."""


def _loaded(scenario, *args, **kwargs):
    raise _Loaded(scenario)


@settings(max_examples=profile_examples(150, 600), deadline=None)
@given(text=substituted(st.sampled_from(BUNDLED) | scenarios().map(
    lambda scenario: json.loads(json.dumps(scenario.to_dict())))))
def test_a_substituted_scenario_is_refused_or_kept(scratch, text):
    path = scratch / "scenario.json"
    path.write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(cli, "run_scenario", _loaded)
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


# The bundled survey in its frequency layout, and in its long layout.
SURVEY = list(csv.reader(
    (DATA_DIR / "new_seller_support.csv").read_text().splitlines()))
SURVEY_LONG = [["group", "response"]] + [
    [group, point] for group, *counts in SURVEY[1:]
    for point, count in zip(SURVEY[0][1:], counts) for _ in range(int(count))]


@st.composite
def substituted_csv(draw):
    """The rows of a survey layout with one cell replaced by the text of a
    hostile value."""
    rows = [list(row) for row in draw(st.sampled_from((SURVEY, SURVEY_LONG)))]
    row = draw(st.sampled_from(rows))
    row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(HOSTILE))
    return rows


@settings(max_examples=profile_examples(150, 600), deadline=None)
@given(rows=substituted_csv())
# a count of 401 digits fits no list
@example(rows=[SURVEY[0], ["integrated", HOSTILE[5], *SURVEY[1][2:]],
               *SURVEY[2:]])
def test_a_substituted_csv_row_is_refused_or_read(scratch, rows):
    path = scratch / "survey.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    for command in ("freq", "kruskal"):
        code, err = _main("stats", command, str(path))
        if code != 0:
            _assert_refused(code, err)


# ------------------------------------------------------------------
# the one type rule
# ------------------------------------------------------------------

CHECKED = (PersonalDetails, BusinessDetails, EvidenceDetails, Honest,
           ValueImbalance, IdentityReset, BallotStuffing, BuyerPolicy,
           SellerSpec, BuyerSpec, EngineConfig, ListingContext)

# The fields a checked class needs, each given a valid value.
REQUIRED = {ListingContext: {"scope": "books", "price": 0.0},
            SellerSpec: {"name": "s"}, BuyerSpec: {"name": "b"}}


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
        hostile = {name: 1 if hint is bool else True}
        with pytest.raises(TypeError, match=f"^{name} must be "):
            cls(**{**REQUIRED.get(cls, {}), **hostile})


# ------------------------------------------------------------------
# roster identities
# ------------------------------------------------------------------

FRESH_RESET = {"kind": "identity-reset", "defect_after": 0,
               "fresh_ids": True}


def _roster(sellers, buyers):
    return {"seed": 1, "horizon": 6, "sellers": sellers, "buyers": buyers}


# Zoë and Zoé, which the registry's normalisation would merge
ZOE = ("Zo\u00eb", "Zo\u00e9")


@pytest.mark.parametrize("roster, resets", [
    (_roster([{"name": "a-b", "tier": "low"}],
             [{"name": "ab", "threshold": 0.0}]), 0),
    (_roster([{"name": "s0", "strategy": FRESH_RESET}],
             [{"name": "s0r01", "threshold": 0.0},
              {"name": "s0r1", "tier": "low", "threshold": 0.0}]), 1),
    (_roster([{"name": "s0", "tier": "low", "strategy": FRESH_RESET}],
             [{"name": "s0r1", "threshold": 0.0}]), 1),
    (_roster([{"name": "a-b"}], [{"name": "ab", "threshold": 0.0}]), 0),
    (_roster([{"name": "s0", "strategy": FRESH_RESET}],
             [{"name": "s0r1", "threshold": 0.0}]), 1),
    (_roster([{"name": "s0r2"}, {"name": "s0", "strategy": FRESH_RESET}],
             [{"name": name, "threshold": 0.0} for name in ("b", "c")]), 2),
    (_roster([{"name": name} for name in ZOE],
             [{"name": "b", "threshold": 0.0}]), 0),
    (_roster([{"name": "s0", "strategy": FRESH_RESET}],
             [{"name": "s0-r1", "threshold": 0.0}]), 1),
    (_roster([*({"name": name} for name in ZOE), {"name": "a-b"},
              {"name": "s0", "strategy": FRESH_RESET}],
             [{"name": name, "threshold": 0.0}
              for name in ("ab", "s0-r1", "s0r2", "b")]), 2),
], ids=["low_tier", "no_such_reset", "low_tier_reset", "normalised_names",
        "reset_name", "reset_name_first", "accented_names",
        "literal_reset_name", "all_at_once"])
def test_roster_names_with_distinct_identities_run(roster, resets):
    # a synthetic identity is one-to-one in (name, reset), whatever the
    # registry's normalisation merges: no two roster names, nor a name and
    # a reset of another, share one, so every registration and reset passes
    scenario = Scenario.from_dict(roster)
    world = build_world(scenario)
    for _ in range(scenario.horizon):
        step(world)
    report = world_report(world)
    assert report.completed_deals > 0
    assert report.blocked_duplicate_registrations == 0
    done = sum(state.resets for state in world.sellers.values())
    assert done >= resets
    assert len(world.state.registry.accounts) \
        == len(scenario.sellers) + len(scenario.buyers) + done
