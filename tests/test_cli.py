import fcntl
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import credentials_for
from trustmarket import cli, eventlog, sim
from trustmarket.cli import main
from trustmarket.eventlog import KIND_REGISTER, EventLog, replay
from trustmarket.sim import Scenario, run_scenario

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"
ONBOARDING = DATA_DIR / "scenarios" / "onboarding.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def register_args(log, tag, *extra):
    return ["register", "--log", str(log),
            "--full-name", f"{tag} holder", "--address", f"1 {tag} way",
            "--phone", f"tel-{tag}", "--city", "Lund", "--country", "SE",
            "--national-id", f"nid-{tag}", "--bank-or-card", f"card-{tag}",
            "--business-phone", f"biz-{tag}", "--business-address",
            f"2 {tag} way", "--reference-account", f"ref-{tag}",
            "--id-document", "passport", "--registration-document", "cert",
            "--signed-declaration", *extra]


@pytest.fixture
def log(tmp_path):
    return tmp_path / "market.jsonl"


# ------------------------------------------------------------------
# exit codes
# ------------------------------------------------------------------

def test_usage_error_is_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_help_is_exit_0(capsys):
    assert main(["--help"]) == 0


def test_missing_scenario_file_is_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", str(tmp_path / "absent.json"))
    assert code == 1
    assert "error:" in err


# ------------------------------------------------------------------
# ledger flow
# ------------------------------------------------------------------

def test_register_full_credentials(capsys, log):
    code, out, _ = run(capsys, *register_args(log, "a"))
    assert code == 0
    assert "registered A000001 tier high (initial trust 0.30)" in out
    assert len(log.read_text().splitlines()) == 1


def test_register_personal_only_is_low_tier(capsys, log):
    code, out, _ = run(capsys, "register", "--log", str(log),
                       "--full-name", "B", "--address", "2", "--phone", "3",
                       "--city", "Lund", "--country", "SE")
    assert code == 0
    assert "tier low (initial trust 0.00)" in out


def test_duplicate_register_writes_nothing(capsys, log):
    run(capsys, *register_args(log, "a"))
    code, _, err = run(capsys, *register_args(log, "a"))
    assert code == 1
    assert err == "error: national id already registered to A000001\n"
    assert len(log.read_text().splitlines()) == 1


@pytest.mark.parametrize("flag", ["--buyer-only", "--seller-only"])
def test_role_flags_are_usage_errors(capsys, log, flag):
    code, _, err = run(capsys, *register_args(log, "a", flag))
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err
    assert not log.exists() and not checkpoint_of(log).exists()


def test_register_appends_credentials_only(capsys, log):
    run(capsys, *register_args(log, "a"))
    (line,) = log.read_text(encoding="utf-8").splitlines()
    assert set(json.loads(line)["payload"]) == {"credentials"}


def test_register_json_format(capsys, log):
    code, out, _ = run(capsys, *register_args(log, "a", "--format", "json"))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"account_id": "A000001", "tier": "high",
                       "initial_trust": 0.3}


def test_log_path_from_environment(capsys, tmp_path, monkeypatch):
    target = tmp_path / "env.jsonl"
    monkeypatch.setenv("TRUSTMARKET_LOG", str(target))
    monkeypatch.chdir(tmp_path)
    args = register_args("ignored", "a")
    del args[1:3]              # drop the --log flag, fall back to the env var
    code, _, _ = run(capsys, *args)
    assert code == 0
    assert target.exists()


def test_main_builds_the_parser_once_and_options_do_not_leak(
        capsys, tmp_path, monkeypatch):
    builds = []
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    monkeypatch.setattr(cli, "build_parser", lambda build=cli.build_parser:
                        builds.append(1) or build())
    explicit, default = tmp_path / "explicit.jsonl", tmp_path / "env.jsonl"
    monkeypatch.setenv("TRUSTMARKET_LOG", str(default))
    code, out, _ = run(capsys, *register_args(explicit, "a"),
                       "--format", "json")
    assert code == 0 and json.loads(out)["account_id"] == "A000001"
    args = register_args("ignored", "b")
    del args[1:3]              # no --log and no --format this time
    code, out, _ = run(capsys, *args)
    assert code == 0 and out.startswith("registered A000001 tier high")
    assert main(["replay", str(explicit)]) == 0
    assert len(builds) == 1
    assert len(explicit.read_text().splitlines()) == 1
    assert len(default.read_text().splitlines()) == 1


def test_new_seller_opinion_uses_fallback(capsys, log):
    run(capsys, *register_args(log, "seller"))
    run(capsys, *register_args(log, "buyer"))
    code, out, _ = run(capsys, "opinion", "--log", str(log),
                       "--buyer", "A000002", "--seller", "A000001",
                       "--scope", "laptops", "--price", "100")
    assert code == 0
    assert "recommended: 0.30 (source initial-trust)" in out
    assert "score: 30/100 label medium tier high" in out
    assert "advisories: new-seller" in out
    assert "direct: none" in out


def test_rate_then_opinion_uses_ratings(capsys, log):
    run(capsys, *register_args(log, "seller"))
    run(capsys, *register_args(log, "buyer"))
    code, out, _ = run(capsys, "rate", "--log", str(log),
                       "--rater", "A000002", "--ratee", "A000001",
                       "--scope", "laptops", "--value", "1", "--cost", "120")
    assert code == 0
    assert "recorded +1 from A000002 on A000001 in laptops" in out
    code, out, _ = run(capsys, "opinion", "--log", str(log),
                       "--buyer", "A000002", "--seller", "A000001",
                       "--scope", "laptops", "--price", "100")
    assert code == 0
    assert "recommended: 1.0000 (source ratings)" in out
    assert "score: 100/100 label high tier high" in out
    assert "direct: +1 in laptops" in out
    assert "advisories: none" in out


def test_commands_in_separate_processes(log):
    """One process per command, as a user runs them: an opinion reads the
    same from the checkpoint and from a full replay."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def command(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "trustmarket.cli", *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    for tag in ("seller", "buyer", "other"):
        command(*register_args(log, tag))
    checkpoint = log.with_name(log.name + ".ckpt")
    for rater, value in [("A000002", "1"), ("A000003", "-1")] * 5:
        command("rate", "--log", log, "--rater", rater, "--ratee", "A000001",
                "--scope", "laptops", "--value", value, "--cost", "120")
        if checkpoint.exists():
            break
    assert checkpoint.exists()
    opinion = ["opinion", "--log", log, "--buyer", "A000002", "--seller",
               "A000001", "--scope", "laptops", "--price", "100",
               "--format", "json"]
    restored = command(*opinion)
    checkpoint.unlink()
    assert command(*opinion) == restored
    assert json.loads(restored)["recommended_source"] == "ratings"


# A writer process: it waits for the file named by its first argument, then
# runs each argv of the JSON list in the file named by its second through
# `cli.main`, and prints [exit code, stdout, stderr] for each.
WRITER = """
import contextlib, io, json, os, pathlib, sys, time
from trustmarket.cli import main
go, commands = sys.argv[1], json.loads(pathlib.Path(sys.argv[2]).read_text())
while not os.path.exists(go):
    time.sleep(0.001)
results = []
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def writer_commands(log, writer):
    """(argv, refusal, marker) for each command of one writer: ratings and
    registrations, a few refused with the message `refusal`.  A rating's
    cost and a registration's full name are unique to the command, so that
    a line names it."""
    ids = ["A000001", "A000002", "A000003", "A000004"]
    commands = []
    for k in range(12):
        cost = float(1000 * writer + k)
        rater, ratee, refusal = ids[1 + (writer + k) % 3], ids[0], None
        if k == 3:
            ratee, refusal = "A999999", "no account 'A999999'"
        elif k == 9:
            rater, refusal = ratee, "A000001 cannot rate itself"
        tag = f"w{writer}-{k}"
        if k % 6 == 0:
            commands.append((register_args(log, tag, "--format", "json"),
                             None, f"{tag} holder"))
        elif k % 6 == 5:        # the seller's national id, written again
            commands.append((register_args(log, tag, "--national-id",
                                           "nid-seller"),
                             "national id already registered to A000001",
                             f"{tag} holder"))
        else:
            commands.append((["rate", "--log", str(log), "--rater", rater,
                              "--ratee", ratee, "--scope", "laptops",
                              "--value", str((writer + k) % 3 - 1),
                              "--cost", str(cost), "--format", "json"],
                             refusal, cost))
    return commands


def test_four_writers_share_one_ledger(capsys, log, tmp_path):
    """Four processes `rate` and `register` on one ledger at once: the lock
    numbers every line, keeps every accepted command's line and no refused
    one's, and the checkpoint they save reads as a full replay."""
    for tag in ("seller", "b1", "b2", "b3"):
        assert run(capsys, *register_args(log, tag))[0] == 0
    path = os.pathsep.join(filter(None, [str(SRC_DIR),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    go = tmp_path / "go"
    plans, children = [], []
    for writer in range(4):
        plan = writer_commands(log, writer)
        commands = tmp_path / f"writer-{writer}.json"
        commands.write_text(json.dumps([argv for argv, _, _ in plan]))
        plans.append(plan)
        children.append(subprocess.Popen(
            [sys.executable, "-W", "error::ResourceWarning", "-c", WRITER,
             str(go), str(commands)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True))
    go.touch()
    outcomes = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        outcomes.append(json.loads(out))

    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert [line["seq"] for line in lines] == list(range(1, len(lines) + 1))
    costs = [line["payload"]["cost"] for line in lines
             if line["kind"] == "rating"]
    names = [line["payload"]["credentials"]["personal"]["full_name"]
             for line in lines if line["kind"] == KIND_REGISTER]
    accepted = 4
    for plan, results in zip(plans, outcomes):
        for (_, refusal, marker), (code, out, err) in zip(plan, results):
            written = costs if isinstance(marker, float) else names
            if refusal is not None:
                assert (code, out, err) == (1, "", f"error: {refusal}\n")
                assert marker not in written
            else:
                assert (code, err) == (0, "")
                assert written.count(marker) == 1
                accepted += 1
    assert len(lines) == accepted
    assert EventLog(log).read_state().describe() == replay(log).describe()


def test_failed_rate_writes_nothing(capsys, log):
    run(capsys, *register_args(log, "seller"))
    before = log.read_text()
    code, _, err = run(capsys, "rate", "--log", str(log),
                       "--rater", "A000009", "--ratee", "A000001",
                       "--scope", "laptops", "--value", "1")
    assert code == 1
    assert err == "error: no account 'A000009'\n"
    assert log.read_text() == before


def test_rate_with_nan_cost_writes_nothing(capsys, log):
    run(capsys, *register_args(log, "seller"))
    run(capsys, *register_args(log, "buyer"))
    size = log.stat().st_size
    code, _, err = run(capsys, "rate", "--log", str(log),
                       "--rater", "A000002", "--ratee", "A000001",
                       "--scope", "laptops", "--value", "1", "--cost", "nan")
    assert code == 1
    assert err == "error: cost must lie in [0, inf), got nan\n"
    assert log.stat().st_size == size


# Each refusal keeps the library's own message: `apply_event` raises it.
# A blank scope is named before a bad cost, since the command normalises
# the scope as it builds the event.
REFUSED_RATES = {
    "negative cost": (["--cost", "-1"],
                      "cost must lie in [0, inf), got -1.0"),
    "blank scope": (["--scope", " "],
                    "scope must be a non-empty category name"),
    "blank scope, nan cost": (["--scope", "", "--cost", "nan"],
                              "scope must be a non-empty category name"),
    "unknown ratee": (["--ratee", "A000007"], "no account 'A000007'"),
    "self-rating": (["--rater", "A000001"], "A000001 cannot rate itself"),
}


@pytest.mark.parametrize("fault", sorted(REFUSED_RATES))
def test_a_refused_rate_names_its_fault(capsys, log, fault):
    run(capsys, *register_args(log, "seller"))
    run(capsys, *register_args(log, "buyer"))
    before = log.read_bytes()
    extra, message = REFUSED_RATES[fault]
    argv = rate_args(log, *extra)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    assert log.read_bytes() == before


REFUSED_REGISTRATIONS = {
    "national id written differently": (
        ["--national-id", "NID-A"],
        "national id already registered to A000001"),
    "blank personal field": (
        ["--city", " "],
        "a complete personal-details block is the minimum to register"),
}


@pytest.mark.parametrize("fault", sorted(REFUSED_REGISTRATIONS))
def test_a_refused_register_names_its_fault(capsys, log, fault):
    run(capsys, *register_args(log, "a"))
    before = log.read_bytes()
    extra, message = REFUSED_REGISTRATIONS[fault]
    argv = register_args(log, "b", *extra)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    assert log.read_bytes() == before


def test_avoid_delivery_advisory(capsys, log):
    run(capsys, *register_args(log, "seller"))
    run(capsys, *register_args(log, "buyer"))
    code, out, _ = run(capsys, "opinion", "--log", str(log),
                       "--buyer", "A000002", "--seller", "A000001",
                       "--scope", "laptops", "--price", "100",
                       "--delivery-days", "30")
    assert code == 0
    assert "avoid-delivery" in out


def test_replay_summary(capsys, log):
    run(capsys, *register_args(log, "seller"))
    run(capsys, *register_args(log, "buyer"))
    run(capsys, "rate", "--log", str(log), "--rater", "A000002",
        "--ratee", "A000001", "--scope", "laptops", "--value", "1")
    code, out, _ = run(capsys, "replay", str(log))
    assert code == 0
    assert "accounts: 2" in out
    assert "ratings: 1" in out
    assert "rejections: 0" in out


def rate_args(log, *extra):
    return ["rate", "--log", str(log), "--rater", "A000002",
            "--ratee", "A000001", "--scope", "laptops", "--value", "1",
            *extra]


def opinion_args(log, *extra):
    return ["opinion", "--log", str(log), "--buyer", "A000002",
            "--seller", "A000001", "--scope", "laptops", "--price", "100",
            *extra]


@pytest.fixture
def parsed(monkeypatch):
    """Line numbers handed to the log's line parser, in call order."""
    seen = []
    parse = eventlog._parse_line
    monkeypatch.setattr(eventlog, "_parse_line",
                        lambda line, line_no: seen.append(line_no)
                        or parse(line, line_no))
    return seen


def checkpoint_of(log):
    return log.with_name(log.name + ".ckpt")


def test_each_ledger_command_parses_every_line_once(capsys, log, parsed):
    run(capsys, *register_args(log, "seller"))
    run(capsys, *register_args(log, "buyer"))
    for _ in range(3):
        run(capsys, *rate_args(log))
    commands = (opinion_args(log), rate_args(log), register_args(log, "third"))
    for argv in commands:
        checkpoint_of(log).unlink(missing_ok=True)
        lines = len(log.read_text().splitlines())
        parsed.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert sorted(parsed) == list(range(1, lines + 1)), argv[0]
    # With a valid checkpoint, a command parses exactly the lines past it.
    run(capsys, *rate_args(log))
    for argv in commands[:2] + (register_args(log, "fourth"),):
        covered = json.loads(checkpoint_of(log).read_text())["lines"]
        lines = len(log.read_text().splitlines())
        assert 0 < covered < lines
        parsed.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert parsed == list(range(covered + 1, lines + 1)), argv[0]


def test_rate_validates_and_numbers_under_the_lock(capsys, log, monkeypatch):
    run(capsys, *register_args(log, "seller"))
    run(capsys, *register_args(log, "buyer"))
    holder = EventLog(log)
    waiting = threading.Event()
    flock = fcntl.flock

    def signalling_flock(fd, operation):
        if threading.current_thread() is not threading.main_thread():
            waiting.set()             # the helper is about to take a lock
        return flock(fd, operation)
    monkeypatch.setattr(fcntl, "flock", signalling_flock)
    codes = []
    with holder.locked():
        helper = threading.Thread(target=lambda: codes.append(
            main(rate_args(log, "--format", "json"))))
        helper.start()
        assert waiting.wait(10)
        holder.append(KIND_REGISTER,
                      {"credentials": credentials_for("third").to_dict()})
    helper.join(10)
    assert not helper.is_alive()
    assert codes == [0]
    assert json.loads(capsys.readouterr().out)["at"] == 4
    state = replay(log)
    assert state.last_seq == 4 and state.rejections == []


def test_rate_after_a_torn_tail_leaves_a_clean_log(capsys, log):
    run(capsys, *register_args(log, "seller"))
    run(capsys, *register_args(log, "buyer"))
    with open(log, "a", encoding="utf-8") as handle:
        handle.write('{"seq":3,"kind":"rat')          # a crash mid-append
    code, out, err = run(capsys, "replay", str(log))
    assert code == 0
    assert "accounts: 2" in out
    assert "warning: line 3 is an unterminated (torn) write" in err
    code, out, _ = run(capsys, *rate_args(log, "--format", "json"))
    assert code == 0
    assert json.loads(out)["at"] == 3
    assert log.read_text().endswith("\n")
    code, _, err = run(capsys, "replay", str(log))
    assert code == 0 and err == ""
    assert replay(log).last_seq == 3


@pytest.mark.parametrize("checkpointed", [False, True],
                         ids=["full", "checkpoint"])
@pytest.mark.parametrize("command", ["replay", "opinion", "rate", "register"])
def test_a_deal_line_is_damage_to_every_command(capsys, log, command,
                                                checkpointed):
    run(capsys, *register_args(log, "seller"))
    if checkpointed:
        with EventLog(log).locked():            # checkpoints line 1
            pass
    with open(log, "a", encoding="utf-8") as handle:
        handle.write('{"seq":2,"kind":"deal","at":2,"payload":{"price":10}}\n')
    before = log.read_bytes()
    argv = {"replay": ["replay", str(log)], "opinion": opinion_args(log),
            "rate": rate_args(log),
            "register": register_args(log, "buyer")}[command]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: line 2: unknown kind 'deal'\n"
    assert log.read_bytes() == before
    assert checkpoint_of(log).exists() == checkpointed


def registration(seq, tag):
    return {"seq": seq, "kind": KIND_REGISTER, "at": seq,
            "payload": {"credentials": credentials_for(tag).to_dict()}}


def test_a_bool_seq_or_at_is_damage(capsys, log):
    # a bool cost is no number either
    bool_cost = {"seq": 3, "kind": "rating", "at": 3, "payload": {
        "rater": "A000002", "ratee": "A000001", "scope": "books",
        "value": 1, "cost": True, "at": 3}}
    for lines, named in (
            ([registration(True, "seller")],
             "line 1: seq and at must be integers"),
            ([registration(1, "seller"), registration(2, "buyer"), bool_cost],
             "line 3: malformed rating payload: cost must lie in [0, inf), "
             "got True")):
        log.write_text("".join(json.dumps(line) + "\n" for line in lines),
                       encoding="utf-8")
        before = log.read_bytes()
        for argv in (["replay", str(log)], register_args(log, "other")):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err == f"error: {named}\n"
        assert log.read_bytes() == before
        assert not checkpoint_of(log).exists()


def readme_session(heading):
    """[argv, expected output] for each `trustmarket` command in the first
    sh block under `heading` of the README, with backslash continuations
    joined and comments dropped; a `# -> ` comment right after a command
    is its output, else the output is not checked (None)."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n")[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    session = []
    for line in block.replace("\\\n", "").splitlines():
        if line.startswith("trustmarket "):
            session.append([shlex.split(line, comments=True)[1:], None])
        elif line.startswith("# -> "):
            session[-1][1] = line[len("# -> "):] + "\n"
    return session


def test_readme_cli_and_simulation_examples_run(capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TRUSTMARKET_LOG", raising=False)
    (tmp_path / "data").symlink_to(DATA_DIR)
    session = (readme_session("## CLI") + readme_session("### Simulation")
               + readme_session("### Statistics"))
    assert [argv[0] for argv, _ in session] == [
        "register", "register", "rate", "opinion", "replay",
        "simulate", "compare", "simulate", "replay", "stats", "stats",
        "stats"]
    for argv, expected in session:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert expected in (None, out), argv


# ------------------------------------------------------------------
# simulation
# ------------------------------------------------------------------

# sha256 of `compare --format json` stdout for each bundled scenario,
# pinned so refactors that claim to keep behaviour cannot drift.
COMPARE_DIGESTS = {
    "onboarding":
        "f84d5c534f5417f7552a488f62f68a3d6580652b52f2edb232c868f48979e06c",
    "whitewash":
        "153177717847328c5d71c1f5e0d2ac74d8d81283bb1379ba88f93420f44fafaa",
    "value_imbalance":
        "d0a9d9e2a2ac7dd1ecc446502f2e9ee0b2420cfa7300d164bd76bd6d9d01a6e3",
}


# sha256 and line count of the `simulate --trace` file of each bundled
# scenario: the simulator's event stream, byte for byte.
TRACE_DIGESTS = {
    "onboarding": (
        "9a6d40672905b06531617917f454d51025a2e45a18d5293acef0995bbccb3456",
        55),
    "value_imbalance": (
        "93f82523ad683205ab1adf5fe19893b001007ca06113bd21b90fd3f08b4e4e1c",
        110),
    "whitewash": (
        "78fd6459fd23221294f6f1b9e43f7622d0511d28f5e40c8237fad76d9356d659",
        111),
}


# sha256 of `replay --format json` stdout over the `simulate --trace` file
# of each bundled scenario: the state a full replay rebuilds, as
# `describe()` writes it with sorted keys, so under any string hash seed.
REPLAY_DIGESTS = {
    "onboarding":
        "23913f0a5c6341c3a2051553f8ed40b42d843011af708b8b35db5afd9eaf64df",
    "value_imbalance":
        "552d9c8f06dd765f05069a8a65f005db2d80f574a72af9f0b295b253013d044d",
    "whitewash":
        "41d543fe1d3a44d414ae7d2ed21ac730ef3637e23fb319b4a4be123d21cdb8c8",
}


@pytest.mark.parametrize("name", sorted(COMPARE_DIGESTS))
def test_bundled_compare_output_is_pinned(capsys, name):
    code, out, _ = run(capsys, "compare",
                       str(DATA_DIR / "scenarios" / f"{name}.json"),
                       "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == COMPARE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_bundled_trace_is_pinned(capsys, tmp_path, name):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run(capsys, "simulate",
                     str(DATA_DIR / "scenarios" / f"{name}.json"),
                     "--trace", str(trace))
    assert code == 0
    data = trace.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), data.count(b"\n")) \
        == TRACE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPLAY_DIGESTS))
def test_bundled_replay_is_pinned(capsys, tmp_path, name):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run(capsys, "simulate",
                     str(DATA_DIR / "scenarios" / f"{name}.json"),
                     "--trace", str(trace))
    assert code == 0
    code, out, err = run(capsys, "replay", str(trace), "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == REPLAY_DIGESTS[name]


def test_simulate_text_output(capsys):
    code, out, _ = run(capsys, "simulate", str(ONBOARDING))
    assert code == 0
    assert "variant integrated seed 7 horizon 25" in out
    assert "time to first sale:" in out


def test_simulate_json_matches_library(capsys):
    code, out, _ = run(capsys, "simulate", str(ONBOARDING),
                       "--format", "json")
    assert code == 0
    scenario = Scenario.from_dict(json.loads(ONBOARDING.read_text()))
    assert out.strip() == run_scenario(scenario).to_json()


def test_simulate_is_deterministic(capsys):
    first = run(capsys, "simulate", str(ONBOARDING), "--format", "json")
    second = run(capsys, "simulate", str(ONBOARDING), "--format", "json")
    assert first == second


def test_trace_replays_cleanly(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code, _, _ = run(capsys, "simulate", str(ONBOARDING),
                     "--trace", str(trace))
    assert code == 0
    state = replay(trace)
    assert state.rejections == []
    assert len(state.registry.accounts) == 5     # 2 sellers + 3 buyers
    code, out, _ = run(capsys, "replay", str(trace))
    assert code == 0
    assert "rejections: 0" in out


@pytest.mark.parametrize("name", sorted(COMPARE_DIGESTS))
def test_simulate_with_a_trace_runs_the_scenario_once(capsys, tmp_path,
                                                      monkeypatch, name):
    scenario = DATA_DIR / "scenarios" / f"{name}.json"
    horizon = json.loads(scenario.read_text())["horizon"]
    stepped, writes, fsyncs = [], [], []
    monkeypatch.setattr(sim, "step", lambda world, step=sim.step:
                        stepped.append(world) or step(world))
    write = EventLog._write
    monkeypatch.setattr(EventLog, "_write", lambda *args:
                        writes.append(args) or write(*args))
    monkeypatch.setattr(os, "fsync", lambda fd, fsync=os.fsync:
                        fsyncs.append(fd) or fsync(fd))
    trace = tmp_path / "trace.jsonl"
    for fmt in ("text", "json"):
        plain = run(capsys, "simulate", str(scenario), "--format", fmt)
        del stepped[:], writes[:], fsyncs[:]
        traced = run(capsys, "simulate", str(scenario), "--format", fmt,
                     "--trace", str(trace))
        assert traced == plain and plain[0] == 0
        assert len(stepped) == horizon
        assert all(world is stepped[0] for world in stepped)
        assert (len(writes), len(fsyncs)) == (1, 1)
        state = replay(trace)
        assert state.describe() == stepped[0].state.describe()
        assert_blocked_registrations_replay_as_rejections(
            trace, state, sim.world_report(stepped[0]))


def assert_blocked_registrations_replay_as_rejections(trace, state, report):
    """Each refused registration of the run is one rejection of the
    trace's replay, on a register event, for a duplicate identity."""
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(state.rejections) == report.blocked_duplicate_registrations
    for line_no, seq, message in state.rejections:
        assert events[line_no - 1]["seq"] == seq
        assert events[line_no - 1]["kind"] == "register"
        assert "already registered to" in message


def test_whitewash_trace_is_the_run_event_stream(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code, out, _ = run(capsys, "simulate",
                       str(DATA_DIR / "scenarios" / "whitewash.json"),
                       "--format", "json", "--trace", str(trace))
    assert code == 0
    report = json.loads(out)
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [event["seq"] for event in events] == list(range(1, 112))
    ratings = [event for event in events if event["kind"] == "rating"]
    assert len(ratings) == 2 * report["completed_deals"] == 82
    assert [event["at"] for event in ratings] == list(range(1, 83))
    assert report["blocked_duplicate_registrations"] == 24
    code, out, _ = run(capsys, "replay", str(trace))
    assert code == 0
    assert "ratings: 12 (store revision 82)" in out
    assert "rejections: 24" in out


def test_trace_replaces_an_existing_file(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    lengths = []
    for _ in range(2):
        code, _, _ = run(capsys, "simulate", str(ONBOARDING),
                         "--trace", str(trace))
        assert code == 0
        lengths.append(len(trace.read_text().splitlines()))
    assert lengths[1] == lengths[0]
    assert replay(trace).rejections == []


def _first(entries, **edit):
    return [{**entries[0], **edit}, *entries[1:]]


@pytest.mark.parametrize("edit, named", [
    (lambda d: {**d, "engine": {"pair_global_replacement": True}},
     "unknown key engine.pair_global_replacement"),
    (lambda d: {**d, "engine": {"policy": {}}}, "unknown key engine.policy"),
    (lambda d: {**d, "engine": [["epsilon", 0.2]]},
     "engine must be a JSON object"),
    (lambda d: {**d, "buyers": [{**d["buyers"][0], "colludes_with": ["x"]}]},
     "colludes with"),
    (lambda d: {**d, "sellers": [{**d["sellers"][0], "name": ["x"]}]},
     "sellers[0]: name must be a string"),
    (lambda d: {**d, "sellers": _first(d["sellers"], name="\ud800")},
     "sellers[0]: name '\\ud800' is not UTF-8 text"),
    (lambda d: {**d, "buyers": _first(d["buyers"], name=" ")},
     "buyers[0]: name must not be blank"),
    (lambda d: {**d, "scopes": [1]}, "scopes"),
    (lambda d: {**d, "scopes": "abc"}, "scopes"),
    (lambda d: {**d, "sellers": [{**d["sellers"][0], "strategy": "honest"}]},
     "strategy"),
    (lambda d: {**d, "initial_trust": [0.0, 0.15, 0.3]}, "initial_trust"),
    (lambda d: [d], "scenario"),
    (lambda d: {**d, "sellers": [{**d["sellers"][0], "strategy": {
        "kind": "identity-reset", "fresh_ids": "false"}}]}, "fresh_ids"),
    (lambda d: {**d, "buyers": [{**d["buyers"][0],
                                 "refuse_on_avoid_delivery": "false"}]},
     "refuse_on_avoid_delivery"),
    (lambda d: {**d, "engine": {"use_weights": "no"}}, "use_weights"),
    (lambda d: {**d, "buyers": _first(d["buyers"], treshold=0.9)},
     "unknown key buyers[0].treshold"),
    (lambda d: {**d, "buyers": [*d["buyers"], {
        "name": "shill", "colludes_whith": "fresh"}]},
     "unknown key buyers[3].colludes_whith"),
    (lambda d: {**d, "horizn": 30}, "unknown key horizn"),
    (lambda d: {**d, "sellers": _first(d["sellers"], tierr="low")},
     "unknown key sellers[0].tierr"),
    (lambda d: {**d, "buyers": _first(d["buyers"],
                                      policy={"threshold": 0.9})},
     "unknown key buyers[0].policy"),
    (lambda d: {**d, "engine": {"epsilonn": 0.2}},
     "unknown key engine.epsilonn"),
    (lambda d: {**d, "sellers": _first(d["sellers"], strategy={
        "kind": "honest", "qualty": 0.5})},
     "unknown key sellers[0].strategy.qualty"),
    (lambda d: {**d, "sellers": _first(d["sellers"], strategy={
        "kind": ["honest"]})}, "sellers[0].strategy.kind"),
    (lambda d: "[" * 100_000 + "]" * 100_000, "scenario file nested too deeply"),
    (lambda d: {**d, "engine": {"epsilon": 5e-324}}, "epsilon * w_min"),
    (lambda d: {**d, "buyers": _first(d["buyers"], threshold=1.5)},
     "buyers[0]: threshold must lie in [0, 1]"),
    (lambda d: {**d, "buyers": [*d["buyers"], {"tier": "low"}]},
     "buyers[3]: BuyerSpec.__init__() missing 1 required positional "
     "argument: 'name'"),
    (lambda d: {**d, "sellers": _first(d["sellers"], tier="ultra")},
     "sellers[0]: tier must be one of"),
    (lambda d: {**d, "buyers": _first(d["buyers"], threshold=True)},
     "buyers[0]: threshold must be a number, got True"),
    (lambda d: {**d, "buyers": _first(d["buyers"], new_seller_discount=True)},
     "buyers[0]: new_seller_discount must be a number, got True"),
    (lambda d: {**d, "sellers": _first(d["sellers"], strategy={
        "kind": "honest", "quality": True})},
     "sellers[0].strategy: quality must be a number, got True"),
    (lambda d: {**d, "engine": {"c_half": True}},
     "engine: c_half must be a number, got True"),
    (lambda d: {**d, "engine": {"max_delivery_days": False}},
     "engine: max_delivery_days must be a number, got False"),
    (lambda d: {**d, "engine": {"low_max": False}},
     "engine: low_max must be a number, got False"),
    (lambda d: {**d, "initial_trust": {"low": False, "medium": 0.15,
                                       "high": True}},
     "initial_trust[low] must be a number, got False"),
    (lambda d: {**d, "engine": {"c_half": "100"}},
     "engine: c_half must be a number, got '100'"),
    (lambda d: {**d, "price_range": [0, 10 ** 400]}, "bad price_range"),
    (lambda d: {**d, "delivery_range": [1, 10 ** 400]}, "bad delivery_range"),
    (lambda d: {**d, "sellers": _first(d["sellers"], strategy={
        "kind": "value-imbalance", "low_cost": 10 ** 400})},
     "sellers[0].strategy: low_cost must be an int in [0, "),
    (lambda d: {**d, "sellers": _first(d["sellers"], strategy={
        "kind": "value-imbalance", "defect_cost": 10 ** 400})},
     "sellers[0].strategy: defect_cost must be an int in [0, "),
    (lambda d: {**d, "sellers": _first(d["sellers"], strategy={
        "kind": "ballot-stuffing", "quality": 1.5})},
     "sellers[0].strategy: quality must lie in [0, 1]"),
    (lambda d: {**d, "buyers": _first(d["buyers"], new_seller_discount=1.5)},
     "buyers[0]: new_seller_discount must lie in [0, 1]"),
], ids=["pair_global_replacement", "policy", "engine_list", "colludes_with",
        "seller_name", "seller_name_surrogate", "buyer_name_blank",
        "scope_int", "scopes_string", "strategy_string",
        "initial_trust_list", "top_level_list", "fresh_ids_string",
        "refuse_on_avoid_delivery_string", "use_weights_string",
        "buyer_treshold", "extra_buyer_colludes_whith", "top_level_horizn",
        "seller_tierr", "nested_buyer_policy", "engine_epsilonn",
        "strategy_qualty", "strategy_kind_list", "nested_too_deeply",
        "epsilon_w_min_underflow", "buyer_threshold_value",
        "buyer_without_name", "seller_tier_value", "threshold_bool",
        "new_seller_discount_bool", "quality_bool", "c_half_bool",
        "max_delivery_days_bool", "low_max_bool", "initial_trust_bools",
        "c_half_string", "price_range_above_floats",
        "delivery_range_above_floats", "low_cost_above_floats",
        "defect_cost_above_floats", "ballot_stuffing_quality_above_one",
        "new_seller_discount_above_one"])
def test_hostile_scenario_file_is_exit_1(capsys, tmp_path, edit, named):
    # each edit gives a bundled scenario a key that no field has, named by
    # its path, a part of the wrong JSON type, a bad value in an entry,
    # named by the entry's path, or text too deeply nested to parse; the
    # file is refused as it loads, before a trace path is created or
    # truncated.  A string flag would be truthy: "fresh_ids": "false" would
    # turn the whitewash's 24 blocked re-registrations into successful ones;
    # and a bool is no number, though True == 1.  A price or day count
    # above the float range would stop the run where it meets a float
    scenario = tmp_path / "hostile.json"
    hostile = edit(json.loads(ONBOARDING.read_text()))
    scenario.write_text(hostile if isinstance(hostile, str)
                        else json.dumps(hostile))
    trace = tmp_path / "trace.jsonl"
    for existing in (None, "kept\n"):
        if existing is not None:
            trace.write_text(existing)
        for argv in (("simulate",), ("simulate", "--trace", str(trace)),
                     ("compare",)):
            code, out, err = run(capsys, argv[0], str(scenario), *argv[1:])
            assert (code, out) == (1, "")
            assert err.startswith("error:") and named in err
            assert (trace.read_text() if trace.exists() else None) \
                == existing


def test_an_engine_without_weights_is_refused(capsys, tmp_path):
    # the variant is a scenario's one weighting switch: an engine with
    # weights off would run `integrated` as `unweighted`, and `compare`
    # would print the two as one report with every delta 0
    scenario = tmp_path / "unweighted.json"
    data = json.loads((DATA_DIR / "scenarios" / "value_imbalance.json")
                      .read_text())
    scenario.write_text(json.dumps({**data,
                                    "engine": {"use_weights": False}}))
    code, out, err = run(capsys, "compare", str(scenario))
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error:") and 'variant "unweighted"' in line


def test_largest_prices_run_to_a_report(capsys, tmp_path):
    # a price range up to the largest float loads, and the totals of a run,
    # beyond the float range, are reported exactly
    largest = int(sys.float_info.max)
    scenario = tmp_path / "dear.json"
    scenario.write_text(json.dumps({**json.loads(ONBOARDING.read_text()),
                                    "price_range": [largest, largest]}))
    for command in ("simulate", "compare"):
        code, out, _ = run(capsys, command, str(scenario))
        assert code == 0
        spends = re.findall(r"^deals (\d+) spend (\d+) ", out, re.M)
        assert max(int(deals) for deals, _ in spends) > 1
        assert all(int(spend) == int(deals) * largest
                   for deals, spend in spends)


def test_compare_selected_variants(capsys):
    code, out, _ = run(capsys, "compare", str(ONBOARDING),
                       "--variants", "integrated,ebay", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["baseline"] == "integrated"
    assert set(payload["reports"]) == {"integrated", "ebay"}
    assert set(payload["deltas"]) == {"ebay"}


def test_compare_unknown_variant_is_exit_1(capsys):
    for variants, name in (("foo", "'foo'"), ("integrated,bogus", "'bogus'")):
        code, out, err = run(capsys, "compare", str(ONBOARDING),
                             "--variants", variants)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err


# ------------------------------------------------------------------
# statistics
# ------------------------------------------------------------------

def test_stats_freq_builtin(capsys):
    code, out, _ = run(capsys, "stats", "freq")
    assert code == 0
    assert "integrated (n=40)" in out
    assert "tradera (n=40)" in out


def test_stats_summarize_builtin(capsys):
    code, out, _ = run(capsys, "stats", "summarize")
    assert code == 0
    assert "4.175" in out
    assert "2.225" in out
    assert "2.025" in out


def test_stats_kruskal_builtin_decision(capsys):
    code, out, _ = run(capsys, "stats", "kruskal")
    assert code == 0
    assert "critical value (alpha 0.05): 5.99" in out
    assert "decision: REJECT" in out
    assert "rank sum total: 7260" in out
    assert "previously reported figures disagree:" in out
    assert "7133" in out


def test_stats_kruskal_csv_with_reference(capsys):
    code, out, _ = run(capsys, "stats", "kruskal",
                       str(DATA_DIR / "new_seller_support.csv"),
                       "--reference",
                       str(DATA_DIR / "new_seller_support.reference.json"),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reject"] is True
    assert payload["df"] == 2
    assert payload["rank_sums"] == {"integrated": 3894.0, "tradera": 1798.0,
                                    "ebay": 1568.0}
    assert payload["reported_discrepancies"]


@pytest.mark.parametrize("reference", [
    "[1, 2]", '"text"', '{"h": "x"}', '{"critical": null}',
    '{"rank_sums": [1]}', '{"rank_sums": {"a": "x"}}',
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested too deeply"),
    # an int above the float range, which math.isfinite cannot take
    pytest.param('{"h": 1%s}' % ("0" * 400), id="h above floats"),
    pytest.param('{"critical": 1%s}' % ("0" * 400), id="critical above floats"),
    pytest.param('{"rank_sums": {"a": 1%s}}' % ("0" * 400),
                 id="rank sum above floats"),
])
def test_stats_kruskal_malformed_reference_is_exit_1(capsys, tmp_path,
                                                      reference):
    path = tmp_path / "reference.json"
    path.write_text(reference, encoding="utf-8")
    code, out, err = run(capsys, "stats", "kruskal", "--reference", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: reported") and err.count("\n") == 1


def test_stats_kruskal_reference_sums_beyond_floats_are_compared(capsys,
                                                                tmp_path):
    # each rank sum is a finite number, but their total is not
    largest = int(sys.float_info.max)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"rank_sums": {"ebay": largest,
                                              "tradera": largest}}),
                    encoding="utf-8")
    code, out, _ = run(capsys, "stats", "kruskal", "--reference", str(path))
    assert code == 0
    assert "reported rank sums total inf, but N=" in out


def test_stats_kruskal_csv_without_reference_has_no_comparison(capsys, tmp_path):
    data = tmp_path / "flat.csv"
    data.write_text("group,response\n"
                    + "".join(f"a,{v}\n" for v in (1, 2, 3, 4, 5))
                    + "".join(f"b,{v}\n" for v in (1, 2, 3, 4, 5)),
                    encoding="utf-8")
    code, out, _ = run(capsys, "stats", "kruskal", str(data),
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reject"] is False
    assert "reported_discrepancies" not in payload


@pytest.mark.parametrize("text,line", [
    ("group,response\na\n", 2),
    ("group,5,4,3,2,1\nx,1,1,1,1,1\ny,1,1\n", 3),
    ("group,5,5,3\nx,1,2,3\n", 1),
], ids=["long row of one cell", "short frequency row",
        "repeated scale point"])
def test_stats_csv_row_off_its_header_is_exit_1(capsys, tmp_path, text,
                                                 line):
    data = tmp_path / "bad.csv"
    data.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "stats", "kruskal", str(data))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {data}: line {line}: ")


@pytest.mark.parametrize("text,line", [
    ("group,5,4,3,2,1\nx,1,1,1,1,1\ny,1,-1,1,1,1\n", 3),
    ("group,response\na,1\na,2.5\n", 3),
    ("group,response\na,1\nb,2\nb,7\n", 4),
    ("group,5,4,x\nx,1,1,1\n", 1),
], ids=["negative count", "non-integer cell", "response off the scale",
        "non-integer scale point"])
def test_stats_csv_bad_value_names_its_line(capsys, tmp_path, text, line):
    data = tmp_path / "bad.csv"
    data.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "stats", "kruskal", str(data))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {data}: line {line}: ")


def test_stats_kruskal_too_small_group(capsys, tmp_path):
    data = tmp_path / "small.csv"
    data.write_text("group,response\na,1\nb,2\n", encoding="utf-8")
    code, _, err = run(capsys, "stats", "kruskal", str(data))
    assert code == 1
    assert "error:" in err
