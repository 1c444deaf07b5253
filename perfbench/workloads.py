"""The benchmark's three workloads: seeded inputs, one pass, and oracles.

Each workload runs closed loop with one client in one thread: the next
operation starts when the previous one returns.  A pass is a fixed,
seeded sequence of operations; the runner repeats passes, numbered from 0,
until its time is up.  Latencies are taken around each call into trustmarket.  Oracle
checks run outside those timers and, in a traced run, with tracing
suspended, so they neither cost nor count.

- sim-compare: compare_variants over all three variants (researcher flow).
- ledger-cli: in-process cli.main commands on a JSONL ledger (operator flow).
- dense-opinions: compute_opinion and RatingStore.record at high fan-in.
"""

import copy
import hashlib
import io
import json
import random
import shutil
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

from trustmarket import cli, engine, eventlog, identity, ratings, sim
from trustmarket.errors import TrustMarketError

DEFAULT_SEED = 1
DIGESTS = Path(__file__).resolve().parent / "digests.json"

_clock = time.perf_counter_ns
_TIERS = ("low", "medium", "high")


@dataclass
class Tally:
    """Outcomes and samples of every pass in one run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    walls: list = field(default_factory=list)     # ns per pass
    read: list = field(default_factory=list)      # ns per read op
    write: list = field(default_factory=list)     # ns per write op
    rates: list = field(default_factory=list)     # events/s samples
    ends: list = field(default_factory=list)      # per pass: sample counts

    def end_pass(self) -> None:
        """Mark where the samples of the pass that just ended stop."""
        self.ends.append((len(self.read), len(self.write), len(self.rates)))

    def scaled(self, factors) -> "Tally":
        """The samples with pass i's times multiplied (rates divided) by
        factors[i]."""
        out = Tally(self.attempted, self.failed, self.problems)
        start = (0, 0, 0)
        for wall, stop, factor in zip(self.walls, self.ends, factors):
            out.walls.append(wall * factor)
            out.read += [ns * factor for ns in self.read[start[0]:stop[0]]]
            out.write += [ns * factor for ns in self.write[start[1]:stop[1]]]
            out.rates += [rate / factor
                          for rate in self.rates[start[2]:stop[2]]]
            start = stop
        return out

    def check(self, ok: bool, problem: str) -> None:
        """Count one more failure unless ok; keep the first few reasons."""
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)


def _suspended(tracer):
    return nullcontext() if tracer is None else tracer.suspended()


def _tiers(rng, count):
    """`count` tier labels, each tier present once count >= 3."""
    tiers = [_TIERS[i % 3] for i in range(count)]
    rng.shuffle(tiers)
    return tiers


def _credentials(tag: str, tier: str) -> identity.CredentialSet:
    personal = identity.PersonalDetails(
        full_name=f"{tag} holder", address=f"{tag} main street",
        phone=f"555-{tag}", city="Springfield", country="US")
    business = evidence = None
    if tier in ("medium", "high"):
        business = identity.BusinessDetails(
            national_id=f"nid{tag}", bank_or_card=f"card{tag}",
            business_phone=f"556-{tag}", business_address=f"{tag} market road")
    if tier == "high":
        evidence = identity.EvidenceDetails(
            reference_account=f"ref-{tag}", id_document=f"iddoc-{tag}",
            registration_document=f"regdoc-{tag}", signed_declaration=True)
    return identity.CredentialSet(personal=personal, business=business,
                                  evidence=evidence)


def _load_digest(workload: str, size: str):
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(size)


# ------------------------------------------------------------------
# sim-compare
# ------------------------------------------------------------------

# Seller mix at 20 sellers; other roster sizes sample it evenly.
_SELLER_KINDS = (["honest-high"] * 7 + ["honest-low"] * 5
                 + ["value-imbalance"] * 2 + ["reset-fresh"] * 2
                 + ["reset-blocked"] * 2 + ["ballot-stuffing"] * 2)
_STRATEGIES = {
    "honest-high": sim.Honest(quality=0.95),
    "honest-low": sim.Honest(quality=0.7, marginal_rate=0.1),
    "value-imbalance": sim.ValueImbalance(honest_phase=8, low_cost=20,
                                          defect_cost=400),
    "reset-fresh": sim.IdentityReset(defect_after=4, fresh_ids=True),
    "reset-blocked": sim.IdentityReset(defect_after=4, fresh_ids=False),
    "ballot-stuffing": sim.BallotStuffing(fake_raters=3, quality=0.5),
}
# A blocked reset or a fake rater collides only on identity strings,
# which the medium and high tiers carry.
_NEEDS_IDENTITY = {"reset-blocked": "high", "ballot-stuffing": "medium"}


def sim_scenario(seed: int, sellers: int, buyers: int, horizon: int,
                 scopes=("books", "electronics", "garden")) -> sim.Scenario:
    rng = random.Random(f"sim-compare:{seed}")
    kinds = [_SELLER_KINDS[i * len(_SELLER_KINDS) // sellers]
             for i in range(sellers)]
    free_tiers = iter(_tiers(rng, sum(k not in _NEEDS_IDENTITY for k in kinds)))
    seller_specs = tuple(
        sim.SellerSpec(name=f"s{i:02d}-{kind}", strategy=_STRATEGIES[kind],
                       tier=_NEEDS_IDENTITY.get(kind) or next(free_tiers))
        for i, kind in enumerate(kinds))
    stuffer = next(s.name for s in seller_specs if "ballot" in s.name)
    buyer_specs = tuple(
        sim.BuyerSpec(
            name=f"b{i:02d}", tier=tier,
            colludes_with=stuffer if i == 0 else None,
            policy=sim.BuyerPolicy(
                threshold=rng.choice((0.1, 0.2, 0.3)),
                new_seller_discount=rng.choice((0.0, 0.05))))
        for i, tier in enumerate(_tiers(rng, buyers)))
    return sim.Scenario(seed=seed, horizon=horizon, sellers=seller_specs,
                        buyers=buyer_specs, scopes=scopes,
                        price_range=(20, 300), delivery_range=(1, 16))


class SimCompare:
    """compare_variants on generated scenarios; pass k compares scenario k.

    One scenario's cost varies by about 17% with its seed (inter-quartile
    range over seeds, at 20 sellers x 40 buyers), because buyers' choices
    feed back into how many ratings each seller collects.  A run therefore
    walks through a list of scenarios, all made from --seed, and reports
    medians over them; 50 rounds per scenario fit about twenty into a run.

    Two probes split each round (sim.step) into its rating writes
    (RatingStore.record, two per deal) and the rest, which is reading: every
    buyer reads an opinion per open listing.  A write sample is one round's
    writes together, since a single write takes a few microseconds.  The
    probes add two clock reads per call, about 0.2% of a compare's time.
    """

    name = "sim-compare"
    SIZES = {"full": dict(sellers=20, buyers=40, horizon=50, scenarios=32),
             "quick": dict(sellers=10, buyers=12, horizon=12, scenarios=4)}

    def setup(self, seed, size, workdir):
        params = dict(self.SIZES[size])
        scenarios = []
        for index in range(params.pop("scenarios")):
            # A researcher's scenario arrives as JSON, so set-up parses it.
            generated = sim_scenario(seed * 1000 + index, **params)
            scenarios.append(sim.Scenario.from_dict(
                json.loads(json.dumps(generated.to_dict()))))
        return {"scenarios": scenarios, "digests": {}, "rounds": [],
                "golden": _load_digest(self.name, size)
                if seed == DEFAULT_SEED else None}

    def check_setup(self, ctx, tally):
        pass

    @contextmanager
    def instrument(self, ctx):
        """Append (read ns, write ns, writes) to ctx["rounds"] per round."""
        step, record = sim.step, ratings.RatingStore.record
        writing = [0, 0]

        def timed_record(*args, **kwargs):
            start = _clock()
            try:
                return record(*args, **kwargs)
            finally:
                writing[0] += _clock() - start
                writing[1] += 1

        def timed_step(world):
            writing[:] = [0, 0]
            start = _clock()
            try:
                return step(world)
            finally:
                elapsed = _clock() - start
                ctx["rounds"].append((elapsed - writing[0], *writing))
        sim.step, ratings.RatingStore.record = timed_step, timed_record
        try:
            yield
        finally:
            sim.step, ratings.RatingStore.record = step, record

    def run_pass(self, ctx, tally, tracer, number):
        index = number % len(ctx["scenarios"])
        scenario = ctx["scenarios"][index]
        rounds = ctx["rounds"]
        rounds.clear()
        start = _clock()
        comparison = sim.compare_variants(scenario)
        wall = _clock() - start
        tally.read.extend(read for read, _, _ in rounds)
        tally.write.extend(write for _, write, count in rounds if count)
        written = sum(count for _, _, count in rounds)

        deals = 0
        for name, report in comparison.reports.items():
            tally.attempted += 1
            deals += report.completed_deals
            tally.check(
                report.honest_revenue + report.fraud_gain == report.total_spend
                and len(report.rounds) == scenario.horizon
                and sum(r["deals"] for r in report.rounds)
                == report.completed_deals
                and all(r["ratings"] == 2 * r["deals"] for r in report.rounds),
                f"scenario {index} {name}: money or deal totals do not add up")
        tally.check(written == 2 * deals,
                    f"scenario {index}: {written} ratings written for "
                    f"{deals} deals")
        digest = hashlib.sha256(comparison.to_json().encode("utf-8")).hexdigest()
        tally.check(ctx["digests"].setdefault(index, digest) == digest,
                    f"scenario {index}: compare JSON differs between passes")
        if index == 0 and ctx["golden"] is not None:
            tally.check(digest == ctx["golden"],
                        f"compare JSON sha256 {digest} != stored digest")
        tally.rates.append(2 * deals / (wall / 1e9))
        return wall

    def eventlog_ms_per_kevent(self, ctx, tracer):
        return 0.0


# ------------------------------------------------------------------
# ledger-cli
# ------------------------------------------------------------------

_LEDGER_SCOPES = ("books", "electronics", "garden")
_UNKNOWN = "A999999"


def _opinion_json(opinion) -> dict:
    """The fields `opinion --format json` prints, from a library opinion."""
    direct = opinion.direct
    return {
        "seller": opinion.seller, "scope": opinion.scope,
        "recommended": opinion.recommended,
        "recommended_source": opinion.recommended_source,
        "unit_score": opinion.unit_score,
        "display_score": opinion.display_score,
        "label": opinion.label, "tier": opinion.tier.label,
        "direct": None if direct is None else {
            "value": direct.value, "scope": direct.scope, "at": direct.at,
            "cross_scope": direct.cross_scope},
        "advisories": sorted(opinion.advisories),
        "revision": opinion.revision,
    }


def _register_argv(credentials: identity.CredentialSet) -> list:
    personal, business, evidence = (credentials.personal, credentials.business,
                                    credentials.evidence)
    argv = ["register", "--full-name", personal.full_name,
            "--address", personal.address, "--phone", personal.phone,
            "--city", personal.city, "--country", personal.country]
    if business is not None:
        argv += ["--national-id", business.national_id,
                 "--bank-or-card", business.bank_or_card,
                 "--business-phone", business.business_phone,
                 "--business-address", business.business_address]
    if evidence is not None:
        argv += ["--reference-account", evidence.reference_account,
                 "--id-document", evidence.id_document,
                 "--registration-document", evidence.registration_document,
                 "--signed-declaration"]
    return argv


class LedgerCli:
    """cli.main commands against a pre-built ledger; a pass is a fixed mix
    of commands and starts from an identical copy of that ledger.

    The benchmark keeps a library mirror (Registry and RatingStore driven
    directly) of what the ledger should hold, and checks every command's
    exit code and output against it.
    """

    name = "ledger-cli"
    SIZES = {
        "full": dict(sellers=40, buyers=80, events=2000,
                     mix=dict(opinion=26, rate=26, register=2, replay=3)),
        "quick": dict(sellers=6, buyers=12, events=150,
                      mix=dict(opinion=6, rate=6, register=1, replay=2)),
    }

    def setup(self, seed, size, workdir):
        params = self.SIZES[size]
        rng = random.Random(f"ledger-cli:{seed}")
        pristine = Path(workdir) / "pristine.jsonl"
        pristine.unlink(missing_ok=True)
        log = eventlog.EventLog(pristine)
        mirror = eventlog.MarketState()
        accounts = params["sellers"] + params["buyers"]
        credentials = {}
        for index, tier in enumerate(_tiers(rng, accounts)):
            creds = _credentials(f"{seed}x{index:04d}", tier)
            account = mirror.registry.register(creds)
            credentials[account.account_id] = creds
            log.append(eventlog.KIND_REGISTER, {
                "credentials": creds.to_dict(), "is_seller": True,
                "is_buyer": True})
        ids = sorted(credentials)
        sellers, buyers = ids[:params["sellers"]], ids[params["sellers"]:]
        quality = {s: rng.choice((0.95, 0.8, 0.6)) for s in sellers}
        for seq in range(accounts + 1, params["events"] + 1):
            seller, buyer = rng.choice(sellers), rng.choice(buyers)
            if rng.random() < 0.7:
                rater, ratee = buyer, seller
                value = 1 if rng.random() < quality[seller] else rng.choice((0, -1))
            else:
                rater, ratee, value = seller, buyer, rng.choice((1, 1, 1, -1))
            rating = ratings.Rating(rater=rater, ratee=ratee,
                                    scope=rng.choice(_LEDGER_SCOPES),
                                    value=value,
                                    cost=float(rng.randint(5, 500)), at=seq)
            mirror.store.record(rating, registry=mirror.registry)
            log.append(eventlog.KIND_RATING, {
                "rater": rater, "ratee": ratee, "scope": rating.scope,
                "value": value, "cost": rating.cost, "at": seq}, at=seq)
        mirror.last_seq = log.last_seq
        ledger = Path(workdir) / "ledger.jsonl"
        return {"pristine": pristine, "ledger": ledger, "mirror": mirror,
                "commands": self._commands(rng, seed, params, sellers, buyers,
                                           credentials),
                "lengths": []}

    def _commands(self, rng, seed, params, sellers, buyers, credentials):
        """One pass: (kind, argv, oracle arguments), in seeded order."""
        commands = []
        for _ in range(params["mix"]["opinion"]):
            buyer, seller = rng.choice(buyers), rng.choice(sellers)
            scope = rng.choice(_LEDGER_SCOPES)
            price, days = rng.randint(5, 500), rng.randint(0, 20)
            deliverable = rng.random() > 0.05
            argv = ["opinion", "--buyer", buyer, "--seller", seller,
                    "--scope", scope, "--price", str(price),
                    "--delivery-days", str(days)]
            if not deliverable:
                argv.append("--not-deliverable")
            listing = engine.ListingContext(scope=scope, price=float(price),
                                            delivery_days=float(days),
                                            deliverable=deliverable)
            commands.append(("opinion", argv, (buyer, seller, listing)))
        for _ in range(params["mix"]["rate"]):
            seller, buyer = rng.choice(sellers), rng.choice(buyers)
            rater, ratee = (buyer, seller) if rng.random() < 0.7 else (seller, buyer)
            scope, value = rng.choice(_LEDGER_SCOPES), rng.choice((1, 1, 1, 0, -1))
            cost = rng.randint(5, 500)
            commands.append(("rate", [
                "rate", "--rater", rater, "--ratee", ratee, "--scope", scope,
                "--value", str(value), "--cost", str(cost)],
                (rater, ratee, scope, value, float(cost))))
        for index in range(params["mix"]["register"]):
            creds = _credentials(f"{seed}n{index:04d}", rng.choice(_TIERS))
            commands.append(("register", _register_argv(creds), creds))
        for _ in range(params["mix"]["replay"]):
            commands.append(("replay", ["replay"], None))
        # Expected refusals: a reused national id written differently,
        # a self-rating, and an opinion about an unknown account.
        victim = rng.choice([c for c in credentials.values()
                             if c.business is not None])
        reused = _credentials(f"{seed}dup", "medium")
        reused = replace(reused, business=replace(
            reused.business,
            national_id="-".join(victim.business.national_id.upper())))
        commands.append(("register", _register_argv(reused), reused))
        selfish = rng.choice(sellers)
        commands.append(("rate", ["rate", "--rater", selfish, "--ratee", selfish,
                                  "--scope", "books", "--value", "1"],
                         (selfish, selfish, "books", 1, 0.0)))
        buyer = rng.choice(buyers)
        commands.append(("opinion", [
            "opinion", "--buyer", buyer, "--seller", _UNKNOWN,
            "--scope", "books", "--price", "10"],
            (buyer, _UNKNOWN, engine.ListingContext(scope="books", price=10.0))))
        rng.shuffle(commands)
        return commands

    def check_setup(self, ctx, tally):
        tally.attempted += 1
        tally.check(eventlog.replay(ctx["pristine"]).describe()
                    == ctx["mirror"].describe(),
                    "pre-built ledger does not replay to its mirror")

    def instrument(self, ctx):
        return nullcontext()

    @staticmethod
    def _expect(kind, oracle, mirror):
        """Apply one command to the mirror: (exit code, JSON payload)."""
        try:
            if kind == "opinion":
                buyer, seller, listing = oracle
                return 0, _opinion_json(engine.compute_opinion(
                    buyer, seller, listing, mirror.store, mirror.registry))
            if kind == "rate":
                rater, ratee, scope, value, cost = oracle
                at = mirror.last_seq + 1
                mirror.store.record(ratings.Rating(rater, ratee, scope, value,
                                                   cost, at),
                                    registry=mirror.registry)
                mirror.last_seq = at
                return 0, {"rater": rater, "ratee": ratee, "scope": scope,
                           "value": value, "at": at}
            if kind == "register":
                account = mirror.registry.register(oracle)
                mirror.last_seq += 1
                return 0, {"account_id": account.account_id,
                           "tier": account.tier.label,
                           "initial_trust": identity.initial_trust(account.tier)}
            return 0, json.loads(json.dumps(mirror.describe()))
        except TrustMarketError:
            return 1, None

    def run_pass(self, ctx, tally, tracer, number):
        ledger = ctx["ledger"]
        shutil.copyfile(ctx["pristine"], ledger)
        mirror = copy.deepcopy(ctx["mirror"])
        path = str(ledger)
        wall = 0
        for kind, argv, oracle in ctx["commands"]:
            argv = argv + ([path] if kind == "replay" else ["--log", path])
            argv += ["--format", "json"]
            before = ledger.stat().st_size
            if tracer is not None:
                ctx["lengths"].append(mirror.last_seq)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                start = _clock()
                code = cli.main(argv)
                elapsed = _clock() - start
            wall += elapsed
            events = mirror.last_seq
            with _suspended(tracer):
                want_code, want = self._expect(kind, oracle, mirror)
            tally.attempted += 1
            if want_code != 0:
                tally.check(code == want_code and not out.getvalue()
                            and ledger.stat().st_size == before,
                            f"{kind} {argv[1:5]} should be refused, leaving "
                            f"the ledger alone (exit {code})")
                continue
            try:
                got = json.loads(out.getvalue())
            except json.JSONDecodeError:
                got = None
            tally.check(code == 0 and got == want,
                        f"{kind} {argv[1:5]}: exit {code}, output differs "
                        f"from the mirror ({err.getvalue().strip()})")
            if kind == "opinion":
                tally.read.append(elapsed)
            elif kind == "rate":
                tally.write.append(elapsed)
            elif kind == "replay":
                tally.rates.append(events / (elapsed / 1e9))
        with _suspended(tracer):
            tally.attempted += 1
            tally.check(eventlog.replay(ledger).describe() == mirror.describe(),
                        "ledger after the pass does not replay to the mirror")
        return wall

    def eventlog_ms_per_kevent(self, ctx, tracer):
        """Median over commands of ledger-layer time per 1000 ledger events.

        The ledger layer (replay, opening the log, append) is the part of a
        command that scans the ledger, so this is the slope of command
        latency in ledger length, taken through the origin.
        """
        mains = [i for i, span in enumerate(tracer.spans) if span[0] == "cli.main"]
        layer = defaultdict(int)
        for name, parent, start, end in tracer.spans:
            if name in ("eventlog.replay", "eventlog.open", "eventlog.append"):
                layer[parent] += end - start
        per_kevent = [layer[index] / 1e6 / (length / 1000)
                      for index, length in zip(mains, ctx["lengths"])]
        return statistics.median(per_kevent) if per_kevent else 0.0


# ------------------------------------------------------------------
# dense-opinions
# ------------------------------------------------------------------

_DENSE_SCOPES = ("books", "garden")


def brute_opinion(snapshot: dict, registry, buyer, seller, listing, config):
    """Reference opinion recomputed from a store snapshot by full scans.

    Returns (source, recommended, display_score, label, advisories, direct
    value or None).  Sums run in rater order, as the engine's do.
    """
    received = defaultdict(list)
    for rating in snapshot.values():
        received[rating.ratee].append(rating)
    trust = config.policy.initial_trust
    mine = sorted((r for r in received[seller] if r.scope == listing.scope),
                  key=lambda r: r.rater)
    advisories = set()
    if mine:
        numerator = denominator = 0.0
        for rating in mine:
            got = received.get(rating.rater)
            if got:
                credibility = (sum(r.value for r in got) / len(got) + 1.0) / 2.0
            else:
                credibility = trust[registry.get(rating.rater).tier]
            weight = (max(config.epsilon, credibility)
                      * max(config.w_min,
                            rating.cost / (rating.cost + config.c_half)))
            numerator += weight * rating.value
            denominator += weight
        recommended = numerator / denominator
        source, unit = "ratings", (recommended + 1.0) / 2.0
    else:
        advisories.add("new-in-scope" if received[seller] else "new-seller")
        recommended = trust[registry.get(seller).tier]
        source, unit = "initial-trust", recommended
    if listing.delivery_days > config.max_delivery_days or not listing.deliverable:
        advisories.add("avoid-delivery")
    label = ("low" if unit <= config.low_max
             else "medium" if unit <= config.med_max else "high")
    own = [r for r in received[seller] if r.rater == buyer]
    same = [r for r in own if r.scope == listing.scope]
    direct = (same[0] if same else max(own, key=lambda r: r.at) if own
              else None)
    return (source, recommended, round(100.0 * max(unit, 0.0)), label,
            frozenset(advisories), None if direct is None else direct.value)


class DenseOpinions:
    """compute_opinion queries with RatingStore.record replacements beside
    them, on a store where seller fan-in runs from about 50 to 1000 raters
    and every rater has itself been rated."""

    name = "dense-opinions"
    SIZES = {"full": dict(sellers=20, buyers=1000, fanin=(50, 1000),
                          queries_per_seller=8, check_every=16),
             "quick": dict(sellers=6, buyers=80, fanin=(10, 80),
                           queries_per_seller=4, check_every=3)}
    WRITE_EVERY = 5

    def setup(self, seed, size, workdir):
        params = self.SIZES[size]
        rng = random.Random(f"dense-opinions:{seed}")
        registry, store = identity.Registry(), ratings.RatingStore()
        count = params["sellers"]
        sellers = [registry.register(_credentials(f"s{seed}x{i}", tier)).account_id
                   for i, tier in enumerate(_tiers(rng, count))]
        buyers = [registry.register(_credentials(f"b{seed}x{i}", tier)).account_id
                  for i, tier in enumerate(_tiers(rng, params["buyers"]))]
        low, high = params["fanin"]
        fanins = [round(low * (high / low) ** (i / (count - 1)))
                  for i in range(count)]
        rng.shuffle(fanins)
        at = 0
        keys, raters, fanin = [], {}, defaultdict(int)
        for seller, width in zip(sellers, fanins):
            quality = rng.choice((0.95, 0.8, 0.6))
            raters[seller] = rng.sample(buyers, width)
            for buyer in raters[seller]:
                scope = rng.choice(_DENSE_SCOPES)
                cost = float(rng.randint(5, 500))
                value = 1 if rng.random() < quality else rng.choice((0, -1))
                back = rng.choice((1, 1, 1, 0, -1))
                for rater, ratee, stars in ((buyer, seller, value),
                                            (seller, buyer, back)):
                    at += 1
                    store.record(ratings.Rating(rater, ratee, scope, stars,
                                                cost, at), registry=registry)
                    keys.append((rater, ratee, scope))
                fanin[seller, scope] += 1
        ops = []
        for _ in range(params["queries_per_seller"]):
            for seller in rng.sample(sellers, count):
                buyer = (rng.choice(raters[seller]) if rng.random() < 0.5
                         else rng.choice(buyers))
                listing = engine.ListingContext(
                    scope=rng.choice(_DENSE_SCOPES),
                    price=float(rng.randint(5, 500)),
                    delivery_days=float(rng.randint(1, 20)))
                ops.append(("query", (buyer, seller, listing)))
                if len(ops) % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                    ops.append(("record", (rng.choice(keys),
                                           rng.choice((1, 1, 0, -1)),
                                           float(rng.randint(5, 500)))))
        return {"registry": registry, "store": store, "ops": ops, "at": at,
                "fanin": dict(fanin), "check_every": params["check_every"]}

    def check_setup(self, ctx, tally):
        pass

    def instrument(self, ctx):
        return nullcontext()

    def run_pass(self, ctx, tally, tracer, number):
        registry, store = ctx["registry"], ctx["store"]
        config = engine.DEFAULT_ENGINE
        check_every = ctx["check_every"]
        wall = read_ns = rows = queries = 0
        for kind, args in ctx["ops"]:
            tally.attempted += 1
            if kind == "record":
                (rater, ratee, scope), value, cost = args
                ctx["at"] += 1
                size, revision = len(store), store.revision
                start = _clock()
                store.record(ratings.Rating(rater, ratee, scope, value, cost,
                                            ctx["at"]), registry=registry)
                elapsed = _clock() - start
                tally.write.append(elapsed)
                wall += elapsed
                tally.check(len(store) == size and store.revision == revision + 1,
                            "record did not replace exactly one rating")
                continue
            buyer, seller, listing = args
            start = _clock()
            opinion = engine.compute_opinion(buyer, seller, listing, store,
                                             registry)
            elapsed = _clock() - start
            tally.read.append(elapsed)
            wall += elapsed
            read_ns += elapsed
            rows += ctx["fanin"].get((seller, listing.scope), 0)
            queries += 1
            if (queries + number) % check_every:
                continue
            with _suspended(tracer):
                want = brute_opinion(store.snapshot(), registry, buyer, seller,
                                     listing, config)
            got = (opinion.recommended_source, opinion.recommended,
                   opinion.display_score, opinion.label, opinion.advisories,
                   None if opinion.direct is None else opinion.direct.value)
            tally.check(got[0] == want[0] and abs(got[1] - want[1]) <= 1e-12
                        and got[2:] == want[2:],
                        f"opinion on {seller} in {listing.scope}: {got} != {want}")
        tally.rates.append(rows / (read_ns / 1e9))
        return wall

    def eventlog_ms_per_kevent(self, ctx, tracer):
        return 0.0


WORKLOADS = {w.name: w for w in (SimCompare, LedgerCli, DenseOpinions)}
