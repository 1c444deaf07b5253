"""Command-line front end: ledger operations, simulation, statistics.

Ledger subcommands (register, rate, opinion, replay) work against an
append-only event log.  register and rate build one event, and under one
exclusive lock replay the log, apply the event through
`eventlog.apply_event`, as replay and the simulator write state, and
append it; a refused event writes nothing and keeps the library's own
message, since only replay reports a malformed payload as `CorruptLog`.
simulate and compare run scenario files, stats covers the survey
arithmetic.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace

from .engine import DEFAULT_ENGINE, ListingContext, compute_opinion
from .errors import TrustMarketError
from .eventlog import (KIND_RATING, KIND_REGISTER, EventLog, apply_event,
                       next_record, replay)
from .identity import (BLOCK_KINDS, CredentialSet, PersonalDetails,
                       initial_trust)
from .ratings import RATING_VALUES, normalize_scope
from .sim import Scenario, VARIANTS, compare_variants, run_scenario
from .stats import (REPORTED_NEW_SELLER_SUPPORT, SCALE_LABELS, compare_reported,
                    frequency_table, kruskal_wallis, load_likert_csv,
                    new_seller_support_dataset, summarize)

DEFAULT_LOG = "market.jsonl"


def _log_path(args) -> str:
    return args.log or os.environ.get("TRUSTMARKET_LOG", DEFAULT_LOG)


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ------------------------------------------------------------------
# ledger subcommands
# ------------------------------------------------------------------

def _credentials_from_args(args) -> CredentialSet:
    """The personal block, and each later block one of whose flags is set."""
    blocks = []
    for kind in BLOCK_KINDS:
        values = {spec.name: getattr(args, spec.name) for spec in fields(kind)}
        blocks.append(kind(**values) if kind is PersonalDetails
                      or any(values.values()) else None)
    return CredentialSet(*blocks)


def cmd_register(args) -> int:
    payload = {"credentials": _credentials_from_args(args).to_dict()}
    log = EventLog(_log_path(args))
    with log.locked() as state:
        account = apply_event(
            next_record(state.last_seq, KIND_REGISTER, payload), state)
        log.append(KIND_REGISTER, payload)
    trust = initial_trust(account.tier)
    _emit(args,
          {"account_id": account.account_id, "tier": account.tier.label,
           "initial_trust": trust},
          [f"registered {account.account_id} tier {account.tier.label} "
           f"(initial trust {trust:.2f})"])
    return 0


def cmd_rate(args) -> int:
    log = EventLog(_log_path(args))
    with log.locked() as state:
        at, scope = state.last_seq + 1, normalize_scope(args.scope)
        payload = {"rater": args.rater, "ratee": args.ratee, "scope": scope,
                   "value": args.value, "cost": args.cost, "at": at}
        apply_event(next_record(state.last_seq, KIND_RATING, payload, at),
                    state)
        log.append(KIND_RATING, payload, at=at)
    _emit(args,
          {"rater": args.rater, "ratee": args.ratee, "scope": scope,
           "value": args.value, "at": at},
          [f"recorded {args.value:+d} from {args.rater} on {args.ratee} "
           f"in {scope}"])
    return 0


def _opinion_payload(opinion) -> dict:
    return {**asdict(opinion), "tier": opinion.tier.label,
            "advisories": sorted(opinion.advisories)}


def cmd_opinion(args) -> int:
    state = EventLog(_log_path(args)).read_state()
    config = DEFAULT_ENGINE
    if args.max_delivery_days is not None:
        config = replace(config, max_delivery_days=args.max_delivery_days)
    listing = ListingContext(scope=args.scope, price=args.price,
                             delivery_days=args.delivery_days,
                             deliverable=not args.not_deliverable)
    opinion = compute_opinion(args.buyer, args.seller, listing,
                              state.store, state.registry, config)
    if opinion.is_fallback:
        recommended = f"{opinion.recommended:.2f}"
    else:
        recommended = f"{opinion.recommended:.4f}"
    lines = [
        f"seller: {opinion.seller}",
        f"scope: {opinion.scope}",
        f"recommended: {recommended} (source {opinion.recommended_source})",
        f"score: {opinion.display_score}/100 label {opinion.label} "
        f"tier {opinion.tier.label}",
    ]
    if opinion.direct is not None:
        suffix = " (other scope)" if opinion.direct.cross_scope else ""
        lines.append(f"direct: {opinion.direct.value:+d} in "
                     f"{opinion.direct.scope}{suffix}")
    else:
        lines.append("direct: none")
    lines.append("advisories: " + (", ".join(sorted(opinion.advisories))
                                   or "none"))
    _emit(args, _opinion_payload(opinion), lines)
    return 0


def cmd_replay(args) -> int:
    state = replay(args.logfile)
    if state.torn_line is not None:
        print(f"warning: line {state.torn_line} is an unterminated (torn) "
              f"write and was skipped", file=sys.stderr)
    described = state.describe()
    lines = [
        f"accounts: {len(described['accounts'])}",
        f"ratings: {len(described['ratings'])} "
        f"(store revision {described['revision']})",
        f"rejections: {len(state.rejections)}",
    ]
    for line_no, seq, message in state.rejections:
        lines.append(f"  line {line_no} seq {seq}: {message}")
    _emit(args, described, lines)
    return 0


# ------------------------------------------------------------------
# simulation subcommands
# ------------------------------------------------------------------

def _read_json(path, what: str):
    """The JSON value in the file at `path`, refused as `what` when it is
    nested too deeply to parse."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError as exc:
            raise ValueError(f"{what} nested too deeply") from exc


def _load_scenario(path) -> Scenario:
    return Scenario.from_dict(_read_json(path, "scenario file"))


def _report_lines(report) -> list:
    lines = [
        f"variant {report.variant} seed {report.seed} "
        f"horizon {report.horizon}",
        f"deals {report.completed_deals} spend {report.total_spend} "
        f"honest {report.honest_revenue} fraud {report.fraud_gain}",
        f"blocked duplicate registrations "
        f"{report.blocked_duplicate_registrations}",
        "time to first sale: " + ", ".join(
            f"{name}={value}" for name, value
            in report.time_to_first_sale.items()),
        "final scores: " + ", ".join(
            f"{name}={values[-1]:.3f}" for name, values
            in report.trajectories.items()),
    ]
    if report.trust_calibration is not None:
        lines.append(f"trust calibration {report.trust_calibration:.3f}")
    return lines


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    events = []         # the run's event stream, kept only for a trace
    report = run_scenario(scenario,
                          sink=events.append if args.trace else None)
    if args.trace:
        # written once the run is done, replacing any file already there,
        # with one write and one fsync
        open(args.trace, "wb").close()
        log = EventLog(args.trace)
        with log.locked():
            for record in events:
                log.append(record.kind, record.payload, at=record.at)
    if args.format == "json":
        print(report.to_json())
    else:
        for line in _report_lines(report):
            print(line)
    return 0


def cmd_compare(args) -> int:
    scenario = _load_scenario(args.scenario)
    variants = tuple(args.variants.split(",")) if args.variants else VARIANTS
    comparison = compare_variants(scenario, variants)
    if args.format == "json":
        print(comparison.to_json())
        return 0
    for name, report in comparison.reports.items():
        print(f"--- {name} ---")
        for line in _report_lines(report):
            print(line)
    print(f"--- deltas vs {comparison.baseline} ---")
    for name, delta in comparison.deltas.items():
        # an int delta exactly: a sum of prices may lie beyond the floats
        parts = ", ".join(f"{metric}={value:+d}" if type(value) is int
                          else f"{metric}={value:+g}"
                          for metric, value in delta.items())
        print(f"{name}: {parts}")
    return 0


# ------------------------------------------------------------------
# statistics subcommands
# ------------------------------------------------------------------

def _load_dataset(args) -> dict:
    if args.data:
        return load_likert_csv(args.data)
    return new_seller_support_dataset()


def cmd_stats_freq(args) -> int:
    dataset = _load_dataset(args)
    payload = {}
    lines = []
    for name in sorted(dataset):
        table = frequency_table(dataset[name])
        payload[name] = {"counts": {str(k): v for k, v
                                    in table.counts.items()},
                         "n": table.n}
        lines.append(f"{name} (n={table.n})")
        for point, count in table.counts.items():
            lines.append(f"  {point} {SCALE_LABELS[point]:<17} "
                         f"{count:>4}  {table.relative[point]:6.1%}")
    _emit(args, payload, lines)
    return 0


def cmd_stats_summarize(args) -> int:
    dataset = _load_dataset(args)
    payload = {}
    header = f"{'group':<12}{'count':>6}{'min':>5}{'max':>5}{'sum':>6}" \
             f"{'mean':>8}{'median':>8}{'variance':>10}"
    lines = [header]
    for name in sorted(dataset):
        summary = summarize(dataset[name])
        payload[name] = summary
        lines.append(
            f"{name:<12}{summary['count']:>6}{summary['min']:>5}"
            f"{summary['max']:>5}{summary['sum']:>6}"
            f"{summary['mean']:>8.3f}{summary['median']:>8g}"
            f"{summary['variance']:>10.4f}")
    _emit(args, payload, lines)
    return 0


def cmd_stats_kruskal(args) -> int:
    dataset = _load_dataset(args)
    result = kruskal_wallis(dataset, alpha=args.alpha)
    reported = None
    if args.reference:
        reported = _read_json(args.reference, "reported figures")
    elif not args.data:
        reported = REPORTED_NEW_SELLER_SUPPORT
    sizes = ", ".join(f"{name} (n={len(dataset[name])})"
                      for name in sorted(dataset))
    lines = [
        f"groups: {sizes}",
        f"H: {result.h:.4f}",
        f"H (tie-corrected): {result.h_tie_corrected:.4f}",
        f"df: {result.df}",
        f"critical value (alpha {result.alpha:g}): {result.critical:.2f}",
        f"p-value: {result.p_value:.3g}",
        f"decision: {'REJECT' if result.reject else 'RETAIN'}",
        "rank sums: " + ", ".join(
            f"{name}={total:g}"
            for name, total in sorted(result.rank_sums.items())),
        f"rank sum total: {result.rank_sum_total:g}",
    ]
    payload = {
        "h": result.h, "h_tie_corrected": result.h_tie_corrected,
        "df": result.df, "critical": result.critical,
        "alpha": result.alpha, "p_value": result.p_value,
        "reject": result.reject, "rank_sums": result.rank_sums,
        "rank_sum_total": result.rank_sum_total,
        "midranks": {str(k): v for k, v in result.midranks.items()},
    }
    if reported is not None:
        discrepancies = compare_reported(result, reported)
        payload["reported_discrepancies"] = discrepancies
        if discrepancies:
            lines.append("previously reported figures disagree:")
            lines.extend(f"  {line}" for line in discrepancies)
    _emit(args, payload, lines)
    return 0


# ------------------------------------------------------------------
# parser
# ------------------------------------------------------------------

def _add_format(parser) -> None:
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustmarket",
        description="trust-aware marketplace toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="register an account on the ledger")
    p.add_argument("--log", help="event log path")
    for kind in BLOCK_KINDS:
        for spec in fields(kind):
            flag = "--" + spec.name.replace("_", "-")
            if spec.type is bool:
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag, required=kind is PersonalDetails,
                               default="")
    _add_format(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("rate", help="record a rating on the ledger")
    p.add_argument("--log", help="event log path")
    p.add_argument("--rater", required=True)
    p.add_argument("--ratee", required=True)
    p.add_argument("--scope", required=True)
    p.add_argument("--value", type=int, choices=RATING_VALUES, required=True)
    p.add_argument("--cost", type=float, default=0.0)
    _add_format(p)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("opinion", help="trust opinion for a listing")
    p.add_argument("--log", help="event log path")
    p.add_argument("--buyer", required=True)
    p.add_argument("--seller", required=True)
    p.add_argument("--scope", required=True)
    p.add_argument("--price", type=float, required=True)
    p.add_argument("--delivery-days", type=float, default=0.0)
    p.add_argument("--not-deliverable", action="store_true")
    p.add_argument("--max-delivery-days", type=float, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_opinion)

    p = sub.add_parser("replay", help="rebuild state from an event log")
    p.add_argument("logfile")
    _add_format(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("scenario")
    p.add_argument("--trace", help="write a replayable event trace here")
    _add_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run a scenario under variants")
    p.add_argument("scenario")
    p.add_argument("--variants",
                   help="comma-separated subset of " + ",".join(VARIANTS))
    _add_format(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stats", help="survey statistics")
    stats_sub = p.add_subparsers(dest="stats_command", required=True)
    for name, func in (("freq", cmd_stats_freq),
                       ("summarize", cmd_stats_summarize),
                       ("kruskal", cmd_stats_kruskal)):
        sp = stats_sub.add_parser(name)
        sp.add_argument("data", nargs="?",
                        help="CSV dataset; bundled example when omitted")
        if name == "kruskal":
            sp.add_argument("--alpha", type=float, default=0.05)
            sp.add_argument("--reference",
                            help="JSON file of previously reported figures")
        _add_format(sp)
        sp.set_defaults(func=func)
    return parser


# Built by the first main() call and kept for the process: building it
# costs about twenty times a parse.  Each parse returns a fresh namespace,
# and the cmd_* functions look up their globals when they run.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (TrustMarketError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
