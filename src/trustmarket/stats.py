"""Ordinal survey statistics: frequencies, summaries, Kruskal-Wallis.

Works on 5-point agreement responses grouped by treatment.  The rank
arithmetic runs on exact rationals (midranks are halves) so the
rank-sum identity and the H >= 0 property hold bit-exactly, then
results are floated for reporting.  A closed-form chi-square tail
gives the p-value and the critical value; a bundled dataset plus the
figures previously reported for it serve as the worked example, with
`compare_reported` surfacing where those figures fail to add up.
"""

import csv
import math
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyGroup, GroupTooSmall, TooFewGroups, TooFewSamples

LIKERT_MIN = 1
LIKERT_MAX = 5

# display order: strongest agreement first
SCALE_POINTS = (5, 4, 3, 2, 1)

SCALE_LABELS = {
    5: "strongly agree",
    4: "agree",
    3: "neutral",
    2: "disagree",
    1: "strongly disagree",
}


def _check_responses(group) -> list:
    values = list(group)
    for value in values:
        if type(value) is not int:
            raise ValueError(f"responses must be integers, got {value!r}")
        if not LIKERT_MIN <= value <= LIKERT_MAX:
            raise ValueError(
                f"response {value} outside scale {LIKERT_MIN}..{LIKERT_MAX}")
    return values


# ------------------------------------------------------------------
# descriptive statistics
# ------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyTable:
    counts: dict
    relative: dict
    n: int


def frequency_table(group) -> FrequencyTable:
    """Counts and relative frequencies per scale point, 5 down to 1."""
    values = _check_responses(group)
    if not values:
        raise EmptyGroup("cannot tabulate an empty group")
    tally = Counter(values)
    counts = {point: tally.get(point, 0) for point in SCALE_POINTS}
    relative = {point: counts[point] / len(values) for point in SCALE_POINTS}
    return FrequencyTable(counts=counts, relative=relative, n=len(values))


def expand_frequencies(counts: dict) -> list:
    """Inverse of frequency_table: frequency dict back to a flat group."""
    out: list = []
    for point in sorted(counts):
        if point not in SCALE_LABELS:
            raise ValueError(f"unknown scale point {point!r}")
        count = counts[point]
        if count < 0:
            raise ValueError(f"negative count for scale point {point}")
        if count > sys.maxsize:
            raise ValueError(f"count for scale point {point} above "
                             f"{sys.maxsize}")
        out.extend([point] * count)
    return out


def summarize(group) -> dict:
    """Count, min, max, sum, mean, median and sample variance of a group.

    Sample variance uses the n-1 denominator, so two observations are
    the minimum.
    """
    values = _check_responses(group)
    if not values:
        raise EmptyGroup("cannot summarize an empty group")
    if len(values) < 2:
        raise TooFewSamples("sample variance needs at least 2 observations")
    return {
        "count": len(values),
        "min": min(values),
        "max": max(values),
        "sum": sum(values),
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "variance": statistics.variance(values),
    }


# ------------------------------------------------------------------
# rank test
# ------------------------------------------------------------------

def midranks(values) -> dict:
    """Tie-averaged 1-based rank per distinct value, as exact halves."""
    ordered = sorted(values)
    ranks: dict = {}
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j] == ordered[i]:
            j += 1
        # positions i+1 .. j share the average of the ranks they occupy
        ranks[ordered[i]] = Fraction(i + 1 + j, 2)
        i = j
    return ranks


@dataclass(frozen=True)
class KruskalResult:
    h: float
    h_tie_corrected: float
    df: int
    n_total: int
    rank_sums: dict
    midranks: dict
    tie_counts: dict
    rank_sum_total: float
    alpha: float
    critical: float
    p_value: float
    reject: bool


def kruskal_wallis(dataset: dict, alpha: float = 0.05) -> KruskalResult:
    """Tie-aware Kruskal-Wallis H over named groups of ordinal responses.

    H = 12/(N(N+1)) * sum(R_j^2/n_j) - 3(N+1) on midranks, then divided
    by the tie correction 1 - sum(t^3-t)/(N^3-N).  The null hypothesis
    of equal group distributions is rejected when the chi-square upper
    tail of the tie-corrected H at df = k-1 is below alpha.
    """
    groups = {name: _check_responses(values)
              for name, values in dataset.items()}
    if len(groups) < 2:
        raise TooFewGroups(f"need at least 2 groups, got {len(groups)}")
    for name, values in groups.items():
        if len(values) < 5:
            raise GroupTooSmall(
                f"group {name!r} has {len(values)} responses, need at least 5")

    pooled = [value for values in groups.values() for value in values]
    n_total = len(pooled)
    ranks = midranks(pooled)
    rank_sums = {name: sum(ranks[value] for value in values)
                 for name, values in groups.items()}

    h_exact = (Fraction(12, n_total * (n_total + 1))
               * sum(total * total / Fraction(len(groups[name]))
                     for name, total in rank_sums.items())
               - 3 * (n_total + 1))

    tie_counts = dict(sorted(Counter(pooled).items()))
    tie_term = sum(t ** 3 - t for t in tie_counts.values())
    correction = 1 - Fraction(tie_term, n_total ** 3 - n_total)
    # correction hits zero only when every observation is tied; there
    # is no evidence of any group difference then
    h_corrected = h_exact / correction if correction > 0 else Fraction(0)

    df = len(groups) - 1
    p_value = chi_square_sf(float(h_corrected), df)
    return KruskalResult(
        h=float(h_exact),
        h_tie_corrected=float(h_corrected),
        df=df,
        n_total=n_total,
        rank_sums={name: float(total) for name, total in rank_sums.items()},
        midranks={value: float(rank) for value, rank in sorted(ranks.items())},
        tie_counts=tie_counts,
        rank_sum_total=float(sum(rank_sums.values())),
        alpha=alpha,
        critical=chi_square_critical(df, alpha),
        p_value=p_value,
        reject=p_value < alpha,
    )


def chi_square_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of chi-square with integer df >= 1: with
    y = x/2, erfc(sqrt(y)) for odd df plus y^a e^-y / Gamma(a+1) over
    a = df/2 - 1, df/2 - 2, ... >= 0 (Abramowitz & Stegun 1964, ch. 26)."""
    y, half = x / 2, df / 2
    def term(a):                        # from logs: no underflow at large df
        return math.exp(a * math.log(y) - y - math.lgamma(a + 1))
    if y < half:        # one minus the lower tail: the sum wobbles near 1
        lower, a = 0.0, half
        while y > 0 and (t := term(a)) > lower * 1e-17:   # terms fall in a
            lower, a = lower + t, a + 1
        return 1.0 - lower
    return (math.erfc(math.sqrt(y)) if df % 2 else 0.0) + sum(
        term(half - 1 - k) for k in range(df // 2))


def chi_square_critical(df: int, alpha: float) -> float:
    """Upper-tail chi-square quantile: the x whose chi_square_sf is alpha."""
    if not 0 < alpha < 1:                  # NaN fails this too
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    low, high = 0.0, float(df)
    while chi_square_sf(high, df) > alpha:
        low, high = high, 2 * high
    while low < (x := (low + high) / 2) < high:       # to adjacent floats
        low, high = (x, high) if chi_square_sf(x, df) > alpha else (low, x)
    return high


# ------------------------------------------------------------------
# bundled worked example
# ------------------------------------------------------------------

# Survey frequency counts for "the mechanism supports a brand-new
# seller", 40 respondents judging each of three marketplace treatments.
NEW_SELLER_SUPPORT = {
    "integrated": {5: 13, 4: 21, 3: 6, 2: 0, 1: 0},
    "tradera": {5: 0, 4: 4, 3: 10, 2: 17, 1: 9},
    "ebay": {5: 0, 4: 0, 3: 10, 2: 21, 1: 9},
}

# Figures previously reported for the same dataset, kept for
# comparison; compare_reported checks them against a fresh run.
REPORTED_NEW_SELLER_SUPPORT = {
    "h": 63.38,
    "critical": 5.99,
    "rank_sums": {"tradera": 1729.5, "ebay": 1467.5, "integrated": 3936.0},
}


def new_seller_support_dataset() -> dict:
    """The bundled example as flat response groups."""
    return {name: expand_frequencies(counts)
            for name, counts in NEW_SELLER_SUPPORT.items()}


def _check_reported(reported) -> None:
    """Refuse figures that are not {"h": x, "critical": x, "rank_sums":
    {group: x}}, each key optional and each x a finite number."""
    sums = isinstance(reported, dict) and reported.get("rank_sums", {})
    if not isinstance(sums, dict):
        raise ValueError("reported figures must be a JSON object, and their "
                         "rank_sums an object too")
    figures = [(key, reported[key]) for key in ("h", "critical")
               if key in reported]
    figures += [(f"rank sum of {name!r}", value)
                for name, value in sums.items()]
    for label, value in figures:
        # type(), not isinstance(): a bool is no figure; an int above the
        # float range is no finite figure either, and NaN fails the test
        if type(value) not in (int, float) \
                or not abs(value) <= sys.float_info.max:
            raise ValueError(
                f"reported {label} must be a finite number, got {value!r}")


def compare_reported(result: KruskalResult, reported: dict) -> list:
    """Lines describing where previously reported figures disagree.

    Checks the reported rank sums against the exact rank-sum identity
    and against recomputed sums, then the reported H and critical
    value.  Empty list means full agreement at printed precision.
    Raises ValueError on figures of the wrong shape.
    """
    _check_reported(reported)
    lines: list = []
    reported_sums = reported.get("rank_sums", {})
    if reported_sums:
        # in floats: two ints each in the float range may sum beyond it
        total = sum(map(float, reported_sums.values()))
        expected = result.n_total * (result.n_total + 1) / 2
        if total != expected:
            lines.append(
                f"reported rank sums total {total:g}, but N={result.n_total} "
                f"requires exactly {expected:g}")
        for name in sorted(reported_sums):
            ours = result.rank_sums.get(name)
            if ours is not None and abs(ours - reported_sums[name]) > 0.5:
                lines.append(
                    f"reported rank sum {reported_sums[name]:g} for "
                    f"{name!r}, recomputed {ours:g}")
    if "h" in reported and abs(result.h - reported["h"]) > 0.005:
        lines.append(
            f"reported H {reported['h']:g}, recomputed {result.h:.4f} "
            f"(tie-corrected {result.h_tie_corrected:.4f})")
    if "critical" in reported and abs(result.critical - reported["critical"]) > 0.005:
        lines.append(
            f"reported critical value {reported['critical']:g}, "
            f"chi-square gives {result.critical:g}")
    return lines


# ------------------------------------------------------------------
# CSV input
# ------------------------------------------------------------------

def load_likert_csv(path) -> dict:
    """Read grouped responses from either supported CSV layout.

    Long layout: header ``group,response``, one observation per row.
    Frequency layout: header ``group`` followed by scale points, one
    row of counts per group.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows = [(reader.line_num, row) for row in reader if any(row)]
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    header = [cell.strip().lower() for cell in rows[0][1]]
    if header[0] != "group":
        raise ValueError(
            f"{path}: unrecognized header {rows[0][1]!r}; expected "
            f"'group,response' or 'group' followed by scale points")
    long_layout = header == ["group", "response"]
    try:
        points = [] if long_layout else [int(cell) for cell in header[1:]]
    except ValueError as exc:
        raise ValueError(f"{path}: line {rows[0][0]}: {exc}") from None
    if len(set(points)) != len(points):
        raise ValueError(f"{path}: line {rows[0][0]}: repeated scale point")
    dataset: dict = {}
    for line, row in rows[1:]:
        try:
            if len(row) != len(header):
                raise ValueError("wrong number of cells")
            values = (_check_responses([int(row[1])]) if long_layout
                      else expand_frequencies(
                          dict(zip(points, map(int, row[1:])))))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
        dataset.setdefault(row[0].strip(), []).extend(values)
    return dataset


__all__ = [
    "FrequencyTable", "KruskalResult", "frequency_table", "expand_frequencies",
    "summarize", "midranks", "kruskal_wallis", "chi_square_sf", "LIKERT_MIN",
    "chi_square_critical", "compare_reported", "load_likert_csv", "LIKERT_MAX",
    "new_seller_support_dataset", "NEW_SELLER_SUPPORT", "SCALE_POINTS",
    "REPORTED_NEW_SELLER_SUPPORT", "SCALE_LABELS",
]
