import json
import math
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustmarket.cli import main
from trustmarket.errors import (EmptyGroup, GroupTooSmall, TooFewGroups,
                                TooFewSamples)
from trustmarket.stats import (NEW_SELLER_SUPPORT, REPORTED_NEW_SELLER_SUPPORT,
                               chi_square_critical, chi_square_sf,
                               compare_reported, expand_frequencies,
                               frequency_table, kruskal_wallis,
                               load_likert_csv, midranks,
                               new_seller_support_dataset, summarize)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# Upper-tail critical values to three digits, the printed table a desk
# analysis uses, by df and then alpha 0.10, 0.05, 0.01.
PRINTED_TABLE = {
    1: (2.706, 3.841, 6.635),
    2: (4.605, 5.991, 9.210),
    3: (6.251, 7.815, 11.345),
    4: (7.779, 9.488, 13.277),
    5: (9.236, 11.070, 15.086),
    6: (10.645, 12.592, 16.812),
    7: (12.017, 14.067, 18.475),
    8: (13.362, 15.507, 20.090),
    9: (14.684, 16.919, 21.666),
    10: (15.987, 18.307, 23.209),
}
TABLE_ALPHAS = (0.10, 0.05, 0.01)


# ------------------------------------------------------------------
# oracles, implemented independently of the module under test
# ------------------------------------------------------------------

def rank_sums_by_explicit_sort(groups):
    """Per-observation ranking: sort with provenance, average tied runs."""
    pooled = [(value, name) for name, values in groups.items()
              for value in values]
    pooled.sort(key=lambda pair: pair[0])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(pooled):
        j = i
        while j < len(pooled) and pooled[j][0] == pooled[i][0]:
            j += 1
        shared = (i + j + 1) / 2       # mean of positions i+1 .. j
        for k in range(i, j):
            ranks[k] = shared
        i = j
    sums = defaultdict(float)
    for (value, name), rank in zip(pooled, ranks):
        sums[name] += rank
    return dict(sums)


def h_by_oracle(groups):
    sums = rank_sums_by_explicit_sort(groups)
    n_total = sum(len(values) for values in groups.values())
    return (12.0 / (n_total * (n_total + 1))
            * sum(sums[name] ** 2 / len(values)
                  for name, values in groups.items())
            - 3.0 * (n_total + 1))


def chi2_cdf(x, df):
    """Lower CDF via the regularized incomplete gamma recurrence."""
    y = x / 2.0
    if df % 2 == 0:
        p = 1.0 - math.exp(-y)
        a = 1.0
    else:
        p = math.erf(math.sqrt(y))
        a = 0.5
    while a + 1 <= df / 2 + 1e-9:
        p -= math.exp(a * math.log(y) - y - math.lgamma(a + 1))
        a += 1
    return p


# ------------------------------------------------------------------
# frequencies
# ------------------------------------------------------------------

def test_bundled_frequency_tables():
    dataset = new_seller_support_dataset()
    for name, counts in NEW_SELLER_SUPPORT.items():
        table = frequency_table(dataset[name])
        assert table.counts == counts
        assert table.n == 40
        assert sum(table.relative.values()) == pytest.approx(1.0)


def test_constant_group_frequency():
    table = frequency_table([4] * 40)
    assert table.counts == {5: 0, 4: 40, 3: 0, 2: 0, 1: 0}
    assert table.relative[4] == 1.0


def test_frequency_rejects_empty_and_out_of_scale():
    with pytest.raises(EmptyGroup):
        frequency_table([])
    with pytest.raises(ValueError):
        frequency_table([1, 6])
    with pytest.raises(ValueError):
        frequency_table([1, True])


def test_expand_inverts_frequency():
    group = [5, 5, 3, 1, 2, 2, 4]
    assert sorted(expand_frequencies(frequency_table(group).counts)) \
        == sorted(group)
    with pytest.raises(ValueError):
        expand_frequencies({7: 1})


# ------------------------------------------------------------------
# summaries
# ------------------------------------------------------------------

def test_bundled_summaries_exact():
    dataset = new_seller_support_dataset()
    expected = {
        "integrated": (40, 167, 4.175, 4, 0.455769231),
        "tradera": (40, 89, 2.225, 2, 0.845512821),
        "ebay": (40, 81, 2.025, 2, 0.486538462),
    }
    for name, (count, total, mean, median, variance) in expected.items():
        summary = summarize(dataset[name])
        assert summary["count"] == count
        assert summary["sum"] == total
        assert summary["mean"] == pytest.approx(mean, abs=1e-9)
        assert summary["median"] == median
        assert summary["variance"] == pytest.approx(variance, abs=1e-9)


def test_summary_closed_form_variance():
    # (sum(x^2) - n*mean^2) / (n-1), checked on the strongest group
    group = new_seller_support_dataset()["integrated"]
    n = len(group)
    mean = sum(group) / n
    expected = (sum(x * x for x in group) - n * mean * mean) / (n - 1)
    assert summarize(group)["variance"] == pytest.approx(expected, abs=1e-12)


def test_summary_bounds_errors():
    with pytest.raises(EmptyGroup):
        summarize([])
    with pytest.raises(TooFewSamples):
        summarize([3])


def test_mean_consistent_with_frequency_table():
    for name, values in new_seller_support_dataset().items():
        table = frequency_table(values)
        from_counts = sum(point * count
                          for point, count in table.counts.items()) / table.n
        assert summarize(values)["mean"] == pytest.approx(from_counts)


# ------------------------------------------------------------------
# kruskal-wallis
# ------------------------------------------------------------------

def test_identical_groups_give_zero_h():
    group = [1, 2, 3, 4, 5]
    result = kruskal_wallis({"a": group, "b": group, "c": group[::-1]})
    assert result.h == 0.0             # exact, rational arithmetic inside
    assert result.h_tie_corrected == 0.0
    assert not result.reject


def test_bundled_dataset_decision():
    result = kruskal_wallis(new_seller_support_dataset(), alpha=0.05)
    assert result.df == 2
    assert result.n_total == 120
    assert result.rank_sum_total == 7260.0
    assert result.critical == pytest.approx(5.99, abs=0.005)
    assert result.h > 5.99
    assert result.reject
    assert result.midranks == {1: 9.5, 2: 37.5, 3: 69.5, 4: 95.0, 5: 114.0}
    assert result.rank_sums == {"integrated": 3894.0, "tradera": 1798.0,
                                "ebay": 1568.0}


def test_bundled_dataset_matches_explicit_sort_oracle():
    groups = new_seller_support_dataset()
    result = kruskal_wallis(groups)
    oracle_sums = rank_sums_by_explicit_sort(groups)
    for name, total in oracle_sums.items():
        assert result.rank_sums[name] == pytest.approx(total, abs=1e-9)
    assert result.h == pytest.approx(h_by_oracle(groups), rel=1e-9)


def test_tie_correction_increases_h_here():
    result = kruskal_wallis(new_seller_support_dataset())
    assert result.h_tie_corrected > result.h
    # correction factor recomputed from tie counts
    n = result.n_total
    tie_term = sum(t ** 3 - t for t in result.tie_counts.values())
    factor = 1 - Fraction(tie_term, n ** 3 - n)
    assert result.h_tie_corrected == pytest.approx(result.h / float(factor))


def test_all_observations_tied():
    result = kruskal_wallis({"a": [3] * 6, "b": [3] * 6})
    assert result.h == 0.0
    assert result.h_tie_corrected == 0.0
    assert not result.reject


def test_group_size_preconditions():
    with pytest.raises(TooFewGroups):
        kruskal_wallis({"a": [1, 2, 3, 4, 5]})
    with pytest.raises(GroupTooSmall):
        kruskal_wallis({"a": [1, 2, 3, 4, 5], "b": [1, 2, 3]})


def test_midranks_shape():
    ranks = midranks([2, 1, 2, 5])
    assert ranks == {1: 1, 2: Fraction(5, 2), 5: 4}


dataset_strategy = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.lists(st.integers(min_value=1, max_value=5), min_size=5, max_size=25),
    min_size=2, max_size=4)


@settings(max_examples=80, deadline=None)
@given(dataset_strategy)
def test_rank_sum_identity_exact(dataset):
    result = kruskal_wallis(dataset)
    n = result.n_total
    assert result.rank_sum_total == n * (n + 1) / 2
    assert result.h >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.lists(st.integers(min_value=1, max_value=3), min_size=5, max_size=15),
    min_size=2, max_size=3),
    st.lists(st.integers(min_value=1, max_value=5),
             min_size=3, max_size=3, unique=True))
def test_monotone_relabel_invariance(dataset, points):
    # ranks depend only on order, not on the ordinal labels themselves
    mapping = dict(zip((1, 2, 3), sorted(points)))
    relabeled = {name: [mapping[value] for value in values]
                 for name, values in dataset.items()}
    original = kruskal_wallis(dataset)
    mapped = kruskal_wallis(relabeled)
    assert mapped.h == original.h
    assert mapped.h_tie_corrected == original.h_tie_corrected


@settings(max_examples=40, deadline=None)
@given(dataset_strategy)
def test_h_matches_explicit_sort_oracle(dataset):
    result = kruskal_wallis(dataset)
    assert result.h == pytest.approx(h_by_oracle(dataset), abs=1e-9)


# ------------------------------------------------------------------
# chi-square tail
# ------------------------------------------------------------------

def test_critical_value_examples():
    assert chi_square_critical(2, 0.05) == pytest.approx(5.99, abs=0.005)
    assert chi_square_critical(1, 0.05) == pytest.approx(3.841, abs=5e-4)
    assert chi_square_critical(2, 0.05) \
        == kruskal_wallis(new_seller_support_dataset()).critical


def test_any_df_and_alpha_give_a_value():
    # df 11 and alpha 0.2 lie outside the printed table
    assert chi_square_critical(11, 0.05) == pytest.approx(19.675, abs=5e-4)
    # at df 2 the tail is exp(-x/2), so the quantile is -2 ln(alpha)
    assert chi_square_critical(2, 0.2) == pytest.approx(-2 * math.log(0.2),
                                                        rel=1e-12)


def test_whole_table_against_cdf_oracle():
    for df, row in PRINTED_TABLE.items():
        for alpha, printed in zip(TABLE_ALPHAS, row):
            critical = chi_square_critical(df, alpha)
            assert critical == pytest.approx(printed, abs=5e-4), (df, alpha)
            tail = 1.0 - chi2_cdf(critical, df)
            assert tail == pytest.approx(alpha, abs=5e-4), (df, alpha)


def test_decisions_at_the_rounded_table_boundary():
    # the printed 5.991 lies below the true 5.9914645, so an H between
    # them has p > 0.05 and is retained
    assert chi_square_critical(2, 0.05) > 5.9914
    assert chi_square_sf(5.9912, 2) > 0.05
    # the printed 6.635 lies above the true 6.6348966
    assert chi_square_critical(1, 0.01) < 6.635


def test_bundled_dataset_p_value():
    result = kruskal_wallis(new_seller_support_dataset())
    assert result.p_value == pytest.approx(
        math.exp(-result.h_tie_corrected / 2), rel=1e-12)
    assert result.p_value < 1e-15


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=200.0),
       st.integers(min_value=1, max_value=40))
def test_tail_matches_incomplete_gamma_oracle(x, df):
    assert chi_square_sf(x, df) == pytest.approx(1.0 - chi2_cdf(x, df),
                                                 abs=1e-12)


@pytest.mark.parametrize("df", [1, 2, 3, 2000])
def test_tail_is_monotone_non_increasing(df):
    # fine steps near 0, where the tail is within an ulp of 1, then
    # coarse steps out past the mean into the far tail
    xs = [i * 1e-3 for i in range(2000)] \
        + [2 + i * (df + 15) / 250 for i in range(2001)]
    tails = [chi_square_sf(x, df) for x in xs]
    assert tails[0] == 1.0 and tails[-1] < 1e-10
    assert all(later <= earlier for earlier, later in zip(tails, tails[1:]))


def test_large_df_meets_wilson_hilferty():
    df, z = 2000, 1.6448536269514722              # z of 0.95
    approx = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
    assert chi_square_critical(df, 0.05) == pytest.approx(approx, abs=1e-3)


@pytest.mark.parametrize("alpha", ["0", "1", "-0.1", "nan", "inf"])
def test_alpha_outside_the_open_unit_interval_is_exit_1(capsys, alpha):
    assert main(["stats", "kruskal", "--alpha", alpha]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: alpha must lie in (0, 1)")


def test_kruskal_cli_at_alpha_0_2_and_twelve_groups(capsys, tmp_path):
    assert main(["stats", "kruskal", "--alpha", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "critical value (alpha 0.2): 3.22" in out
    assert "p-value: 2.47e-16" in out
    data = tmp_path / "twelve.csv"
    data.write_text("group,response\n" + "".join(
        f"g{g},{v}\n" for g in range(12) for v in (1, 2, 3, 4, 5)),
        encoding="utf-8")
    assert main(["stats", "kruskal", str(data), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["df"] == 11
    assert payload["critical"] == pytest.approx(19.675, abs=5e-4)
    assert (payload["p_value"], payload["reject"]) == (1.0, False)


# ------------------------------------------------------------------
# reported-figure comparison
# ------------------------------------------------------------------

def test_reported_figures_flagged():
    result = kruskal_wallis(new_seller_support_dataset())
    lines = compare_reported(result, REPORTED_NEW_SELLER_SUPPORT)
    assert any("7133" in line and "7260" in line for line in lines)
    assert any("63.38" in line for line in lines)


def test_agreeing_figures_produce_no_lines():
    result = kruskal_wallis(new_seller_support_dataset())
    agreeing = {"h": result.h, "critical": 5.99,
                "rank_sums": dict(result.rank_sums)}
    assert compare_reported(result, agreeing) == []


# ------------------------------------------------------------------
# CSV input
# ------------------------------------------------------------------

def test_long_layout_roundtrip(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("group,response\na,5\na,4\nb,1\nb,2\n", encoding="utf-8")
    assert load_likert_csv(path) == {"a": [5, 4], "b": [1, 2]}


def test_frequency_layout_roundtrip(tmp_path):
    path = tmp_path / "freq.csv"
    path.write_text("group,5,4,3,2,1\nx,2,1,0,0,1\n", encoding="utf-8")
    assert sorted(load_likert_csv(path)["x"]) == [1, 4, 5, 5]
    # a group on two rows has the counts of both
    path.write_text("group,5,4,3,2,1\nx,2,1,0,0,1\nx,0,0,1,0,0\n",
                    encoding="utf-8")
    assert sorted(load_likert_csv(path)["x"]) == [1, 3, 4, 5, 5]


def test_unrecognized_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,answer\nx,5\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_likert_csv(path)


def test_bundled_csv_matches_builtin_constants():
    dataset = load_likert_csv(DATA_DIR / "new_seller_support.csv")
    assert {name: sorted(values) for name, values in dataset.items()} \
        == {name: sorted(values)
            for name, values in new_seller_support_dataset().items()}
