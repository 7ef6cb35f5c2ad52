"""Breakdown and scatter tests, with scipy as the rank-correlation oracle."""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest
from scipy import stats as scipy_stats

from reformkit.analysis import (
    breakdown,
    pretrain_scatter,
    scatter_tsv,
    spearman,
)
from reformkit.corpus import Language
from reformkit.errors import ValidationError
from reformkit.metrics import DirectionScore, average_directions

ENG = Language("eng_Latn", in_pretrain=True, pretrain_size=10**9)
DEU = Language("deu_Latn", in_pretrain=True, pretrain_size=10**8)
XXA = Language("xxa_Latn", in_pretrain=False, pretrain_size=0)
XXB = Language("xxb_Latn", in_pretrain=False, pretrain_size=0)
LANGS = [ENG, DEU, XXA, XXB]


def _all_directions(value=50.0):
    return [
        DirectionScore(a.code, b.code, value, 10)
        for a in LANGS
        for b in LANGS
        if a.code != b.code
    ]


def test_constant_scores_fill_every_cell():
    report = breakdown(_all_directions(50.0), LANGS)
    for cell in (
        report.in_in,
        report.out_in,
        report.in_out,
        report.out_out,
        report.to_eng,
        report.from_eng,
        report.avg,
    ):
        assert cell.value == pytest.approx(50.0)
        assert cell.n > 0


def test_hand_arithmetic_cells():
    scores = [
        DirectionScore("eng_Latn", "deu_Latn", 20.0, 5),
        DirectionScore("deu_Latn", "eng_Latn", 30.0, 5),
        DirectionScore("xxa_Latn", "xxb_Latn", 10.0, 5),
    ]
    report = breakdown(scores, LANGS)
    assert report.in_in.value == pytest.approx(25.0)
    assert report.out_out.value == pytest.approx(10.0)
    assert report.avg.value == pytest.approx(20.0)
    assert report.in_out.n == 0 and report.in_out.value is None


def test_four_cells_partition_all_directions():
    scores = _all_directions()
    report = breakdown(scores, LANGS)
    four = [report.in_in.n, report.out_in.n, report.in_out.n, report.out_out.n]
    assert sum(four) == len(scores) == report.avg.n
    # English cells overlap the partition; 3 directions point at English
    assert report.to_eng.n == 3
    assert report.from_eng.n == 3


def test_breakdown_avg_matches_average_directions():
    rng = random.Random(5)
    scores = [
        DirectionScore(a.code, b.code, rng.uniform(0, 100), 10)
        for a in LANGS
        for b in LANGS
        if a.code != b.code
    ]
    report = breakdown(scores, LANGS)
    assert report.avg.value == pytest.approx(average_directions(scores), abs=1e-12)


def test_breakdown_unknown_language_errors():
    scores = [DirectionScore("eng_Latn", "zzz_Latn", 10.0, 5)]
    with pytest.raises(ValidationError, match="zzz_Latn"):
        breakdown(scores, LANGS)
    with pytest.raises(ValidationError):
        breakdown([], LANGS)


def test_breakdown_and_scatter_need_metadata_for_both_languages():
    langs = [Language("a", pretrain_size=10), Language("b", pretrain_size=20)]
    scores = [DirectionScore("a", "b", 50.0, 2), DirectionScore("a", "zzz", 70.0, 2)]
    with pytest.raises(ValidationError, match="^language zzz missing from metadata$"):
        breakdown(scores, langs)
    # the side the scatter does not group by is checked too
    for direction in ("from_lang", "into_lang"):
        with pytest.raises(ValidationError, match="^language zzz missing from metadata$"):
            pretrain_scatter(scores, langs, direction)


def test_breakdown_report_serializes():
    report = breakdown(_all_directions(), LANGS)
    data = asdict(report)
    assert data["avg"]["n"] == 12
    assert set(data) == {"in_in", "out_in", "in_out", "out_out", "to_eng", "from_eng", "avg"}


def test_scatter_monotone_pair():
    langs = [
        Language("aaa", in_pretrain=True, pretrain_size=100_000),
        Language("bbb", in_pretrain=True, pretrain_size=10**9),
        Language("ccc", in_pretrain=True, pretrain_size=1),
    ]
    scores = [
        DirectionScore("aaa", "ccc", 10.0, 5),
        DirectionScore("bbb", "ccc", 20.0, 5),
    ]
    report = pretrain_scatter(scores, langs, "from_lang")
    assert report.spearman == pytest.approx(1.0)
    assert not report.degenerate
    assert [r.code for r in report.rows] == ["aaa", "bbb"]


def test_scatter_constant_scores_degenerate():
    langs = [
        Language("aaa", pretrain_size=100),
        Language("bbb", pretrain_size=200),
        Language("ccc", pretrain_size=300),
    ]
    scores = [
        DirectionScore("aaa", "bbb", 40.0, 5),
        DirectionScore("bbb", "ccc", 40.0, 5),
        DirectionScore("ccc", "aaa", 40.0, 5),
    ]
    report = pretrain_scatter(scores, langs, "from_lang")
    assert report.spearman == 0.0
    assert report.degenerate


def test_scatter_excludes_unknown_sizes():
    langs = [
        Language("aaa", pretrain_size=100),
        Language("bbb", pretrain_size=0),
        Language("ccc", pretrain_size=300),
    ]
    scores = [
        DirectionScore("aaa", "ccc", 10.0, 5),
        DirectionScore("bbb", "ccc", 20.0, 5),
        DirectionScore("ccc", "aaa", 30.0, 5),
    ]
    report = pretrain_scatter(scores, langs, "from_lang")
    assert report.excluded == ("bbb",)
    assert {r.code for r in report.rows} == {"aaa", "ccc"}


def test_scatter_into_lang_groups_by_target():
    langs = [
        Language("aaa", pretrain_size=100),
        Language("bbb", pretrain_size=200),
    ]
    scores = [
        DirectionScore("aaa", "bbb", 10.0, 5),
        DirectionScore("bbb", "aaa", 30.0, 5),
    ]
    report = pretrain_scatter(scores, langs, "into_lang")
    by_code = {r.code: r for r in report.rows}
    assert by_code["bbb"].mean_score == 10.0
    assert by_code["aaa"].mean_score == 30.0
    with pytest.raises(ValidationError):
        pretrain_scatter(scores, langs, "sideways")


def test_spearman_matches_scipy_on_random_data():
    rng = random.Random(13)
    for trial in range(50):
        n = rng.randint(3, 30)
        xs = [rng.randint(1, 8) * 1000.0 for _ in range(n)]  # ties likely
        ys = [rng.uniform(0, 100) for _ in range(n)]
        rho, degenerate = spearman(xs, ys)
        expected = scipy_stats.spearmanr(xs, ys).statistic
        if degenerate:
            assert len(set(xs)) == 1 or len(set(ys)) == 1
        else:
            assert rho == pytest.approx(expected, abs=1e-9)
    # fewer than two points have no rank correlation: degenerate, rho 0
    assert spearman([], []) == spearman([5.0], [7.0]) == (0.0, True)
    with pytest.raises(ValidationError) as err:
        spearman([1.0, 2.0], [1.0])
    assert str(err.value) == "correlation inputs differ in length"


def test_spearman_rank_oracle_with_languages():
    rng = random.Random(99)
    langs = [Language(f"l{i:02d}", pretrain_size=10 ** (4 + i)) for i in range(10)]
    scores = [
        DirectionScore(lang.code, "tgt", rng.uniform(0, 100), 5) for lang in langs
    ]
    meta = langs + [Language("tgt", pretrain_size=1)]
    report = pretrain_scatter(scores, meta, "from_lang")
    sizes = [r.pretrain_size for r in report.rows]
    means = [r.mean_score for r in report.rows]
    expected = scipy_stats.spearmanr(sizes, means).statistic
    assert report.spearman == pytest.approx(expected, abs=1e-9)


def test_scatter_tsv_shape():
    langs = [Language("aaa", pretrain_size=100), Language("bbb", pretrain_size=200)]
    scores = [
        DirectionScore("aaa", "bbb", 12.5, 5),
        DirectionScore("bbb", "aaa", 30.0, 5),
    ]
    text = scatter_tsv(pretrain_scatter(scores, langs, "from_lang"))
    lines = text.strip().split("\n")
    assert lines[0] == "language\tpretrain_size\tmean_score\tn_directions"
    assert lines[1] == "aaa\t100\t12.500000\t1"


def test_duplicate_directions_are_rejected():
    scores = [
        DirectionScore("aaa", "bbb", 10.0, 5),
        DirectionScore("bbb", "aaa", 50.0, 5),
        DirectionScore("aaa", "bbb", 90.0, 5),
    ]
    langs = [Language("aaa", pretrain_size=100), Language("bbb", pretrain_size=200)]
    assert breakdown(scores[:2], langs).avg.n == 2
    for call in (
        lambda: breakdown(scores, langs),
        lambda: pretrain_scatter(scores, langs, "from_lang"),
        lambda: pretrain_scatter(scores, langs, "into_lang"),
    ):
        with pytest.raises(ValidationError, match="duplicate direction: aaa-bbb"):
            call()
