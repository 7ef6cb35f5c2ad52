"""Acceptance suite: one test per shipped guarantee.

Each criterion prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s`` or on failure) in addition to its pytest verdict. Statistical
criteria use fixed seeds, so outcomes are reproducible; their tolerance
bounds were precomputed with independent simulations before the tests were
frozen.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager

import pytest
from scipy import stats as scipy_stats

from reformkit.analysis import breakdown
from reformkit.builder import BuildConfig, _substream, batch_plan, build, stats
from reformkit.cli import main as cli_main
from reformkit.corpus import Language, TranslationExample, write_bilingual
from reformkit.errors import ValidationError
from reformkit.metrics import DirectionScore, ScoreConfig, average_directions, bleu, chrfpp
from reformkit.reformulate import baseline, mask_tokens, span_mask
from reformkit.schedule import curriculum1, curriculum2, mask_preset, mix, policy_at, window_first
from reformkit.synth import synth_bilingual, synth_multiparallel

from test_metrics import oracle_bleu, oracle_chrfpp


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def read_split(out_dir, split):
    rows = []
    for path in sorted(out_dir.glob(f"{split}-*.jsonl")):
        with path.open(encoding="utf-8") as fh:
            rows.extend(json.loads(line) for line in fh)
    return rows


# ------------------------------------------------------------------ 1


def test_criterion_01_determinism(tmp_path):
    with criterion(1, "byte-identical builds across workers and reruns, < 60 s"):
        t0 = time.monotonic()
        corpus = synth_multiparallel(6, 1000, seed=0)
        cfg = BuildConfig(
            task="multiparallel",
            reform="mips",
            n_train=4000,
            batch_size=200,
            seed=0,
            schedule=mix(0.8, 20),
            n_valid=200,
            n_test=200,
            shard_size=1000,
        )
        runs = {"w1": 1, "w1_again": 1, "w2": 2, "w8": 8}
        for name, workers in runs.items():
            build(corpus, cfg, tmp_path / name, workers=workers)
        reference = {
            p.name: p.read_bytes() for p in sorted((tmp_path / "w1").iterdir())
        }
        assert len(reference) == 7  # 4 train + 1 valid + 1 test + manifest
        for name in ("w1_again", "w2", "w8"):
            got = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
            assert got == reference, f"run {name} differs from the reference build"
        assert time.monotonic() - t0 < 60.0


# ------------------------------------------------------------------ 2


def test_criterion_02_pose_prefix_law(tmp_path):
    with criterion(2, "uniform prefix fractions (chi-square) and exact target prefixes"):
        corpus_file = tmp_path / "pairs.tsv"
        write_bilingual(synth_bilingual(2000, seed=1), corpus_file, "tsv")
        from reformkit.corpus import load_bilingual

        corpus = load_bilingual(corpus_file, "tsv")
        cfg = BuildConfig(
            task="bilingual",
            reform="pose",
            n_train=100_000,
            batch_size=1000,
            seed=0,
            schedule=mix(1.0, 100),
            shard_size=100_000,
        )
        build(corpus, cfg, tmp_path / "out")
        rows = read_split(tmp_path / "out", "train")
        assert len(rows) == 100_000
        buckets = [0] * 10
        for row in rows:
            assert row["tag"] == "pose"
            u = row["meta"]["prefix_fraction"]
            assert 0.0 <= u < 1.0
            buckets[min(int(u * 10), 9)] += 1
            if "\n" in row["input"]:
                scaffold = row["input"].split("\n", 1)[1]
                assert scaffold and row["target"].startswith(scaffold)
        result = scipy_stats.chisquare(buckets)
        assert result.pvalue > 0.001, f"chi-square p={result.pvalue}, buckets={buckets}"


# ------------------------------------------------------------------ 3


def test_criterion_03_mix_ratio(tmp_path):
    with criterion(3, "mix(0.8) fraction in [0.79, 0.81] and manifest equals shard recount"):
        corpus_file = tmp_path / "pairs.tsv"
        write_bilingual(synth_bilingual(2000, seed=1), corpus_file, "tsv")
        from reformkit.corpus import load_bilingual

        corpus = load_bilingual(corpus_file, "tsv")
        cfg = BuildConfig(
            task="bilingual",
            reform="pose",
            n_train=100_000,
            batch_size=1000,
            seed=0,
            schedule=mix(0.8, 100),
            shard_size=25_000,
        )
        manifest = build(corpus, cfg, tmp_path / "out")
        tags = manifest.splits["train"]["tags"]
        frac = tags["pose"] / 100_000
        assert 0.79 <= frac <= 0.81, f"reformulated fraction {frac}"
        shards = sorted(tmp_path.glob("out/train-*.jsonl"))
        assert len(shards) == 4
        recount = stats(shards)
        assert recount["n_examples"] == manifest.splits["train"]["n_examples"] == 100_000
        assert recount["tags"] == tags


# ------------------------------------------------------------------ 4


def test_criterion_04_schedule_spot_values():
    with criterion(4, "curriculum/window/mask schedules hit their quoted breakpoints"):
        c2 = curriculum2(10_000)
        assert policy_at(0, c2).reform_fraction == 0.8
        assert policy_at(4000, c2).reform_fraction == pytest.approx(0.6, abs=1e-9)
        assert policy_at(7000, c2).reform_fraction == 0.0

        T = 500
        c1 = curriculum1(T)
        first, last = policy_at(0, c1), policy_at(T - 1, c1)
        assert first.prefix_law.kind == "fixed" and first.prefix_law.value == 1.0
        assert last.prefix_law.value <= 1.0 / T + 1e-12
        assert first.reform_fraction == last.reform_fraction == 1.0

        for total in (10, 879, 10_000):
            w = window_first(0.2, total)
            flip = math.ceil(0.2 * total)
            assert policy_at(flip - 1, w).reform_fraction == 1.0
            assert policy_at(flip, w).reform_fraction == 0.0

        T = 100
        expected_windows = {
            "mask1": set(range(0, 20)),
            "mask2": set(range(80, 100)),
            "mask3": set(range(50, 100)),
            "mask4": set(range(50, 100)),
        }
        for name, want in expected_windows.items():
            policy = mask_preset(name, T)
            active = {s for s in range(T) if policy_at(s, policy).mask is not None}
            assert active == want, name
        assert policy_at(60, mask_preset("mask3", T)).mask.p == 0.25
        m4 = policy_at(60, mask_preset("mask4", T)).mask
        assert m4.span is True and m4.mean_span == 3
        assert policy_at(10, mask_preset("mask1", T)).mask.p == 0.1


# ------------------------------------------------------------------ 5


def test_criterion_05_parse_alignment(tmp_path):
    with criterion(5, "parse scaffolds match the pivot sentence; pivot pairs fall back"):
        corpus = synth_multiparallel(6, 400, seed=2)
        pivot_texts = {rec.id: rec.texts["eng_Latn"] for rec in corpus.records}
        cfg = BuildConfig(
            task="multiparallel",
            reform="parse",
            n_train=20_000,
            batch_size=500,
            seed=0,
            schedule=mix(1.0, 40),
            shard_size=20_000,
        )
        build(corpus, cfg, tmp_path / "out")
        rows = read_split(tmp_path / "out", "train")
        assert len(rows) == 20_000
        n_parse = n_fallback = 0
        for row in rows:
            meta = row["meta"]
            involves_pivot = "eng_Latn" in (meta["source_lang"], meta["target_lang"])
            if involves_pivot:
                assert row["tag"] == "baseline" and meta["parse_fallback"] is True
                n_fallback += 1
            else:
                assert row["tag"] == "parse"
                scaffold = row["input"].split("\n", 1)[1]
                assert scaffold == pivot_texts[meta["sentence_id"]]
                n_parse += 1
        assert n_parse > 0 and n_fallback > 0


# ------------------------------------------------------------------ 6


def test_criterion_06_mips_distinctness(tmp_path):
    with criterion(6, "mips: four distinct languages and exact reconstruction, 100k examples"):
        corpus = synth_multiparallel(8, 500, seed=3)
        records = {rec.id: rec.texts for rec in corpus.records}
        cfg = BuildConfig(
            task="multiparallel",
            reform="mips",
            n_train=100_000,
            batch_size=1000,
            seed=0,
            schedule=mix(1.0, 100),
            shard_size=50_000,
        )
        build(corpus, cfg, tmp_path / "out")
        rows = read_split(tmp_path / "out", "train")
        assert len(rows) == 100_000
        violations = 0
        n_mips = 0
        for row in rows:
            if row["tag"] != "mips":
                continue
            n_mips += 1
            meta = row["meta"]
            src, tgt = meta["source_lang"], meta["target_lang"]
            aux_in, aux_out = meta["scaffold_langs"]
            if len({src, tgt, aux_in, aux_out}) != 4:
                violations += 1
                continue
            texts = records[meta["sentence_id"]]
            assert not meta["truncated"]
            assert row["input"] == texts[src] + "\n" + texts[aux_in]
            assert row["target"] == texts[tgt] + "\n" + texts[aux_out]
        assert n_mips == 100_000
        assert violations == 0


# ------------------------------------------------------------------ 7


def test_criterion_07_masking_concentration():
    with criterion(7, "token/span mask rates concentrate at p; targets untouched"):
        text = " ".join(f"w{i}" for i in range(100))
        examples = [
            baseline(
                TranslationExample(
                    Language("aa_Latn"), Language("bb_Latn"), text, text
                )
            )
            for _ in range(1000)
        ]

        masked = units = 0
        for i, ex in enumerate(examples):
            out = mask_tokens(ex, 0.1, _substream(0, "acc-token", i))
            assert out.target_text == ex.target_text
            masked += out.meta["masked_units"]
            units += 100
        rate = masked / units
        assert 0.094 <= rate <= 0.106, f"token mask rate {rate}"

        masked = spans = units = 0
        for i, ex in enumerate(examples):
            out = span_mask(ex, 0.25, 3, _substream(0, "acc-span", i))
            assert out.target_text == ex.target_text
            masked += out.meta["masked_units"]
            spans += out.meta["span_count"]
            units += 100
        frac = masked / units
        mean_span = masked / spans
        assert 0.235 <= frac <= 0.265, f"span masked fraction {frac}"
        assert 2.7 <= mean_span <= 3.3, f"mean span {mean_span}"


# ------------------------------------------------------------------ 8


def test_criterion_08_metric_oracle_equivalence():
    with criterion(8, "BLEU/chrF++ match a brute-force oracle; identity 100; empty 0"):
        rng = random.Random(88)
        vocab = ["a", "b", "ab", "ba", "abc", "xy", "q"]

        def sentence(min_len=0):
            return " ".join(
                rng.choice(vocab) for _ in range(rng.randint(min_len, 12))
            )

        pairs_checked = 0
        for _ in range(50):
            n = 4
            refs = [sentence(min_len=1) for _ in range(n)]
            hyps = [
                refs[i] if rng.random() < 0.2 else sentence() for i in range(n)
            ]
            pairs_checked += n
            assert bleu(hyps, refs, ScoreConfig(metric="bleu")) == pytest.approx(
                oracle_bleu(hyps, refs), abs=1e-6
            )
            assert bleu(
                hyps, refs, ScoreConfig(metric="bleu", smoothing="add_k", smoothing_k=1.0)
            ) == pytest.approx(oracle_bleu(hyps, refs, add_k=1.0), abs=1e-6)
            assert chrfpp(hyps, refs) == pytest.approx(
                oracle_chrfpp(hyps, refs), abs=1e-6
            )
        assert pairs_checked == 200

        refs = ["the cat sat", "on the mat", "ab cd ef gh"]
        assert bleu(refs, refs, ScoreConfig(metric="bleu")) == 100.0
        assert chrfpp(refs, refs) == 100.0
        empty = ["", "", ""]
        assert bleu(empty, refs, ScoreConfig(metric="bleu")) == 0.0
        assert chrfpp(empty, refs) == 0.0


# ------------------------------------------------------------------ 9


def test_criterion_09_batch_budget_rule():
    with criterion(9, "batch halves to 1024 for parse/mips; odd sizes rejected"):
        def cfg_for(reform, batch):
            return BuildConfig(
                task="multiparallel",
                reform=reform,
                n_train=10_000,
                batch_size=batch,
            )

        assert batch_plan(cfg_for("parse", 2048), reform_active=True) == 1024
        assert batch_plan(cfg_for("mips", 2048), reform_active=True) == 1024
        assert batch_plan(cfg_for("none", 2048), reform_active=False) == 2048
        assert batch_plan(cfg_for("pose", 2048), reform_active=True) == 2048
        assert batch_plan(cfg_for("parse", 2048), reform_active=False) == 2048
        with pytest.raises(ValidationError):
            batch_plan(cfg_for("parse", 2047), reform_active=True)


# ------------------------------------------------------------------ 10


def test_criterion_10_analysis_consistency():
    with criterion(10, "breakdown cells equal brute-force means; partition; avg identity"):
        rng = random.Random(1234)
        for _ in range(30):
            n_langs = rng.randint(3, 8)
            langs = [
                Language(
                    code=f"l{i:02d}_Latn",
                    in_pretrain=rng.random() < 0.5,
                    pretrain_size=rng.randint(0, 10**6),
                )
                for i in range(n_langs)
            ]
            if rng.random() < 0.5:
                langs[0] = Language("eng_Latn", True, 10**9)
            in_pre = {l.code: l.in_pretrain for l in langs}
            directions = [
                (a.code, b.code) for a in langs for b in langs if a.code != b.code
            ]
            picked = rng.sample(directions, rng.randint(1, len(directions)))
            scores = [
                DirectionScore(s, t, rng.uniform(0.0, 100.0), rng.randint(1, 50))
                for s, t in picked
            ]
            report = breakdown(scores, langs)

            cells: dict[str, list[float]] = {
                "in_in": [], "out_in": [], "in_out": [], "out_out": [],
                "to_eng": [], "from_eng": [],
            }
            for s in scores:
                key = ("in_" if in_pre[s.src] else "out_") + (
                    "in" if in_pre[s.tgt] else "out"
                )
                cells[key].append(s.value)
                if s.tgt == "eng_Latn":
                    cells["to_eng"].append(s.value)
                if s.src == "eng_Latn":
                    cells["from_eng"].append(s.value)

            for name, values in cells.items():
                cell = getattr(report, name)
                assert cell.n == len(values)
                if values:
                    assert cell.value == pytest.approx(
                        math.fsum(values) / len(values), abs=1e-9
                    )
                else:
                    assert cell.value is None
            partition = (
                report.in_in.n + report.out_in.n + report.in_out.n + report.out_out.n
            )
            assert partition == len(scores)
            assert report.avg.value == average_directions(scores)


# ------------------------------------------------------------------ 11


def test_criterion_11_end_to_end_smoke(tmp_path):
    with criterion(11, "one command: synth corpus, three builds, copy score, breakdown"):
        t0 = time.monotonic()
        code = cli_main(["smoke", "--out", str(tmp_path / "smoke"), "--seed", "0"])
        assert code == 0
        payload = json.loads((tmp_path / "smoke" / "scores.json").read_text())
        assert payload["copy_chrfpp"] == 100.0
        report = json.loads((tmp_path / "smoke" / "breakdown.json").read_text())
        assert report["avg"]["value"] == 100.0
        for sub in ("baseline", "parse", "mips"):
            assert (tmp_path / "smoke" / sub / "manifest.json").is_file()
        assert (tmp_path / "smoke" / "corpus" / "manifest.json").is_file()
        assert time.monotonic() - t0 < 120.0
