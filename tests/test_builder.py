"""Builder tests: sampling, determinism, schedules, truncation, manifests."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from reformkit.builder import (
    REFORM_KINDS,
    BuildConfig,
    batch_plan,
    build,
    sample_pairs,
    split_pools,
    stats,
    stats_from_counts,
)
from reformkit.corpus import Language, MultiParallelCorpus, SentenceRecord
from reformkit.errors import ValidationError
from reformkit.schedule import mix, window_first
from reformkit.synth import synth_bilingual, synth_multiparallel
from reformkit.textseg import Segmenter


def _read_examples(out_dir, split="train"):
    examples = []
    for path in sorted(Path(out_dir).glob(f"{split}-*.jsonl")):
        with path.open(encoding="utf-8") as fh:
            examples.extend(json.loads(line) for line in fh)
    return examples


def _shard_bytes(out_dir):
    return {
        p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*.jsonl"))
    }


def test_sample_pairs_exhaustive_small_space():
    corpus = synth_multiparallel(2, 3)
    draws = sample_pairs(corpus, 6, seed=1)
    assert len(draws) == 6
    assert len(set(draws)) == 6
    assert {d[0] for d in draws} == {0, 1, 2}
    for _, src, tgt in draws:
        assert src != tgt


def test_sample_pairs_deterministic():
    corpus = synth_multiparallel(4, 10)
    assert sample_pairs(corpus, 25, seed=9) == sample_pairs(corpus, 25, seed=9)
    assert sample_pairs(corpus, 25, seed=9) != sample_pairs(corpus, 25, seed=10)


def test_sample_pairs_204_language_direction_space():
    langs = tuple(Language(f"x{i:03d}", pretrain_size=1) for i in range(204))
    record = SentenceRecord(0, {lang.code: f"t {lang.code}" for lang in langs})
    corpus = MultiParallelCorpus(langs, (record,))
    # the full ordered-direction space for one record
    draws = sample_pairs(corpus, 204 * 203, seed=0)
    assert len(draws) == 41412
    assert len(set(draws)) == 41412


def test_sample_pairs_single_language_rejected():
    langs = (Language("only"),)
    corpus = MultiParallelCorpus(langs, (SentenceRecord(0, {"only": "x"}),))
    with pytest.raises(ValidationError):
        sample_pairs(corpus, 1, seed=0)


def test_sample_pairs_bilingual_draws_are_pinned():
    # the draws of the former bilingual-only sampler on the same pool
    corpus = synth_bilingual(25, seed=1)
    pool = [3, 5, 8, 13, 21]
    direction = ("bod_Tibt", "eng_Latn")
    within = sample_pairs(corpus, 4, 6, pool, "sample:train")
    assert within == [(i, *direction) for i in (13, 5, 21, 8)]
    beyond = sample_pairs(corpus, 9, 6, pool, "sample:train")
    assert beyond == [(i, *direction) for i in (13, 21, 21, 21, 21, 5, 8, 8, 5)]


def test_split_pools_disjoint_and_deterministic():
    pools = split_pools(1000, (0.9, 0.05, 0.05), seed=3)
    assert len(pools["train"]) == 900
    assert len(pools["valid"]) == 50
    assert len(pools["test"]) == 50
    assert not set(pools["train"]) & set(pools["valid"])
    assert not set(pools["train"]) & set(pools["test"])
    assert pools == split_pools(1000, (0.9, 0.05, 0.05), seed=3)


def test_build_rerun_is_byte_identical(tmp_path):
    corpus = synth_multiparallel(6, 100, seed=2)
    cfg = BuildConfig(
        task="multiparallel",
        reform="pose",
        n_train=400,
        batch_size=50,
        seed=7,
        schedule=mix(0.8, 8),
        n_valid=40,
        n_test=40,
        shard_size=100,
    )
    build(corpus, cfg, tmp_path / "a")
    build(corpus, cfg, tmp_path / "b")
    assert _shard_bytes(tmp_path / "a") == _shard_bytes(tmp_path / "b")
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_build_worker_count_does_not_change_bytes(tmp_path):
    corpus = synth_multiparallel(5, 80, seed=4)
    cfg = BuildConfig(
        task="multiparallel",
        reform="mips",
        n_train=400,
        batch_size=100,
        seed=11,
        schedule=mix(0.8, 4),
        shard_size=100,
    )
    build(corpus, cfg, tmp_path / "w1", workers=1)
    build(corpus, cfg, tmp_path / "w2", workers=2)
    assert _shard_bytes(tmp_path / "w1") == _shard_bytes(tmp_path / "w2")


def test_mix_fraction_concentrates(tmp_path):
    corpus = synth_multiparallel(4, 200, seed=1)
    cfg = BuildConfig(
        task="multiparallel",
        reform="pose",
        n_train=10_000,
        batch_size=1000,
        seed=3,
        schedule=mix(0.8, 10),
        shard_size=5000,
    )
    manifest = build(corpus, cfg, tmp_path)
    tags = manifest.splits["train"]["tags"]
    assert tags["pose"] + tags["baseline"] == 10_000
    # binomial 3 sigma is about 120; allow a wide margin
    assert 7_800 <= tags["pose"] <= 8_200


def test_window_first_is_exact(tmp_path):
    corpus = synth_multiparallel(4, 100, seed=5)
    cfg = BuildConfig(
        task="multiparallel",
        reform="pose",
        n_train=1000,
        batch_size=100,
        seed=5,
        schedule=window_first(0.2, 10),
        shard_size=400,
    )
    manifest = build(corpus, cfg, tmp_path)
    examples = _read_examples(tmp_path)
    for i, ex in enumerate(examples):
        step = ex["meta"]["step_index"]
        assert step == i // 100
        expected = "pose" if step < 2 else "baseline"
        assert ex["tag"] == expected
    assert manifest.splits["train"]["tags"] == {"baseline": 800, "pose": 200}


def test_valid_and_test_are_never_reformulated(tmp_path):
    corpus = synth_multiparallel(4, 200, seed=6)
    cfg = BuildConfig(
        task="multiparallel",
        reform="pose",
        n_train=200,
        batch_size=50,
        seed=6,
        schedule=mix(1.0, 4),
        n_valid=50,
        n_test=50,
    )
    build(corpus, cfg, tmp_path)
    assert all(ex["tag"] == "pose" for ex in _read_examples(tmp_path, "train"))
    assert all(ex["tag"] == "baseline" for ex in _read_examples(tmp_path, "valid"))
    assert all(ex["tag"] == "baseline" for ex in _read_examples(tmp_path, "test"))


def test_pools_keep_sentence_ids_disjoint(tmp_path):
    corpus = synth_multiparallel(4, 300, seed=7)
    cfg = BuildConfig(
        task="multiparallel",
        reform="none",
        n_train=500,
        batch_size=100,
        seed=9,
        n_valid=100,
        n_test=100,
    )
    build(corpus, cfg, tmp_path)
    ids = {
        split: {ex["meta"]["sentence_id"] for ex in _read_examples(tmp_path, split)}
        for split in ("train", "valid", "test")
    }
    assert not ids["train"] & ids["valid"]
    assert not ids["train"] & ids["test"]
    assert not ids["valid"] & ids["test"]


def test_parse_scaffold_and_fallback(tmp_path):
    corpus = synth_multiparallel(5, 150, seed=8)
    cfg = BuildConfig(
        task="multiparallel",
        reform="parse",
        n_train=2000,
        batch_size=500,
        seed=2,
        schedule=mix(1.0, 4),
    )
    manifest = build(corpus, cfg, tmp_path)
    examples = _read_examples(tmp_path)
    n_fallback = 0
    for ex in examples:
        rec = corpus.records[ex["meta"]["sentence_id"]]
        if ex["tag"] == "parse":
            source = rec.texts[ex["meta"]["source_lang"]]
            pivot = rec.texts["eng_Latn"]
            assert ex["input"] == f"{source}\n{pivot}"
        else:
            assert ex["tag"] == "baseline"
            assert ex["meta"]["parse_fallback"] is True
            assert "eng_Latn" in (ex["meta"]["source_lang"], ex["meta"]["target_lang"])
            n_fallback += 1
    assert n_fallback == manifest.splits["train"]["tags"]["baseline"] > 0


def test_mips_distinct_languages_and_reconstruction(tmp_path):
    corpus = synth_multiparallel(6, 120, seed=9)
    cfg = BuildConfig(
        task="multiparallel",
        reform="mips",
        n_train=1500,
        batch_size=500,
        seed=4,
        schedule=mix(1.0, 3),
    )
    build(corpus, cfg, tmp_path)
    for ex in _read_examples(tmp_path):
        assert ex["tag"] == "mips"
        rec = corpus.records[ex["meta"]["sentence_id"]]
        src, tgt = ex["meta"]["source_lang"], ex["meta"]["target_lang"]
        aux_in, aux_out = ex["meta"]["scaffold_langs"]
        assert len({src, tgt, aux_in, aux_out}) == 4
        assert ex["input"] == f"{rec.texts[src]}\n{rec.texts[aux_in]}"
        assert ex["target"] == f"{rec.texts[tgt]}\n{rec.texts[aux_out]}"


def test_truncation_drops_scaffold_before_source(tmp_path):
    corpus = synth_multiparallel(5, 100, seed=10)
    max_src_units = max(
        len(rec.texts[code].split()) for rec in corpus.records for code in corpus.codes
    )
    cfg = BuildConfig(
        task="multiparallel",
        reform="parse",
        n_train=500,
        batch_size=100,
        seed=1,
        schedule=mix(1.0, 5),
        max_len=max_src_units,  # forces every scaffold to shrink or vanish
    )
    manifest = build(corpus, cfg, tmp_path)
    truncated = 0
    for ex in _read_examples(tmp_path):
        rec = corpus.records[ex["meta"]["sentence_id"]]
        source = rec.texts[ex["meta"]["source_lang"]]
        target = rec.texts[ex["meta"]["target_lang"]]
        assert ex["input"].startswith(source)  # full source survives
        assert ex["target"] == target  # target untouched
        assert len(ex["input"].split()) <= cfg.max_len
        truncated += bool(ex["meta"]["truncated"])
    assert truncated == manifest.splits["train"]["truncated"] > 0


def test_pose_adds_half_target_length_on_average(tmp_path):
    corpus = synth_multiparallel(4, 200, seed=11)
    common = dict(
        task="multiparallel",
        n_train=10_000,
        batch_size=1000,
        seed=20,
        shard_size=10_000,
    )
    plain = build(corpus, BuildConfig(reform="none", **common), tmp_path / "plain")
    posed = build(
        corpus,
        BuildConfig(reform="pose", schedule=mix(1.0, 10), **common),
        tmp_path / "posed",
    )
    base_in = plain.splits["train"]["input_length"]["mean"]
    tgt_mean = plain.splits["train"]["target_length"]["mean"]
    pose_in = posed.splits["train"]["input_length"]["mean"]
    expected = base_in + 0.5 * tgt_mean
    assert pose_in == pytest.approx(expected, rel=0.05)


def test_bilingual_build(tmp_path):
    corpus = synth_bilingual(500, seed=3)
    cfg = BuildConfig(
        task="bilingual",
        reform="pose",
        n_train=300,
        batch_size=100,
        seed=8,
        schedule=window_first(0.2, 3),
        n_valid=20,
    )
    manifest = build(corpus, cfg, tmp_path)
    examples = _read_examples(tmp_path)
    assert len(examples) == 300
    assert manifest.splits["train"]["tags"]["pose"] == 100
    for ex in examples:
        assert ex["meta"]["source_lang"] == "bod_Tibt"
        assert "sentence_id" not in ex["meta"]


def test_mask_preset_build_applies_in_window(tmp_path):
    corpus = synth_multiparallel(4, 100, seed=12)
    cfg = BuildConfig(
        task="multiparallel",
        reform="mask1",
        n_train=1000,
        batch_size=100,
        seed=13,
    )
    manifest = build(corpus, cfg, tmp_path)
    for ex in _read_examples(tmp_path):
        in_window = ex["meta"]["step_index"] < 2
        assert ex["tag"] == ("mask" if in_window else "baseline")
        if in_window:
            assert 0.0 <= ex["meta"]["mask_rate"] <= 1.0
    assert manifest.splits["train"]["tags"]["mask"] == 200


def test_manifest_counts_match_shard_recount(tmp_path):
    corpus = synth_multiparallel(5, 100, seed=13)
    cfg = BuildConfig(
        task="multiparallel",
        reform="pose",
        n_train=600,
        batch_size=100,
        seed=3,
        schedule=mix(0.5, 6),
        shard_size=250,
    )
    manifest = build(corpus, cfg, tmp_path)
    report = stats(sorted(Path(tmp_path).glob("train-*.jsonl")))
    split = manifest.splits["train"]
    assert report["tags"] == split["tags"]
    assert sum(split["tags"].values()) == cfg.n_train
    assert report["n_examples"] == cfg.n_train
    assert report["input_length"]["mean"] == pytest.approx(split["input_length"]["mean"])
    assert report["input_length"]["median"] == pytest.approx(split["input_length"]["median"])
    assert report["target_length"]["mean"] == pytest.approx(split["target_length"]["mean"])


def test_stats_equals_manifest_stats(tmp_path):
    # an even example count makes both medians average two middle values
    inputs = (
        ("pose", synth_bilingual(300, seed=6)),
        ("parse", synth_multiparallel(6, 100, seed=6)),
    )
    for reform, corpus in inputs:
        task = "bilingual" if reform == "pose" else "multiparallel"
        cfg = BuildConfig(
            task=task, reform=reform, n_train=400, batch_size=100, seed=5,
            max_len=12, shard_size=150,
        )
        split = build(corpus, cfg, tmp_path / reform).splits["train"]
        report = stats(sorted((tmp_path / reform).glob("train-*.jsonl")))
        assert report == {
            key: split[key] for key in ("n_examples", "tags", "input_length", "target_length")
        }


def test_rebuild_leaves_only_the_new_shards(tmp_path):
    corpus = synth_bilingual(200, seed=2)
    big = BuildConfig(
        task="bilingual", reform="none", n_train=1000, batch_size=100, n_valid=20,
        shard_size=500,
    )
    build(corpus, big, tmp_path)
    (tmp_path / "notes.txt").write_text("kept", encoding="utf-8")
    manifest = build(corpus, replace(big, n_train=500, n_valid=0), tmp_path)
    assert stats(sorted(tmp_path.glob("train-*.jsonl")))["n_examples"] == 500
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", "notes.txt", "train-00000.jsonl"
    ]
    assert manifest.splits["valid"]["shards"] == []


def test_stats_empty_and_sidecar(tmp_path):
    report = stats([])
    assert report["n_examples"] == 0
    assert report["input_length"]["mean"] is None
    counts = tmp_path / "counts.txt"
    counts.write_text("10\n20\n30\n", encoding="utf-8")
    side = stats_from_counts(counts)
    assert side["length"]["mean"] == 20
    assert side["length"]["median"] == 20.0


def test_batch_plan_halving():
    parse_cfg = BuildConfig(task="multiparallel", reform="parse", n_train=4096, batch_size=2048)
    assert batch_plan(parse_cfg, reform_active=True)[0] == 1024
    assert batch_plan(parse_cfg, reform_active=False)[0] == 2048
    pose_cfg = BuildConfig(task="bilingual", reform="pose", n_train=1024, batch_size=512)
    assert batch_plan(pose_cfg, reform_active=True)[0] == 512
    none_cfg = BuildConfig(task="bilingual", reform="none", n_train=4096, batch_size=2048)
    assert batch_plan(none_cfg, reform_active=True)[0] == 2048
    odd = BuildConfig(task="multiparallel", reform="mips", n_train=2000, batch_size=1025)
    with pytest.raises(ValidationError):
        batch_plan(odd, reform_active=True)
    n, tokens = batch_plan(parse_cfg, True, mean_tokens_per_example=30.0)
    assert tokens == 1024 * 30.0


def test_config_validation():
    with pytest.raises(ValidationError):
        BuildConfig(task="monolingual", reform="none", n_train=10, batch_size=2)
    with pytest.raises(ValidationError):
        BuildConfig(task="bilingual", reform="rotate", n_train=10, batch_size=2)
    with pytest.raises(ValidationError):
        BuildConfig(task="bilingual", reform="none", n_train=1, batch_size=2)
    with pytest.raises(ValidationError):
        BuildConfig(task="bilingual", reform="none", n_train=10, batch_size=2, max_len=0)
    with pytest.raises(ValidationError):
        BuildConfig(
            task="bilingual", reform="none", n_train=10, batch_size=2, split_fracs=(0.9, 0.9, 0.1)
        )


def test_config_corpus_mismatch(tmp_path):
    multi = synth_multiparallel(3, 20)
    cfg = BuildConfig(task="multiparallel", reform="mips", n_train=10, batch_size=5)
    with pytest.raises(ValidationError, match="4 languages"):
        build(multi, cfg, tmp_path)
    cfg = BuildConfig(task="multiparallel", reform="parse", n_train=10, batch_size=5, pivot="zzz")
    with pytest.raises(ValidationError, match="zzz"):
        build(multi, cfg, tmp_path)
    cfg = BuildConfig(task="bilingual", reform="none", n_train=10, batch_size=5)
    with pytest.raises(ValidationError):
        build(multi, cfg, tmp_path)


def test_config_dict_round_trip():
    cfg = BuildConfig(
        task="multiparallel",
        reform="parse",
        n_train=1000,
        batch_size=100,
        seed=42,
        schedule=mix(0.8, 10),
        n_valid=50,
        max_len=128,
    )
    data = cfg.to_dict()
    again = BuildConfig.from_dict(data)
    assert again.to_dict() == data
    with pytest.raises(ValidationError):
        BuildConfig.from_dict({**data, "bogus": 1})
    with pytest.raises(ValidationError):
        BuildConfig.from_dict({"task": "bilingual"})
    with pytest.raises(ValidationError, match="n_train"):
        BuildConfig.from_dict({**data, "n_train": "many"})
    # checked before the schedule's step count divides by it
    with pytest.raises(ValidationError, match="batch_size must be >= 1"):
        BuildConfig.from_dict({**data, "batch_size": 0})
    with pytest.raises(ValidationError, match="schedule"):
        BuildConfig.from_dict({**data, "schedule": ["mix"]})
    with pytest.raises(ValidationError, match="must be strings"):
        BuildConfig.from_dict({**data, "fmt": {"delimiter": 5}})
    with pytest.raises(ValidationError, match="must be strings"):
        BuildConfig.from_dict({**data, "fmt": {"target_lang_tag_template": ["<2{code}>"]}})
    with pytest.raises(ValidationError, match="seg"):
        BuildConfig.from_dict({**data, "seg": {"kind": "unicode_words", "counts_path": "c.txt"}})
    minimal = {"task": "bilingual", "reform": "pose", "n_train": 10, "batch_size": 5}
    assert BuildConfig.from_dict(minimal) == BuildConfig(**minimal)
    # configs echoed by older builds carry a null seg.counts_path
    echoed = {**minimal, "seg": {"kind": "whitespace", "counts_path": None}}
    assert BuildConfig.from_dict(echoed).seg == Segmenter("whitespace")


# SHA-256 of the train shard of each (reform, max_len) build below, recorded
# from a known-good build: any change to the output bytes must be deliberate
# and update these values.
_PINNED_SHARDS = {
    ("none", 256): "e4124d72b1d5887040a2c4c0748c890fc6cee279cf14bb09f88a17463fb491a8",
    ("none", 8): "603ec0c002b596d3fe1c3faf4373aaaf31dc76fba0da7d0ac1e8f035c0f1fafd",
    ("pose", 256): "8a115874c5cf397d676464623fa77d4721058ee257e4e85b96a54541eb88b730",
    ("pose", 8): "cbaa8da91921b4b9347925981b206d240df6531bc4afb54253067343b45472ff",
    ("prefix_suffix", 256): "a683ecf95df211bdf5a5914c2c120d528948307441d8aff36aa6aab926545f5c",
    ("prefix_suffix", 8): "fea641ecfaa72cd0f6ad65f80ebffe15d50855cd75ac81c5e2d9d74402ccbf8c",
    ("parse", 256): "49a1ee2ce5c3da0de6337342ff774265d1f2e72cf7b7b5c5286438c01a1baf8d",
    ("parse", 8): "4fb41150d475ac6d630fb50e44ed3ff804d4194e34b5152ae2e6cafe69716082",
    ("mips", 256): "5105b513895abd5acb79eb93e0ab5861a57b26f53ac4de7ba64e5858d82ce2cd",
    ("mips", 8): "f431858a37457d23dfe330293a16006bcc81d70b740088a819ff5caf790f08bc",
    ("mask1", 256): "2cd450be6b9fc7d2f46a995148883e939c20305a072ccdcea5766dffc74d41f2",
    ("mask1", 8): "57da2f1413fcc2c6e4d4418823019e839571587e6bd336bfc9d417fba2b22623",
    ("mask2", 256): "422f0f3a71086cf497cb119f268d900aab535c7a11d9f57f507d6dbbf9e3ccce",
    ("mask2", 8): "e7dade6744b2447fe4be001b4705707c813a3eb50fe1f643b2c7393ca814d6a0",
    ("mask3", 256): "74c321fd04fa781eef726be00af4aa4c1e41ee2046d558d0b846835a5168c70b",
    ("mask3", 8): "da6df67bfaf2b82f286258730755bcb9105ef612d427167a8594aad4c9f81b1c",
    ("mask4", 256): "ef06cc98c52f1709b8ca8291b5006ea6134f73ec12223f5cddbbc4d40c98a34d",
    ("mask4", 8): "65c67ca83cc20c873982cedd81b496ec6e86011dbde22d1ebce7e51c2b3177f9",
}


def test_shard_digests_are_pinned(tmp_path):
    bilingual = synth_bilingual(60, seed=3)
    multi = synth_multiparallel(6, 40, seed=3)
    got = {}
    for reform in REFORM_KINDS:
        for max_len in (256, 8):  # generous, and forcing truncation
            task = "multiparallel" if reform in ("parse", "mips") else "bilingual"
            cfg = BuildConfig(
                task=task, reform=reform, n_train=120, batch_size=20, seed=4, max_len=max_len
            )
            corpus = multi if task == "multiparallel" else bilingual
            manifest = build(corpus, cfg, tmp_path / f"{reform}-{max_len}")
            (shard,) = manifest.splits["train"]["shards"]
            got[reform, max_len] = shard["sha256"]
    assert got == _PINNED_SHARDS
    # valid and test shards: plain baseline examples, truncated at max_len
    cfg = BuildConfig(
        task="bilingual", reform="pose", n_train=120, batch_size=20, seed=4, max_len=8,
        n_valid=5, n_test=4, split_fracs=(0.8, 0.1, 0.1),
    )
    manifest = build(bilingual, cfg, tmp_path / "splits")
    assert {name: [s["sha256"] for s in split["shards"]] for name, split in manifest.splits.items()} == {
        "train": ["d2058595256d47fb14439a5a62f65fe09064a819bc0ee74c450520ffa80af0cf"],
        "valid": ["75d4f479ecd98062f021748723514cc459d7447d86c260e50495d18244afab6c"],
        "test": ["c8a32f50c813b433e172770b175c1a3ed5896cc5c66a033bfcac07c7f0164c93"],
    }
