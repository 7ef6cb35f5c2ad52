"""Command-line interface: plumbing, determinism, exit codes."""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import reformkit
from reformkit.builder import BuildConfig
from reformkit.cli import PRESETS, main
from reformkit.corpus import write_bilingual, write_multiparallel
from reformkit.schedule import policy_at
from reformkit.synth import synth_bilingual, synth_multiparallel


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def multi_corpus(tmp_path):
    path = tmp_path / "corpus"
    write_multiparallel(synth_multiparallel(6, 300, seed=3), path)
    return path


# ---------------------------------------------------------------- presets


def test_presets_all_valid_configs():
    assert len(PRESETS) == 13
    for name, raw in PRESETS.items():
        cfg = BuildConfig.from_dict(raw)
        assert cfg.reform != "none", name


def test_preset_families():
    for name in ("pose_20pct", "prefix_suffix_12", "prefix_suffix_20", "prefix_suffix_40"):
        cfg = PRESETS[name]
        assert cfg["task"] == "bilingual"
        assert cfg["batch_size"] == 512
        assert cfg["schedule"]["kind"] == "window_first"
    assert PRESETS["prefix_suffix_12"]["schedule"]["frac"] == 0.12
    assert PRESETS["prefix_suffix_40"]["schedule"]["frac"] == 0.4
    for name in ("parse_mix80", "mips_mix80"):
        cfg = PRESETS[name]
        assert cfg["task"] == "multiparallel"
        assert cfg["batch_size"] == 2048
        assert cfg["schedule"] == {"kind": "mix", "frac": 0.8}
    for name in ("mask1", "mask2", "mask3", "mask4"):
        assert PRESETS[name]["reform"] == name
        assert "schedule" not in PRESETS[name]


def test_presets_listing_and_json():
    code, out, _ = run_cli(["presets"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert all("\t" in line for line in lines)

    code, out, _ = run_cli(["presets", "--name", "mips_mix80"])
    assert code == 0
    assert json.loads(out)["reform"] == "mips"

    code, out, _ = run_cli(["presets", "--json"])
    assert set(json.loads(out)) == set(PRESETS)


def test_presets_name_with_json_exits_2():
    code, out, err = run_cli(["presets", "--name", "mips_mix80", "--json"])
    assert (code, out, err) == (2, "", "error: --name takes no --json\n")


# ---------------------------------------------------------------- build


def test_build_twice_identical_manifests(tmp_path, multi_corpus):
    argv = [
        "build", "--corpus", str(multi_corpus), "--out", str(tmp_path / "b1"),
        "--task", "multiparallel", "--reform", "pose", "--n-train", "400",
        "--batch-size", "50", "--seed", "11", "--n-valid", "40", "--n-test", "40",
    ]
    code1, out1, _ = run_cli(argv)
    argv[4] = str(tmp_path / "b2")
    code2, _, _ = run_cli(argv)
    assert code1 == code2 == 0
    m1 = (tmp_path / "b1" / "manifest.json").read_bytes()
    m2 = (tmp_path / "b2" / "manifest.json").read_bytes()
    assert m1 == m2
    echo = json.loads(out1)
    assert echo["splits"] == {"train": 400, "valid": 40, "test": 40}


def test_build_config_echo_rebuilds_identically(tmp_path, multi_corpus):
    argv = [
        "build", "--corpus", str(multi_corpus), "--out", str(tmp_path / "b1"),
        "--task", "multiparallel", "--reform", "parse", "--n-train", "300",
        "--batch-size", "100", "--seed", "4",
    ]
    code, out, _ = run_cli(argv)
    assert code == 0
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(json.loads(out)["config"]), encoding="utf-8")
    code, _, _ = run_cli(
        ["build", "--corpus", str(multi_corpus), "--out", str(tmp_path / "b2"),
         "--config", str(cfg_file)]
    )
    assert code == 0
    assert (
        (tmp_path / "b1" / "manifest.json").read_bytes()
        == (tmp_path / "b2" / "manifest.json").read_bytes()
    )


def test_build_preset_with_overrides_uses_window(tmp_path):
    corpus_file = tmp_path / "pairs.tsv"
    write_bilingual(synth_bilingual(400, seed=2), corpus_file, "tsv")
    code, out, _ = run_cli(
        ["build", "--corpus", str(corpus_file), "--out", str(tmp_path / "b"),
         "--preset", "pose_20pct", "--n-train", "200", "--n-valid", "20",
         "--n-test", "20", "--batch-size", "50", "--seed", "1"]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    # 4 steps of 50; the first-20% window covers only step 0
    assert manifest["splits"]["train"]["tags"] == {"baseline": 150, "pose": 50}
    assert manifest["config"]["schedule"]["kind"] == "window_first"


def test_build_seed_from_environment(tmp_path, multi_corpus, monkeypatch):
    argv = [
        "build", "--corpus", str(multi_corpus), "--out", str(tmp_path / "b1"),
        "--task", "multiparallel", "--reform", "none", "--n-train", "100",
        "--batch-size", "50",
    ]
    monkeypatch.setenv("REFORMKIT_SEED", "77")
    code, out, _ = run_cli(argv)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 77
    # an explicit flag wins over the environment
    argv[4] = str(tmp_path / "b2")
    code, out, _ = run_cli(argv + ["--seed", "5"])
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 5
    monkeypatch.setenv("REFORMKIT_SEED", "seven")
    argv[4] = str(tmp_path / "b3")
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err == "error: REFORMKIT_SEED must be an integer, got 'seven'\n"


def test_build_seed_and_field_precedence(tmp_path, multi_corpus, monkeypatch):
    # flag > config file > REFORMKIT_SEED > 0, and a flag overrides its config field
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        json.dumps({"task": "multiparallel", "reform": "none", "n_train": 100, "batch_size": 50, "seed": 3}),
        encoding="utf-8",
    )
    monkeypatch.setenv("REFORMKIT_SEED", "77")
    base = ["build", "--corpus", str(multi_corpus), "--config", str(cfg_file)]
    for i, (extra, seed, n_train) in enumerate(
        ((["--n-train", "150"], 3, 150), (["--seed", "5"], 5, 100))
    ):
        code, out, err = run_cli(base + ["--out", str(tmp_path / f"b{i}")] + extra)
        assert code == 0, err
        config = json.loads(out)["config"]
        assert (config["seed"], config["n_train"]) == (seed, n_train)


# ---------------------------------------------------------------- sample


def test_sample_deterministic(multi_corpus):
    code1, out1, _ = run_cli(["sample", "--corpus", str(multi_corpus), "--n", "20", "--seed", "9"])
    code2, out2, _ = run_cli(["sample", "--corpus", str(multi_corpus), "--n", "20", "--seed", "9"])
    assert code1 == code2 == 0
    assert out1 == out2
    rows = [json.loads(line) for line in out1.strip().splitlines()]
    assert len(rows) == 20
    assert all(row["src"] != row["tgt"] for row in rows)


# ---------------------------------------------------------------- schedule


def test_schedule_at_matches_policy():
    from reformkit.schedule import curriculum2

    policy = curriculum2(10000)
    for step in (0, 1999, 2000, 4000, 5999, 6000, 9999):
        code, out, _ = run_cli(
            ["schedule", "--preset", "curriculum2", "--steps", "10000", "--at", str(step)]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reform_fraction"] == policy_at(step, policy).reform_fraction
        assert payload["prefix"] is None
    # a curriculum fixes the prefix fraction, and the JSON holds the number
    code, out, _ = run_cli(["schedule", "--preset", "curriculum1", "--steps", "10", "--at", "3"])
    assert (code, json.loads(out)["prefix"]) == (0, 0.7)


def test_schedule_dump_tsv():
    code, out, _ = run_cli(
        ["schedule", "--kind", "window_first", "--frac", "0.2", "--steps", "10",
         "--resolution", "11"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["step", "reform_fraction", "prefix", "mask_active"]
    assert len(lines) == 12
    fracs = [float(line.split("\t")[1]) for line in lines[1:]]
    assert fracs[0] == 1.0 and fracs[1] == 1.0 and all(f == 0.0 for f in fracs[2:])


def test_schedule_at_with_resolution_exits_2():
    code, out, err = run_cli(
        ["schedule", "--kind", "mix", "--frac", "0.5", "--steps", "10", "--at", "3",
         "--resolution", "5"]
    )
    assert (code, out, err) == (2, "", "error: --at takes no --resolution\n")


def test_schedule_mask_preset_flag():
    code, out, _ = run_cli(["schedule", "--preset", "mask3", "--steps", "100", "--at", "60"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mask"] == {"p": 0.25, "span": False, "mean_span": 3}


# ---------------------------------------------------------------- score / stats


def test_score_copy_is_100(tmp_path):
    hyp = tmp_path / "h.txt"
    hyp.write_text("ab cd\nef gh ij\n", encoding="utf-8")
    code, out, _ = run_cli(["score", "--metric", "chrfpp", "--hyp", str(hyp), "--ref", str(hyp)])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 100.0
    assert payload["n"] == 2
    assert (payload["config"]["smoothing"], payload["config"]["smoothing_k"]) == ("none", 1.0)


def test_score_lines_split_at_lf_only(tmp_path):
    hyp, ref = tmp_path / "h.txt", tmp_path / "r.txt"
    hyp.write_text("the cat\u2028sat\nhello\rthere\n", encoding="utf-8")
    ref.write_text("the cat sat\nhello there\n", encoding="utf-8")
    for metric in ("bleu", "chrfpp"):
        code, out, err = run_cli(["score", "--metric", metric, "--hyp", str(hyp), "--ref", str(ref)])
        assert code == 0, err
        assert json.loads(out)["n"] == 2


def test_score_crlf_equals_lf(tmp_path):
    ref = tmp_path / "r.txt"
    ref.write_text("the cat sat\nhello there\n", encoding="utf-8")
    outs = []
    for name, data in (("lf", b"the cat sit\nhello\n"), ("crlf", b"the cat sit\r\nhello\r\n")):
        hyp = tmp_path / f"{name}.txt"
        hyp.write_bytes(data)
        for metric in ("bleu", "chrfpp"):
            code, out, _ = run_cli(["score", "--metric", metric, "--hyp", str(hyp), "--ref", str(ref)])
            assert code == 0
            outs.append(out)
    assert outs[:2] == outs[2:]


def test_score_bleu_smoothing_flags(tmp_path):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text("a b c\n", encoding="utf-8")
    ref.write_text("a b d\n", encoding="utf-8")
    code, out, _ = run_cli(
        ["score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(ref),
         "--smoothing", "add_k", "--k", "1", "--src", "xx", "--tgt", "yy"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["src"] == "xx" and payload["tgt"] == "yy"
    assert 0.0 < payload["value"] < 100.0


def test_score_chrfpp_with_smoothing_or_k_exits_2(tmp_path):
    hyp = tmp_path / "h.txt"
    hyp.write_text("ab cd\n", encoding="utf-8")
    for extra in (
        ["--smoothing", "none"],
        ["--smoothing", "add_k"],
        ["--k", "3"],
        ["--smoothing", "add_k", "--k", "3"],
    ):
        code, out, err = run_cli(
            ["score", "--metric", "chrfpp", "--hyp", str(hyp), "--ref", str(hyp), *extra]
        )
        assert (code, out, err) == (2, "", "error: --metric chrfpp takes no --smoothing or --k\n")


def test_score_k_without_add_k_exits_2(tmp_path):
    hyp = tmp_path / "h.txt"
    hyp.write_text("ab cd\n", encoding="utf-8")
    for extra in (["--k", "3"], ["--smoothing", "none", "--k", "3"]):
        code, out, err = run_cli(
            ["score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(hyp), *extra]
        )
        assert (code, out, err) == (2, "", "error: --k needs --smoothing add_k\n")


def test_stats_matches_manifest(tmp_path, multi_corpus):
    code, _, _ = run_cli(
        ["build", "--corpus", str(multi_corpus), "--out", str(tmp_path / "b"),
         "--task", "multiparallel", "--reform", "mips", "--n-train", "300",
         "--batch-size", "100", "--seed", "8"]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    shards = sorted(str(p) for p in (tmp_path / "b").glob("train-*.jsonl"))
    code, out, _ = run_cli(["stats", *shards])
    assert code == 0
    recount = json.loads(out)
    assert recount["n_examples"] == manifest["splits"]["train"]["n_examples"]
    assert recount["tags"] == manifest["splits"]["train"]["tags"]


def test_stats_counts_with_shards_or_seg_exits_2(tmp_path):
    counts = tmp_path / "counts.txt"
    counts.write_text("3\n5\n", encoding="utf-8")
    code, out, _ = run_cli(["stats", "--counts", str(counts)])
    assert code == 0 and json.loads(out)["n_examples"] == 2
    for extra in (
        [str(tmp_path / "train-00000.jsonl")],
        ["--seg", "codepoints"],
        ["--seg", "unicode_words"],
        [str(tmp_path / "nope.jsonl"), "--seg", "whitespace"],
    ):
        code, out, err = run_cli(["stats", "--counts", str(counts), *extra])
        assert (code, out) == (2, "")
        assert err == "error: --counts takes no shard paths or --seg\n"


def test_stats_without_shards_or_counts_exits_2():
    assert run_cli(["stats"]) == (2, "", "error: stats needs shard paths or --counts\n")


def test_stats_counts_lone_cr_is_not_a_line_break(tmp_path):
    counts = tmp_path / "counts.txt"
    counts.write_bytes(b"3\r4\n")
    code, out, err = run_cli(["stats", "--counts", str(counts)])
    assert (code, out) == (1, "")
    assert err == f"error: {counts}: line 1: not an integer: '3\\r4'\n"


def test_corpus_format_with_multiparallel_task_exits_2(tmp_path, multi_corpus):
    config = tmp_path / "config.json"
    config.write_text('{"task": "multiparallel", "reform": "none"}', encoding="utf-8")
    for name, task in (
        ("flag", ["--task", "multiparallel", "--reform", "none"]),
        ("preset", ["--preset", "parse_mix80"]),
        ("config", ["--config", str(config)]),
    ):
        code, out, err = run_cli(
            ["build", "--corpus", str(multi_corpus), "--corpus-format", "tsv",
             "--out", str(tmp_path / name), "--n-train", "10", "--batch-size", "5", *task]
        )
        assert (code, out) == (2, ""), name
        assert err == "error: --corpus-format is only for the bilingual task\n"
        assert not (tmp_path / name).exists()


# ---------------------------------------------------------------- analyze


def test_analyze_breakdown_and_scatter(tmp_path, multi_corpus):
    scores = tmp_path / "scores.tsv"
    scores.write_text(
        "src\ttgt\tvalue\tn\n"
        "l01_Cyrl\teng_Latn\t40.0\t100\n"
        "eng_Latn\tl01_Cyrl\t20.0\t100\n"
        "l02_Deva\tl03_Arab\t10.0\t50\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        ["analyze", "--scores", str(scores), "--langs", str(multi_corpus / "manifest.json"),
         "--scatter", "from_lang", "--scatter-tsv", str(tmp_path / "scatter.tsv")]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["breakdown"]["to_eng"] == {"value": 40.0, "n": 1}
    assert payload["breakdown"]["avg"]["n"] == 3
    assert payload["breakdown"]["avg"]["value"] == pytest.approx(70.0 / 3.0)
    assert "scatter" in payload
    assert (tmp_path / "scatter.tsv").read_text().splitlines()[0].startswith("language\t")


# ---------------------------------------------------------------- smoke


def test_smoke_end_to_end(tmp_path):
    out_dir = tmp_path / "smoke"
    code, out, err = run_cli(["smoke", "--out", str(out_dir), "--seed", "7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["copy_chrfpp"] == 100.0
    assert payload["breakdown_avg"] == 100.0
    assert set(payload["builds"]) == {"baseline", "parse", "mips"}
    assert payload["builds"]["parse"]["examples_per_step"] == 50
    assert (out_dir / "breakdown.json").is_file()
    assert (out_dir / "scores.json").is_file()
    # everything lands under --out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["smoke"]
    assert "smoke ok" in err


# ---------------------------------------------------------------- errors


def test_unknown_preset_exits_1(tmp_path, multi_corpus):
    code, _, err = run_cli(
        ["build", "--corpus", str(multi_corpus), "--out", str(tmp_path / "b"),
         "--preset", "nope"]
    )
    assert code == 1
    assert err.startswith("error:")
    assert run_cli(["presets", "--name", "nope"]) == (1, "", "error: unknown preset: 'nope'\n")


def test_zero_batch_size_exits_1(tmp_path):
    # the preset's schedule needs ceil(n_train / batch_size) steps
    corpus = tmp_path / "c.tsv"
    corpus.write_text("a b\tc d\ne f\tg h\n", encoding="utf-8")
    code, out, err = run_cli(
        ["build", "--preset", "curriculum1", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
         "--batch-size", "0", "--n-train", "100"]
    )
    assert (code, out, err) == (1, "", "error: batch_size must be >= 1\n")


def test_non_object_config_exits_1(tmp_path, multi_corpus):
    config = tmp_path / "config.json"
    config.write_text("[1]", encoding="utf-8")
    code, out, err = run_cli(
        ["build", "--config", str(config), "--corpus", str(multi_corpus),
         "--out", str(tmp_path / "b")]
    )
    assert (code, out, err) == (1, "", f"error: {config}: config must be a JSON object\n")


@pytest.mark.parametrize(
    "reform, schedule",
    [
        ("none", {"kind": "mask_window", "end_frac": 1.0}),
        ("none", {"kind": "mix", "frac": 0.5}),
        ("none", {"kind": "window_first", "frac": 0.5}),
        ("pose", {"kind": "mask_window", "end_frac": 1.0, "span": True}),
        ("parse", {"kind": "mask_window", "end_frac": 1.0}),
        ("mask4", {"kind": "mix", "frac": 1.0}),
        ("mask4", {"kind": "window_first", "frac": 0.5}),
        ("mask4", {"kind": "curriculum1"}),
    ],
)
def test_reform_with_a_schedule_it_takes_not_exits_1(tmp_path, multi_corpus, reform, schedule):
    config = tmp_path / "config.json"
    data = {"task": "multiparallel", "reform": reform, "n_train": 20, "batch_size": 10}
    config.write_text(json.dumps({**data, "schedule": schedule}), encoding="utf-8")
    code, out, err = run_cli(
        ["build", "--config", str(config), "--corpus", str(multi_corpus),
         "--out", str(tmp_path / "b")]
    )
    message = f"error: reform {reform} takes no {schedule['kind']} schedule\n"
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize(
    "reform, key, value",
    [
        ("pose", "front_share", 0.2),
        ("parse", "front_share", 0.1),
        ("mask1", "front_share", 0.9),
        ("mips", "pivot", "xyz"),
        ("pose", "pivot", "deu_Latn"),
        ("none", "pivot", "xyz"),
    ],
)
def test_reform_with_a_field_it_reads_not_exits_1(tmp_path, multi_corpus, reform, key, value):
    config = tmp_path / "config.json"
    data = {"task": "multiparallel", "reform": reform, "n_train": 20, "batch_size": 10}
    config.write_text(json.dumps({**data, key: value}), encoding="utf-8")
    code, out, err = run_cli(
        ["build", "--config", str(config), "--corpus", str(multi_corpus),
         "--out", str(tmp_path / "b")]
    )
    assert (code, out, err) == (1, "", f"error: reform {reform} takes no {key}\n")


def test_non_finite_config_number_exits_1(tmp_path, multi_corpus):
    config = tmp_path / "config.json"
    data = {"task": "multiparallel", "reform": "none", "n_train": 20, "batch_size": 10}
    config.write_text(json.dumps({**data, "split_fracs": [float("nan"), 0.05, 0.05]}), encoding="utf-8")
    assert "NaN" in config.read_text(encoding="utf-8")
    code, out, err = run_cli(
        ["build", "--config", str(config), "--corpus", str(multi_corpus),
         "--out", str(tmp_path / "b")]
    )
    assert (code, out, err) == (1, "", "error: split_fracs must be finite, got nan\n")


@pytest.mark.parametrize("k", ["nan", "inf"])
def test_score_non_finite_k_exits_1(tmp_path, k):
    hyp = tmp_path / "h.txt"
    hyp.write_text("a b c\n", encoding="utf-8")
    code, out, err = run_cli(
        ["score", "--metric", "bleu", "--hyp", str(hyp), "--ref", str(hyp),
         "--smoothing", "add_k", "--k", k]
    )
    assert (code, out, err) == (1, "", "error: smoothing_k must be finite and > 0\n")


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_64_bits_exits_1(tmp_path, multi_corpus, monkeypatch, seed):
    error = f"error: seed must be in [0, 2**64), got {seed}\n"
    build_argv = ["build", "--corpus", str(multi_corpus), "--out", str(tmp_path / "b"),
                  "--task", "multiparallel", "--reform", "none", "--n-train", "20",
                  "--batch-size", "10"]
    sample_argv = ["sample", "--corpus", str(multi_corpus), "--n", "3"]
    smoke_argv = ["smoke", "--out", str(tmp_path / "s")]
    for argv in (build_argv, sample_argv, smoke_argv):
        assert run_cli([*argv, "--seed", seed]) == (1, "", error)
        monkeypatch.setenv("REFORMKIT_SEED", seed)
        assert run_cli(argv) == (1, "", error)
        monkeypatch.delenv("REFORMKIT_SEED")
        # the seed is checked before anything is written
        assert not (tmp_path / "b").exists() and not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "seed", ["9" * 5000, " -" + "9" * 5000 + " ", "1_" + "0" * 5000], ids=["nines", "negative", "underscore"]
)
def test_env_seed_too_long_to_convert_exits_1(tmp_path, multi_corpus, monkeypatch, seed):
    # past int()'s digit limit an integer is still out of range, not "not an integer"
    error = f"error: seed must be in [0, 2**64), got an integer of {sum(map(str.isdecimal, seed))} digits\n"
    monkeypatch.setenv("REFORMKIT_SEED", seed)
    for argv in (
        ["build", "--corpus", str(multi_corpus), "--out", str(tmp_path / "b"), "--task",
         "multiparallel", "--reform", "none", "--n-train", "20", "--batch-size", "10"],
        ["sample", "--corpus", str(multi_corpus), "--n", "3"],
        ["smoke", "--out", str(tmp_path / "s")],
    ):
        assert run_cli(argv) == (1, "", error)
    assert not (tmp_path / "b").exists() and not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "seed, code, error",
    [
        ("9" * 5000, 1, "error: seed must be in [0, 2**64), got an integer of 5000 digits\n"),
        ("18446744073709551616", 1, "error: seed must be in [0, 2**64), got 18446744073709551616\n"),
        ("seven", 2, "error: --seed must be an integer, got 'seven'\n"),
        ("1.5", 2, "error: --seed must be an integer, got '1.5'\n"),
    ],
    ids=["nines", "2**64", "word", "float"],
)
def test_seed_flag_is_parsed_as_the_environment_is(tmp_path, multi_corpus, monkeypatch, seed, code, error):
    # the flag wins over a valid environment seed, and fails before anything is written
    monkeypatch.setenv("REFORMKIT_SEED", "3")
    for argv in (
        ["build", "--corpus", str(multi_corpus), "--out", str(tmp_path / "b"), "--task",
         "multiparallel", "--reform", "none", "--n-train", "20", "--batch-size", "10"],
        ["sample", "--corpus", str(multi_corpus), "--n", "3"],
        ["smoke", "--out", str(tmp_path / "s")],
    ):
        assert run_cli([*argv, "--seed", seed]) == (code, "", error)
    assert not (tmp_path / "b").exists() and not (tmp_path / "s").exists()


def test_config_integer_too_long_to_convert_exits_1(tmp_path, multi_corpus):
    config = tmp_path / "config.json"
    config.write_text('{"seed": ' + "9" * 5000 + "}", encoding="utf-8")
    code, out, err = run_cli(
        ["build", "--config", str(config), "--corpus", str(multi_corpus),
         "--out", str(tmp_path / "b"), "--task", "multiparallel", "--reform", "none",
         "--n-train", "20", "--batch-size", "10"]
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if hasattr(sys, "get_int_max_str_digits"):  # the conversion limit this hits
        assert err.startswith(f"error: {config}: invalid JSON: ")
    assert not (tmp_path / "b").exists()


def test_stray_schedule_field_exits_1(tmp_path, multi_corpus):
    config = tmp_path / "config.json"
    data = {"task": "multiparallel", "reform": "pose", "n_train": 20, "batch_size": 10}
    config.write_text(
        json.dumps({**data, "schedule": {"kind": "curriculum1", "frac": 0.3}}), encoding="utf-8"
    )
    code, out, err = run_cli(
        ["build", "--config", str(config), "--corpus", str(multi_corpus),
         "--out", str(tmp_path / "b")]
    )
    assert (code, out, err) == (1, "", "error: curriculum1 schedule takes no frac\n")


def test_truncated_config_exits_1(tmp_path, multi_corpus):
    config = tmp_path / "config.json"
    config.write_text('{\n  "task": "multiparallel",\n  "reform": \n}\n', encoding="utf-8")
    code, out, err = run_cli(
        ["build", "--config", str(config), "--corpus", str(multi_corpus),
         "--out", str(tmp_path / "b")]
    )
    assert (code, out) == (1, "")
    assert err == f"error: {config}: line 4: invalid JSON: Expecting value\n"


@pytest.mark.parametrize("bad", ['{"tag":"baseline","input":"a"}', "[1,2]", "not json"])
def test_stats_bad_line_exits_1(tmp_path, bad):
    shard = tmp_path / "train-00000.jsonl"
    good = '{"tag":"baseline","input":"a b","target":"c"}'
    shard.write_text(f"{good}\n{bad}\n", encoding="utf-8")
    code, out, err = run_cli(["stats", str(shard)])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {shard}: line 2:")


def _assert_not_utf8_error(result, path, lineno):
    code, out, err = result
    assert (code, out) == (1, "")
    assert err == f"error: {path}: line {lineno}: not valid UTF-8\n"


def test_stats_non_utf8_line_exits_1(tmp_path):
    # the bad byte sits far past the first block a text reader decodes
    shard = tmp_path / "train-00000.jsonl"
    good = b'{"tag":"baseline","input":"a b","target":"c"}\n'
    shard.write_bytes(good * 4999 + b'{"tag":"baseline","input":"\xff","target":"c"}\n' + good)
    _assert_not_utf8_error(run_cli(["stats", str(shard)]), shard, 5000)


def test_build_non_utf8_corpus_exits_1(tmp_path):
    corpus = tmp_path / "c.tsv"
    corpus.write_bytes(b"a b\tc d\nab\t\xff\n")
    result = run_cli(
        ["build", "--corpus", str(corpus), "--out", str(tmp_path / "out"), "--task", "bilingual",
         "--reform", "none", "--n-train", "1", "--batch-size", "1"]
    )
    _assert_not_utf8_error(result, corpus, 2)


def test_build_jsonl_lone_surrogate_exits_1(tmp_path):
    # a JSON escape can name a lone surrogate, which no UTF-8 shard can hold
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        '{"source": "a b", "target": "c d"}\n{"source": "a\\ud800b", "target": "c"}\n',
        encoding="utf-8",
    )
    code, out, err = run_cli(
        ["build", "--corpus", str(corpus), "--corpus-format", "jsonl", "--out", str(tmp_path / "out"),
         "--task", "bilingual", "--reform", "none", "--n-train", "2", "--batch-size", "1"]
    )
    assert (code, out) == (1, "")
    assert err == (
        f"error: {corpus}: 1 malformed row(s): line 2: source/target is not valid UTF-8 text\n"
    )


def test_score_non_utf8_reference_exits_1(tmp_path):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text("a b\nc d\n", encoding="utf-8")
    ref.write_bytes(b"a b\nc \xff\n")
    result = run_cli(["score", "--metric", "chrfpp", "--hyp", str(hyp), "--ref", str(ref)])
    _assert_not_utf8_error(result, ref, 2)


def test_unknown_schedule_preset_exits_2():
    code, out, err = run_cli(["schedule", "--preset", "warmup", "--steps", "10"])
    assert (code, out) == (2, "")
    assert err == "error: unknown schedule preset: 'warmup' (curriculum1..3 or mask1..4)\n"


def test_schedule_without_preset_or_kind_exits_2():
    code, out, err = run_cli(["schedule", "--steps", "10"])
    assert (code, out, err) == (2, "", "error: schedule needs --preset or --kind\n")


def test_missing_frac_exits_2():
    code, _, err = run_cli(["schedule", "--kind", "mix", "--steps", "100"])
    assert code == 2
    assert "frac" in err


def test_schedule_preset_with_kind_or_frac_exits_2():
    for extra in (["--kind", "mix", "--frac", "0.5"], ["--frac", "0.5"]):
        code, out, err = run_cli(["schedule", "--preset", "curriculum1", "--steps", "10", *extra])
        assert (code, out) == (2, "")
        assert err == "error: --preset takes no --kind or --frac\n"


def test_score_src_without_tgt_exits_2(tmp_path):
    hyp = tmp_path / "h.txt"
    hyp.write_text("ab cd\n", encoding="utf-8")
    for flag in ("--src", "--tgt"):
        code, out, err = run_cli(
            ["score", "--metric", "chrfpp", "--hyp", str(hyp), "--ref", str(hyp), flag, "deu_Latn"]
        )
        assert (code, out) == (2, "")
        assert err == "error: --src and --tgt go together\n"


def test_analyze_scatter_tsv_without_scatter_exits_2(tmp_path, multi_corpus):
    scores = tmp_path / "scores.tsv"
    scores.write_text("src\ttgt\tvalue\tn\nl01_Cyrl\teng_Latn\t40.0\t100\n", encoding="utf-8")
    code, out, err = run_cli(
        ["analyze", "--scores", str(scores), "--langs", str(multi_corpus / "manifest.json"),
         "--scatter-tsv", str(tmp_path / "scatter.tsv")]
    )
    assert (code, out) == (2, "")
    assert err == "error: --scatter-tsv needs --scatter\n"
    assert not (tmp_path / "scatter.tsv").exists()


def test_missing_file_exits_1(tmp_path):
    ref = tmp_path / "r.txt"
    ref.write_text("a\n", encoding="utf-8")
    code, _, err = run_cli(
        ["score", "--metric", "chrfpp", "--hyp", str(tmp_path / "nope.txt"), "--ref", str(ref)]
    )
    assert code == 1
    assert err.startswith("error:")


_GOOD_SCORES = "src\ttgt\tvalue\tn\nl01_Cyrl\teng_Latn\t40.0\t100\n"
_GOOD_LANGS = '[{"code": "eng_Latn"}, {"code": "l01_Cyrl"}]'


@pytest.mark.parametrize(
    "scores, langs, where",
    [
        ("l01_Cyrl\teng_Latn\tforty\t100\n", _GOOD_LANGS, "line 1"),
        (_GOOD_SCORES + "l01_Cyrl\teng_Latn\t40.0\tmany\n", _GOOD_LANGS, "line 3"),
        (_GOOD_SCORES, '[{"code": "eng_Latn"}, {"in_pretrain": true}]', "entry 1"),
        (_GOOD_SCORES, '["eng_Latn"]', "entry 0"),
        (
            _GOOD_SCORES,
            '[{"code": "aaa"}, {"code": "eng_Latn"}, {"code": "aaa", "in_pretrain": true}]',
            "langs.json: entry 2: duplicate code aaa (first at entry 0)",
        ),
        (
            _GOOD_SCORES,
            '[{"code": "aaa", "pretrain_size": -3}]',
            "langs.json: entry 0: aaa: pretrain_size must be >= 0",
        ),
        (_GOOD_SCORES, '[{"code": "eng_Latn"},', "langs.json: line 1: invalid JSON: Expecting value"),
    ],
)
def test_analyze_bad_input_is_one_error_line(tmp_path, scores, langs, where):
    (tmp_path / "scores.tsv").write_text(scores, encoding="utf-8")
    (tmp_path / "langs.json").write_text(langs, encoding="utf-8")
    code, out, err = run_cli(
        ["analyze", "--scores", str(tmp_path / "scores.tsv"),
         "--langs", str(tmp_path / "langs.json")]
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and where in err


_ROW_ERRORS = [
    ("aaa_Latn\tbbb_Latn\t10.0\n", "line 2: expected src, tgt, value, n"),
    ("aaa_Latn\taaa_Latn\t10.0\t5\n", "line 2: direction must have distinct languages"),
    ("aaa_Latn\tbbb_Latn\tnan\t5\n", "line 2: score nan outside [0, 100]"),
    ("aaa_Latn\tbbb_Latn\t100.5\t5\n", "line 2: score 100.5 outside [0, 100]"),
    ("aaa_Latn\tbbb_Latn\t-1\t5\n", "line 2: score -1.0 outside [0, 100]"),
    ("aaa_Latn\tbbb_Latn\t10.0\t0\n", "line 2: n_sentences must be >= 1"),
    (
        "aaa_Latn\tbbb_Latn\t10.0\t5\nbbb_Latn\taaa_Latn\t50.0\t5\naaa_Latn\tbbb_Latn\t90.0\t5\n",
        "line 4: duplicate direction aaa_Latn-bbb_Latn, first on line 2",
    ),
    # the first error in file order wins: the duplicate before the bad row
    (
        "aaa_Latn\tbbb_Latn\t10.0\t5\naaa_Latn\tbbb_Latn\t90.0\t5\naaa_Latn\tbbb_Latn\tforty\t5\n",
        "line 3: duplicate direction aaa_Latn-bbb_Latn, first on line 2",
    ),
]


@pytest.mark.parametrize("rows, message", _ROW_ERRORS)
def test_analyze_row_errors_name_file_and_line(tmp_path, rows, message):
    scores = tmp_path / "scores.tsv"
    scores.write_text("src\ttgt\tvalue\tn\n" + rows, encoding="utf-8")
    (tmp_path / "langs.json").write_text('[{"code": "aaa_Latn"}, {"code": "bbb_Latn"}]', encoding="utf-8")
    code, out, err = run_cli(
        ["analyze", "--scores", str(scores), "--langs", str(tmp_path / "langs.json")]
    )
    assert (code, out) == (1, "")
    assert err == f"error: {scores}: {message}\n"


def run_python(argv, stdout=subprocess.PIPE, timeout=None):
    """Run a child Python on the ``reformkit`` package this process imported.

    ``PYTHONPATH`` gets that package's absolute parent directory first, so the
    child runs the code under test from any working directory.
    """
    src = str(Path(reformkit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + [p for p in inherited if p]))
    return subprocess.run(
        argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=timeout
    )


def test_bad_flag_exits_2_via_module():
    proc = run_python([sys.executable, "-m", "reformkit.cli", "schedule", "--steps", "x"])
    assert proc.returncode == 2


# A 4-shard mips build with 1, 2 and 9 workers, printing each build's train
# shard SHA-256 list; argv is the start method and an output directory.
_START_METHOD_BUILDS = """
import json, multiprocessing, sys
from reformkit.builder import BuildConfig, build
from reformkit.schedule import mix
from reformkit.synth import synth_multiparallel

multiprocessing.set_start_method(sys.argv[1], force=True)
corpus = synth_multiparallel(5, 80, seed=4)
cfg = BuildConfig(task="multiparallel", reform="mips", n_train=400, batch_size=100,
                  seed=11, schedule=mix(0.8, 4), shard_size=100)
print(json.dumps([
    [s["sha256"] for s in build(corpus, cfg, f"{sys.argv[2]}/w{w}", workers=w).splits["train"]["shards"]]
    for w in (1, 2, 9)
]))
"""


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_worker_count_does_not_change_bytes_under_each_start_method(method, tmp_path):
    # pool workers get the build-wide arguments from the pool initializer:
    # inherited under fork, pickled once per worker under spawn and forkserver
    proc = run_python([sys.executable, "-c", _START_METHOD_BUILDS, method, str(tmp_path)], timeout=120)
    assert proc.returncode == 0, proc.stderr
    one, two, nine = json.loads(proc.stdout)
    assert len(one) == 4
    assert one == two == nine


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv", [["presets"], ["schedule", "--preset", "mask4", "--steps", "100000", "--resolution", "1000"]]
)
def test_closed_stdout_exits_1_quietly(argv, unbuffered, monkeypatch):
    # The read end is closed before the child starts, so every write to
    # stdout fails with EPIPE: at the first print when unbuffered, else when
    # the buffer fills (23 kB of schedule) or at the final flush (presets).
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        proc = run_python([sys.executable, "-m", "reformkit.cli", *argv], stdout=write_fd)
    finally:
        os.close(write_fd)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_console_script_entry_point():
    # The target declared in pyproject.toml, called the way the wrapper that
    # ``pip install`` generates calls it; no install is needed.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["reformkit"]
    module, attr = target.split(":")
    proc = run_python(
        [sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())", "presets"]
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 13

    # Where the package is installed, the generated wrapper itself must agree.
    wrapper = shutil.which("reformkit")
    if wrapper is not None:
        installed = run_python([wrapper, "presets"])
        assert installed.returncode == 0, installed.stderr
        assert installed.stdout == proc.stdout
