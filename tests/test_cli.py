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


def test_schedule_dump_tsv():
    code, out, _ = run_cli(
        ["schedule", "--kind", "window_first", "--frac", "0.2", "--steps", "10",
         "--dump", "--resolution", "11"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["step", "reform_fraction", "prefix", "mask_active"]
    assert len(lines) == 12
    fracs = [float(line.split("\t")[1]) for line in lines[1:]]
    assert fracs[0] == 1.0 and fracs[1] == 1.0 and all(f == 0.0 for f in fracs[2:])


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


@pytest.mark.parametrize("bad", ['{"tag":"baseline","input":"a"}', "[1,2]", "not json"])
def test_stats_bad_line_exits_1(tmp_path, bad):
    shard = tmp_path / "train-00000.jsonl"
    good = '{"tag":"baseline","input":"a b","target":"c"}'
    shard.write_text(f"{good}\n{bad}\n", encoding="utf-8")
    code, out, err = run_cli(["stats", str(shard)])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {shard}: line 2:")


def test_missing_frac_exits_2():
    code, _, err = run_cli(["schedule", "--kind", "mix", "--steps", "100", "--dump"])
    assert code == 2
    assert "frac" in err


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


def run_python(argv, stdout=subprocess.PIPE):
    """Run a child Python on the ``reformkit`` package this process imported.

    ``PYTHONPATH`` gets that package's absolute parent directory first, so the
    child runs the code under test from any working directory.
    """
    src = str(Path(reformkit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + [p for p in inherited if p]))
    return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


def test_bad_flag_exits_2_via_module():
    proc = run_python([sys.executable, "-m", "reformkit.cli", "schedule", "--steps", "x"])
    assert proc.returncode == 2


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
