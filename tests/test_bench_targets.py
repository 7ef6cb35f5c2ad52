"""The benchmark's per-layer tracer wraps reformkit functions by the names
their callers look them up by; a name that no longer resolves, or that the
build no longer calls, would leave its layer metric reading 0 instead of
failing."""

from __future__ import annotations

import importlib.util
import json
from collections import Counter
from pathlib import Path

import reformkit.builder
import reformkit.cli
from reformkit.builder import BuildConfig, build
from reformkit.schedule import mix
from reformkit.synth import synth_multiparallel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert spans.TARGETS and missing == []


def test_build_calls_the_traced_parallel_kernels(tmp_path, monkeypatch):
    calls: Counter = Counter()
    for name in ("example_from_record", "parse_reform", "mips_reform"):
        fn = getattr(reformkit.builder, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(reformkit.builder, name, counted)
    corpus = synth_multiparallel(5, 100, seed=3)
    for reform in ("parse", "mips"):
        calls.clear()
        cfg = BuildConfig(
            task="multiparallel",
            reform=reform,
            n_train=200,
            batch_size=50,
            seed=1,
            schedule=mix(0.5, 4),
            n_valid=20,
            n_test=20,
        )
        build(corpus, cfg, tmp_path / reform, workers=1)
        examples = [
            json.loads(line)
            for path in sorted((tmp_path / reform).glob("*.jsonl"))
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        # a parse fallback is turned on too: its kernel ran and chose the baseline shape
        turned_on = sum(ex["tag"] == reform or "parse_fallback" in ex["meta"] for ex in examples)
        assert len(examples) == 240 and 0 < turned_on < 200
        assert calls == {"example_from_record": len(examples), f"{reform}_reform": turned_on}


def test_analyze_calls_the_traced_analyses(tmp_path, monkeypatch):
    calls: Counter = Counter()
    for name in ("breakdown", "pretrain_scatter"):
        fn = getattr(reformkit.cli, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(reformkit.cli, name, counted)
    codes = ("eng_Latn", "deu_Latn", "xxa_Latn")
    langs = [{"code": c, "in_pretrain": c != "xxa_Latn", "pretrain_size": 10} for c in codes]
    (tmp_path / "langs.json").write_text(json.dumps(langs), encoding="utf-8")
    rows = "".join(f"{a}\t{b}\t50\t5\n" for a in codes for b in codes if a != b)
    (tmp_path / "scores.tsv").write_text(rows, encoding="utf-8")
    argv = ["analyze", "--scores", str(tmp_path / "scores.tsv"), "--langs", str(tmp_path / "langs.json")]
    assert reformkit.cli.main([*argv, "--scatter", "from_lang"]) == 0
    assert calls == {"breakdown": 1, "pretrain_scatter": 1}
