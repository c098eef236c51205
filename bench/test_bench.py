"""Self-tests of the benchmark at toy sizes.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracing

API = run.import_package()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy(name: str) -> run.Workload:
    wl = run.WORKLOADS[name]
    return replace(
        wl,
        vocab_size=min(wl.vocab_size, 40),
        train_lines=64,
        timed_len=None if wl.timed_len is None else (10, 14),
        timed_lines=16,
        f_lines=8,
        f_floor=0.0,
    )


def run_toy(wl: run.Workload, trace: bool, tmp_path: Path):
    return run.run_workload(API, wl, seed=3, seconds=0.05, trace=trace, workdir=tmp_path / "work", outdir=tmp_path / "out")


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_with_its_unit(name, trace, tmp_path):
    result, _ = run_toy(toy(name), trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace:
        assert (tmp_path / "out" / f"spans-{name}-seed3.jsonl").is_file()


@pytest.mark.parametrize("name", ["segment-short", "sweep-lexicon"])
def test_layer_self_times_add_up_to_line_spans(name, tmp_path):
    result, _ = run_toy(toy(name), True, tmp_path)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    parts = sum(m[name] for name in run.LAYER_SPANS)
    assert parts == pytest.approx(m["pipeline.line_s"], rel=1e-9)
    assert m["pipeline.self_s"] >= 0.0


def test_attrs_time_is_left_out_of_open_spans():
    class Owner:
        @staticmethod
        def work():
            return 1

    def slow_attrs(args, result):
        t0 = tracing.clock()
        while tracing.clock() - t0 < 0.05:
            pass
        return {"result": result}

    tracer = tracing.Tracer()
    tracer.wrap(Owner, "work", "work", slow_attrs)
    tracer.install()
    with tracer.span("line") as line:
        Owner.work()
    tracer.uninstall()
    assert tracer.spans[1].attrs == {"result": 1}
    assert line.duration < 0.04


def test_chunks_are_scaled_by_the_reference_factor():
    window = run.Window(keep=0, ncuts=1)
    checks = run.Checks()
    for line in ("ab", "cde"):
        window.add(line, [[line]], 0, 0.5, checks)
    window.close_chunk(2.0)
    window.add("f", [["f"]], 0, 0.25, checks)
    window.close_chunk(0.5)
    assert window.chunk_factors == [2.0, 0.5]
    assert list(window.scaled_latencies()) == [1.0, 1.0, 0.125]
    assert not checks.failures


def test_dropped_word_trips_the_check(tmp_path, monkeypatch):
    original = API.pipeline.labels_to_words
    monkeypatch.setattr(API.pipeline, "labels_to_words", lambda s, labels: original(s, labels)[:-1])
    result, info = run_toy(toy("segment-short"), False, tmp_path)
    assert not result["correct"]
    assert any("does not spell" in f for f in info["failures"])


def test_low_f_trips_the_floor(tmp_path):
    result, info = run_toy(replace(toy("segment-short"), f_floor=1.01), False, tmp_path)
    assert not result["correct"]
    assert any("below the floor" in f for f in info["failures"])


def test_traced_words_must_match_untraced(tmp_path, monkeypatch):
    # Each line runs untraced and traced back to back; joining the last two
    # words on every second call keeps the text but makes the runs differ.
    original = API.pipeline.postprocess_merge
    calls = []

    def flaky_merge(words):
        calls.append(1)
        words = original(words)
        return words[:-2] + ["".join(words[-2:])] if len(calls) % 2 and len(words) > 1 else words

    monkeypatch.setattr(API.pipeline, "postprocess_merge", flaky_merge)
    result, info = run_toy(toy("segment-short"), True, tmp_path)
    assert not result["correct"]
    assert any("traced words differ" in f for f in info["failures"])


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(API.pipeline, "eigh_symmetric")
    with pytest.raises(AttributeError):
        run.make_tracer(API)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(99.0, 2000) == 99.0
    assert run.tail_percentile(99.0, 400) == 97.5
    assert run.tail_percentile(90.0, 136) == 90.0
    assert run.tail_percentile(90.0, 80) == 87.5


def test_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in run.BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "segment-short", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
