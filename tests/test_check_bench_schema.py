"""Tests for the bench-baseline schema checker (tools/check_bench_schema.py)."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "check_bench_schema.py"
BASELINES = sorted((ROOT / "benchmarks").glob("BENCH_*.json"))


def load_tool():
    spec = importlib.util.spec_from_file_location("check_bench_schema", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load_tool()


@pytest.fixture(scope="module")
def fig1():
    return json.loads((ROOT / "benchmarks" / "BENCH_fig1.json").read_text())


def check_document(tool, tmp_path, document) -> list[str]:
    path = tmp_path / "BENCH_fig1.json"
    path.write_text(json.dumps(document))
    return tool.check_file(path)


@pytest.mark.parametrize("baseline", BASELINES, ids=lambda path: path.name)
def test_committed_baseline_passes(tool, baseline):
    assert tool.check_file(baseline) == []


def test_committed_baselines_found():
    assert {path.name for path in BASELINES} >= {
        "BENCH_fig1.json", "BENCH_micro.json", "BENCH_fault.json",
        "BENCH_serve.json", "BENCH_mutate.json",
    }


def test_fig1_with_fanout_fails(tool, fig1, tmp_path):
    document = copy.deepcopy(fig1)
    document["scale"]["fanout"] = 2
    problems = check_document(tool, tmp_path, document)
    assert len(problems) == 1
    assert "scale.fanout: retired field must be 0" in problems[0]


def test_fig1_with_naive_sample_rate_fails(tool, fig1, tmp_path):
    document = copy.deepcopy(fig1)
    document["scale"]["naive_sample_rate"] = 0.02
    problems = check_document(tool, tmp_path, document)
    assert len(problems) == 1
    assert "scale.naive_sample_rate: retired field must be 0" in problems[0]
