"""Tests for the documentation checker (tools/check_docs.py)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_repo(root: Path, readme: str) -> None:
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text("")
    (root / "benchmarks").mkdir()
    (root / "benchmarks" / "BENCH_a.json").write_text("{}")
    (root / "README.md").write_text(readme)


class TestBacktickedPaths:
    def test_existing_paths_pass(self, tmp_path):
        tool = load_tool()
        write_repo(
            tmp_path,
            "`src/pkg/` `src/pkg/mod.py::Test` `benchmarks/BENCH_*.json` "
            "`bench/relative.py` `python tools/x.py`\n",
        )
        assert tool.check_file(tmp_path, "README.md") == []

    def test_stale_path_reported(self, tmp_path):
        tool = load_tool()
        write_repo(tmp_path, "| `src/pkg/gone/` | removed |\n`tests/*.py`\n")
        assert tool.check_file(tmp_path, "README.md") == [
            "README.md:1: `src/pkg/gone/`",
            "README.md:2: `tests/*.py`",
        ]

    def test_node_id_checked_by_file(self, tmp_path):
        tool = load_tool()
        write_repo(tmp_path, "`src/pkg/gone.py::TestX::test_y`\n")
        assert tool.check_file(tmp_path, "README.md") == [
            "README.md:1: `src/pkg/gone.py::TestX::test_y`",
        ]


class TestLinks:
    def test_broken_relative_link_reported(self, tmp_path):
        tool = load_tool()
        write_repo(
            tmp_path,
            "[ok](src/pkg/mod.py) [web](https://example.org/x) "
            "[anchor](#top)\n[gone](docs/GONE.md)\n",
        )
        assert tool.check_file(tmp_path, "README.md") == [
            "README.md:2: docs/GONE.md",
        ]

    def test_empty_anchor_reported(self, tmp_path):
        tool = load_tool()
        write_repo(tmp_path, "[here](#)\n")
        assert tool.check_file(tmp_path, "README.md") == [
            "README.md:1: empty link target",
        ]


class TestMain:
    def write_docs(self, root: Path, readme: str) -> None:
        write_repo(root, readme)
        (root / "docs").mkdir()
        (root / "docs" / "ARCHITECTURE.md").write_text("[readme](../README.md)\n")
        (root / "benchmarks" / "README.md").write_text("`benchmarks/BENCH_a.json`\n")
        (root / "ROADMAP.md").write_text("`src/pkg/`\n")

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        tool = load_tool()
        self.write_docs(tmp_path, "`src/pkg/mod.py`\n")
        assert tool.main(["check_docs.py", str(tmp_path)]) == 0
        assert "docs ok: 4 files" in capsys.readouterr().out

    def test_stale_path_exits_one(self, tmp_path, capsys):
        tool = load_tool()
        self.write_docs(tmp_path, "`src/pkg/simulation/`\n")
        assert tool.main(["check_docs.py", str(tmp_path)]) == 1
        assert "README.md:1: `src/pkg/simulation/`" in capsys.readouterr().err

    def test_missing_doc_file_exits_one(self, tmp_path, capsys):
        tool = load_tool()
        self.write_docs(tmp_path, "plain\n")
        (tmp_path / "ROADMAP.md").unlink()
        assert tool.main(["check_docs.py", str(tmp_path)]) == 1
        assert "ROADMAP.md: file missing" in capsys.readouterr().err
