"""Documentation hygiene: the generated API reference stays in sync,
every public item has a docstring, and the docs index exists."""

import importlib
import inspect
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.graphs",
    "repro.posets",
    "repro.logic",
    "repro.sim",
    "repro.faults",
    "repro.policies",
    "repro.workloads",
    "repro.service",
    "repro.cluster",
    "repro.arena",
    "repro.replica",
    "repro.obs",
    "repro.viz",
    "repro.dsl",
    "repro.cli",
]


class TestApiReference:
    def test_generated_api_docs_in_sync(self):
        import sys

        sys.path.insert(0, str(ROOT / "tools"))
        try:
            import gen_api_docs
        finally:
            sys.path.pop(0)
        expected = gen_api_docs.generate()
        actual = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
        assert actual == expected, (
            "docs/api.md is stale; run `python tools/gen_api_docs.py`"
        )


class TestDocstrings:
    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_module_has_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip()

    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_every_public_item_documented(self, name):
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        undocumented = []
        for attr in exported:
            if attr.startswith("__"):
                continue
            obj = getattr(module, attr)
            if inspect.ismodule(obj):
                continue
            if callable(obj) and not (inspect.getdoc(obj) or "").strip():
                undocumented.append(attr)
        assert not undocumented, f"{name}: missing docstrings: {undocumented}"


class TestDocFiles:
    @pytest.mark.parametrize(
        "filename",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md"],
    )
    def test_top_level_docs_exist_and_mention_the_paper(self, filename):
        text = (ROOT / filename).read_text(encoding="utf-8")
        assert "Kanellakis" in text or "Distributed Locking" in text

    @pytest.mark.parametrize(
        "filename",
        [
            "model.md", "algorithms.md", "reduction.md", "dsl.md",
            "service.md", "faults.md", "api.md", "workloads.md",
        ],
    )
    def test_docs_directory_complete(self, filename):
        path = ROOT / "docs" / filename
        assert path.exists() and path.stat().st_size > 500

    def test_named_benchmarks_tools_and_results_exist(self):
        # A harness, tool or result file named in live prose, CI or a
        # docstring must be in the tree: deleting one means restating
        # every sentence that leaned on it.  (CHANGES.md, ROADMAP.md and
        # ISSUE.md are history and may name what is gone.)
        sources = [
            path
            for pattern in (
                "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md",
                ".github/workflows/ci.yml", "benchmarks/*.py", "tools/*.py",
                "src/**/*.py",
            )
            for path in sorted(ROOT.glob(pattern))
        ]
        # (pattern, folder the name lives in, suffix the match leaves off);
        # a name may be a glob (``results/BENCH_*.json``).
        references = [
            (r"\bbench_[\w*]+\.py\b", "benchmarks", ""),
            (r"\bbenchmarks\.(bench_\w+)", "benchmarks", ".py"),
            (r"\btools/(\w+\.py)\b", "tools", ""),
            (r"\bresults/([\w*.-]+\.\w+)", "benchmarks/results", ""),
            (r"\bBENCH_[\w*]+\.json\b", "benchmarks/results", ""),
        ]
        dangling = set()
        for path in sources:
            text = path.read_text(encoding="utf-8")
            for regex, folder, suffix in references:
                for match in re.finditer(regex, text):
                    name = match.group(match.lastindex or 0) + suffix
                    if not any((ROOT / folder).glob(name)):
                        dangling.add(f"{path.relative_to(ROOT)}: {folder}/{name}")
        assert not dangling, "references to files not in the tree:\n" + "\n".join(
            sorted(dangling)
        )
