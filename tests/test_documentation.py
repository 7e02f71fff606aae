"""Documentation contract: every public module/class/function has a
docstring, and the repo's documents reference what actually exists."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

_PACKAGES = ["repro", "repro.autodiff", "repro.nn", "repro.odeint",
             "repro.linalg", "repro.core", "repro.baselines", "repro.data",
             "repro.training", "repro.analysis", "repro.experiments",
             "repro.viz"]

#: Documents whose backticked ``repro.…`` paths must name real objects.
_DOCS = ["README.md", "DESIGN.md"] + sorted(
    f"docs/{p.name}" for p in
    (pathlib.Path(__file__).resolve().parents[1] / "docs").glob("*.md"))
#: A backtick span that starts with a dotted ``repro`` path, e.g.
#: `repro.odeint.solve` or `repro.odeint.solve(..., SolverOptions(...))`.
_DOTTED_PATH = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def _resolves(path: str) -> bool:
    """Import the longest module prefix of ``path``, then walk attributes."""
    parts = path.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        return []
    return [(n, getattr(module, n)) for n in names]


class TestDocstrings:
    @pytest.mark.parametrize("pkg_name", _PACKAGES)
    def test_every_module_has_docstring(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        assert pkg.__doc__, pkg_name
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                mod = importlib.import_module(f"{pkg_name}.{info.name}")
                assert mod.__doc__, mod.__name__

    @pytest.mark.parametrize("pkg_name", _PACKAGES)
    def test_every_public_item_documented(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        undocumented = []
        for name, obj in _public_members(pkg):
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{pkg_name}.{name}")
        assert not undocumented, undocumented

    @pytest.mark.parametrize("pkg_name", _PACKAGES)
    def test_all_exports_resolve(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            assert hasattr(pkg, name), f"{pkg_name}.__all__ lists {name}"


class TestRepoDocuments:
    _ROOT = pathlib.Path(__file__).resolve().parents[1]

    def test_required_documents_exist(self):
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                    "docs/paper_mapping.md"):
            assert (self._ROOT / doc).exists(), doc

    def test_design_covers_every_experiment(self):
        text = (self._ROOT / "DESIGN.md").read_text()
        for exp in ("Table III", "Table IV", "Table V", "Table VI",
                    "Fig 3", "Fig 4", "Fig 5", "Fig 6"):
            assert exp in text, exp

    def test_experiments_doc_mentions_all_ids(self):
        text = (self._ROOT / "EXPERIMENTS.md").read_text()
        for exp in ("Table III", "Table IV", "Table V", "Table VI",
                    "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6"):
            assert exp in text, exp

    def test_paper_mapping_references_real_symbols(self):
        text = (self._ROOT / "docs" / "paper_mapping.md").read_text()
        import repro.core
        import repro.linalg
        for symbol in ("dhs_attention", "solve_p_max_hoyer",
                       "solve_p_exact_kkt", "recover_z",
                       "check_moore_penrose"):
            assert symbol in text
            assert hasattr(repro.core, symbol) \
                or hasattr(repro.linalg, symbol), symbol

    def test_examples_listed_in_readme_exist(self):
        readme = (self._ROOT / "README.md").read_text()
        for line in readme.splitlines():
            if line.startswith("| `") and ".py" in line:
                fname = line.split("`")[1]
                assert (self._ROOT / "examples" / fname).exists(), fname

    def test_examples_readme_lists_every_script(self):
        readme = (self._ROOT / "examples" / "README.md").read_text()
        for script in sorted((self._ROOT / "examples").glob("*.py")):
            assert script.name in readme, script.name

    def test_contributing_exists(self):
        assert (self._ROOT / "CONTRIBUTING.md").exists()

    @pytest.mark.parametrize("doc", _DOCS)
    def test_dotted_paths_resolve(self, doc):
        paths = _DOTTED_PATH.findall((self._ROOT / doc).read_text())
        missing = sorted({p for p in paths if not _resolves(p)})
        assert not missing, f"{doc} names missing objects: {missing}"

    def test_dotted_path_check_catches_deleted_names(self):
        assert _resolves("repro.odeint.solve")
        assert _resolves("repro.core.model.DiffODE.integrate")
        assert _resolves("repro.odeint.resume")
        assert not _resolves("repro.odeint.no_such_solver")
        assert not _resolves("repro.odeint.no_such_module.solve")
