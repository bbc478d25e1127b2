"""Static checks over the package source, walked with :mod:`ast`.

Reachability: every module under ``src/repro`` is reached from an entry
point, or sits on a short allowlist with its reason.  The entry points
are the CLI (``repro.__main__``), the public API (``repro.api``), the
experiment modules the runner registry names, and ``examples/*.py``.
A package ``__init__`` that re-exports names does not reach every
submodule it imports: ``from package import name`` reaches only the
submodule that *name* comes from.

One construction site: only :mod:`repro.api` calls ``RingProcessor(...)``.

Documentation: every public module, class and function carries a
docstring.
"""

import ast
import pathlib

from repro.runner.registry import REGISTRY

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: modules no entry point reaches, and why each stays
ALLOWED_UNREACHED = {
    "repro.circuits.datapath": "the Figure 4 gate-level check against the ring's register views",
    "repro.ultrascalar.scheduler": "the Memo 2 reference circuit",
    "repro.vlsi.three_d_layout": "the Section 7 measured model",
    "repro.runner._selftest": "runner test fixtures",
}


def _path(module: str) -> pathlib.Path | None:
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _imports(path: pathlib.Path):
    """Yield ``(module, name, bound)`` for every import in *path*.

    ``name`` is ``None`` for a plain ``import module``; ``bound`` is the
    name the import binds.  The package uses absolute imports only.
    """
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module or "", alias.name, alias.asname or alias.name


def _targets(module: str, name: str | None) -> set[str]:
    """Non-package modules that ``from module import name`` reaches."""
    if module != "repro" and not module.startswith("repro."):
        return set()
    if name is not None and _path(f"{module}.{name}") is not None:
        module, name = f"{module}.{name}", None
    path = _path(module)
    if path is None:
        return set()
    if path.name != "__init__.py":
        return {module}
    # a package: follow only the re-export that binds the imported name
    return set().union(*(
        _targets(source, imported)
        for source, imported, bound in _imports(path)
        if name is not None and bound == name
    ))


def _reached(entries: set[str]) -> set[str]:
    reached: set[str] = set()
    stack = sorted(entries)
    while stack:
        module = stack.pop()
        if module in reached:
            continue
        reached.add(module)
        for source, name, _ in _imports(_path(module)):
            stack.extend(_targets(source, name))
    return reached


def _entry_points() -> set[str]:
    entries = {"repro.__main__", "repro.api"}
    entries.update(spec.module for spec in REGISTRY.values())
    for script in sorted((ROOT / "examples").glob("*.py")):
        for source, name, _ in _imports(script):
            entries.update(_targets(source, name))
    return entries


def _modules() -> list[pathlib.Path]:
    return sorted((SRC / "repro").rglob("*.py"))


def _module_name(path: pathlib.Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


class TestModuleReachability:
    def test_every_module_is_reached_or_allowlisted(self):
        modules = {_module_name(path) for path in _modules() if path.name != "__init__.py"}
        unreached = modules - _reached(_entry_points())
        allowed = set(ALLOWED_UNREACHED)
        assert unreached == allowed, (
            f"unreached and not allowlisted: {sorted(unreached - allowed)}; "
            f"allowlisted but reached or gone: {sorted(allowed - unreached)}"
        )


class TestOneConstructionSite:
    def test_ring_engine_is_built_only_by_the_api(self):
        builders = {
            _module_name(path)
            for path in _modules()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and "RingProcessor" in (getattr(node.func, name, None) for name in ("id", "attr"))
        }
        assert builders == {"repro.api"}


class TestDocstringContract:
    """Production hygiene: every public module, class, and function in
    the library carries a docstring."""

    def test_all_public_items_documented(self):
        missing = []
        # overrides whose contract is documented once, on the protocol or
        # base class (BranchPredictor, MemorySystem, ScanOp, Tracer)
        interface_methods = {
            "predict", "update", "reset",                      # BranchPredictor
            "submit_load", "submit_store", "tick",             # MemorySystem
            "peek_word", "load_image", "final_state",
            "counters",
            "combine",                                         # ScanOp
            "count", "event", "snapshot",                      # Tracer
        }

        def check_scope(path, body, prefix=""):
            for node in body:
                if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("_"):
                    continue
                if prefix and node.name in interface_methods:
                    continue
                if not ast.get_docstring(node):
                    missing.append(f"{path}:{node.lineno} {prefix}{node.name}")
                if isinstance(node, ast.ClassDef):
                    check_scope(path, node.body, prefix=f"{node.name}.")

        for path in _modules():
            tree = ast.parse(path.read_text())
            if not ast.get_docstring(tree) and path.name != "__init__.py":
                missing.append(f"{path} (module)")
            check_scope(path, tree.body)
        assert not missing, "undocumented public items:\n" + "\n".join(missing)
