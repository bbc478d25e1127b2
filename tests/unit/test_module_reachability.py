"""Static checks over the package source, walked with :mod:`ast`.

Reachability: every module under ``src/repro`` is reached from an entry
point, or sits on a short allowlist with its reason.  The entry points
are the CLI (``repro.__main__``), the public API (``repro.api``), the
experiment modules the runner registry names, and ``examples/*.py``.
A package ``__init__`` that re-exports names does not reach every
submodule it imports: ``from package import name`` reaches only the
submodule that *name* comes from.

The same holds per function: every top-level function and method under
``src/repro`` is named somewhere outside its own ``def``, or sits on a
short allowlist with its reason.  A name counts when an ``ast.Name``,
an ``ast.Attribute``, an imported name or an exact-match string constant
(``func="shard_report"``, perfbench's ``(module, class, method)``
targets) uses it in ``src/repro``, ``examples/*.py`` or
``perfbench/*.py``, or when it appears as a word in
``.github/workflows/*.yml``, whose heredocs call the artifact
validators.  A package ``__init__``'s imports and ``__all__`` do not
count, and tests never do: what only tests call belongs in ``tests/``
(``tests/oracles.py`` holds the reference models moved there).
Matching is by bare name, so a method is called when any object's
attribute of that name is read.  Dunder methods are called by the
language and are not checked.  Two categories need no entry: the
functions of an allowlisted module, and the methods of the result
classes in ``repro.experiments`` (the paper-claim predicates tier-1
asserts).

Parameters too: each experiment has one configuration, and the runner
calls its ``report()`` with no arguments, so every public function a
registered experiment module defines takes none; a parameter could only
be set by a test.  Beyond the experiments, a defaulted parameter that no
caller sets is one value in use, so it is a constant, not a parameter:
every defaulted parameter of a top-level function or method under
``src/repro`` is set by some call in ``src/repro``, ``examples/*.py`` or
``perfbench/*.py``, or sits on a short allowlist with its reason.  A call
reaches a function by bare name (the class name for ``__init__``; a
``super().__init__(...)`` call reaches the enclosing class's bases), and
sets a parameter when it passes it by keyword, passes at least as many
positional arguments as the parameter's position, or unpacks ``*`` or
``**``.  A function named by a ``func="..."`` job string has every
parameter set.  The functions of an allowlisted module are exempt.

Fields too, by the same rule: every defaulted init field of a dataclass
or ``NamedTuple`` under ``src/repro`` is set by a construction in the
same callers, or sits on the same allowlist.  A construction calls the
class by name and sets a field by keyword, by position or by unpacking;
``replace(obj, field=...)`` sets a field by keyword only.  Per-instance
state is ``field(init=False)``, not a constructor argument, and is not
checked.  The fields of an allowlisted module are exempt.

And one way to run: ``python -m repro`` is the only ``__main__`` block
under ``src/repro``, so no module runs a report past the runner, its
cache and its telemetry session.

One construction site: only :mod:`repro.api` calls ``RingProcessor(...)``.

Documentation: every public module, class and function carries a
docstring.
"""

import ast
import importlib
import inspect
import pathlib
import re

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


#: functions and methods nothing outside the tests names, and why each
#: stays (beyond the two categories in the module docstring)
ALLOWED_UNCALLED = {
    "repro.util.log._StderrHandler.stream": "the property logging.StreamHandler reads and sets",
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


def _functions(source: str):
    """Yield ``(class name or None, def node)`` for each top-level
    function and method in *source*."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            defs = [(node.name, sub) for sub in node.body]
        else:
            defs = [(None, node)]
        for owner, sub in defs:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield owner, sub


def _definitions(source: str):
    """Yield ``(class name or None, function name)`` for each top-level
    function and method in *source*, dunder methods left out."""
    for owner, node in _functions(source):
        if not (node.name.startswith("__") and node.name.endswith("__")):
            yield owner, node.name


def _references(source: str, package_init: bool = False) -> set[str]:
    """Names *source* uses: Name, Attribute, imported names and string
    constants, each outside a ``def`` of the same name.  In a package
    ``__init__`` the imports and ``__all__`` are re-exports, not uses."""
    names: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if package_init and (
            isinstance(node, (ast.Import, ast.ImportFrom))
            or isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        ):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in inside:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return names


def _caller_files() -> list[pathlib.Path]:
    """The package, the examples and perfbench: every caller but the tests."""
    return [*_modules(), *sorted(ROOT.glob("examples/*.py")), *sorted(ROOT.glob("perfbench/*.py"))]


def _callers() -> set[str]:
    """Every name the package, the examples, perfbench and CI use."""
    names: set[str] = set()
    for path in _caller_files():
        names |= _references(path.read_text(), package_init=path.name == "__init__.py")
    for workflow in sorted(ROOT.glob(".github/workflows/*.yml")):
        names.update(re.findall(r"[A-Za-z_]\w*", workflow.read_text()))
    return names


def _uncalled(modules: dict[str, str], callers: set[str]) -> set[tuple[str, str | None, str]]:
    """``(module, class or None, function)`` for each function in *modules*
    (name -> source) whose name is not in *callers*."""
    return {
        (module, owner, name)
        for module, source in modules.items()
        for owner, name in _definitions(source)
        if name not in callers
    }


#: defaulted parameters (``function(parameter)``) and fields
#: (``Class.field``) only tests set, and why each stays settable
ALLOWED_ONE_VALUE = {
    "repro.analysis.clock_period.project_ultrascalar2(variant)":
        "DESIGN §5 US-II mixed-strategy ablation (TestClockProjections::test_us2_variants_ordered)",
    "repro.circuits.cspp.build_copy_cspp(radix)":
        "DESIGN §5 CSPP radix ablation (TestCsppTree::test_radix_four_*)",
    "repro.circuits.fanout.FanoutShape.derive(radix)":
        "DESIGN §5 radix ablation for fan-out trees (TestFanoutTree::test_radix_four_is_shallower)",
    "repro.circuits.grid.GridNetwork.__init__(reads_per_station)":
        "a Figure 7 grid with three read ports is a pinned netlist (test_netlist_structure, grid_p3)",
    "repro.isa.assembler.assemble(spec)":
        "L is the paper's complexity parameter (TestMachineSpec assembles for 8 and 64 registers)",
    "repro.memory.interleaved_cache.InterleavedCache.__init__(hit_latency)":
        "multi-cycle bank hits (TestInterleavedCacheTiming::test_hit_latency, the cache property test)",
    "repro.memory.cluster_cache.ClusteredMemory.words_per_cluster":
        "§7's distributed cache stays coherent under eviction "
        "(TestBasics::test_capacity_eviction, the clustered-memory property test's 4-word caches)",
    "repro.vlsi.grid_layout.Ultrascalar2Layout.wraparound":
        "§5: wrap-around 'appears to cost nearly a factor of two in area' "
        "(TestUltrascalar2Layout::test_wraparound_costs_about_twice_the_area)",
    "repro.vlsi.hybrid_layout.HybridLayout.bandwidth":
        "§6: U(n) = Θ(M(n) + sqrt(n L)) (TestHybridLayout::test_memory_bandwidth_term, "
        "the pinned hybrid-1024-power layout floats)",
}


def _defaulted(source: str):
    """Yield ``(class name or None, function, parameter, position)`` for
    each defaulted parameter of a top-level function or method in
    *source*.  *position* counts the positional parameters from 1,
    ``self``/``cls`` left out; it is ``None`` for a keyword-only one."""
    for owner, node in _functions(source):
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        bound = owner is not None and not static
        for index in range(len(positional) - len(args.defaults), len(positional)):
            yield owner, node.name, positional[index].arg, index + 1 - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield owner, node.name, arg.arg, None


def _calls(source: str):
    """Yield ``(name, call)`` for each call in *source*: the bare name it
    calls, or for ``super().__init__(...)`` each base of its class.  Also
    yield ``(name, None)`` for each ``func="name"`` job string."""
    tree = ast.parse(source)
    bases: dict[int, list[str]] = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            names = [getattr(base, "id", None) or getattr(base, "attr", "") for base in cls.bases]
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "__init__"
                    and isinstance(node.func.value, ast.Call)
                    and getattr(node.func.value.func, "id", None) == "super"
                ):
                    bases[id(node)] = names
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for target in bases.get(id(node)) or [name]:
            if target:
                yield target, node
        for keyword in node.keywords:
            if keyword.arg == "func" and isinstance(keyword.value, ast.Constant):
                yield keyword.value.value, None


def _sets(call: ast.Call | None, parameter: str, position: int | None) -> bool:
    """Whether *call* sets *parameter* (``None``: a job string sets all)."""
    return (
        call is None
        or any(isinstance(arg, ast.Starred) for arg in call.args)
        or any(keyword.arg in (None, parameter) for keyword in call.keywords)
        or position is not None and len(call.args) >= position
    )


def _unset(modules: dict[str, str], callers: list[str]) -> set[str]:
    """``module.[Class.]function(parameter)`` for each defaulted parameter
    in *modules* (name -> source) that no call in *callers* sets."""
    calls: dict[str, list[ast.Call | None]] = {}
    for source in callers:
        for name, call in _calls(source):
            calls.setdefault(name, []).append(call)
    return {
        f"{_qualified(module, owner, function)}({parameter})"
        for module, source in modules.items()
        for owner, function, parameter, position in _defaulted(source)
        if not any(
            _sets(call, parameter, position)
            for call in calls.get(owner if function == "__init__" else function, [])
        )
    }


def _bare_name(node: ast.expr) -> str | None:
    """The bare name *node* refers to, or calls: ``dataclass``,
    ``dataclass(frozen=True)`` and ``typing.NamedTuple`` alike."""
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", None) or getattr(target, "attr", None)


def _field_call(value: ast.expr | None) -> ast.Call | None:
    """The ``field(...)`` call a dataclass field is assigned, if any."""
    if isinstance(value, ast.Call) and _bare_name(value) == "field":
        return value
    return None


def _defaulted_fields(source: str):
    """Yield ``(class name, field, position)`` for each defaulted init
    field of a dataclass or ``NamedTuple`` in *source*.  *position*
    counts the init fields from 1.  A ``field(init=False)`` is not an
    init field, and a ``ClassVar`` or an unannotated class attribute is
    not a field at all."""
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or not (
            any(_bare_name(d) == "dataclass" for d in cls.decorator_list)
            or any(_bare_name(base) == "NamedTuple" for base in cls.bases)
        ):
            continue
        position = 0
        for node in cls.body:
            if not isinstance(node, ast.AnnAssign) or not isinstance(node.target, ast.Name):
                continue
            if "ClassVar" in ast.unparse(node.annotation):
                continue
            options = _field_call(node.value)
            keywords = {k.arg: k.value for k in options.keywords} if options else {}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            position += 1
            if node.value is not None and (
                options is None or {"default", "default_factory"} & set(keywords)
            ):
                yield cls.name, node.target.id, position


def _unset_fields(modules: dict[str, str], callers: list[str]) -> set[str]:
    """``module.Class.field`` for each defaulted init field in *modules*
    (name -> source) that no construction and no ``replace`` keyword in
    *callers* sets.  A construction calls the class by name;
    ``replace(obj, field=...)`` sets a field of every class, by keyword
    only, since its positional arguments name no field."""
    calls: dict[str, list[ast.Call | None]] = {}
    replaced: set[str | None] = set()
    for source in callers:
        for name, call in _calls(source):
            if name in ("replace", "_replace") and call is not None:
                replaced.update(keyword.arg for keyword in call.keywords)
            else:
                calls.setdefault(name, []).append(call)
    return {
        f"{module}.{owner}.{name}"
        for module, source in modules.items()
        for owner, name, position in _defaulted_fields(source)
        if None not in replaced
        and name not in replaced
        and not any(_sets(call, name, position) for call in calls.get(owner, []))
    }


def _qualified(module: str, owner: str | None, name: str) -> str:
    return ".".join(part for part in (module, owner, name) if part)


def _allowed_uncalled(module: str, owner: str | None, name: str) -> bool:
    return (
        _qualified(module, owner, name) in ALLOWED_UNCALLED
        or module in ALLOWED_UNREACHED
        or owner is not None and module.startswith("repro.experiments.")
    )


class TestModuleReachability:
    def test_every_module_is_reached_or_allowlisted(self):
        modules = {_module_name(path) for path in _modules() if path.name != "__init__.py"}
        unreached = modules - _reached(_entry_points())
        allowed = set(ALLOWED_UNREACHED)
        assert unreached == allowed, (
            f"unreached and not allowlisted: {sorted(unreached - allowed)}; "
            f"allowlisted but reached or gone: {sorted(allowed - unreached)}"
        )


class TestFunctionReachability:
    def test_every_function_is_called_or_allowlisted(self):
        modules = {_module_name(path): path.read_text() for path in _modules()}
        uncalled = _uncalled(modules, _callers())
        unexplained = sorted(_qualified(*item) for item in uncalled if not _allowed_uncalled(*item))
        stale = sorted(set(ALLOWED_UNCALLED) - {_qualified(*item) for item in uncalled})
        assert not unexplained, f"only tests call: {unexplained}"
        assert not stale, f"allowlisted but called or gone: {stale}"

    def test_an_unreferenced_function_is_reported(self):
        source = "def used():\n    pass\n\ndef unused():\n    return unused\n\nused()\n"
        assert _uncalled({"pkg.mod": source}, _references(source)) == {("pkg.mod", None, "unused")}

    def test_a_method_is_reported_under_its_class(self):
        source = "class Result:\n    def claim(self):\n        return True\n"
        assert _uncalled({"pkg.mod": source}, _references(source)) == {("pkg.mod", "Result", "claim")}

    def test_a_string_reference_counts_as_a_caller(self):
        module = "def shard_report():\n    pass\n"
        caller = 'spec = JobSpec(module="pkg.mod", func="shard_report")\n'
        assert _uncalled({"pkg.mod": module}, _references(caller)) == set()

    def test_package_reexports_are_not_callers(self):
        init = 'from pkg.mod import helper\n\n__all__ = ["helper"]\n'
        assert "helper" not in _references(init, package_init=True)
        assert "helper" in _references(init)


def _checked_modules() -> dict[str, str]:
    """Name -> source of each module the one-value checks cover: every
    module under ``src/repro`` but those on ``ALLOWED_UNREACHED``."""
    return {
        name: path.read_text()
        for path in _modules()
        if (name := _module_name(path)) not in ALLOWED_UNREACHED
    }


def _one_value(source: str, caller: str) -> set[str]:
    return _unset({"pkg.mod": source}, [caller])


def _one_value_field(source: str, caller: str) -> set[str]:
    return _unset_fields({"pkg.mod": source}, [caller])


#: a dataclass with two defaulted fields, per-instance state, and a
#: ``ClassVar`` that is not a field
_RULER = (
    "from dataclasses import dataclass, field\n\n"
    "@dataclass\nclass Ruler:\n"
    "    length: int\n    scale: int = 2\n    bias: int = 0\n"
    "    marks: list = field(default_factory=list, init=False)\n"
    "    unit: ClassVar[str] = 'cm'\n"
)


def _is_main_guard(node: ast.stmt) -> bool:
    """Whether *node* is ``if __name__ == "__main__":``."""
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", None) == "__name__"
        and [getattr(c, "value", None) for c in node.test.comparators] == ["__main__"]
    )


class TestParameterReachability:
    def test_every_experiment_function_takes_no_arguments(self):
        # imported functions and the result classes' methods are not checked
        with_parameters = []
        for spec in REGISTRY.values():
            module = importlib.import_module(spec.module)
            for name, func in inspect.getmembers(module, inspect.isfunction):
                if name.startswith("_") or func.__module__ != spec.module:
                    continue
                if inspect.signature(func).parameters:
                    with_parameters.append(f"{spec.module}.{name}")
        assert not with_parameters, f"settable only by tests: {with_parameters}"

    def test_every_defaulted_parameter_is_set_or_allowlisted(self):
        unset = _unset(_checked_modules(), [path.read_text() for path in _caller_files()])
        allowed = {entry for entry in ALLOWED_ONE_VALUE if entry.endswith(")")}
        assert not unset - allowed, f"no caller sets: {sorted(unset - allowed)}"
        assert not allowed - unset, f"allowlisted but set or gone: {sorted(allowed - unset)}"
        assert all(ALLOWED_ONE_VALUE.values())

    def test_every_defaulted_field_is_set_or_allowlisted(self):
        unset = _unset_fields(_checked_modules(), [path.read_text() for path in _caller_files()])
        allowed = {entry for entry in ALLOWED_ONE_VALUE if not entry.endswith(")")}
        assert not unset - allowed, f"no caller sets: {sorted(unset - allowed)}"
        assert not allowed - unset, f"allowlisted but set or gone: {sorted(allowed - unset)}"

    def test_a_parameter_nothing_sets_is_reported(self):
        source = "def scale(x, factor=2):\n    return x * factor\n"
        assert _one_value(source, "scale(3)\n") == {"pkg.mod.scale(factor)"}

    def test_a_keyword_sets_a_parameter(self):
        source = "def scale(x, factor=2, *, bias=0):\n    return x * factor + bias\n"
        assert _one_value(source, "scale(3, bias=1)\nscale(3, factor=4)\n") == set()

    def test_a_positional_argument_sets_a_method_parameter(self):
        source = "class Ruler:\n    def scale(self, x, factor=2, bias=0):\n        return x\n"
        assert _one_value(source, "ruler.scale(3, 4)\n") == {"pkg.mod.Ruler.scale(bias)"}

    def test_unpacking_sets_every_parameter(self):
        source = "def scale(x, factor=2, *, bias=0):\n    return x\n"
        assert _one_value(source, "scale(**options)\n") == set()
        assert _one_value(source, "scale(*values)\n") == set()

    def test_a_job_string_sets_every_parameter(self):
        source = "def shard_report(shard=0, shards=1):\n    pass\n"
        assert _one_value(source, 'JobSpec(module="pkg.mod", func="shard_report")\n') == set()

    def test_init_is_set_through_its_class_name_and_super(self):
        source = (
            "class Base:\n    def __init__(self, n, name='base'):\n        pass\n\n"
            "class Grid(Base):\n    def __init__(self, n, bits=1):\n"
            "        super().__init__(n, name='grid')\n"
        )
        assert _unset({"pkg.mod": source}, [source, "Grid(4, bits=8)\n"]) == set()
        assert _unset({"pkg.mod": source}, [source, "Grid(4)\n"]) == {"pkg.mod.Grid.__init__(bits)"}

    def test_an_unset_field_is_reported(self):
        unset = {"pkg.mod.Ruler.scale", "pkg.mod.Ruler.bias"}
        assert _one_value_field(_RULER, "Ruler(3)\n") == unset

    def test_a_keyword_sets_a_field(self):
        assert _one_value_field(_RULER, "Ruler(3, bias=1)\n") == {"pkg.mod.Ruler.scale"}

    def test_a_positional_argument_sets_a_field(self):
        assert _one_value_field(_RULER, "Ruler(3, 4)\n") == {"pkg.mod.Ruler.bias"}
        assert _one_value_field(_RULER, "Ruler(*sizes)\n") == set()

    def test_a_replace_keyword_sets_a_field(self):
        assert _one_value_field(_RULER, "replace(ruler, scale=4)\n") == {"pkg.mod.Ruler.bias"}
        assert _one_value_field(_RULER, "dataclasses.replace(ruler, **changes)\n") == set()

    def test_replace_positional_arguments_set_nothing(self):
        # str.replace and dataclasses.replace alike: no positional argument names a field
        unset = {"pkg.mod.Ruler.scale", "pkg.mod.Ruler.bias"}
        assert _one_value_field(_RULER, "name.replace('a', 'b')\nreplace(ruler, 4)\n") == unset

    def test_init_false_state_is_exempt(self):
        source = (
            "@dataclass\nclass Stats:\n"
            "    hits: int = field(default=0, init=False)\n"
            "    log: list = field(default_factory=list, init=False)\n"
        )
        assert _one_value_field(source, "Stats()\n") == set()

    def test_a_named_tuple_field_is_checked(self):
        source = "class Point(NamedTuple):\n    x: int\n    y: int = 0\n"
        assert _one_value_field(source, "Point(1)\n") == {"pkg.mod.Point.y"}
        assert _one_value_field(source, "Point(1, 2)\n") == set()

    def test_an_allowlisted_modules_fields_are_exempt(self):
        # the octree's bandwidth only tests set; its module is on ALLOWED_UNREACHED
        module = "repro.vlsi.three_d_layout"
        callers = [path.read_text() for path in _caller_files()]
        assert _unset_fields({module: _path(module).read_text()}, callers)
        assert module not in _checked_modules()

    def test_only_the_cli_has_a_main_block(self):
        blocks = {
            _module_name(path)
            for path in _modules()
            if any(_is_main_guard(node) for node in ast.parse(path.read_text()).body)
        }
        assert blocks == {"repro.__main__"}


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
            "load_image", "final_state",
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
