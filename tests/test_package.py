import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gkheat


def test_every_exported_name_resolves():
    assert len(set(gkheat.__all__)) == len(gkheat.__all__)
    for name in gkheat.__all__:
        assert getattr(gkheat, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from gkheat import *", namespace)
    assert set(gkheat.__all__) <= set(namespace)


def test_readme_library_snippet_runs():
    # the README's one python block, run in process so that a warning fails it
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_cli_import_loads_no_scipy():
    src = str(Path(gkheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, gkheat.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", ["run", "verify", "sweep"])
def test_no_command_imports_numpy_random(tmp_path, command):
    # verify's oracle reads its states from a table; nothing seeds a generator
    config = tmp_path / "small.cfg"
    config.write_text(f"dx = 2e-3\nout_dir = {tmp_path / 'out'}\n")
    src = str(Path(gkheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys; from gkheat.cli import main; "
            f"code = main([{command!r}, '-c', {str(config)!r}]); "
            "print(code, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 False"


#: documented model API (the paper's Onsager form of the flux law) that no
#: command calls
UNREACHED_BY_DESIGN = {"model.OnsagerCoefficients", "model.gk_to_onsager",
                       "model.onsager_to_gk"}


def reachable_definitions() -> tuple[set[str], set[str]]:
    """The top-level functions and classes of gkheat's modules, as
    "module.name", and the non-dunder functions in those classes' bodies
    (methods and properties), as "module.Class.name", and those reachable
    from cli.main.

    A definition reaches every name its body loads that is a top-level
    definition of its module or one imported from a sibling module, and
    every module.attr of an imported sibling module; the module-level
    statements other than definitions are live.  A method is reached when
    its class is and its name is loaded as an attribute (x.name) in live
    code; a class's dunder methods belong to the class.
    """
    package = Path(gkheat.__file__).resolve().parent
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py"))}
    edges: dict[str, set[str]] = {}
    attrs: dict[str, set[str]] = {}
    methods: dict[str, tuple[str, str]] = {}
    live = {"cli.main"}
    loaded: set[str] = set()

    def walk(nodes):
        return (sub for node in nodes for sub in ast.walk(node))

    def attr_names(nodes):
        return {sub.attr for sub in walk(nodes)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}

    for mod, tree in modules.items():
        scope = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    scope[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}" if node.module else alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope[node.name] = f"{mod}.{node.name}"

        def loads(nodes):
            for sub in walk(nodes):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    target = scope.get(sub.id)
                    if target is not None and target not in modules:
                        yield target
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and scope.get(sub.value.id) in modules):
                    yield f"{scope[sub.value.id]}.{sub.attr}"

        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                live.update(loads([node]))
                loaded |= attr_names([node])
                continue
            name, parts = f"{mod}.{node.name}", [node]
            if isinstance(node, ast.ClassDef):
                parts = node.decorator_list + node.bases + node.keywords
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        method = f"{name}.{item.name}"
                        methods[method] = (name, item.name)
                        edges[method], attrs[method] = set(loads([item])), attr_names([item])
                    else:
                        parts.append(item)
            edges[name], attrs[name] = set(loads(parts)), attr_names(parts)
    todo = list(live)
    while todo:
        while todo:
            name = todo.pop()
            loaded |= attrs.get(name, set())
            for target in edges.get(name, ()):
                if target not in live:
                    live.add(target)
                    todo.append(target)
        todo = [method for method, (cls, name) in methods.items()
                if method not in live and cls in live and name in loaded]
        live.update(todo)
    return set(edges), live


def test_every_definition_is_reached_from_the_cli():
    # code that only the tests call belongs in tests/ (see tests/oracles.py)
    defined, live = reachable_definitions()
    assert sorted(defined - live) == sorted(UNREACHED_BY_DESIGN)


#: the modal trace kernel: its weights, its table and the trace built from
#: the table's sums, whose layout scheme alone states
TRACE_KERNEL = {"ModalTraceWeights", "modal_trace_weights", "modal_trace_table",
                "build_trace"}


def test_scheme_alone_holds_the_trace_kernel():
    # diagnostics keeps the paper's bounds and oracles and reads only errors
    # and model; no other module defines, imports or calls the trace kernel
    package = Path(gkheat.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    imports = [node for node in ast.walk(trees["diagnostics"])
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert {node.module for node in imports if isinstance(node, ast.ImportFrom)
            and node.level == 1} == {"errors", "model"}
    assert not [alias.name for node in imports for alias in node.names
                if alias.name.split(".")[0] == "gkheat"]
    for mod, tree in trees.items():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        assert names & TRACE_KERNEL == (TRACE_KERNEL if mod == "scheme" else set()), mod


def test_the_checks_cannot_read_the_users_stepper():
    # the stepper is run's kind argument, coupled by default: no module
    # reads one from a config, and the as-printed stepper is named only
    # where it is built (scheme.assemble), compared (checks.printed_gaps)
    # and parsed and reported (cli)
    package = Path(gkheat.__file__).resolve().parent
    loads = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                assert "stepper_kind" not in (
                    getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "arg", None), getattr(node, "name", None)), path.stem
                if (isinstance(node, ast.Attribute) and node.attr == "VECTORIAL_AS_PRINTED"
                        and isinstance(node.ctx, ast.Load)):
                    loads.add((path.stem, getattr(top, "name", None)))
    assert {load for load in loads if load[0] != "cli"} == {
        ("scheme", "assemble"), ("checks", "printed_gaps")}
