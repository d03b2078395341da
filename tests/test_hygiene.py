"""Static checks over the package source: imports are used, ``__all__`` is true.

Each module is parsed, not imported.  ``__init__.py`` re-exports by
importing, so the unused-import check leaves it out; the public-name
checks cover the modules that declare ``__all__``: each public name is
listed, and each listed name has a caller outside its own definition
and the unit tests.  So has each public method or property of a public
class.  Each name ``__init__.py`` re-exports is imported from the top
level by a caller, and each dataclass field is read by some code (a
config field by code besides validation and (de)serialization).  The
benchmark's span table is imported, and every function it names must
resolve.  ``import qkdbench.cli`` loads a fixed set of modules, each
subcommand takes a fixed set of options, and each ``print`` in ``cli.py``
shows a ``_kv_text`` mapping or a line of a fixed kind.  Last, every
``qkdbench`` command of the README parses.
"""

import argparse
import ast
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qkdbench

PACKAGE = Path(qkdbench.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(qkdbench.__file__).parents[2]
#: code outside the package that counts as a caller: the demos, the bench and the acceptance gate
CALLERS = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("bench/*.py")) + [ROOT / "tests" / "test_acceptance.py"]
#: public names kept without a caller, each with its reason
UNCALLED = {
    "dump_config": "reserved for the run report, which records the fully resolved config",
}
#: config functions that handle every field through the schema, so they are no reader of a field
FIELD_PLUMBING = {"validate", "build_configs", "dump_config"}
#: modules outside the package that ``import qkdbench.cli`` loads beyond ``import numpy``.  The import-time
#: heap they leave moves the design-scan benchmark's throughput by up to ~29%, so the set changes only on
#: purpose; ``decimal`` is imported inside the sweep, the one command that needs it.
CLI_IMPORTS = {
    "__future__", "_blake2", "_csv", "_hashlib", "argparse", "base64", "copy", "csv", "dataclasses", "gettext",
    "hashlib", "hmac", "secrets",
}
#: the option strings of each subcommand (``-h`` and ``--help`` aside); an option is added or removed only on purpose
CLI_OPTIONS = {
    "sweep": {"--config", "--out", "--atten-min", "--atten-max", "--atten-step", "--gain-convention"},
    "simulate": {"--config", "--seed", "--out", "--frames", "--emit-ttags", "--phase-ticks"},
    "analyze-ttags": {"--config", "--seed", "--ttags", "--alice-log", "--out"},
    "sidechannel": {
        "--profiles", "--domain", "--synth", "--config", "--pedestals", "--shifts-ps", "--spatial-bits",
        "--gain-convention", "--out",
    },
    "optimize": {"--config", "--mu-grid", "--nu1-grid", "--gain-convention"},
}
#: dataclass fields that no code reads, each with its reason
UNREAD_FIELDS = {
    "SourceConfig.extinction_ratio_db": "build_configs derives nu2 from the raw key",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import -> its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def declared_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return None


def top_level_names(tree: ast.Module) -> set[str]:
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_exist(path):
    tree = parse(path)
    exported = declared_all(tree) or []
    missing = sorted(set(exported) - top_level_names(tree))
    assert not missing, f"{path.name}: __all__ names {missing} are not defined"


@pytest.mark.parametrize("path", [p for p in MODULES if declared_all(parse(p)) is not None], ids=lambda p: p.name)
def test_public_defs_listed_in_all(path):
    tree = parse(path)
    exported = declared_all(tree)
    public = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    unlisted = sorted(public - set(exported))
    assert not unlisted, f"{path.name}: public names {unlisted} missing from __all__"


def referenced_names(tree: ast.Module, skip: str | None = None) -> set[str]:
    """Names and attributes used in a module, outside the top-level definition of ``skip``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == skip for t in node.targets):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if declared_all(parse(p)) is not None], ids=lambda p: p.name)
def test_all_entries_have_a_caller(path):
    # a public name only the unit tests use is test-only API
    assert all(p.exists() for p in CALLERS)
    others = [parse(p) for p in MODULES + CALLERS if p != path]
    tree = parse(path)
    uncalled = [
        name
        for name in declared_all(tree)
        if name not in UNCALLED
        and name not in referenced_names(tree, skip=name)
        and not any(name in referenced_names(t) for t in others)
    ]
    assert not uncalled, f"{path.name}: public names {uncalled} have no caller outside their tests"


def public_methods(tree: ast.Module) -> list[str]:
    """``Class.method`` for each public method or property of each public top-level class."""
    return [
        f"{cls.name}.{node.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if public_methods(parse(p))], ids=lambda p: p.name)
def test_public_methods_have_a_caller(path):
    # a method is used as an attribute; a plain name of the same spelling is some other variable
    trees = [parse(p) for p in MODULES + CALLERS]
    callers = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    uncalled = [name for name in public_methods(parse(path)) if name.split(".")[1] not in callers]
    assert not uncalled, f"{path.name}: public methods {uncalled} have no caller outside their tests"


def test_uncalled_allowlist_is_needed():
    exported = {name for p in MODULES for name in declared_all(parse(p)) or []}
    callers = set().union(*(referenced_names(parse(p)) for p in MODULES + CALLERS))
    assert set(UNCALLED) <= exported - callers


def test_top_level_names_are_imported_by_a_caller():
    # each function's one public path is qkdbench.<module>.<name>; the top level holds what callers import from it
    imported = {
        alias.name
        for path in CALLERS
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom) and node.module == "qkdbench" and node.level == 0
        for alias in node.names
    }
    unused = sorted(set(imported_names(parse(PACKAGE / "__init__.py"))) - imported)
    assert not unused, f"__init__.py: names {unused} are imported from qkdbench by no demo, bench file or acceptance test"


def dataclass_fields() -> list[str]:
    """``Class.field`` for each field of each dataclass of the package."""
    def is_dataclass(cls: ast.ClassDef) -> bool:
        return any("dataclass" in ast.unparse(d) for d in cls.decorator_list)

    return [
        f"{cls.name}.{node.target.id}"
        for path in MODULES
        for cls in parse(path).body
        if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
    ]


def test_every_dataclass_field_is_read():
    # a field nothing reads is state nobody uses; a config field that only validation and
    # (de)serialization touch is a setting that changes nothing.  ``args.<name>`` reads the
    # argparse namespace, not a dataclass, so it counts for no field
    read = {
        sub.attr
        for path in MODULES + CALLERS
        for node in parse(path).body
        if not (path.name == "config.py" and isinstance(node, ast.FunctionDef) and node.name in FIELD_PLUMBING)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        and not (isinstance(sub.value, ast.Name) and sub.value.id == "args")
    }
    unread = {name for name in dataclass_fields() if name.split(".")[1] not in read}
    assert unread <= set(UNREAD_FIELDS), f"fields read by no code: {sorted(unread - set(UNREAD_FIELDS))}"
    assert unread == set(UNREAD_FIELDS), f"allowlisted fields now read: {sorted(set(UNREAD_FIELDS) - unread)}"


def test_cli_import_set():
    # in a fresh interpreter, so no module a test imported is counted as already loaded
    code = "import sys, numpy; before = set(sys.modules); import qkdbench.cli; print(*set(sys.modules) - before)"
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=60, check=True)
    added = {name for name in proc.stdout.split() if name.split(".")[0] != "qkdbench"}
    assert "decimal" not in added
    assert added == CLI_IMPORTS, f"new: {sorted(added - CLI_IMPORTS)}, gone: {sorted(CLI_IMPORTS - added)}"


def test_cli_option_set():
    from qkdbench import cli

    (commands,) = (a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}
        for name, parser in commands.items()
    }
    assert options == CLI_OPTIONS


#: the lines ``cli.py`` may print by hand, by their start; every other output is a ``_kv_text`` mapping
CLI_LINE_PREFIXES = ("seed = ", "warning: ", "note: ", "error: ", "I/O error: ")


def test_cli_prints_mappings_through_one_writer():
    def allowed(arg):
        if isinstance(arg, ast.Call):
            return isinstance(arg.func, ast.Name) and arg.func.id == "_kv_text"
        if isinstance(arg, ast.JoinedStr) and arg.values:
            arg = arg.values[0]  # the literal text an f-string starts with
        return isinstance(arg, ast.Constant) and isinstance(arg.value, str) and arg.value.startswith(CLI_LINE_PREFIXES)

    tree = ast.parse((PACKAGE / "cli.py").read_text())
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    prints = [n for n in calls if n.func.id == "print"]
    assert prints
    assert [ast.unparse(n) for n in prints if not (n.args and allowed(n.args[0]))] == []


def test_every_bench_span_target_resolves():
    # the benchmark wraps these functions by name; a missing one drops its metrics and fails the run
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = sorted(name for name in spans.TARGETS if not spans.available(name))
    assert not missing, f"bench/spans.py TARGETS name functions the package no longer has: {missing}"


def readme_schema_rows() -> dict[str, tuple[str, str]]:
    """key -> (unit, range) of each key named in the README's "Configuration schema" table."""
    section = (ROOT / "README.md").read_text().split("\n## Configuration schema\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            names, unit, interval = (cell.strip() for cell in line.split("|")[1:4])
            rows.update(dict.fromkeys(re.findall(r"`(\w+)`", names), (unit, interval.strip("`"))))
    return rows


def test_readme_schema_table_matches_config_schema():
    # a key added, renamed or re-ranged in the code shows up here, not as a stale README row
    from qkdbench.config import CONFIG_SCHEMA

    assert readme_schema_rows() == {key: (unit, interval) for key, (*_, unit, interval) in CONFIG_SCHEMA.items()}


def readme_commands() -> list[str]:
    """The ``qkdbench`` commands of the README's ``sh`` blocks, continuation lines joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("qkdbench ")]


def test_readme_has_commands():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("command", readme_commands(), ids=lambda c: c.split()[1])
def test_readme_command_parses(command):
    # a flag the CLI dropped fails here, not in a user's shell
    from qkdbench import cli

    cli.build_parser().parse_args(shlex.split(command)[1:])
