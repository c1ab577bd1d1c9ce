"""The documented API: the README quick start runs as written, every
exported name exists and the package names load their modules lazily,
the CLI starts and reports its configuration without loading numpy,
scipy or mpmath, no command loads scipy, no module imports a name it never
uses or a private name of another, and the package neither imports scipy
nor calls numpy.linalg."""

import ast
import contextlib
import importlib
import io
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import udwpair
import workflow
from udwpair import TruncationWarning

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = ["udwpair"] + [
    f"udwpair.{info.name}" for info in pkgutil.iter_modules(udwpair.__path__)
]


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Library quick start'"
    return match.group(1)


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        exec(compile(_quick_start(), str(README), "exec"), {})
    concurrence, deviation = (float(line) for line in out.getvalue().split())
    # the two commented outputs: ~ 0.0807 and ~ 1e-14
    assert concurrence == pytest.approx(0.0807041257, abs=1e-9)
    assert deviation < 1e-12


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)


def _fresh_interpreter(code: str) -> str:
    """The stdout of ``code`` run by a new interpreter on this source tree."""
    src = str(Path(udwpair.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout


#: the modules that hold or pull in numpy: none loads before a command evaluates
EVALUATION_MODULES = (
    "numpy",
    "udwpair.sweep",
    "udwpair.elements",
    "udwpair.wightman",
    "udwpair.entanglement",
    "udwpair.geometry",
)


def test_cli_start_up_loads_no_scipy_or_mpmath():
    # numpy and the evaluation modules load at the first command that
    # evaluates; scipy and mpmath (only tests and the benchmark reference)
    # are never needed.  The README fig2 show-config, --help
    # and a config error (exit 1) evaluate nothing, so none of them may
    # load any of these.
    commands = [
        ["show-config", "--topology", "cylinder", "--ell", "0.5,1,2,4",
         "--omega-range", "-3:3:121", "--l-range", "1:1:1", "--out", "fig2.csv"],
        ["--help"],
        ["sweep", "--ell", "abc"],
    ]
    code = f"""
import contextlib, io, sys
import udwpair
import udwpair.cli
codes = []
for args in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            udwpair.cli.main(args, prog_name="udwpair")
        except SystemExit as exc:
            codes.append(exc.code)
print(codes)
print(" ".join(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath")))
print(" ".join(m for m in {EVALUATION_MODULES!r} if m in sys.modules))
"""
    codes, loaded, evaluation = _fresh_interpreter(code).split("\n")[:3]
    assert codes == "[0, 0, 1]"
    assert loaded == ""
    assert evaluation == ""


def test_evaluating_commands_load_no_scipy():
    # the special functions are the package's own numpy kernel: no command
    # loads any scipy module, the oracle and the quotients included.  The
    # interpreter refuses to import the test-only packages, as an install
    # without them would, and the oracle exports only its entry points.
    commands = [
        ["sweep", "--omega-range", "-3:3:4", "--l-range", "0.5:4:3"],
        ["sweep", "--topology", "cylinder", "--ell", "0.5,1", "--omega-range", "-3:3:5",
         "--l-range", "1:1:1"],
        ["diffmap", "--topology", "twisted", "--ell", "1", "--d-a", "0.1",
         "--omega-range", "-3:3:3", "--l-range", "0.5:4:3"],
        ["verify", "--omega-range", "-2:2:3", "--l-range", "0.5:4:2"],
        ["verify", "--topology", "cylinder", "--ell", "1", "--omega-range", "-3:3:3",
         "--l-range", "0.25:8:2"],
        ["sweep", "--oracle", "--format", "jsonl", "--omega-range", "-3:3:3",
         "--l-range", "0.25:8:2"],
    ]
    code = f"""
import contextlib, io, sys, warnings

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("mpmath", "scipy", "hypothesis", "pytest"):
            raise ImportError(f"{{name}} is not installed")

sys.meta_path.insert(0, Refuse())
import udwpair.cli
import udwpair.wightman
warnings.simplefilter("ignore")
for args in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        udwpair.cli.main(args, standalone_mode=False)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(udwpair.wightman.__all__)
"""
    assert _fresh_interpreter(code) == (
        "[]\n['oracle_a', 'oracle_batch', 'oracle_c', 'oracle_x']\n"
    )


def test_package_names_resolve_lazily_to_their_home_objects():
    # a fresh interpreter: in this one the tests have imported everything.
    # Importing the package loads no numpy; then each name of __all__ is
    # listed by dir() and is the object its home module defines.
    code = """
import importlib, sys
import udwpair
print("numpy" in sys.modules)
for name in udwpair.__all__:
    value = getattr(udwpair, name)
    home = importlib.import_module(getattr(value, "__module__", None) or "udwpair")
    if name not in dir(udwpair) or value is not getattr(home, name):
        print(name, home.__name__)
"""
    assert _fresh_interpreter(code) == "False\n"


def _unused_imports(path: Path) -> list[str]:
    """Names bound by module-level imports of ``path`` that the module never
    reads; a name listed in its ``__all__`` counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    sorted([*(ROOT / "src" / "udwpair").glob("*.py"), *(ROOT / "tests").glob("*.py")]),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def _test_only_uses(path: Path) -> list[str]:
    """Imports of ``scipy`` (any module of it) and reads of a ``linalg``
    attribute anywhere in ``path``, function bodies included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(f"{path.name}:{node.lineno}: .linalg")
            continue
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "scipy" or "linalg" in parts:
                found.append(f"{path.name}:{node.lineno}: import {module}")
    return found


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "udwpair").glob("*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_package_uses_no_integrate_or_linalg(path):
    # the -i eps oracle (scipy.integrate), scipy.special and the
    # eigenvalue-exact measures (numpy.linalg) are the tests' references
    assert _test_only_uses(path) == []


def _reexports(path: Path) -> list[str]:
    """Names that the ``__all__`` of ``path`` lists and that the module
    imports from another ``udwpair`` module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "udwpair"
        ):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported & exported)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src" / "udwpair").glob("*.py") if p.name != "__init__.py"),
    ids=lambda path: path.name,
)
def test_no_module_reexports_another(path):
    # each name has one home module; only the package namespace gathers them
    assert _reexports(path) == []


def _private_imports(path: Path) -> list[str]:
    """Private names (``_x``, not dunders) that ``path`` takes from another
    ``udwpair`` module: imported by name, or read off an imported module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "udwpair"
        ):
            for alias in node.names:
                if node.module is None:  # from . import module
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "udwpair").glob("*.py")), ids=lambda path: path.name
)
def test_no_module_imports_a_private_name_of_another(path):
    # a private name is its module's own: what another module needs is public
    assert _private_imports(path) == []


WORKFLOW = workflow.WORKFLOW
#: a CLI call in a shell line without its redirections: ``udwpair`` or
#: ``python -m udwpair.cli``, then its arguments up to ``|``, ``)``, ``;``
#: or ``&``
_SHELL_CALL = re.compile(r"(?:^|[\s(])(?:udwpair|python -m udwpair\.cli)\s+([^|)&;]*)")
_REDIRECTION = re.compile(r"\s\d*>\s*\S+")
_SUBCOMMANDS = ("sweep", "diffmap", "verify", "show-config")


def _command_lines() -> list[tuple[str, ...]]:
    """The arguments of every CLI call of a shell line of the CI workflow
    and of a bash block of the README, ``\\`` continuations joined, with
    their ``--out`` dropped; only calls of a subcommand."""
    readme = README.read_text(encoding="utf-8")
    bash = "\n".join(re.findall(r"```bash\n(.*?)```", readme, re.DOTALL))
    calls = []
    for text in (WORKFLOW.read_text(encoding="utf-8"), bash):
        for line in text.replace("\\\n", " ").splitlines():
            line = _REDIRECTION.sub(" ", line.strip())
            if line.startswith("#"):
                continue
            for match in _SHELL_CALL.finditer(line):
                argv = shlex.split(match.group(1))
                if "--out" in argv:
                    i = argv.index("--out")
                    del argv[i : i + 2]
                if argv and argv[0] in _SUBCOMMANDS:
                    calls.append(tuple(argv))
    return calls


def test_command_lines_are_found():
    # the workflow's verify, sweep and diffmap calls and the README's figures
    calls = _command_lines()
    assert {argv[0] for argv in calls} == set(_SUBCOMMANDS)
    assert len(calls) >= 20


#: the inline Python of a shell script: a single-quoted ``check='...'``
#: (which holds no quote) or the double-quoted body of ``python -c``
_CHECK_PROGRAM = re.compile(r"\bcheck='([^']*)'")
_PYTHON_C = re.compile(r'\bpython -c "((?:[^"\\]|\\.)*)"', re.DOTALL)


def _inline_programs(script: str) -> list[str]:
    """The Python programs that a shell script passes as text: its
    ``check='...'`` strings and its ``python -c "..."`` bodies, as the
    shell unquotes them; a body that is a variable (``"$check"``) is not
    a program."""
    bodies = [re.sub(r'\\([\\"$`])', r"\1", body) for body in _PYTHON_C.findall(script)]
    return _CHECK_PROGRAM.findall(script) + [b for b in bodies if not b.startswith("$")]


def test_workflow_scripts_parse():
    # the test suite runs none of the workflow's jobs, so a broken quote in
    # one of its scripts would go unseen: each shell script must pass
    # bash -n and each inline Python program must compile
    blocks = [step.script for step in workflow.steps(WORKFLOW.read_text(encoding="utf-8"))]
    programs = [p for block in blocks for p in _inline_programs(block)]
    assert len(blocks) >= 13 and len(programs) >= 6, (len(blocks), len(programs))
    for block in blocks:
        result = subprocess.run(["bash", "-n"], input=block, capture_output=True, text=True)
        assert result.returncode == 0, (block, result.stderr)
    for program in programs:
        compile(program, "<workflow>", "exec")


def test_workflow_steps_name_their_jobs():
    # ci/local.sh runs the tests job's steps that need no install, in order:
    # every step but the pip install and the installed entry point's
    every = workflow.steps(WORKFLOW.read_text(encoding="utf-8"))
    assert list(dict.fromkeys(step.job for step in every)) == ["tests", "numpy-floor", "runtime"]
    tests = [step for step in every if step.job == "tests"]
    assert [step.name for step in tests if step.needs_install()] == [
        "Install the package with its test dependencies",
        "Run the installed udwpair entry point",
    ]
    local = [step.name for step in tests if not step.needs_install()]
    assert local[:2] == ["Tier-1 tests", "Benchmark self-tests"] and len(local) == 7, local
    assert all(step.needs_install() for step in every if step.job == "runtime")


@pytest.mark.parametrize("argv", sorted(set(_command_lines())), ids=" ".join)
def test_documented_command_lines_parse(argv):
    # show-config resolves the same flags without evaluating anything, so a
    # flag that is renamed or removed fails here before CI runs the command
    from click.testing import CliRunner

    from udwpair.cli import main

    result = CliRunner().invoke(main, ["show-config", *argv[1:]])
    assert result.exit_code == 0, (argv, result.output)
