"""What a CLI start loads.  Each test runs a fresh interpreter and compares its modules after
the work with those it had before, the bare interpreter's, since ``site`` may pre-import some."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from springerrep.verify import MAX_VERIFY_N, SUITE_NAMES

SRC = Path(__file__).resolve().parents[1] / "src"
# the modules the snippet's work adds to the interpreter's, one per line
NEW_MODULES = "import sys\nbare = set(sys.modules)\n{}\nprint(*sorted(set(sys.modules) - bare), sep='\\n')"


def run(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with these arguments, the package's source first on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True, timeout=60)


def added_modules(snippet: str) -> set[str]:
    return set(run("-c", NEW_MODULES.format(snippet)).stdout.split())


def package_modules(names: set[str]) -> set[str]:
    return {name for name in names if name.split(".")[0] == "springerrep"}


def test_building_the_parser_loads_no_kernel_no_dataclasses_and_no_json():
    added = added_modules("import springerrep.cli as cli\ncli.build_parser()")
    assert package_modules(added) == {"springerrep", "springerrep.cli", "springerrep.errors"}
    assert not added & {"dataclasses", "inspect", "json"}


def test_reduce_loads_none_of_the_action_or_verify_modules(tmp_path):
    source, target = tmp_path / "sum.json", tmp_path / "out.json"
    nested = {"n": 4, "arcs": [[1, 4], [2, 3]], "dotted": [[2, 3]]}
    source.write_text(json.dumps({"terms": [{"coef": 1, "matching": nested}]}))
    added = added_modules(f"from springerrep.cli import main\n"
                          f"assert main(['reduce', '--input', {str(source)!r}, '--out', {str(target)!r}]) == 0")
    assert {"springerrep.rewriting", "springerrep.jsonio"} <= added
    assert not package_modules(added) & {f"springerrep.{name}" for name in ("snaction", "specht", "verify", "perms")}
    assert json.loads(target.read_text())["terms"]  # a nested dot rewrites to a nonzero sum


# each command, and the package modules beyond springerrep and springerrep.cli that it
# loads: only expand, specht, top-basis and the verify commands load the expansion, and
# expand does not load the rewriting kernel
CODE_COMMANDS = {  # every command that runs on codes alone: all but the verify commands and act --perm
    "enumerate": (["enumerate", "--n", "6", "--k", "2"], "codes errors jsonio"),
    "bijection": (["bijection", "--n", "6"], "codes errors jsonio"),
    "reduce": (["reduce", "--input", "sum.json"], "codes errors jsonio rewriting"),
    "expand": (["expand", "--input", "matching.json"], "codes errors jsonio linediagrams"),
    "act-gen": (["act", "--gen", "1", "--input", "sum.json"], "codes errors jsonio rewriting snaction"),
    "matrix": (["matrix", "--n", "6", "--k", "2", "--gen", "1"], "codes errors rewriting snaction"),
    "character": (["character", "--n", "6", "--k", "2", "--cycle-type", "3,2,1"], "codes errors rewriting snaction"),
    "specht": (["specht", "--n", "6", "--k", "2"], "codes errors jsonio linediagrams rewriting snaction specht"),
    "top-basis": (["top-basis", "--n", "6"], "codes errors jsonio linediagrams rewriting snaction specht"),
}
OBJECT_COMMANDS = {  # the commands that build objects
    "act-perm": (["act", "--perm", "(1 2)", "--input", "sum.json"], "codes errors jsonio perms rewriting snaction"),
    "verify": (["verify", "--max-n", "4"],
               "codes errors formal linediagrams matchings rewriting snaction specht verify"),
    "verify-equality": (["verify-equality", "--max-n", "4"],
                        "codes errors formal linediagrams matchings rewriting snaction specht verify"),
}


def command_modules(tmp_path, argv, expected: str) -> set[str]:
    """The modules a fresh start that runs the command ``argv`` adds, after checking that
    its package modules are exactly springerrep, springerrep.cli and ``expected``."""
    standard = {"n": 4, "arcs": [[1, 4], [2, 3]], "dotted": [[1, 4]]}
    (tmp_path / "matching.json").write_text(json.dumps(standard))
    (tmp_path / "sum.json").write_text(json.dumps({"terms": [{"coef": 2, "matching": standard}]}))
    argv = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    target = tmp_path / "out.txt"
    added = added_modules(f"from springerrep.cli import main\n"
                          f"assert main({[*argv, '--out', str(target)]!r}) == 0")
    assert package_modules(added) == {"springerrep", "springerrep.cli",
                                      *(f"springerrep.{name}" for name in expected.split())}
    assert target.read_text()
    return added


@pytest.mark.parametrize("command", CODE_COMMANDS)
def test_commands_on_codes_load_no_object_layer(tmp_path, command):
    assert not command_modules(tmp_path, *CODE_COMMANDS[command]) & {"dataclasses", "inspect"}


@pytest.mark.parametrize("command", OBJECT_COMMANDS)
def test_commands_on_objects_load_exactly_their_package_modules(tmp_path, command):
    command_modules(tmp_path, *OBJECT_COMMANDS[command])


def test_the_module_entry_point_starts_without_a_kernel():
    # python -m runs the CLI as __main__, its constants imported from the package
    done = run("-X", "importtime", "-m", "springerrep.cli", "verify", "--help")
    assert all(name in done.stdout for name in SUITE_NAMES)
    assert f"{MAX_VERIFY_N} (default 8)" in " ".join(done.stdout.split())
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert package_modules(imported) == {"springerrep", "springerrep.errors"}
