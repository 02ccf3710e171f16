"""Which library modules each command runs, and the package's public surface.

The package registers its library modules as lazy modules: each is in
``sys.modules`` from the start and runs on its first attribute access.
A module has run iff ``type(sys.modules[name]) is types.ModuleType``;
``type()`` reads no attribute, so it loads nothing.  Every check runs in
a fresh interpreter without site hooks, since the test process has long
imported every module.

The file needs only the standard library, so it also runs without
pytest:

    PYTHONPATH=src python3 -S tests/test_lazy_modules.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LIBRARY = ("instance", "graph", "codes", "classify", "single", "multi")

# argv: the source directory, then the probe's own arguments
PRELUDE = """\
import json, os, sys, types
sys.path.insert(0, sys.argv.pop(1))

def ran():
    return sorted(k for k, m in sys.modules.items()
                  if k.partition(".")[0] == "uniprior" and type(m) is types.ModuleType)

def quiet(fn, *args):
    out, sys.stdout = sys.stdout, open(os.devnull, "w")
    try:
        return fn(*args)
    finally:
        sys.stdout.close()
        sys.stdout = out
"""

ONE_SENDER = {"n": 3, "q": [1, 2, 1], "arcs": [[1, 2], [2, 1], [3, 1]],
              "senders": [[1, 2, 3]]}
TWO_SENDERS = {"n": 4, "q": [1, 1, 1, 1], "arcs": [[1, 2], [2, 1], [3, 4], [4, 3], [1, 3]],
               "senders": [[1, 2, 3], [3, 4]]}


def _fresh(code: str, *args: str, stdin: bytes | None = None) -> bytes:
    """stdout of a fresh ``python -S`` that runs PRELUDE, then code."""
    return subprocess.run([sys.executable, "-S", "-c", PRELUDE + code, str(SRC), *args],
                          input=stdin, check=True, capture_output=True).stdout


def _ran_after(*argv: str) -> tuple[int, set[str]]:
    """(exit status, modules run) of a fresh interpreter that imports
    uniprior.cli and runs main(argv)."""
    out = _fresh("import uniprior.cli\n"
                 "status = quiet(uniprior.cli.main, sys.argv[1:])\n"
                 "print(json.dumps([status, ran()]))", *argv)
    status, modules = json.loads(out)
    return status, set(modules)


def _modules(*names: str) -> set[str]:
    return {"uniprior", "uniprior.cli"} | {f"uniprior.{m}" for m in names}


def _files(tmp: Path) -> tuple[str, str, str]:
    """An instance of one sender, its code, and one of two senders."""
    one, code, two = tmp / "one.json", tmp / "code.json", tmp / "two.json"
    one.write_text(json.dumps(ONE_SENDER))
    two.write_text(json.dumps(TWO_SENDERS))
    assert _ran_after("encode", str(one), "-o", str(code))[0] == 0
    return str(one), str(code), str(two)


def test_cli_import_runs_only_instance_and_codes():
    out = _fresh("import uniprior.cli\n"
                 "print(json.dumps([ran(), sorted(k for k in sys.modules\n"
                 "                                if k.startswith('uniprior.'))]))")
    ran, registered = json.loads(out)
    assert set(ran) == _modules("instance", "codes")
    assert set(registered) == {"uniprior.cli"} | {f"uniprior.{m}" for m in LIBRARY}


def test_type_loads_nothing_and_an_attribute_runs_the_module():
    out = _fresh("import uniprior\n"
                 "m = sys.modules['uniprior.multi']\n"
                 "before = [type(m) is types.ModuleType for _ in range(2)] + [ran()]\n"
                 "m.bound_multi\n"
                 "import uniprior.multi\n"
                 "print(json.dumps(before + [type(m) is types.ModuleType, ran(),\n"
                 "                           m is uniprior.multi]))")
    assert json.loads(out) == [False, False, ["uniprior"], True,
                               sorted(_modules("instance", "graph", "codes", "classify",
                                               "multi") - {"uniprior.cli"}),
                               True]


def test_validate_and_verify_leave_the_solver_layers_unrun():
    with tempfile.TemporaryDirectory() as tmp:
        one, code, two = _files(Path(tmp))
        for argv in (["validate", one], ["validate", two], ["--format", "json", "validate", one],
                     ["verify", one, code], ["--format", "json", "verify", one, code],
                     ["verify", two, code]):
            status, ran = _ran_after(*argv)
            assert ran == _modules("instance", "codes"), (argv, status, ran)


def test_solve_leaves_multi_and_classify_unrun():
    with tempfile.TemporaryDirectory() as tmp:
        one, _, _ = _files(Path(tmp))
        for argv in (["solve", one], ["--format", "json", "solve", one],
                     ["encode", one, "-o", str(Path(tmp) / "again.json")]):
            status, ran = _ran_after(*argv)
            assert status == 0 and ran == _modules("instance", "codes", "graph", "single"), \
                (argv, ran)
        assert _ran_after("oracle", one) == (0, _modules("instance", "codes", "graph"))


def test_bound_runs_the_multi_sender_layers():
    with tempfile.TemporaryDirectory() as tmp:
        _, _, two = _files(Path(tmp))
        for argv in (["bound", two], ["bound", two, "--exhaustive"], ["trace", two],
                     ["encode", two, "-o", str(Path(tmp) / "two-code.json")]):
            status, ran = _ran_after(*argv)
            assert status in (0, 3) and \
                ran == _modules("instance", "codes", "graph", "classify", "multi"), (argv, ran)


def test_every_public_name_is_its_home_modules_object():
    out = _fresh("import uniprior\n"
                 "names = list(uniprior.__all__)\n"
                 "listed = dir(uniprior)\n"
                 "homes = {}\n"
                 "for name in names:\n"
                 "    obj = getattr(uniprior, name)\n"
                 "    home = obj.__module__\n"
                 "    homes[name] = [home, sys.modules[home].__dict__[name] is obj,\n"
                 "                   name in vars(uniprior)]\n"
                 "print(json.dumps([names, listed, homes]))")
    names, listed, homes = json.loads(out)
    assert len(names) == len(set(names)) == 60
    assert set(names) <= set(listed)
    assert set(LIBRARY) <= set(listed)
    for name in names:
        home, same, cached = homes[name]
        assert home.partition(".")[2] in LIBRARY and same and cached, (name, home)


# the paper's definitions that no command computes; tests/oracles.py
# keeps them as references
RETIRED = ("is_grounded", "predecessor_weight_bound", "lower_bound_single",
           "check_degeneracy_witness")
RETIRED_METHODS = {"WorkGraph": ("with_arcs", "in_neighbors"), "MessageGraph": ("has_edge",),
                   "Instance": ("wants",), "Gf2Basis": ("snapshot", "copy")}


def test_retired_names_are_gone():
    out = _fresh("import uniprior\n"
                 "missing = []\n"
                 "for name in json.loads(sys.argv[1]):\n"
                 "    try:\n"
                 "        getattr(uniprior, name)\n"
                 "    except AttributeError:\n"
                 "        missing.append(name)\n"
                 "kept = [f'{c}.{m}' for c, ms in json.loads(sys.argv[2]).items() for m in ms\n"
                 "        if hasattr(getattr(uniprior, c), m)]\n"
                 "print(json.dumps([missing, sorted(set(dir(uniprior)) & set(missing)), kept]))",
                 json.dumps(RETIRED), json.dumps(RETIRED_METHODS))
    assert json.loads(out) == [list(RETIRED), [], []]


def test_star_import_binds_all():
    out = _fresh("import uniprior\n"
                 "ns = {}\n"
                 "exec('from uniprior import *', ns)\n"
                 "print(json.dumps([sorted(set(ns) - {'__builtins__'}),\n"
                 "                  sorted(uniprior.__all__),\n"
                 "                  all(ns[k] is getattr(uniprior, k) for k in uniprior.__all__)]))")
    bound, names, same = json.loads(out)
    assert bound == names and same


def test_unknown_attribute_raises():
    out = _fresh("import uniprior\n"
                 "try:\n"
                 "    uniprior.no_such_name\n"
                 "except AttributeError as e:\n"
                 "    caught = str(e)\n"
                 "try:\n"
                 "    from uniprior import no_such_name\n"
                 "except ImportError:\n"
                 "    imported = False\n"
                 "else:\n"
                 "    imported = True\n"
                 "print(json.dumps([caught, imported, hasattr(uniprior, 'nope'), ran()]))")
    assert json.loads(out) == ["module 'uniprior' has no attribute 'no_such_name'", False,
                               False, ["uniprior"]]


def test_a_pickled_report_loads_in_an_interpreter_that_imported_only_uniprior():
    text = json.dumps(TWO_SENDERS)
    data = _fresh("import pickle, uniprior\n"
                  "r = uniprior.bound_multi(uniprior.parse_instance(sys.argv[1]))\n"
                  "sys.stdout.buffer.write(pickle.dumps(r))", text)
    out = _fresh("import pickle, uniprior\n"
                 "before = ran()\n"
                 "r = pickle.loads(sys.stdin.buffer.read())\n"
                 "again = uniprior.bound_multi(uniprior.parse_instance(sys.argv[1]))\n"
                 "print(json.dumps([before, type(r).__name__, r == again,\n"
                 "                  repr(r) == repr(again)]))", text, stdin=data)
    assert json.loads(out) == [["uniprior"], "BoundReport", True, True]


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
    print(f"Python {sys.version.split()[0]}: each command runs only its modules")
