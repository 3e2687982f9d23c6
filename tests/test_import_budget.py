"""Import budget and lazy-export integrity.

A ``repro check`` is a short-lived process, so what it imports is most
of what it costs.  These tests pin module *sets*, not timings: the
paths a regression re-runs (``check --vcd``, and ``check --cache``
cold and warm) load neither NumPy nor the subsystems they never call,
and ``import repro`` loads nothing but the package itself.  Without
NumPy installed the NumPy assertions hold trivially; CI also runs this
file in a job that installs it.

Every package re-exports its names lazily (PEP 562, one
``name -> (module, attr)`` table each), so the tables are checked here
too: a typo must fail this suite, not a user's first call, and every
module must still import on its own now that package imports no longer
fix the import order.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
SPEC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                    "examples", "ocp_simple_read.cesc"))

#: Subsystems no ``repro check`` path runs.
NOT_ON_CHECK_PATHS = (
    "repro.campaign", "repro.analysis", "repro.serve", "repro.sim",
    "repro.hdl", "repro.baselines", "repro.optimize.pipeline",
    "repro.codegen.verilog", "repro.codegen.sva", "repro.codegen.psl",
    "repro.codegen.python_gen",
)


def _env(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC,
               REPRO_NATIVE_CACHE=str(tmp_path / "native"))
    env.pop("REPRO_NO_NUMPY", None)
    return env


def _modules_after(script: str, env, *argv) -> dict:
    """Run ``script`` in a fresh interpreter; it prints a JSON object."""
    result = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


_CLI = (
    "import io, json, sys\n"
    "import repro.cli\n"
    "out = io.StringIO()\n"
    "status = repro.cli.main(sys.argv[1:], out=out)\n"
    "print(json.dumps({'status': status, 'out': out.getvalue(),\n"
    "                  'modules': sorted(sys.modules)}))\n"
)


def test_import_repro_loads_only_the_package(tmp_path):
    loaded = _modules_after(
        "import json, sys\n"
        "import repro\n"
        "print(json.dumps({'modules': sorted(sys.modules)}))\n",
        _env(tmp_path))["modules"]
    assert [m for m in loaded if m.split(".")[0] == "repro"] == ["repro"]
    assert "numpy" not in loaded


@pytest.mark.parametrize("path", ["vcd", "cache_cold", "cache_warm"])
def test_check_loads_only_its_path(tmp_path, path):
    from repro.protocols.fixtures import ocp_simple_vcd, write_vcd_fixture

    dump = tmp_path / "ocp.vcd"
    write_vcd_fixture(dump, ocp_simple_vcd(seed=3, repeats=4))
    cache = tmp_path / "cache"
    argv = ["check", SPEC, "ocp_simple_read", "--vcd", str(dump),
            "--clock", "clk"]
    if path != "vcd":
        argv += ["--cache", str(cache)]
    env = _env(tmp_path)
    if path == "cache_warm":
        cold = _modules_after(_CLI, env, *argv)
        assert len(list(cache.glob("*.rtrc"))) == 1
    run = _modules_after(_CLI, env, *argv)
    assert run["status"] == 0, run["out"]
    if path == "cache_warm":
        assert run["out"] == cold["out"]
        assert len(list(cache.glob("*.rtrc"))) == 1
    loaded = run["modules"]
    assert "numpy" not in loaded
    unexpected = [m for m in loaded for prefix in NOT_ON_CHECK_PATHS
                  if m == prefix or m.startswith(prefix + ".")]
    assert unexpected == []


# -------------------------------------------------- lazy-export integrity ----
def _packages():
    names = ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.") if info.ispkg]
    return [importlib.import_module(name) for name in names]


def _modules():
    return ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, "repro.")]


@pytest.mark.parametrize("package", _packages(),
                         ids=lambda package: package.__name__)
def test_exports_resolve_to_their_defining_objects(package):
    exported = getattr(package, "__all__", [])
    table = getattr(package, "_EXPORTS", {})
    # Every package that re-exports does it through the shared table.
    assert bool(table) == bool(exported)
    assert set(table) <= set(exported)
    for name in exported:
        value = getattr(package, name)
        if name in table:
            module, attr = table[name]
            assert value is getattr(importlib.import_module(module), attr)
    assert set(dir(package)) >= set(exported)


def test_star_import_and_missing_names_behave_as_before():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["tr"] is importlib.import_module(
        "repro.synthesis.tr").tr
    # The submodule and the function share the name ``tr``; the
    # package exports the function.
    assert importlib.import_module("repro.synthesis").tr is namespace["tr"]
    for package, name in (("repro", "no_such_name"),
                          ("repro.trace", "VcdWriter")):
        with pytest.raises(AttributeError) as caught:
            getattr(importlib.import_module(package), name)
        assert str(caught.value) == \
            f"module {package!r} has no attribute {name!r}"


def test_every_module_imports_on_its_own(tmp_path):
    """Each module imports with no other ``repro`` module loaded
    (import cycles that some import order used to mask fail here)."""
    failures = _modules_after(
        "import importlib, json, sys, traceback\n"
        "failures = {}\n"
        "for name in sys.argv[1:]:\n"
        "    for loaded in [m for m in sys.modules\n"
        "                   if m.split('.')[0] == 'repro']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception:\n"
        "        failures[name] = traceback.format_exc(limit=-3)\n"
        "print(json.dumps(failures))\n",
        _env(tmp_path), *_modules())
    assert failures == {}
