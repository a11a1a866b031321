"""The lazy package: its public API, and the submodules each CLI subcommand loads."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modefisher

SRC = Path(modefisher.__file__).resolve().parent.parent
LIBRARY = {"modefisher.qfi", "modefisher.separability", "modefisher.metrology"}

# Imports modefisher in a fresh interpreter, runs cli.main on argv if there is one and
# prints [exit code, the modefisher submodules in sys.modules].
PROBE = """
import contextlib, io, json, sys
import modefisher
code = None
if len(sys.argv) > 1:
    from modefisher import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("modefisher."))]))
"""


def test_public_names_resolve_to_their_defining_modules():
    for name in modefisher.__all__:
        value = getattr(modefisher, name)
        assert value.__module__.startswith("modefisher."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    from modefisher import cli, metrology
    assert metrology.rotate is modefisher.rotate
    assert callable(cli.main)


def test_dir_lists_every_public_name():
    assert set(modefisher.__all__) <= set(dir(modefisher))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        modefisher.no_such_name
    assert not hasattr(modefisher, "no_such_name")


def test_star_import_binds_all_public_names():
    namespace = {}
    exec("from modefisher import *", namespace)
    assert all(namespace[name] is getattr(modefisher, name) for name in modefisher.__all__)


@pytest.fixture
def inputs(tmp_path):
    files = {"twin": {"N": 4, "kind": "fock", "k": 2},
             "frame": {"kind": "bogolubov", "phi": 0.3},
             "bad_kind": {"N": 4, "kind": "bogus"}}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    return tmp_path


@pytest.mark.parametrize("argv, code, present, absent", [
    ([], None, set(), LIBRARY),
    (["separability", "--state", "twin.json", "--frame", "frame.json", "--witnesses"], 0,
     {"modefisher.separability"}, {"modefisher.qfi", "modefisher.metrology"}),
    (["qfi", "--state", "twin.json", "--direction", "1,0,0"], 0,
     {"modefisher.qfi"}, {"modefisher.metrology"}),
    # the closed form's diagonal check reads fock.largest_coherence, not separability
    (["qfi", "--state", "twin.json", "--direction", "1,0,0", "--method", "both"], 0,
     {"modefisher.qfi"}, {"modefisher.metrology", "modefisher.separability"}),
    (["frames", "--n", "2"], 0, {"modefisher.frames"}, LIBRARY),
    # error paths: a usage error, then inputs each subcommand rejects before its library call
    (["qfi", "--direction", "1,0,0"], 2, set(), LIBRARY),
    (["qfi", "--state", "missing.json", "--direction", "1,0,0"], 2, set(), LIBRARY),
    (["qfi", "--state", "bad_kind.json", "--direction", "1,0,0"], 2, set(), LIBRARY),
    (["estimate", "--state", "twin.json", "--direction", "1,1,1", "--theta", "0.3"], 2,
     set(), LIBRARY),
    (["separability", "--state", "twin.json", "--frame", "missing.json"], 2, set(), LIBRARY),
], ids=["import", "separability", "qfi", "qfi_both", "frames", "usage", "missing_file",
        "bad_kind", "bad_direction", "missing_frame"])
def test_each_subcommand_loads_only_its_modules(inputs, argv, code, present, absent):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=inputs, env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    exit_code, loaded = json.loads(result.stdout)
    assert exit_code == code
    if not argv:
        assert loaded == []
    assert present <= set(loaded)
    assert not absent & set(loaded), sorted(absent & set(loaded))


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="below numpy 2, `import numpy` loads numpy.random itself")
def test_selftest_leaves_numpy_random_unloaded():
    # numpy.random costs about 6 MB (OpenSSL through `secrets`) in the selftest process
    probe = ("import contextlib, io, sys\nfrom modefisher import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n    code = cli.main(['selftest'])\n"
             "print(code, 'numpy.random' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.split() == ["0", "False"]
