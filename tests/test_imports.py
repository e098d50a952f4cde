"""Start-up: a command imports only the modules it runs, and the package's
exports resolve on first use. Each test runs a fresh interpreter, since the
test process has long imported everything."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import cupid
from cupid.store import ClipMatrix, build_corpus

# What any cupid command loads whatever cupid does: numpy and the standard
# modules cli needs. A newer numpy or CPython may import more itself (even
# dataclasses); comparing against this keeps such modules out of the checks.
_BASELINE = "import numpy, argparse, hashlib, json, logging"

# Runs its first argument as code after the baseline imports, then prints
# the modules loaded since as one JSON list.
_CHILD = """\
import sys
exec({baseline!r})
before = set(sys.modules)
exec(sys.argv[1])
print(__import__("json").dumps(sorted(set(sys.modules) - before)))
"""

_NEVER_AT_START = {"dataclasses", "cupid.nce", "cupid.probe"}


def _loaded_by(code, *args):
    """The modules a fresh interpreter loads for code, over the baseline's."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(cupid.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run(
        [sys.executable, "-c", _CHILD.format(baseline=_BASELINE), code, *args],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_command_module():
    extra = _loaded_by("import cupid.cli")
    assert not extra & _NEVER_AT_START
    assert {m for m in extra if m.startswith("cupid")} == {"cupid", "cupid.cli", "cupid.errors"}


def test_importing_the_package_loads_no_submodule():
    extra = _loaded_by("import cupid")
    assert {m for m in extra if m.startswith("cupid")} == {"cupid"}


def test_curate_leaves_nce_and_probe_unimported(tmp_path):
    rng = np.random.default_rng(7)
    for role, n in (("source", 12), ("target", 3)):
        build_corpus([ClipMatrix(f"{role[0]}{i}", rng.normal(size=(2, 4)))
                      for i in range(n)], tmp_path / role, role, role=role)
    for strategy in ("avg-sim", "knn"):
        argv = ["curate", "--strategy", strategy, "--capacity", "4",
                "--source-manifest", str(tmp_path / "source" / "source.manifest.jsonl"),
                "--target-manifest", str(tmp_path / "target" / "target.manifest.jsonl"),
                "--out", str(tmp_path / f"{strategy}.jsonl")]
        extra = _loaded_by("import sys\nfrom cupid import cli\n"
                           "assert cli.main(sys.argv[2:]) == 0", *argv)
        assert {"cupid.store", "cupid.kernels", "cupid.similarity",
                "cupid.curation"} <= extra
        assert not extra & _NEVER_AT_START
        assert len((tmp_path / f"{strategy}.jsonl").read_text().splitlines()) == 4


def test_every_export_resolves_to_its_defining_module():
    extra = _loaded_by("""\
import importlib
ns = {}
exec("from cupid import *", ns)
import cupid
assert len(cupid.__all__) == len(set(cupid.__all__))
for name in cupid.__all__:
    obj = getattr(cupid, name)
    assert ns[name] is obj, name
    assert obj.__name__ == name, name
    assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert vars(cupid)[name] is obj, name  # cached in the module globals
""")
    assert {"cupid.nce", "cupid.probe", "cupid.store"} <= extra


def test_dir_and_unknown_names():
    _loaded_by("""\
import cupid
names = dir(cupid)
assert names == sorted(names)
assert set(cupid.__all__) | {"__all__", "__version__"} <= set(names), names
try:
    cupid.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'cupid' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("cupid.no_such_name resolved")
assert not hasattr(cupid, "ManifestEntry")
try:
    from cupid import no_such_name
except ImportError:
    pass
else:
    raise AssertionError("from cupid import no_such_name succeeded")
""")
