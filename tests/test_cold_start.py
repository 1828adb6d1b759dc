"""What a cohodist process imports before its first query.

Importing the package and its CLI loads neither ``dataclasses`` nor
``inspect``, and the fixture tables load only when a command names a
fixture: a command on files never runs them.
"""

import json
import os
import subprocess
import sys

import cohodist

PROBE = r"""
import contextlib, io, json, sys
import cohodist, cohodist.cli
from cohodist import cli
loaded = lambda: sorted({"dataclasses", "inspect", "cohodist.fixtures"} & set(sys.modules))
at_import = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    on_file = cli.main(["--json", "info", sys.argv[1]])
after_file = loaded()
with contextlib.redirect_stdout(out):
    on_name = cli.main(["--json", "info", "s2"])
print(json.dumps({"at_import": at_import, "on_file": on_file, "after_file": after_file,
                  "on_name": on_name, "after_name": loaded()}))
"""


def test_import_and_file_commands_load_no_fixtures(tmp_path):
    cx = tmp_path / "triangle.cx"
    cx.write_text("0,1\n1,2\n2,0\n")
    src = os.path.dirname(os.path.dirname(cohodist.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE, str(cx)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert got == {"at_import": [], "on_file": 0, "after_file": [],
                   "on_name": 0, "after_name": ["cohodist.fixtures"]}
