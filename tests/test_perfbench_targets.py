"""The traced benchmark wraps engine functions by module and attribute
name (``perfbench.trace.TARGETS``): renaming one must fail here, not only
in a traced benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# runs in a child process so the wrappers never reach this one
_CHECK = """
import importlib
from perfbench import trace

trace.install(trace.Recorder())
for _layer, modname, attr, _count in trace.TARGETS:
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert hasattr(owner, "__perfbench_wrapped__"), f"{modname}.{attr}"
print(len(trace.TARGETS))
"""


def test_every_trace_target_resolves():
    from perfbench import trace

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p]))
    res = subprocess.run([sys.executable, "-c", _CHECK], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout.split()[-1]) == len(trace.TARGETS)
