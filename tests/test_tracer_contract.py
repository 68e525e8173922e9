"""The benchmark tracer still sees every ``verify`` property.

``perfbench/tracer.py`` times a property by wrapping the public functions of
``sequr.verify`` that ``ALL_PROPERTIES`` holds. A property that became
private, or moved to another module, would silently read 0 ms. The tracer
rebinds functions across the package, so it runs in a separate interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json
from tracer import PROPERTY_NAMES, Tracer, layer_metrics
import sequr.cli

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = sequr.cli.main(["verify", "--instances", "2", "--dims", "2"])
metrics = layer_metrics([tracer.spans])
print(json.dumps({"code": code, "property_ms": {
    name: metrics[f"verify.property_ms.{name}"] for name in PROPERTY_NAMES}}))
"""


def test_tracer_times_every_verify_property():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    assert len(report["property_ms"]) == 15
    assert all(ms > 0 for ms in report["property_ms"].values()), report["property_ms"]
