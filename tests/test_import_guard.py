"""``import repro.experiments`` loads only the run harness.

Every rank of a job pays its imports file by file, so a run loads the
figure drivers it calls and nothing else.  Each check imports in a
fresh interpreter, since this process has loaded everything already.
"""

import json
import os
import subprocess
import sys

from .conftest import SRC_ROOT

#: packages an MDTest run does not need (a subpackage loads its parent)
UNNEEDED = {
    f"repro.{name}"
    for name in ("fuzz", "tenancy", "membership", "obs", "prefetch", "check")
}


def loaded_after(module):
    """Names of the ``repro`` modules a fresh interpreter holds after
    importing ``module``."""
    code = (
        f"import json, sys, {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC_ROOT))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(out.stdout))


def test_package_loads_only_the_harness():
    drivers = {m for m in loaded_after("repro.experiments")
               if m.startswith("repro.experiments.")}
    assert drivers == {"repro.experiments.harness"}


def test_a_driver_loads_no_other_driver():
    loaded = loaded_after("repro.experiments.mdtest_exp")
    drivers = {m for m in loaded if m.startswith("repro.experiments.")}
    assert drivers == {"repro.experiments.harness", "repro.experiments.mdtest_exp"}
    assert not loaded & UNNEEDED
