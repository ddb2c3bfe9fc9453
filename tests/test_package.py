import os
import subprocess
import sys
from pathlib import Path

import gkheat


def test_every_exported_name_resolves():
    assert len(set(gkheat.__all__)) == len(gkheat.__all__)
    for name in gkheat.__all__:
        assert getattr(gkheat, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from gkheat import *", namespace)
    assert set(gkheat.__all__) <= set(namespace)


def test_cli_import_loads_no_scipy():
    src = str(Path(gkheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, gkheat.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
