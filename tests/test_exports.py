import subprocess
import sys
from pathlib import Path

import srrw_lab


def test_every_exported_name_resolves_once():
    names = srrw_lab.__all__
    assert sorted(set(names)) == sorted(names), "a name is exported twice"
    assert [name for name in names if not hasattr(srrw_lab, name)] == []
    namespace = {}
    exec("from srrw_lab import *", namespace)
    assert set(names) <= set(namespace)


def test_the_package_imports_without_scipy():
    # scipy is a test dependency only; the library and CLI need numpy alone
    src = str(Path(srrw_lab.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import srrw_lab, srrw_lab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
