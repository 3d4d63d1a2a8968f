import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig

import pytest

from edgeind import _kernels_py

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ``python setup.py build`` with Cython unimportable, so the build must
# compile the C source on its own.
BUILD_WITHOUT_CYTHON = (
    "import runpy, sys; sys.modules['Cython'] = None; "
    "sys.argv = ['setup.py', '-q', 'build', '--build-base', sys.argv[1], "
    "'--build-lib', sys.argv[2]]; runpy.run_path('setup.py', run_name='__main__')"
)


def _toolchain_present():
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    include = sysconfig.get_paths()["include"]
    return bool(cc) and shutil.which(cc[0]) is not None and \
        os.path.exists(os.path.join(include, "Python.h"))


@pytest.fixture(scope="session")
def built_lib(tmp_path_factory):
    """The package as ``setup.py build`` lays it out, compiled extension
    included; skips only without a C compiler or the Python headers."""
    if not _toolchain_present():
        pytest.skip("no C compiler or Python headers")
    out = tmp_path_factory.mktemp("build")
    proc = subprocess.run(
        [sys.executable, "-c", BUILD_WITHOUT_CYTHON, str(out / "build"), str(out / "lib")],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return out / "lib"


@pytest.fixture(scope="session")
def compiled(built_lib):
    """The compiled kernel module from that build."""
    name = "_kernels" + sysconfig.get_config_var("EXT_SUFFIX")
    path = built_lib / "edgeind" / name
    assert path.exists(), f"setup.py build made no {name}"
    spec = importlib.util.spec_from_file_location("edgeind._kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def backends(request):
    """The pure twin, then the compiled kernel when it can be built."""
    try:
        return [_kernels_py, request.getfixturevalue("compiled")]
    except pytest.skip.Exception:
        return [_kernels_py]
