"""Build checks of the native replay kernel, `src/memcolor/_kernel.c`."""

import ctypes
import os
import re
import shutil
import subprocess

import numpy as np
import pytest

from memcolor import _native

needs_gcc = pytest.mark.skipif(shutil.which(_native.CC) is None,
                               reason=f"{_native.CC} not installed")


@needs_gcc
def test_kernel_compiles_without_warnings():
    proc = subprocess.run([_native.CC, "-std=c99", "-Wall", "-Wextra", "-Werror",
                           "-fsyntax-only", _native.SOURCE],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@needs_gcc
def test_ctypes_signatures_match_the_source():
    # ctypes passes what argtypes say: a count or type that disagrees with
    # the C definition goes unnoticed and corrupts the call
    scalars = {"int64_t": ctypes.c_int64, "int32_t": ctypes.c_int32}
    with open(_native.SOURCE) as fh:
        exported = re.findall(r"^(\w+) (\w+)\(([^)]*)\)", fh.read(), re.M)
    assert exported
    lib = _native.kernel()
    for result, name, params in exported:
        fn = getattr(lib, name)
        params = [p.split()[-2:] for p in params.split(",")]
        assert len(fn.argtypes) == len(params), name
        assert (fn.restype is None) == (result == "void"), name
        for (ctype, param), argtype in zip(params, fn.argtypes):
            if param.startswith("*"):
                assert argtype._dtype_ == np.dtype(ctype.removesuffix("_t")), (name, param)
            else:
                assert argtype is scalars[ctype], (name, param)


def test_built_library_is_ignored_by_git():
    root = os.path.dirname(_native.SOURCE)
    try:
        inside = subprocess.run(["git", "-C", root, "rev-parse", "--is-inside-work-tree"],
                                capture_output=True, text=True, timeout=60)
    except FileNotFoundError:
        pytest.skip("git not installed")
    if inside.returncode != 0:
        pytest.skip("not a git checkout")
    proc = subprocess.run(["git", "-C", root, "check-ignore", "-q", _native.library_path()],
                          timeout=60)
    assert proc.returncode == 0


@needs_gcc
def test_unwritable_cache_builds_for_the_process(monkeypatch, fresh_kernel):
    # other flags name a library not built yet
    monkeypatch.setattr(_native, "FLAGS", _native.FLAGS + ("-DREAD_ONLY_TEST",))
    monkeypatch.setattr(_native, "_writable", lambda directory: False)
    path = _native.library_path()
    assert not os.path.exists(path)
    lib = _native.kernel()
    assert lib is not None and lib.replay.argtypes
    assert not os.path.exists(path)
