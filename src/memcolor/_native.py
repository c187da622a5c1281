"""Build and load the native kernel, `_kernel.c`, on first use.

gcc compiles the source into a shared library cached in the package's
`__pycache__`, named by a hash of the source, the compile command, the
interpreter's cache tag and the machine; where that directory is not
writable, the library is built in a temporary directory for this process.
`kernel()` returns the loaded library, or None with one RuntimeWarning
when gcc is missing or the build or load fails; callers then run their
Python code (the replay, the two first-touch frame placements, the
trace-file parser and writer, and the sort that numbers values in order of
first appearance), which is the reference the kernel is tested against.
The modules only a build or load needs are imported on first use, so that
importing memcolor stays cheap.
"""

from __future__ import annotations

import functools
import os
import platform
import sys
import tempfile
import warnings

import numpy as np

CC = "gcc"
FLAGS = ("-O2", "-shared", "-fPIC")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")


def library_path() -> str:
    """Where the library built from the current source is cached."""
    import hashlib
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    key = repr((CC, FLAGS, sys.implementation.cache_tag, platform.machine()))
    tag = hashlib.sha256(source + key.encode()).hexdigest()[:16]
    return os.path.join(os.path.dirname(SOURCE), "__pycache__", f"_kernel.{tag}.so")


def _build(path: str):
    """Compile the source to `path` through a temporary file in the same
    directory, so a concurrent build or load never sees a partial file."""
    import subprocess
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        subprocess.run([CC, *FLAGS, "-o", tmp, SOURCE], check=True,
                       capture_output=True, text=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _writable(directory: str) -> bool:
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


@functools.cache
def kernel():
    """The loaded kernel library, or None when it cannot be built."""
    import ctypes
    import subprocess

    try:
        path = library_path()
        if os.path.exists(path):
            lib = ctypes.CDLL(path)
        elif _writable(os.path.dirname(path)):
            _build(path)
            lib = ctypes.CDLL(path)
        else:
            # a read-only install: build for this process only; the loaded
            # library outlives its deleted file
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, os.path.basename(path))
                _build(path)
                lib = ctypes.CDLL(path)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        warnings.warn(f"native kernel unavailable, running the Python "
                      f"code: {str(detail).strip()}", RuntimeWarning, stacklevel=2)
        return None

    i64, i32, u64, u8 = (np.ctypeslib.ndpointer(t, ndim=1, flags="C_CONTIGUOUS")
                         for t in (np.int64, np.int32, np.uint64, np.uint8))
    c64, c32 = ctypes.c_int64, ctypes.c_int32
    lib.replay.argtypes = [c64, c64, i32, u64, i32, i32, i64, i64, i32, c32, c32, c32, c32,
                           c64, i64, c32, i64, c32, c32, c32, i64, i32, i64, i32, i32, i64,
                           i32, i64]
    lib.replay.restype = None
    lib.place_frames.argtypes = [c64, i32, i64, i64, i64, c64, c64, i64, i64, i64, i64, i64]
    lib.place_frames.restype = c64
    lib.draw_frames.argtypes = [c64, i64, c64, i64, i64, c64, i64, c64]
    lib.draw_frames.restype = None
    lib.parse_trace.argtypes = [c64, u8, i32, i64, u64, u8, c64, i64, i64]
    lib.parse_trace.restype = c64
    lib.format_trace.argtypes = [c64, i32, u64, u8, u8, i64, u8]
    lib.format_trace.restype = c64
    lib.number_first.argtypes = [c64, u64, c32, i32, i64, i32]
    lib.number_first.restype = c64
    return lib

