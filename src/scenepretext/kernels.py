"""The package's C kernels, compiled on first use and loaded through ctypes.

``load()`` builds ``kernels.c`` from beside this module with the C compiler
Python was built with, into ``$XDG_CACHE_HOME/scenepretext`` (else
``~/.cache/scenepretext``). The library is named by a hash of the source,
the flags, the compiler command and the interpreter's ABI tag, so a changed
source or a host of another architecture sharing the home directory never
loads a stale file. It is compiled under a temporary name and renamed into
place, so a concurrent process never loads a half-written library.

The flags are part of the kernels' value contract: no fused multiply-add
(``-ffp-contract=off``) and no ``-ffast-math``, so each kernel rounds as
the numpy expression it replaces; no ``-march=native``, so one library
serves every host of an architecture.
"""

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from .errors import KernelUnavailable

FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")


def _array(dtype, ndim: int):
    return np.ctypeslib.ndpointer(dtype, ndim=ndim, flags="C_CONTIGUOUS")


# each entry point of kernels.c: (argument types, result type); ctypes
# checks every argument against them, arrays by dtype, rank and contiguity
SIGNATURES = {
    "fps": ([_array(np.float64, 2), ctypes.c_ssize_t, ctypes.c_ssize_t,
             _array(np.intp, 1)], ctypes.c_int),
    "chamfer": ([_array(np.float64, 2), ctypes.c_ssize_t,
                 _array(np.float64, 2), ctypes.c_ssize_t, ctypes.c_ssize_t,
                 _array(np.intp, 1)], ctypes.c_int),
}


def _compiler() -> list[str]:
    """The C compiler command Python was built with, split into words."""
    return shlex.split(sysconfig.get_config_var("CC") or "")


def _unavailable(what: str, cc: list[str], lib: Path) -> KernelUnavailable:
    return KernelUnavailable(f"{what} (C compiler {shlex.join(cc)!r}, "
                             f"library {lib})")


def _compile(cc: list[str], src: Path, lib: Path) -> None:
    """Compile ``src`` to a temporary file, then rename it to ``lib``."""
    try:
        lib.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=lib.parent, prefix=f"{lib.name}.",
                                   suffix=".tmp")
    except OSError as e:
        raise _unavailable(f"cannot write the kernel cache: {e}", cc,
                           lib) from None
    os.close(fd)
    try:
        try:
            done = subprocess.run([*cc, *FLAGS, "-o", tmp, str(src)],
                                  capture_output=True, text=True)
        except OSError as e:
            raise _unavailable(f"cannot run the C compiler: {e}", cc,
                               lib) from None
        if done.returncode != 0:
            raise _unavailable(f"cannot compile {src}: "
                               f"{done.stderr.strip()}", cc, lib)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def load() -> ctypes.CDLL:
    """The compiled ``kernels.c`` with its ``SIGNATURES`` declared, built
    on first use; a missing compiler, a failed compile or an unusable
    cache directory raises KernelUnavailable."""
    src = Path(__file__).with_suffix(".c")
    cc = _compiler()
    key = hashlib.sha256(b"\0".join(
        [src.read_bytes(), shlex.join([*cc, *FLAGS]).encode(),
         (sysconfig.get_config_var("SOABI") or "").encode()])).hexdigest()
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    lib = Path(cache, "scenepretext", f"kernels-{key[:16]}.so")
    if not cc:
        raise _unavailable("no C compiler is configured", cc, lib)
    if not lib.exists():
        _compile(cc, src, lib)
    try:
        dll = ctypes.CDLL(str(lib))
    except OSError as e:
        raise _unavailable(f"cannot load the kernels: {e}", cc, lib) from None
    for fn, (argtypes, restype) in SIGNATURES.items():
        getattr(dll, fn).argtypes = argtypes
        getattr(dll, fn).restype = restype
    return dll
