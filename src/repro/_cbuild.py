"""Compile-and-load machinery shared by the embedded C kernels.

:mod:`repro.snn.ckernel` (the SNN one-tick window) and
:mod:`repro.sim.fast_engine.ckernel` (the replay recurrence) each keep
their C source as a string and bind it through :mod:`ctypes`.  This
module owns everything else: finding a compiler, the on-disk cache,
compiling with IEEE-strict flags, and loading once per process.

Compiled objects are cached under ``$REPRO_CKERNEL_CACHE`` (default: a
``repro-ckernel-<uid>`` directory in the system temp dir), keyed by a
hash of the source, the compiler, the flags and the Python version, so
each environment compiles each kernel once.  A failed compile leaves
the compiler's stderr in ``<prefix>_<tag>.log`` next to the cache
entry; the caller sees ``None`` and runs its pure-Python fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Callable, Optional, Sequence

#: Compiler flags: IEEE-strict.  ``-ffp-contract=off`` forbids FMA
#: contraction, ``-fno-fast-math`` forbids reassociation — both would
#: break bit-identity with the Python paths the kernels transcribe.
CFLAGS = ["-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off"]


def find_compiler() -> Optional[str]:
    """``$CC`` if set (resolved on PATH), else the first of cc/gcc/clang."""
    cc = os.environ.get("CC")
    if cc:
        return shutil.which(cc)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> str:
    """Where compiled kernels (and failed-compile logs) live."""
    configured = os.environ.get("REPRO_CKERNEL_CACHE")
    if configured:
        return configured
    return os.path.join(tempfile.gettempdir(),
                        f"repro-ckernel-{os.getuid() if hasattr(os, 'getuid') else 'u'}")


def compile_kernel(source: str, prefix: str, cc: str,
                   link_flags: Sequence[str] = ()) -> Optional[str]:
    """Compile ``source`` to a cached shared object; its path or ``None``.

    On a non-zero compiler exit the compiler's stderr is written to
    ``<prefix>_<tag>.log`` in the cache directory.
    """
    tag = hashlib.sha256(
        (source + "\0" + cc + "\0" + " ".join(CFLAGS)
         + "\0" + sys.version).encode()).hexdigest()[:16]
    cache = cache_dir()
    stem = os.path.join(cache, f"{prefix}_{tag}")
    so_path = stem + ".so"
    if os.path.exists(so_path):
        return so_path
    try:
        os.makedirs(cache, exist_ok=True)
        src_path = stem + ".c"
        tmp_so = f"{stem}.{os.getpid()}.tmp.so"
        with open(src_path, "w") as fh:
            fh.write(source)
        proc = subprocess.run(
            [cc, *CFLAGS, src_path, "-o", tmp_so, *link_flags],
            capture_output=True, timeout=120)
        if proc.returncode != 0:
            with open(stem + ".log", "wb") as fh:
                fh.write(proc.stderr)
            return None
        os.replace(tmp_so, so_path)  # atomic: concurrent compiles race safely
        return so_path
    except (OSError, subprocess.SubprocessError):
        return None


class KernelLoader:
    """Compile-on-first-use, load-once holder for one kernel.

    :meth:`load` returns the bound kernel, or ``None`` when
    ``$<disable_env>=1``, no compiler is found, or compiling/loading
    fails.  Either outcome is remembered for the life of the process.
    """

    def __init__(self, source: str, prefix: str, disable_env: str,
                 bind: Callable[[ctypes.CDLL], object],
                 link_flags: Sequence[str] = ()):
        self.source = source
        self.prefix = prefix
        self.disable_env = disable_env
        self.bind = bind
        self.link_flags = tuple(link_flags)
        self.kernel: Optional[object] = None
        self.tried = False

    def load(self) -> Optional[object]:
        if self.tried:
            return self.kernel
        self.tried = True
        if os.environ.get(self.disable_env) == "1":
            return None
        cc = find_compiler()
        if cc is None:
            return None
        so_path = compile_kernel(self.source, self.prefix, cc,
                                 self.link_flags)
        if so_path is None:
            return None
        try:
            self.kernel = self.bind(ctypes.CDLL(so_path))
        except OSError:
            self.kernel = None
        return self.kernel
