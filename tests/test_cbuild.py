"""The shared C build helper: a failed compile is logged, not lost."""

import os
import stat

import pytest

from repro.sim.fast_engine import ckernel as replay_ckernel
from repro.snn import ckernel as snn_ckernel


@pytest.mark.parametrize("module, prefix, disable_env", [
    (snn_ckernel, "tick", "REPRO_NO_CKERNEL"),
    (replay_ckernel, "replay", "REPRO_NO_SIMKERNEL"),
])
def test_failed_compile_keeps_compiler_stderr(tmp_path, monkeypatch,
                                              module, prefix, disable_env):
    compiler = tmp_path / "broken-cc"
    compiler.write_text("#!/bin/sh\n"
                        "echo 'broken-cc: cannot compile today' >&2\n"
                        "exit 1\n")
    compiler.chmod(compiler.stat().st_mode | stat.S_IXUSR)
    cache = tmp_path / "cache"
    monkeypatch.setenv("CC", str(compiler))
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(cache))
    monkeypatch.delenv(disable_env, raising=False)
    # Reset the load-once state; monkeypatch restores the real kernel.
    monkeypatch.setattr(module._loader, "tried", False)
    monkeypatch.setattr(module._loader, "kernel", None)

    assert module.load_kernel() is None
    logs = [name for name in os.listdir(cache)
            if name.startswith(f"{prefix}_") and name.endswith(".log")]
    assert len(logs) == 1
    assert "cannot compile today" in (cache / logs[0]).read_text()
    # Remembered: a second call neither recompiles nor changes its answer.
    assert module.load_kernel() is None
