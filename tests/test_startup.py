"""What `import reptends.cli` loads: a fresh interpreter checks its modules."""

import importlib.util
import os
import subprocess
import sys

import reptends

SRC = os.path.dirname(os.path.dirname(os.path.abspath(reptends.__file__)))


def modules_after_import() -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, reptends.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    return set(done.stdout.split())


def test_import_skips_dataclasses_and_openssl():
    loaded = modules_after_import()
    assert "reptends.cli" in loaded
    # dataclasses pulls in inspect, ast, dis and tokenize.
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)
    # Witnesses hash with the builtin _sha2 (3.12 on) or _sha256 where the
    # interpreter has one; hashlib maps OpenSSL's libcrypto through _hashlib.
    if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        assert "_hashlib" not in loaded
    # libgmp is mapped through ctypes at its first kernel call, from 2**64 up.
    assert "ctypes" not in loaded
