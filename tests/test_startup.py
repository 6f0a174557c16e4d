"""What `import reptends.cli` and its commands load: a fresh interpreter checks."""

import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import reptends

SRC = os.path.dirname(os.path.dirname(os.path.abspath(reptends.__file__)))
GOLDEN = Path(__file__).parent / "golden"


def modules_after(code: str = "", imports: str = "reptends.cli") -> set[str]:
    """sys.modules after `import <imports>` and then `code`, in a fresh
    interpreter; the names are the last line of its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {imports}\n{code}\n"
         "print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    return set(done.stdout.splitlines()[-1].split())


@functools.cache
def bare_modules() -> frozenset[str]:
    """sys.modules of a fresh interpreter that imports nothing: what site and
    the start-up load, which no assertion below can blame on the package."""
    return frozenset(modules_after(imports="sys"))


def loaded_after(code: str = "", imports: str = "reptends.cli") -> set[str]:
    """The modules that `import <imports>` and `code` add to a bare interpreter."""
    return modules_after(code, imports) - bare_modules()


# Loaded only by the commands that use them: series, with fractions, decimal
# and numbers, by `series`, and csv by `--format csv`.
DEFERRED = {"fractions", "decimal", "numbers", "csv", "reptends.series"}
# SMALL_PRIMES, the tuple of the primes below 10**5, is built on first read.
NO_PRIME_TUPLE = (
    "assert 'SMALL_PRIMES' not in vars(sys.modules['reptends.primality'])")


def test_import_loads_no_deferred_module_and_builds_no_prime_tuple():
    assert DEFERRED.isdisjoint(loaded_after(NO_PRIME_TUPLE))


def test_search_loads_no_deferred_module_and_builds_no_prime_tuple():
    loaded = loaded_after(
        "reptends.cli.main(['search', '7', '10', '--max-digits', '60'])\n"
        + NO_PRIME_TUPLE)
    assert DEFERRED.isdisjoint(loaded)


def test_series_loads_fractions():
    loaded = modules_after("reptends.cli.main(['series', '7', '10'])")
    assert {"fractions", "reptends.series"} <= loaded


def test_period_prints_its_golden_file():
    done = subprocess.run(
        [sys.executable, "-m", "reptends", "period"], capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC), check=True, timeout=60,
    )
    assert done.stdout == (GOLDEN / "period.txt").read_bytes()


def test_package_loads_a_submodule_on_first_use():
    assert not any(name.startswith("reptends.")
                   for name in loaded_after(imports="reptends"))
    loaded = loaded_after("reptends.classify", imports="reptends")
    assert {"reptends.primality"} == {
        name for name in loaded if name.startswith("reptends.")}
    loaded = modules_after("reptends.series.partial_sum", imports="reptends")
    assert {"reptends.series", "fractions"} <= loaded


def test_import_skips_dataclasses_and_openssl():
    loaded = modules_after()
    assert "reptends.cli" in loaded
    # dataclasses pulls in inspect, ast, dis and tokenize.
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)
    # Witnesses hash with the builtin _sha2 (3.12 on) or _sha256 where the
    # interpreter has one; hashlib maps OpenSSL's libcrypto through _hashlib.
    if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        assert "_hashlib" not in loaded
    # libgmp is mapped through ctypes once a candidate from 2**64 up reaches
    # the gcd, or before the first candidate of a walk whose last level
    # reaches 2**64 (see below); never at import.
    assert "ctypes" not in loaded


def test_import_skips_thread_pools_and_logging():
    # concurrent.futures imports logging; classify starts plain threads.
    assert {"concurrent.futures", "logging"}.isdisjoint(modules_after())


def test_split_confirmation_loads_no_logging():
    # 310 digits reach the catalog hits at 273 and 304 digits, which classify
    # confirms on threads where libgmp loads and two CPUs are usable.
    loaded = modules_after(
        "reptends.cli.main(['search', '7', '10', '--max-digits', '310'])")
    assert "logging" not in loaded


def test_a_walk_to_2_64_loads_ctypes_before_its_first_candidate():
    # Levels 7..30 of 1/7 start at 21 bits, but the least candidate of level
    # 30 is above 2**64, and the walk reads that level's size-rule row when
    # it bisects for the window, before it classifies the first candidate.
    loaded = modules_after(
        "import reptends.cyclic_search as search\n"
        "real, first = search.classify, []\n"
        "def spy(n, rounds):\n"
        "    first.append(('ctypes' in sys.modules, n.bit_length()))\n"
        "    return real(n, rounds)\n"
        "search.classify = spy\n"
        "list(search._walk_levels(7, 10, 6, 7, 30, 40))\n"
        "assert first[0] == (True, 21), first[0]")
    assert "ctypes" in loaded
