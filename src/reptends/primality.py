"""Primality classification for arbitrary-precision integers.

Below 10**5, n is looked up in a table of one byte per integer, sieved at
import; SMALL_PRIMES, those primes as a tuple, is built only when first
read.  From 10**5 up, a prefix of the primes under 10**5 is tried with `%`,
and one gcd with the product of the primes past it up to a bound finds
small factors.  One strong-pseudoprime round to base 2 then screens out
most composites cheaply, and a strong Lucas check with Selfridge parameters
follows.  Below 2**64 those two checks (BPSW: Baillie & Wagstaff, Math.
Comp. 1980) decide, since no composite there passes both (Baillie, Fiori &
Wagstaff, Math. Comp. 2021).  From 2**64 up, the requested number of rounds
with witnesses derived from a hash of the candidate (so results are
reproducible across runs and processes) run as well.  No composite is
known to survive that combination, and a survivor is reported as a probable
prime.

The size rule above _plan picks the gcd's bound, the kernels (builtin, or
the system's GNU MP library, libgmp, through ctypes) and the threads that
share the checks after the base-2 round.  libgmp runs only the ladders and
the deep gcd, and each tail is one Python loop for both kernel sets.  Each
libgmp kernel returns what its builtin counterpart returns, and the verdict
is the AND of the checks, so it is the same with or without the library, on
any number of threads.  The libgmp kernels draw their temporaries from one
pool of kernel sets, so any thread may call classify, and calls on several
threads run at once.  Threads start only in _in_order, whose helpers run
every check of a hit here or level of cyclic_search's window while the
caller reads the results in order.

A verdict is a named tuple, so it also unpacks, indexes and compares equal
to the plain tuple (status, witness_rounds).
"""

import functools
import math
import os
import sys
import threading
from bisect import bisect_right
from contextlib import closing
from itertools import compress, count, islice
from typing import Callable, Iterator, Literal, NamedTuple, Sequence

# This interpreter's builtin _sha2 (_sha256 before Python 3.12) computes the
# same digests without loading OpenSSL, as the stdlib's random.py does for sha512.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import sha256

DEFAULT_ROUNDS = 40
DETERMINISTIC_BOUND = 2**64
TRIAL_DIVISION_BOUND = 10**5


def _prime_flags(limit: int) -> bytearray:
    """flags[n] is 1 when n is prime and 0 otherwise, for 0 <= n < limit."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


# classify's lookup below 10**5: 10**5 bytes, sieved in about 0.5 ms, where
# SMALL_PRIMES, 9592 ints in a tuple, takes about 0.35 MiB and 3-4 ms more
# (CPython 3.11, 2-vCPU Xeon VM), so __getattr__ builds it on first read.
_IS_SMALL_PRIME = _prime_flags(TRIAL_DIVISION_BOUND)
# Primes tried one by one before the gcd; most trial-division kills land here.
_TRIAL_PREFIX = tuple(islice(compress(count(), _IS_SMALL_PRIME), 128))


def __getattr__(name: str):
    """SMALL_PRIMES, the primes below 10**5, built on first read and kept."""
    if name != "SMALL_PRIMES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global SMALL_PRIMES
    SMALL_PRIMES = tuple(compress(range(TRIAL_DIVISION_BOUND), _IS_SMALL_PRIME))
    return SMALL_PRIMES


@functools.cache
def _primorial(bound: int) -> int:
    """Product of the primes past the prefix and below bound (at most 10**5),
    built on first use."""
    start = _TRIAL_PREFIX[-1] + 1
    return math.prod(compress(range(start, bound), _IS_SMALL_PRIME[start:bound]))


Status = Literal["prime", "composite", "probable_prime"]


class PrimalityVerdict(NamedTuple):
    """Outcome of classify: status plus the number of witness rounds run.

    witness_rounds is 0 for deterministic verdicts.
    """

    status: Status
    witness_rounds: int = 0

    @property
    def is_prime(self) -> bool:
        return self.status != "composite"


_PRIME = PrimalityVerdict("prime", 0)
_COMPOSITE = PrimalityVerdict("composite", 0)


# Where the dynamic loader finds libgmp by name: Linux, then macOS.
_GMP_SONAMES = ("libgmp.so.10", "libgmp.10.dylib")


# Known answers of the strong Lucas check.  libgmp's part ends at its zero
# test for the prime 100151, whose U_d or V_d is 0 mod n, and at V_d for the
# rest: Python's doublings, fed by libgmp's signed V_d and Q**d (both
# negative for 100127), pass the strong Lucas pseudoprime 100127 at the 4th
# and the prime 2**17 - 1, with d = 1, at the 15th; 100131 = 3 * 33377 fails.
_LUCAS_MOD_ANSWERS = ((100151, True), (100127, True), (100131, False),
                      (2**17 - 1, True))


class _Gmp(NamedTuple):
    """libgmp's kernels; each returns what its builtin counterpart returns."""

    # powmod(a, e, m) == pow(a, e, m) for a >= 0, e >= 1 and m >= 1.
    powmod: Callable[[int, int, int], int]
    # deep_coprime(n) == (math.gcd(n, _primorial(TRIAL_DIVISION_BOUND)) == 1)
    # for n with no factor in _TRIAL_PREFIX, as classify calls it.
    deep_coprime: Callable[[int], bool]
    # strong_lucas(n, d, s, Q) == _lucas_chain(n, d, s, Q) for n + 1 = d * 2**s:
    # libgmp runs the ladder to V_d from n and s, _lucas_doublings the rest.
    strong_lucas: Callable[[int, int, int, int], bool]


@functools.cache
def _gmp() -> _Gmp | None:
    """The system libgmp's kernels, through ctypes, or None.

    None where ctypes, the library or one of its symbols does not load, so
    there is never a partial set.  mpz_lucas_mod, exported from libgmp 6.2
    on, is declared only in GMP's internal gmp-impl.h, so its interface is
    not promised: the set is also None where strong_lucas misses one of
    _LUCAS_MOD_ANSWERS.  Loaded on first call, so importing the package
    maps neither.  ctypes.util.find_library is not used: on Linux it runs
    ldconfig or gcc in a subprocess.  Values cross as big-endian 1-byte
    words, so the limb size does not matter.
    """
    try:
        import ctypes
    except ImportError:
        return None

    class Mpz(ctypes.Structure):  # GMP's __mpz_struct
        _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int),
                    ("limbs", ctypes.c_void_p)]

    mpz, size_t, c_int = ctypes.POINTER(Mpz), ctypes.c_size_t, ctypes.c_int
    ulong = ctypes.c_ulong
    signatures = {
        "init": ([mpz], None),
        "import": ([mpz, size_t, c_int, size_t, c_int, size_t, ctypes.c_char_p],
                   None),
        "export": ([ctypes.c_void_p, ctypes.POINTER(size_t), c_int, size_t,
                    c_int, size_t, mpz], ctypes.c_void_p),
        "powm": ([mpz, mpz, mpz, mpz], None),
        "gcd": ([mpz, mpz, mpz], None),
        "primorial_ui": ([mpz, ulong], None),
        "cmp_ui": ([mpz, ulong], c_int),
        # lucas_mod(V, q, Q, s, N, T, X): with n + 1 = d * 2**s in N, nonzero
        # when U_d or V_d is 0 mod n; otherwise V_d in V and, for s > 1, Q**d
        # in q, each of either sign and below n in absolute value.
        "lucas_mod": ([mpz, mpz, ctypes.c_long, ulong, mpz, mpz, mpz], c_int),
    }
    for soname in _GMP_SONAMES:
        try:
            gmp = ctypes.CDLL(soname)
            f = {name: getattr(gmp, "__gmpz_" + name) for name in signatures}
            break
        except (OSError, AttributeError):
            continue
    else:
        return None
    for name, (argtypes, restype) in signatures.items():
        f[name].argtypes, f[name].restype = argtypes, restype
    load, store, gcd, cmp_ui = f["import"], f["export"], f["gcd"], f["cmp_ui"]

    def put(z, v: int) -> None:  # z = v, for v >= 0
        raw = v.to_bytes((v.bit_length() + 7) // 8, "big")
        load(z, len(raw), 1, 1, 1, 0, raw)

    def kernel_set() -> _Gmp:
        """The three kernels on temporaries of their own, lent to one call at a time.

        Each kernel writes every temporary before it reads it, except P, the
        product of the primes below 10**5, which deep_coprime fills while P
        is still 0, as mpz_init leaves it.
        """
        N, T, X, V, q, P = zs = [Mpz() for _ in range(6)]
        for z in zs:
            f["init"](z)
        nbytes = size_t()

        def get(z, m: int) -> int:  # z's value, sign included, for |z| < m
            out = ctypes.create_string_buffer((m.bit_length() + 7) // 8)
            store(out, nbytes, 1, 1, 1, 0, z)
            v = int.from_bytes(out.raw[: nbytes.value], "big")
            return -v if z.size < 0 else v

        def powmod(a: int, e: int, m: int) -> int:
            put(X, a)
            put(V, e)
            put(N, m)
            f["powm"](T, X, V, N)
            return get(T, m)

        def deep_coprime(n: int) -> bool:
            if cmp_ui(P, 0) == 0:
                f["primorial_ui"](P, TRIAL_DIVISION_BOUND - 1)
            put(X, n)
            gcd(T, X, P)
            return cmp_ui(T, 1) == 0

        def strong_lucas(n: int, d: int, s: int, Q: int) -> bool:
            """_lucas_chain(n, d, s, Q): libgmp's ladder to V_d, then Python's."""
            put(N, n)
            if f["lucas_mod"](V, q, Q, s, N, T, X):
                return True
            return s > 1 and _lucas_doublings(n, get(V, n), get(q, n), s)

        return _Gmp(powmod, deep_coprime, strong_lucas)

    # Each kernel call takes a set from the free list, or makes one when it
    # is empty, and hands it back, so calls on several threads run at once
    # and the list holds no more sets than there have been calls at once.
    # A set per thread would leak: _confirm starts threads for each hit and
    # no set is ever cleared.  list.pop and list.append are atomic, so no
    # two calls share a set; an emptiness test before the pop would race.
    free: list[_Gmp] = []

    def pooled(i: int) -> Callable:
        def kernel(*args):
            try:
                kernels = free.pop()
            except IndexError:
                kernels = kernel_set()
            try:
                return kernels[i](*args)
            finally:
                free.append(kernels)
        return kernel

    kernels = _Gmp(*map(pooled, range(len(_Gmp._fields))))
    for n, passes in _LUCAS_MOD_ANSWERS:
        if _strong_lucas_probable_prime(n, kernels.strong_lucas) is not passes:
            return None
    return kernels


def _odd_part(m: int) -> tuple[int, int]:
    """(d, s) with m = d * 2**s and d odd, for m >= 1."""
    s = (m & -m).bit_length() - 1
    return m >> s, s


def _strong_probable_prime(n: int, a: int, d: int, s: int, powmod=pow) -> bool:
    """One strong-pseudoprime round, n-1 = d * 2**s with d odd, on powmod."""
    x = powmod(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _passes_base2_round(n: int) -> bool:
    """classify's lookup below 10**5, its strong base-2 round from there up."""
    if n < TRIAL_DIVISION_BOUND:
        return classify(n).is_prime
    return _strong_probable_prime(n, 2, *_odd_part(n - 1), _plan(n).powmod)


def _survivor(n: int, rounds: int) -> PrimalityVerdict:
    """classify's verdict on an n that passes every check it runs."""
    if n < DETERMINISTIC_BOUND:
        return _PRIME
    return PrimalityVerdict("probable_prime", rounds)


def _derived_witnesses(n: int, rounds: int) -> Iterator[int]:
    """Witnesses in [2, n-2] derived from a hash of n; no wall-clock entropy."""
    material = n.to_bytes((n.bit_length() + 7) // 8, "big")
    for k in range(rounds):
        digest = sha256(material + k.to_bytes(8, "big")).digest()
        yield int.from_bytes(digest, "big") % (n - 3) + 2


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _lucas_chain(n: int, d: int, s: int, Q: int) -> bool:
    """True when U_d = 0 or V_(d*2**r) = 0 mod n for some r < s.

    The Lucas sequences have P = 1, Q and D = 1 - 4Q; n is odd, gcd(D, n) = 1
    (Selfridge's (D|n) = -1 ensures it) and n + 1 = d * 2**s with d odd.
    """
    # (v, w, q) = (V_k, V_(k+1), Q**k) mod n, from k = 0 up through d's
    # bits: k -> 2k on a 0-bit, k -> 2k + 1 on a 1-bit.  U_d is not kept:
    # D * U_d = 2 * V_(d+1) - V_d, and D is a unit mod n.
    v, w, q = 2, 1, 1
    for bit in bin(d)[2:]:
        if bit == "1":
            v, w, q = (v * w - q) % n, (w * w - 2 * q * Q) % n, q * q * Q % n
        else:
            v, w, q = (v * v - 2 * q) % n, (v * w - q) % n, q * q % n
    return v == 0 or (2 * w - v) % n == 0 or _lucas_doublings(n, v, q, s)


def _lucas_doublings(n: int, v: int, q: int, s: int) -> bool:
    """True when V_(d*2**r) = 0 mod n for some 0 < r < s: V_2k = V_k**2 -
    2 * Q**k, from v = V_d and q = Q**d, residues mod n of either sign."""
    for _ in range(s - 1):
        v = (v * v - 2 * q) % n
        if v == 0:
            return True
        q = q * q % n
    return False


def _strong_lucas_probable_prime(n: int, chain=_lucas_chain) -> bool:
    """Strong Lucas test with Selfridge parameters (P=1, Q=(1-D)/4).

    Expects odd n from 10**5 up: every |D| the parameter search reaches
    before a Jacobi symbol of -1 is then far below n, so a symbol of 0 proves
    n composite.  classify calls it from 10**5 up, with its row's chain.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while True:
        j = _jacobi(D % n, n)
        if j == 0:
            return False
        if j == -1:
            break
        D = -D - 2 if D > 0 else -D + 2
    d, s = _odd_part(n + 1)
    return chain(n, d, s, (1 - D) // 4)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The size rule: _plan reads every choice classify makes by n's size, from
# 10**5 up, from one row of _rows.  What sets each bound (CPython 3.11):
#
# gcd bound 10**5 from 768 bits.  Below that a gcd costs about 10 us at
# bound 4096 and 0.1-0.3 ms at 10**5, and the primes in between expose
# about 1 - ln 4096 / ln 10**5 = 28 % of the composites that reach them.
# That saves more than the extra gcd costs only from about 520 bits, and by
# under 0.3 ms a candidate up to 768 bits, while the 10**5 product takes
# about 20 ms to build in Python (1 ms from libgmp's mpz_primorial_ui).  So
# runs that stay below 768 bits never build it.
#
# libgmp's power from 2**64.  The builtin pow wins below about 60 bits,
# where the ctypes calls' 8 us are most of the cost (6 against 8 us at 40
# bits), and loses 1.3x at 65 bits and 7-10x from 512 bits up.
#
# libgmp's Lucas chain wherever its power runs.  mpz_lucas_mod runs the
# chain up to V_d in one call, where a chain of one ctypes call a multiply
# (8 on a 0-bit of d, 10 on a 1-bit, at about 0.5 us each) broke even with
# Python only near 700 bits; its s - 1 doublings, 1 on average, stay in
# Python.  libgmp's gcd from 768 bits, with the deeper bound.  Best of 7,
# median of 3 random n; runs differ by up to 25 %:
#
#   bits                         66     512    768    1024   2734
#   chain, Python (ms)           0.042  2.3    5.6    12     151
#   chain, call a multiply (ms)  0.28   2.3    3.7    5.6    36
#   chain, mpz_lucas_mod (ms)    0.013  0.28   0.66   1.4    20
#   gcd 10**5, Python (us)       102    249    297    385    840
#   gcd 10**5, libgmp (us)       24     45     50     65     139
#
# Threads from 768 bits: ctypes releases the GIL during each libgmp call.
# On a 2-vCPU VM the 823-digit hit took 0.25 s on one CPU and 0.13 s on two.
_SHALLOW_GCD_BITS = 768
_SHALLOW_GCD_BOUND = 4096
_ROW_FROM_BITS = (DETERMINISTIC_BOUND.bit_length(), _SHALLOW_GCD_BITS)


class _Plan(NamedTuple):
    """A row of the size rule; coprime(n) is gcd(n, _primorial(gcd_bound)) == 1."""

    gcd_bound: int
    coprime: Callable[[int], bool]
    powmod: Callable[[int, int, int], int]
    chain: Callable[[int, int, int, int], bool]
    threads: int  # 0 in _rows: _usable_cpus(), which _plan reads on each call


@functools.cache
def _rows(gmp: _Gmp | None) -> tuple[_Plan, ...]:
    """_plan's rows, on libgmp's kernels or, for None, the builtin ones.

    Row i + 1 starts at _ROW_FROM_BITS[i] bits.
    """

    def coprime_to(bound: int) -> Callable[[int], bool]:
        return lambda n: math.gcd(n, _primorial(bound)) == 1

    shallow, threads = coprime_to(_SHALLOW_GCD_BOUND), 0 if gmp else 1
    if gmp is None:  # the builtin kernels in every row, on one thread
        gmp = _Gmp(pow, coprime_to(TRIAL_DIVISION_BOUND), _lucas_chain)
    return (  # gcd bound, gcd, power, Lucas chain, threads
        _Plan(_SHALLOW_GCD_BOUND, shallow, pow, _lucas_chain, 1),  # 17-64 bits
        _Plan(_SHALLOW_GCD_BOUND, shallow, gmp.powmod,  # 65-767 bits
              gmp.strong_lucas, 1),
        _Plan(TRIAL_DIVISION_BOUND, gmp.deep_coprime, gmp.powmod,  # 768 and up
              gmp.strong_lucas, threads),
    )


def _plan(n: int) -> _Plan:
    """n's row of the size rule: row 0, one thread and no libgmp, below 2**64."""
    i = bisect_right(_ROW_FROM_BITS, n.bit_length())
    row = _rows(_gmp() if i else None)[i]  # row 0 needs no libgmp
    return row if row.threads else row._replace(threads=_usable_cpus())


class _Stopped(Exception):
    """Raised by _confirm's checks once the walk its caller helps has stopped."""


# A helper thread's stop list of the _in_order walk it serves.
_helping = threading.local()


def _in_order(task: Callable, items: Sequence, threads: int, name: str) -> Iterator:
    """task(item) for each of items, in order.

    With one thread it is map: no helper starts and no lock is taken.
    Otherwise daemon helpers <name>-1 .. <name>-<threads> each run the next
    untaken item while this thread waits and yields the results in order.
    The walk's stop list, each helper's _helping.stopped, turns nonempty
    when a helper raises or the generator ends (last item, close(), an
    exception here, Ctrl-C included): no item starts after it, and the
    generator ends once every helper has ended its task, raising a Ctrl-C
    that came meanwhile.  A helper's exception is raised at this thread's
    next wait, even ahead of results done before the failed item.
    """
    threads = min(threads, len(items))
    if threads < 2:
        yield from map(task, items)
        return
    cond = threading.Condition(threading.Lock())
    untaken = iter(range(len(items)))  # item indices, claimed under cond
    done: dict = {}  # item index -> result
    stopped: list = []  # nonempty once a helper raised or the generator ends
    ended: list = []  # one entry per helper that has left work

    def work() -> None:
        _helping.stopped = stopped
        try:
            while True:
                with cond:
                    j = None if stopped else next(untaken, None)
                if j is None:
                    break
                result = task(items[j])
                with cond:
                    done[j] = result
                    cond.notify_all()
        except BaseException as exc:
            with cond:
                stopped.append(exc)
        with cond:
            ended.append(None)
            cond.notify_all()

    helpers, interrupted = [], None  # the started helpers, a Ctrl-C meanwhile
    try:
        for k in range(1, threads + 1):
            # Daemons, so that a generator left unclosed in a live traceback
            # cannot hold up the interpreter's exit while its helpers run on.
            helper = threading.Thread(target=work, name=f"{name}-{k}", daemon=True)
            helper.start()
            helpers.append(helper)
        for i in range(len(items)):
            with cond:
                cond.wait_for(lambda: i in done or stopped)
            if stopped:  # a helper raised; the finally clause waits first
                raise stopped[0]
            yield done.pop(i)
    finally:
        # Not in join: on Python 3.10-3.12 Ctrl-C there marks a live thread ended.
        with cond:
            stopped.append(None)
            while len(ended) < len(helpers):
                try:
                    cond.wait()
                except KeyboardInterrupt as exc:
                    interrupted = exc
        for helper in helpers:
            helper.join()
        if interrupted:
            raise interrupted


def _confirm(n: int, rounds: int, plan: _Plan) -> bool:
    """True when n passes strong Lucas and `rounds` hash-derived rounds.

    The checks, strong Lucas, the costliest, first, run through _in_order on
    plan.threads threads and plan's kernels, and the first failed check in
    order ends the others; only a base-2 strong pseudoprime gets that far.
    The verdict is the AND of the checks, so it does not depend on which
    thread ran which.  On a walk's helper, as on a reptends-level thread,
    each check raises _Stopped once that walk has stopped, never returning.
    """
    d, s = _odd_part(n - 1)
    walk = getattr(_helping, "stopped", ())  # the stop list of this thread's walk

    def check(a: int | None) -> bool:  # None: strong Lucas
        if walk:
            raise _Stopped
        return (_strong_lucas_probable_prime(n, plan.chain) if a is None
                else _strong_probable_prime(n, a, d, s, plan.powmod))

    with closing(_in_order(check, [None, *_derived_witnesses(n, rounds)],
                           plan.threads, "reptends-confirm")) as passed:
        return all(passed)


def classify(n: int, rounds: int = DEFAULT_ROUNDS) -> PrimalityVerdict:
    """Classify a non-negative integer as prime, composite or probable prime.

    Deterministic (witness_rounds 0) below 2**64, where a base-2
    strong-pseudoprime round and a strong Lucas check decide; from 2**64 up,
    `rounds` hash-derived rounds run as well, and a survivor is a
    probable_prime.  Identical inputs give identical verdicts in every run.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if n < TRIAL_DIVISION_BOUND:
        return _PRIME if n >= 0 and _IS_SMALL_PRIME[n] else _COMPOSITE
    # n exceeds every small prime, so any common factor proves it composite.
    for p in _TRIAL_PREFIX:
        if n % p == 0:
            return _COMPOSITE
    plan = _plan(n)
    if not plan.coprime(n):
        return _COMPOSITE
    if not _strong_probable_prime(n, 2, *_odd_part(n - 1), plan.powmod):
        return _COMPOSITE
    # Below 2**64 the base-2 round and strong Lucas decide on their own.
    verdict = _survivor(n, rounds)
    return verdict if _confirm(n, verdict.witness_rounds, plan) else _COMPOSITE
