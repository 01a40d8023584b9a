"""In-process memo and optional on-disk cache for exact expansions.

The memo is the package's one table of exact polynomials.  A tuple key,
such as ("macdonald", (n, q, t), lambda), maps to the polynomial and its
normalizer, the value at the family's base point: (1,...,1) for Jack,
t^delta for Macdonald, z(mu) for the interpolation polynomials S_mu.
_memoized() returns both in one lookup and evaluates the normalizer the
first time a caller asks for it.  A Jack or Macdonald entry also keeps the
cleared form of polynomial / normalizer (sympoly._cleared_form), built by
_memoized_form() the first time a point evaluation asks for it, so that
each later value is one lookup and one integer sum.  The same memo holds
the operator-row tables of the eigen-solves: under ("jack rows", n, weight,
theta) or ("macdonald rows", (n, q, t), weight) a dict nu -> row, filled as
solves of that weight build rows, so each row is built once per parameter
set.  Every table counts as one entry.  The memo holds at most MEMO_SIZE
entries and is emptied when full.  The disk layer, fetch(), is reached only
on a memo miss.

Disk format: a header line "omegalab-cache v1", then one record per line,
"key<TAB>serialized polynomial", append-only.  Keys are canonical strings
such as "macdonald|n=2|lam=2,0|q=1/2|t=1/3".  Records that fail to parse
are skipped with a warning and never trusted.  A record that parses but
cannot be the monic expansion its key names (another n, an m_lambda
coefficient other than 1, a term outside lambda's dominance ideal) is
recomputed with a warning, as if it were missing.  Reads are concurrent;
insertion happens under a single lock, and each record is appended with a
single write, so processes sharing a file cannot interleave records.
"""

from __future__ import annotations

import os
import threading
import warnings

from .errors import CacheFormatError
from .partitions import majorizes
from .sympoly import (SymmetricPolynomial, _cleared_form, _decimal_text,
                      parse_poly, serialize_poly)

HEADER = "omegalab-cache v1"

# bound on the in-process memo; the memo is emptied when it reaches this
# many entries
MEMO_SIZE = 1 << 12
_MEMO: dict[tuple, list] = {}

_active: "ExpansionCache | None" = None


def _entry(key: tuple, compute, base) -> list:
    """The memo entry [polynomial, normalizer, cleared form] for key."""
    entry = _MEMO.get(key)
    if entry is None:
        poly = compute()
        if len(_MEMO) >= MEMO_SIZE:
            _MEMO.clear()
        entry = _MEMO[key] = [poly, None, None]
    if base is not None and entry[1] is None:
        entry[1] = entry[0].eval(base())
    return entry


def _memoized(key: tuple, compute, base=None):
    """(polynomial, normalizer) for key, in one lookup of the memo.

    On a miss compute() gives the polynomial (for a row table, dict gives
    an empty table, and the normalizer stays None).  base, when given, returns
    the normalization point: the first lookup that passes it evaluates the
    polynomial there and keeps the value in the entry.  Until then the
    normalizer reads None.
    """
    entry = _entry(key, compute, base)
    return entry[0], entry[1]


def _memoized_form(key: tuple, compute, base, check) -> tuple:
    """The cleared form of polynomial / normalizer for key
    (sympoly._cleared_form), in one lookup of the memo once it is built.

    The first request evaluates the normalizer if the entry has none yet,
    passes it to check, which raises for a normalizer the family refuses,
    and keeps the form in the entry beside it; a refused normalizer keeps
    no form, so every later request is refused the same way.
    """
    entry = _MEMO.get(key)
    if entry is None or entry[2] is None:
        entry = _entry(key, compute, base)
        check(entry[1])
        entry[2] = _cleared_form(entry[0].terms, entry[1])
    return entry[2]


def _check_line(text: str, what: str):
    # a tab splits a record, and every line break splitlines() knows ends it
    if "\t" in text or len((text + ".").splitlines()) != 1:
        raise CacheFormatError(f"{what} {text[:40]!r} would corrupt the "
                               f"cache format (a tab or a line break)")


def cache_key(family: str, n: int, lam, **params) -> str:
    """Canonical one-line record key; parameter order is alphabetical."""
    if "|" in family:
        raise CacheFormatError(f"cache family {family[:40]!r} contains '|'")
    _check_line(family, "cache family")
    fields = [family, f"n={n}", "lam=" + ",".join(str(p) for p in lam)]
    for name in sorted(params):
        fields.append(f"{name}={_decimal_text(params[name])}")
    return "|".join(fields)


class ExpansionCache:
    """Append-only text cache mapping keys to serialized expansions."""

    def __init__(self, path: str):
        self.path = str(path)
        self._lock = threading.Lock()
        self._records: dict[str, SymmetricPolynomial] = {}
        if os.path.exists(self.path):
            self._load()
        else:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(HEADER + "\n")

    def _load(self):
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != HEADER:
            raise CacheFormatError(
                f"{self.path} is not an expansion cache "
                f"(expected header {HEADER!r})")
        for index, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                key, body = line.split("\t", 1)
                poly = parse_poly(body.replace(" ; ", "\n"))
            except Exception:
                warnings.warn(f"{self.path}:{index}: skipping corrupt "
                              f"cache record")
                continue
            self._records[key] = poly

    def __len__(self):
        return len(self._records)

    def get(self, key: str) -> "SymmetricPolynomial | None":
        return self._records.get(key)

    def _discard(self, key: str):
        """Forget the record under key, so that put() can replace it."""
        with self._lock:
            self._records.pop(key, None)

    def put(self, key: str, poly: SymmetricPolynomial):
        _check_line(key, "cache key")
        body = serialize_poly(poly).strip().replace("\n", " ; ")
        line = f"{key}\t{body}\n".encode("utf-8")
        with self._lock:
            if key in self._records:
                return
            self._records[key] = poly
            # one write on an O_APPEND descriptor: the record lands whole at
            # the end of the file, so concurrent writers cannot interleave
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                written = os.write(fd, line)
            finally:
                os.close(fd)
            if written != len(line):
                raise OSError(f"{self.path}: short write of a cache record "
                              f"({written} of {len(line)} bytes)")


def activate(cache: "ExpansionCache | None"):
    """Install cache as the process-wide expansion cache (None clears)."""
    global _active
    _active = cache


def active_cache() -> "ExpansionCache | None":
    return _active


def _misfit(poly: SymmetricPolynomial, n: int, lam) -> "str | None":
    """Why poly cannot be the monic expansion of lam on n variables."""
    if poly.n != n:
        return f"has {poly.n} variables, not {n}"
    if poly.terms.get(lam) != 1:
        return "has an m_lambda coefficient other than 1"
    if not all(majorizes(lam, mu) for mu in poly.terms):
        return "has a term outside the dominance ideal of lambda"
    return None


def fetch(family: str, n: int, lam, compute, **params) -> SymmetricPolynomial:
    """Look up an expansion in the active cache, computing on a miss.

    A record that does not fit its key is recomputed as if it were
    missing; the fresh record is appended and wins on the next load.
    """
    cache = _active
    if cache is None:
        return compute()
    lam = tuple(lam)
    key = cache_key(family, n, lam, **params)
    hit = cache.get(key)
    if hit is not None:
        problem = _misfit(hit, n, lam)
        if problem is None:
            return hit
        warnings.warn(f"{cache.path}: the record for {key[:80]!r} "
                      f"{problem}; recomputing it")
        cache._discard(key)
    poly = compute()
    cache.put(key, poly)
    return poly
