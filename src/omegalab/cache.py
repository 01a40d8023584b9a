"""Optional on-disk cache for exact expansions.

Format: a header line "omegalab-cache v1", then one record per line,
"key<TAB>serialized polynomial", append-only.  Keys are canonical strings
such as "macdonald|n=2|lam=2,0|q=1/2|t=1/3".  Records that fail to parse
are skipped with a warning and never trusted.  Reads are concurrent;
insertion happens under a single lock, and each record is appended with a
single write, so processes sharing a file cannot interleave records.
"""

from __future__ import annotations

import os
import threading
import warnings
from fractions import Fraction

from .errors import CacheFormatError
from .sympoly import SymmetricPolynomial, parse_poly, serialize_poly

HEADER = "omegalab-cache v1"

_active: "ExpansionCache | None" = None


def cache_key(family: str, n: int, lam, **params) -> str:
    """Canonical one-line record key; parameter order is alphabetical."""
    assert "|" not in family and "\t" not in family
    fields = [family, f"n={n}", "lam=" + ",".join(str(p) for p in lam)]
    for name in sorted(params):
        fields.append(f"{name}={params[name]}")
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

    def put(self, key: str, poly: SymmetricPolynomial):
        assert "\t" not in key and "\n" not in key
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


def fetch(family: str, n: int, lam, compute, **params) -> SymmetricPolynomial:
    """Look up an expansion in the active cache, computing on a miss."""
    cache = _active
    if cache is None:
        return compute()
    key = cache_key(family, n, lam, **params)
    hit = cache.get(key)
    if hit is not None:
        return hit
    poly = compute()
    cache.put(key, poly)
    return poly
