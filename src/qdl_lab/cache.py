"""Append-only CSV cache of Monte Carlo estimates.

Schema: ``m,n,q,kind,value,stderr,samples,seed`` where ``q`` is the
dash-joined pattern label (e.g. ``2-1``) and ``kind`` is one of ``c``,
``two_gamma``, ``raw_c``.  A packaged cache ships with the library so the
bounds and rate commands work out of the box; user caches are merged on
top of it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Union

from .errors import CacheMissError, DomainError
from .fock import PhotonPattern
from .mc import GammaRecord

KINDS = ("c", "two_gamma", "raw_c")

HEADER = ["m", "n", "q", "kind", "value", "stderr", "samples", "seed"]


@dataclass(frozen=True)
class CacheRow:
    m: int
    n: int
    q: PhotonPattern
    kind: str
    value: float
    stderr: float
    samples: int
    seed: int

    def as_csv_row(self) -> list[str]:
        return [
            str(self.m),
            str(self.n),
            self.q.label(),
            self.kind,
            repr(float(self.value)),
            repr(float(self.stderr)),
            str(self.samples),
            str(self.seed),
        ]


def row_from_gamma(rec: GammaRecord) -> CacheRow:
    return CacheRow(
        m=rec.m,
        n=rec.n,
        q=rec.q,
        kind="two_gamma",
        value=rec.two_gamma_q,
        stderr=rec.stderr,
        samples=rec.samples,
        seed=rec.seed,
    )


def packaged_cache_path() -> Path:
    return Path(resources.files("qdl_lab").joinpath("data/gamma_cache.csv"))


def read_cache(path: Union[str, Path]) -> list[CacheRow]:
    path = Path(path)
    if not path.exists():
        return []
    rows: list[CacheRow] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        for rec in reader:
            if not rec or rec[0].startswith("#"):
                continue
            if rec[0] == "m":  # header line
                continue
            where = f"{path}:{reader.line_num}"
            if len(rec) != len(HEADER):
                raise DomainError(
                    f"{where}: expected {len(HEADER)} fields ({','.join(HEADER)}), got {len(rec)}"
                )
            m, n, label, kind, value, stderr, samples, seed = rec
            if kind not in KINDS:
                raise DomainError(f"{where}: unknown cache kind {kind!r}")
            try:
                rows.append(
                    CacheRow(
                        m=int(m),
                        n=int(n),
                        q=PhotonPattern.from_label(label),
                        kind=kind,
                        value=float(value),
                        stderr=float(stderr),
                        samples=int(samples),
                        seed=int(seed),
                    )
                )
            except ValueError as exc:  # DomainError from the pattern label included
                raise DomainError(f"{where}: {exc}") from None
    return rows


def append_rows(path: Union[str, Path], rows: Iterable[CacheRow]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    new_file = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(HEADER)
        for row in rows:
            writer.writerow(row.as_csv_row())


def load_merged(user_path: Optional[Union[str, Path]] = None) -> list[CacheRow]:
    """Packaged rows first, then user rows; later rows win ties on lookup."""
    rows = read_cache(packaged_cache_path())
    if user_path is not None:
        rows.extend(read_cache(user_path))
    return rows


def lookup(
    rows: Iterable[CacheRow], m: int, n: int, q: PhotonPattern, kind: str
) -> CacheRow:
    """Best matching row: most samples, then the latest appended."""
    best: Optional[CacheRow] = None
    best_pos = -1
    for pos, row in enumerate(rows):
        if (row.m, row.n, row.q.parts, row.kind) == (m, n, q.parts, kind):
            if best is None or (row.samples, pos) >= (best.samples, best_pos):
                best = row
                best_pos = pos
    if best is None:
        raise CacheMissError(
            f"no cache record for m={m} n={n} q={q.label()} kind={kind}"
        )
    return best


def lookup_two_gamma_bunched(rows: Iterable[CacheRow], m: int, n: int) -> CacheRow:
    return lookup(rows, m, n, PhotonPattern((n,)), "two_gamma")
