"""Append-only CSV cache of user Monte Carlo estimates.

Schema: ``m,n,q,kind,value,stderr,samples,seed`` where ``q`` is the
dash-joined pattern label (e.g. ``2-1``) and ``kind`` is one of ``c``,
``two_gamma``, ``raw_c``.  ``estimate`` appends to it, and ``keysize
--gamma-source cache`` reads its ``two_gamma`` rows for the patterns
other than the bunched one, whose value is exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from .errors import DomainError
from .fock import PhotonPattern

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
