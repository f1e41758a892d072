"""Append-only CSV cache of user Monte Carlo estimates.

Schema: ``m,n,q,kind,value,stderr,samples,seed`` where ``q`` is the
dash-joined pattern label (e.g. ``2-1``) and ``kind`` is one of ``c``,
``two_gamma``, ``raw_c``.  ``estimate`` appends to it; nothing in the
package reads it back, since ``exact`` gives every 2*gamma_q exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from .fock import PhotonPattern

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
