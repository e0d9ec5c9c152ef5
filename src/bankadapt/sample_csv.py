"""samples.csv, the selection `sample` writes and `train --samples` reads,
and deficits.csv beside it.

The reader and writer live apart from the scorer, so a command that only
reads a selection never loads it.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .sampler import SampleResult


def save_sample_csv(result: SampleResult, path) -> None:
    """samples.csv at path and, beside it, deficits.csv, in the bytes
    csv.writer writes: CRLF line ends and repr of each score."""
    samples = zip(result.selected_ids.tolist(), result.assigned_column.tolist(),
                  result.score.tolist())
    for at, header, lines in (
            (path, "record_id,assigned_column,score",
             [f"{rid},{col},{sc!r}\r\n" for rid, col, sc in samples]),
            (Path(path).with_name("deficits.csv"), "column,deficit",
             [f"{j},{d}\r\n" for j, d in enumerate(result.deficits.tolist())])):
        with open(at, "w", newline="", encoding="utf-8") as fh:
            fh.write(header + "\r\n")
            fh.write("".join(lines))


def load_sample_csv(path) -> np.ndarray:
    """The record ids of a samples.csv, int64 in file order.  Every data row
    must be a non-negative integer id, a non-negative integer column and a
    float score; any other row is refused with its line number.  A sampler
    never selects a record twice, so an id that repeats is refused with both
    line numbers."""
    ids, line_of = [], {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["record_id", "assigned_column", "score"]:
            raise ValueError(f"unexpected sample csv header {header}")
        for row in reader:
            try:
                if len(row) != 3 or not (row[0].isdecimal()
                                         and row[1].isdecimal()):
                    raise ValueError
                float(row[2])
                ids.append(np.int64(row[0]))
            except (ValueError, OverflowError):
                raise ValueError(
                    f"{path} line {reader.line_num}: expected a non-negative "
                    "integer record_id and assigned_column and a float score, "
                    f"got {','.join(row)!r}") from None
            first = line_of.setdefault(ids[-1], reader.line_num)
            if first != reader.line_num:
                raise ValueError(f"{path} lines {first} and {reader.line_num}: "
                                 f"record_id {ids[-1]} is selected twice")
    return np.asarray(ids, dtype=np.int64)
