"""The CSV tables as the ``csv`` module writes and reads them: the oracle
for ``metrics``' own codec.

``write_table`` writes the schema line ending in "\\n", then the header
row and one row per record through ``csv.writer``, which ends each in
"\\r\\n" and quotes a cell holding a comma, a double quote or a line
break. A cell in a ``loose`` column is written by ``fmt_float``, or as
"-" for None. ``read_table`` returns the rows after the header as lists
of strings, as ``csv.reader`` parses them.
"""
from __future__ import annotations

import csv

from heterospec.metrics import fmt_float


def write_table(path, schema: str, header: tuple[str, ...], rows,
                loose: tuple[int, ...] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(schema + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            row = list(row)
            for i in loose:
                row[i] = "-" if row[i] is None else fmt_float(row[i])
            writer.writerow(row)


def read_table(path, schema: str, header: tuple[str, ...]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.readline().rstrip("\n") == schema
        reader = csv.reader(fh)
        assert next(reader) == list(header)
        return list(reader)
