"""Atomic file output, digests, the shared table format and key-value reports.

Every file the package writes goes through atomic_write_text so a crashed
run never leaves a truncated artifact. Tables keep their cells as the
exact strings that were (or will be) on disk, which makes the
write -> read -> write round trip byte-identical by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


def atomic_write_text(path, text):
    """Write text via a sibling temp file and rename into place."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rydghz-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def sha256_of_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_of_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def stable_json(obj):
    """Structured text with stable key ordering, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj):
    return atomic_write_text(path, stable_json(obj))


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def format_cell(value):
    """Disk form of one table cell: ints stay ints, floats use repr."""
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError("boolean table cells are ambiguous, use 0/1 ints")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass
class TableData:
    """One comma-separated table: # name line, # key: value lines, rows.

    Cells are stored as their on-disk strings; column(name) parses one
    column back to floats on demand.
    """

    name: str
    column_names: tuple
    rows: tuple
    metadata: tuple = field(default_factory=tuple)

    def __post_init__(self):
        width = len(self.column_names)
        for row in self.rows:
            if len(row) != width:
                raise ValidationError(
                    f"table row has {len(row)} cells, expected {width}"
                )

    @classmethod
    def from_columns(cls, name, columns, metadata=()):
        """Build from (column_name, array) pairs of equal length."""
        names = tuple(label for label, _ in columns)
        arrays = [np.asarray(values) for _, values in columns]
        if arrays and any(a.shape != arrays[0].shape or a.ndim != 1 for a in arrays):
            raise ValidationError("table columns must be equal-length 1D arrays")
        rows = tuple(
            tuple(format_cell(array[j]) for array in arrays)
            for j in range(arrays[0].size if arrays else 0)
        )
        return cls(name, names, rows, tuple(metadata))

    @classmethod
    def from_text(cls, text):
        name = None
        metadata = []
        column_names = None
        rows = []
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if name is None:
                    name = body
                elif body.startswith("columns:"):
                    column_names = tuple(
                        part.strip() for part in body[len("columns:"):].split(",")
                    )
                else:
                    key, sep, value = body.partition(":")
                    if not sep:
                        raise ValidationError(f"line {number}: header without colon: {raw!r}")
                    metadata.append((key.strip(), value.strip()))
                continue
            if column_names is None:
                raise ValidationError(f"line {number}: data before a # columns: header")
            cells = tuple(cell.strip() for cell in line.split(","))
            if len(cells) != len(column_names):
                raise ValidationError(
                    f"line {number}: {len(cells)} cells, expected {len(column_names)}"
                )
            rows.append(cells)
        if name is None or column_names is None:
            raise ValidationError("table text lacks a # name line or # columns: header")
        return cls(name, column_names, tuple(rows), tuple(metadata))

    def to_text(self):
        lines = [f"# {self.name}"]
        for key, value in self.metadata:
            lines.append(f"# {key}: {value}")
        lines.append("# columns: " + ",".join(self.column_names))
        for row in self.rows:
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def column(self, name):
        """One column parsed to floats."""
        if name not in self.column_names:
            raise ValidationError(f"no column named {name!r}")
        index = self.column_names.index(name)
        return np.array([float(row[index]) for row in self.rows])

    def metadata_value(self, key):
        for name, value in self.metadata:
            if name == key:
                return value
        raise ValidationError(f"no metadata entry named {key!r}")

    @property
    def n_rows(self):
        return len(self.rows)


def report_text(name, pairs):
    """A # name line, then one key: value line per pair (floats as repr)."""
    lines = [f"# {name}"]
    for key, value in pairs:
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def write_table(path, table):
    return atomic_write_text(path, table.to_text())


def read_table(path):
    with open(path, "r", encoding="utf-8") as handle:
        return TableData.from_text(handle.read())
