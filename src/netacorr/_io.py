"""netacorr's file formats: the one CSV reader, CSV writer and JSON document.

Every CSV is read and written in the csv module's default dialect (comma,
CRLF line ends, quoting). Files are written as UTF-8 and read as UTF-8 with
an optional byte-order mark. A failed read or write, or a file that is not
UTF-8 text, raises InputError naming the file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys

import numpy as np

from ._version import SCHEMA_VERSION, __version__
from .errors import InputError


def expect_header(*names):
    """A read_csv header rule: exactly these names, in any letter case."""
    def check(header):
        if [h.lower() for h in header] != list(names):
            return f"expected header {','.join(names)!r}, got {','.join(header)!r}"
    return check


def read_csv(source, check_header):
    """Yield a CSV's (name, stripped header), then its (row number, row) pairs.

    source is a path, read as UTF-8 with an optional byte-order mark, or an
    open text stream, named by its path or its name attribute. Rows are
    numbered from 1 after the header; blank rows are skipped.
    check_header(header) returns an error message, or None. An unreadable,
    undecodable or empty source, a bad header and a header without rows
    each raise InputError led by the name.
    """
    if isinstance(source, (str, os.PathLike)):
        name = os.fspath(source)
        try:
            opened = open(source, "r", encoding="utf-8-sig", newline="")
        except OSError as exc:
            raise InputError(f"cannot open {name!r}: {exc}") from exc
    elif hasattr(source, "read"):
        name, opened = str(getattr(source, "name", "<stream>")), contextlib.nullcontext(source)
    else:
        raise InputError(f"unsupported CSV source {type(source).__name__}")
    with opened as fh:
        reader = _decoded(csv.reader(fh), name)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{name}: empty file")
        header = [h.strip() for h in header]
        problem = check_header(header)
        if problem:
            raise InputError(f"{name}: {problem}")
        yield name, header
        nrows = 0
        for rownum, row in enumerate(reader, start=1):
            if row:
                nrows += 1
                yield rownum, row
    if nrows == 0:
        raise InputError(f"{name}: no data rows")


def _decoded(rows, name):
    """rows, with a decoding error turned into an InputError naming the source."""
    try:
        yield from rows
    except UnicodeDecodeError as exc:
        raise InputError(f"{name}: not {exc.encoding} text: {exc.reason} "
                         f"(byte 0x{exc.object[exc.start]:02x})") from exc


def csv_text(header, rows):
    """The CSV text of a header and rows; None is written as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def records_csv_text(records):
    """The CSV text of dicts that share their keys; empty for no dicts."""
    if not records:
        return ""
    header = list(records[0])
    return csv_text(header, ([rec[k] for k in header] for rec in records))


def flat_csv_text(doc):
    """A document as one row of dotted keys and one row of values.

    A list is one column per item; an item that is a list or dict is one
    JSON cell.
    """
    flat = {}

    def walk(prefix, val):
        if isinstance(val, dict):
            for key, item in val.items():
                walk(f"{prefix}{key}.", item)
        elif isinstance(val, (list, tuple)):
            for idx, item in enumerate(val):
                nested = isinstance(item, (dict, list, tuple))
                flat[f"{prefix}{idx}"] = json.dumps(item) if nested else item
        else:
            flat[prefix[:-1]] = val

    walk("", doc)
    return csv_text(flat, [flat.values()])


def document(**fields):
    """A JSON document: the netacorr envelope, then the fields in order."""
    return {"schema_version": SCHEMA_VERSION, "tool": "netacorr", "version": __version__,
            **fields}


def json_text(doc):
    """doc as strict JSON: a NaN or an infinity raises ValueError, never a bare
    NaN or Infinity in the text. A numpy scalar, as a caller's input echoed
    in a report, is written as the Python number it holds."""
    return json.dumps(doc, indent=2, allow_nan=False, default=_python_scalar) + "\n"


def _python_scalar(value):
    """The Python number a numpy scalar holds; any other object is not JSON."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@contextlib.contextmanager
def writing(path):
    """Turn an OSError inside the block into an InputError that names path."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc}") from exc


def write_text(path, text):
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with writing(path), open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
