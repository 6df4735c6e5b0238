"""Output digests that reference outputs are compared against.

Library results are hashed from the bytes of their integers, never from
``str()``, so the in-process workloads do not depend on the interpreter's
int-to-str digit limit. CLI responses are hashed from stdout, with the
one documented non-deterministic field (``bench``'s ``wall_time_s``
column) masked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from fractions import Fraction

MASK = "*"


def _feed(h, obj) -> None:
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, int):
        raw = obj.to_bytes(obj.bit_length() // 8 + 1, "little", signed=True)
        h.update(b"i" + len(raw).to_bytes(8, "little") + raw)
    elif isinstance(obj, Fraction):
        h.update(b"q")
        _feed(h, obj.numerator)
        _feed(h, obj.denominator)
    elif isinstance(obj, float):
        h.update(b"f" + struct.pack("<d", obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"s" + len(raw).to_bytes(8, "little") + raw)
    elif isinstance(obj, (list, tuple)):
        h.update(b"(" + len(obj).to_bytes(8, "little"))
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, range):
        h.update(b"r")
        _feed(h, (obj.start, obj.stop, obj.step))
    elif isinstance(obj, dict):
        # key order is an implementation detail; sort by each key's own digest
        items = sorted((value_digest(k), k, v) for k, v in obj.items())
        h.update(b"{" + len(items).to_bytes(8, "little"))
        for kd, _, v in items:
            h.update(kd.encode("ascii"))
            _feed(h, v)
        h.update(b"}")
    elif dataclasses.is_dataclass(obj):
        h.update(b"D")
        _feed(h, type(obj).__name__)
        _feed(h, tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)))
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def value_digest(obj) -> str:
    """Digest of a library result: ints by their bytes, floats by their
    IEEE-754 bytes, containers and dataclasses structurally."""
    h = hashlib.blake2b(digest_size=8)
    _feed(h, obj)
    return h.hexdigest()


def _mask_bench(argv: list[str], out: bytes) -> bytes:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    text = out.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        for row in doc["rows"]:
            row["wall_time_s"] = MASK
        return json.dumps(doc, sort_keys=True).encode("utf-8")
    sep = "," if fmt == "csv" else None
    lines = text.splitlines()
    col = lines[0].split(sep).index("wall_time_s")
    masked = [lines[0].split(sep)]
    for line in lines[1:]:
        cells = line.split(sep)
        cells[col] = MASK
        masked.append(cells)
    # text columns are padded to the widest cell, so widths go with the mask
    return "\n".join(" ".join(c) for c in masked).encode("utf-8")


def cli_digest(argv: list[str], code: int, out: bytes) -> str:
    """Digest of one CLI response: its exit code and its stdout."""
    if argv[0] == "bench" and code == 0:
        out = _mask_bench(argv, out)
    h = hashlib.blake2b(digest_size=8)
    h.update(code.to_bytes(4, "little", signed=True))
    h.update(out)
    return h.hexdigest()
