"""How run-directory files are written and read back.

Each write goes to ``<name>.tmp`` beside the target and is ``os.replace``d
into place, so a process that dies mid-write leaves the old file or the
new one whole, and no temp file.  No fsync: a crashed process is guarded
against, not a lost machine.  A JSON document's ``config_digest`` stamp
is compared here, by ``read_json``, and nowhere else.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

__all__ = ["write_text", "write_json", "write_array", "read_json", "read_array"]


def _write(path, fill) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            fill(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    _write(path, lambda f: f.write(text.encode("utf-8")))


def write_json(path, doc) -> None:
    write_text(path, json.dumps(doc, indent=2, sort_keys=True))


def write_array(path, array, dtype) -> None:
    """Flat C-order ``dtype`` values; a JSON header beside them keeps the shape."""
    _write(path, lambda f: np.asarray(array, dtype=dtype).tofile(f))


def read_json(path, config_digest=None):
    """The document at ``path``; with a ``config_digest``, ValueError unless it carries that stamp."""
    doc = json.loads(Path(path).read_text())
    if config_digest is not None and doc.get("config_digest") != config_digest:
        raise ValueError(
            f"{path}: written under config digest {doc.get('config_digest')}, "
            f"but the reading config's digest is {config_digest}"
        )
    return doc


def read_array(path, dtype, shape) -> np.ndarray:
    """``write_array``'s values as a writable array; ValueError unless they fill ``shape``."""
    size, need = os.path.getsize(path), math.prod(shape) * np.dtype(dtype).itemsize
    if size != need:
        raise ValueError(f"{path} holds {size} bytes, not the {need} of shape {tuple(shape)}")
    return np.fromfile(path, dtype=dtype).reshape(shape)
