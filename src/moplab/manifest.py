"""Run manifests and deterministic tabular output.

Every artifact directory gets a manifest recording the fully resolved
config, seeds, input/output hashes, wall times and environment (Python,
numpy and BLAS versions, BLAS thread settings and the thread count OpenBLAS
runs at, a hash of the moplab sources): enough to reproduce the outputs
byte for byte (times aside) by re-running the same subcommand on the same
environment.
Files are written atomically (a temp file, then `os.replace`), so an
interrupted run never leaves a half-written manifest, log or checkpoint.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np

from . import __version__

__all__ = [
    "sha256_file", "sha256_json", "atomic_open", "write_json",
    "openblas_threads", "environment", "write_manifest", "write_csv", "read_csv",
]

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# numpy's wheels ship OpenBLAS with a prefixed 64-bit-integer symbol
OPENBLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Write through a temp file in the same directory that replaces `path`
    only once the block completes: a write that fails midway leaves the
    previous file intact and no temp file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=False) + "\n")


def openblas_threads() -> int | None:
    """The thread count the loaded OpenBLAS runs at, asked of the first
    OpenBLAS library mapped into the process; None when none is loaded or
    it exports no thread-count getter (or off Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = dict.fromkeys(line.split()[-1] for line in fh
                                  if "openblas" in line.lower())
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:              # not a loadable library, e.g. deleted
            continue
        for symbol in OPENBLAS_THREAD_GETTERS:
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


@functools.cache
def _source_sha256() -> str:
    """The sha256 of the moplab sources (each file's name, a NUL and its
    bytes, in name order), read once per process: every manifest of one
    run records the same sources, even if a file is edited mid-run."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    """What a run's numbers depend on besides its config and seeds: the
    Python, numpy and BLAS builds, the BLAS thread settings (None where
    unset) and the thread count OpenBLAS really runs at (see
    `openblas_threads`), both read on each call, and the sha256 of the
    moplab sources (see `_source_sha256`)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": openblas_threads(),
        "source_sha256": _source_sha256(),
    }


def write_manifest(out_dir, command, config, base_seed, *, dataset_hash=None,
                   checkpoint_hashes=None, wallclock_s=None, outputs=None,
                   phases_s=None) -> None:
    manifest = {
        "tool": "moplab",
        "version": __version__,
        "command": command,
        "config": config,
        "base_seed": base_seed,
        "dataset_hash": dataset_hash,
        "checkpoint_hashes": checkpoint_hashes or {},
        "wallclock_s": wallclock_s,
        "phases_s": phases_s,          # wall seconds per phase, where timed
        "outputs": outputs or [],
        "environment": environment(),
    }
    write_json(Path(out_dir) / "manifest.json", manifest)


def write_csv(path, rows, fieldnames) -> None:
    """Deterministic CSV: fixed column order, newline terminators, floats via
    repr (shortest round-trip form)."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames])


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value


def read_csv(path) -> list[dict]:
    """Read a CSV, reporting the offending line number on malformed input."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: line 1: empty file") from None
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(header)} fields, "
                    f"got {len(rec)}")
            rows.append(dict(zip(header, rec)))
    return rows
