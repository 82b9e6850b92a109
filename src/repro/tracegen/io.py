"""Trace persistence: save/load reference traces with their directives.

The paper's methodology separates trace *generation* from trace
*consumption* ("Traces of array references were generated for 9
numerical programs … A virtual memory simulator is used to simulate
program behavior").  Persisting traces supports the same separation
here: generate once, replay many times (or on another machine), and
keep the directive events with the pages.

A trace is one ``.npz`` file holding the page array, a JSON header
(program name, page space, array layout, truncation flag) and the
directive columns of :class:`~repro.tracegen.events.DirectiveTable` as
``dir_<column>`` integer arrays.  Sweep arrays persist beside it in a
version-stamped companion ``.npz`` (:func:`save_sweeps`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.tracegen.events import DirectiveTable, ReferenceTrace

#: bumped on any incompatible change to the on-disk layout
#: (v2: companion sweep-array archives, version-stamped like traces;
#: v3: directives stored as integer columns instead of JSON events)
FORMAT_VERSION = 3

#: archive key prefix of the directive columns
DIRECTIVE_KEY_PREFIX = "dir_"


def directive_arrays(table: DirectiveTable) -> Dict[str, np.ndarray]:
    """A directive table as ``.npz`` members (``dir_<column>``)."""
    return {
        DIRECTIVE_KEY_PREFIX + name: column
        for name, column in table.columns().items()
    }


def directive_table_from_archive(archive, n_references: int) -> DirectiveTable:
    """Decode the ``dir_<column>`` members of an open ``.npz``
    (ValueError on any missing or malformed column)."""
    return DirectiveTable.from_columns(
        {
            name: archive[DIRECTIVE_KEY_PREFIX + name]
            for name in DirectiveTable.COLUMNS
            if DIRECTIVE_KEY_PREFIX + name in archive.files
        },
        n_references,
    )


def save_trace(
    trace: ReferenceTrace, path: Union[str, Path], compress: bool = True
) -> Path:
    """Write ``trace`` to ``path`` (``.npz`` appended when missing).

    ``compress=False`` trades disk for wall time — right for cache
    files that are rewritten often, wrong for archival traces.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    header = {
        "format_version": FORMAT_VERSION,
        "program_name": trace.program_name,
        "total_pages": trace.total_pages,
        "truncated": trace.truncated,
        "array_pages": {
            name: [first, count]
            for name, (first, count) in trace.array_pages.items()
        },
    }
    writer = np.savez_compressed if compress else np.savez
    writer(
        path,
        pages=trace.pages,
        header=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
        **directive_arrays(trace.directive_table),
    )
    return path


def load_trace(path: Union[str, Path]) -> ReferenceTrace:
    """Read a trace previously written by :func:`save_trace`.

    Raises :exc:`ValueError` for a foreign or other-version archive and
    for malformed directive columns."""
    path = Path(path)
    with np.load(path) as archive:
        try:
            pages = archive["pages"]
            header_bytes = archive["header"].tobytes()
        except KeyError as err:
            raise ValueError(f"{path} is not a saved trace: missing {err}") from None
        header = json.loads(header_bytes.decode("utf-8"))
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path} uses trace format {version}; this build reads "
                f"{FORMAT_VERSION}"
            )
        table = directive_table_from_archive(archive, len(pages))
    return ReferenceTrace(
        program_name=header["program_name"],
        pages=pages.astype(np.int32),
        total_pages=int(header["total_pages"]),
        directives=table,
        array_pages={
            name: (int(first), int(count))
            for name, (first, count) in header["array_pages"].items()
        },
        truncated=bool(header["truncated"]),
    )


def save_sweeps(
    arrays: Dict[str, np.ndarray], path: Union[str, Path]
) -> Path:
    """Write precomputed sweep arrays (LRU distances, WS gaps, …) to a
    version-stamped ``.npz`` companion of a saved trace."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    stamped = dict(arrays)
    stamped["format_version"] = np.array(FORMAT_VERSION, dtype=np.int64)
    # Uncompressed: these are cache files, and deflate costs more wall
    # time per table run than the disk it saves.
    np.savez(path, **stamped)
    return path


def load_sweeps(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Read sweep arrays written by :func:`save_sweeps`."""
    path = Path(path)
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    version = int(arrays.pop("format_version", -1))
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path} uses sweep format {version}; this build reads "
            f"{FORMAT_VERSION}"
        )
    return arrays
